"""Check a frame-bound report.json from the CLI: every entry at the given
sizes took the band solver, lies inside its certified brackets and took at
most the given number of sweeps.

    python tests/data/check_band_report.py <report.json> <max sweeps> <size> ...
"""

import json
import sys

path, guard, *sizes = sys.argv[1:]
entries = json.load(open(path, encoding="utf-8"))["summary"]["report"]["entries"]
assert [e["size"] for e in entries] == [int(m) for m in sizes], entries
for e in entries:
    assert e["solver"] == "band", e
    assert e["sigma_min_bracket"][0] <= e["sigma_min"] <= e["sigma_min_bracket"][1], e
    assert e["sigma_max_bracket"][0] <= e["sigma_max"] <= e["sigma_max_bracket"][1], e
    assert 0 < e["sweeps"] <= int(guard), e
    print(f"M = {e['size']}: {e['sweeps']} sweeps (guard {guard}), start {e['start']}, "
          f"stop {e['stop']}, half-bandwidth {e['half_bandwidth']}, sigma_min {e['sigma_min']:.12g}")
