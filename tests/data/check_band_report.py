"""Check a frame-bound report.json from the CLI: every leg's entries are at
the given sizes, took the band solver, lie inside their certified brackets
and took at most the given number of sweeps.  A leg of a periodic sequence
trimmed on its rows keeps every row's whole band, and so does one trimmed
on its columns to a fraction of the span below 1, which leaves
(1 - fraction) M rows beyond every kept column; both brackets of such a
leg must start from the symbol and cyclic reduction must decide its
shifts.  A grid whose slope is not 1 is not periodic, so the twisted sweep
must decide its shifts.

    python tests/data/check_band_report.py <report.json> <max sweeps> <size> ...
"""

import json
import sys

path, guard, *sizes = sys.argv[1:]
report = json.load(open(path, encoding="utf-8"))
config, checks = report["config"], report["summary"]["checks"]
assert checks, path
# critical-half defaults to the shift 1/2; kadets-sweep's legs are all shifts
sequence = config["sequence"] or {"kind": "periodic"}
for check in checks:
    labels = {k: check[k] for k in ("delta", "alpha", "orientation") if k in check}
    # density-demo labels each leg with its slope, and has no sequence
    slope = check.get("alpha", sequence.get("alpha", 1.0))
    periodic = slope == 1.0 and (config["scenario"] == "kadets-sweep"
                                 or sequence["kind"] == "periodic")
    where = f"{labels} " if labels else ""
    entries = check["report"]["entries"]
    assert [e["size"] for e in entries] == [int(m) for m in sizes], entries
    trim = check["report"]
    whole_band = trim["orientation"] == "interior_rows" or trim["interior_fraction"] < 1.0
    for e in entries:
        assert e["solver"] == "band", e
        assert e["sigma_min_bracket"][0] <= e["sigma_min"] <= e["sigma_min_bracket"][1], e
        assert e["sigma_max_bracket"][0] <= e["sigma_max"] <= e["sigma_max_bracket"][1], e
        assert 0 < e["sweeps"] <= int(guard), e
        if periodic and whole_band:
            assert e["start"] == ["symbol", "symbol"], e
            assert e["decided_by"] == "reduction" and e["levels"] > 0, e
        if slope != 1.0:
            assert e["decided_by"] == "twisted" and e["levels"] is None, e
        print(f"{where}M = {e['size']}: {e['sweeps']} sweeps (guard {guard}), "
              f"start {e['start']}, stop {e['stop']}, half-bandwidth {e['half_bandwidth']}, "
              f"{e['decided_by']} ({e['levels']} levels), sigma_min {e['sigma_min']:.12g}")
