"""Output checks against the reference recorded by ``capture_reference.py``.

An operation's output is compared with the reference when the reference
holds its key and either the run uses the reference seed or the operation
does not depend on the seed.  Numbers agree within
``atol + rtol * |reference|``; strings (CSV bodies) agree cell by cell,
numeric cells within the same tolerance.
"""

import json
import math
from pathlib import Path

REFERENCE = Path(__file__).resolve().parent / "reference.json"
RTOL = 1e-8
ATOL = 1e-12


def load_reference(path=None):
    with open(path or REFERENCE, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _close(x, y, rtol, atol):
    if math.isnan(y):
        return math.isnan(x)
    if math.isinf(y):
        return x == y
    return abs(x - y) <= atol + rtol * abs(y)


def _cell(x, y, rtol, atol):
    if x == y:
        return True
    try:
        return _close(float(x), float(y), rtol, atol)
    except ValueError:
        return False


def _text_agrees(out, ref, rtol, atol):
    out_rows, ref_rows = out.splitlines(), ref.splitlines()
    if len(out_rows) != len(ref_rows):
        return False
    for o, r in zip(out_rows, ref_rows):
        oc, rc = o.split(","), r.split(",")
        if len(oc) != len(rc) or not all(_cell(x, y, rtol, atol) for x, y in zip(oc, rc)):
            return False
    return True


def agrees(out, ref, rtol=RTOL, atol=ATOL) -> bool:
    """True when ``out`` matches ``ref`` structurally and within tolerance."""
    if isinstance(ref, dict):
        return (isinstance(out, dict) and out.keys() == ref.keys()
                and all(agrees(out[k], ref[k], rtol, atol) for k in ref))
    if isinstance(ref, list):
        return (isinstance(out, list) and len(out) == len(ref)
                and all(agrees(o, r, rtol, atol) for o, r in zip(out, ref)))
    if isinstance(ref, bool) or ref is None or isinstance(out, bool):
        return type(out) is type(ref) and out == ref
    if isinstance(ref, (int, float)):
        return isinstance(out, (int, float)) and _close(float(out), float(ref), rtol, atol)
    if isinstance(ref, str):
        return isinstance(out, str) and (out == ref or _text_agrees(out, ref, rtol, atol))
    return out == ref


def failures(ops, reference, seed):
    """{op key: reason} for every operation that fails a check."""
    rtol, atol = reference["rtol"], reference["atol"]
    failed = {}
    for op in ops:
        if op.problems:
            failed[op.key] = "; ".join(op.problems)
            continue
        entry = reference["ops"].get(op.key)
        applies = entry is not None and (seed == reference["seed"] or entry["seed_independent"])
        if applies and not agrees(op.output, entry["output"], rtol, atol):
            failed[op.key] = "output differs from the reference"
    return failed


def mismatches(ops, baseline_ops):
    """Keys whose output differs between two passes over the same inputs."""
    base = {op.key: op.output for op in baseline_ops}
    return [op.key for op in ops if op.key not in base or not agrees(op.output, base[op.key])]


def csv_identity(ops, reference, seed):
    """(byte-identical, compared) counts of demo CSV bodies against the reference."""
    same = compared = 0
    for op in ops:
        entry = reference["ops"].get(op.key)
        if entry is None or "csv" not in op.output:
            continue
        if seed != reference["seed"] and not entry["seed_independent"]:
            continue
        for rel, body in entry["output"]["csv"].items():
            compared += 1
            same += op.output["csv"].get(rel) == body
    return same, compared
