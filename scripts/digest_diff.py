#!/usr/bin/env python3
"""Compare two output trees written by ``scripts/output_digest.py``.

    python3 scripts/digest_diff.py PARENT_DIR CHANGE_DIR

Both trees must hold the same files. Every field but the floats named in
``FLOAT_FIELDS`` must match exactly: labels, ``iters``, ``converged``,
``stop_reason``, ``R_BL``, ``R_WL`` and the rest. For each float field it
prints the largest relative difference over the files of each kind (the
path with the seed directory left out), e.g. ``fit-large/fit.json
final_step``. Exits 0 when the trees agree to ``RTOL``, 1 otherwise, and 2
on bad arguments.
"""

import argparse
import csv
import json
import math
import os
import sys

# the fields that carry float results of a fit; labels, counts, flags and
# the rates of misclustered layers and nodes are not among them
FLOAT_FIELDS = ("objective", "final_step")
RTOL = 1e-9


def _files(root: str) -> set:
    return {os.path.relpath(os.path.join(d, f), root)
            for d, _, names in os.walk(root) for f in names}


def _records(path: str) -> list:
    """The file as a list of (field, value) pairs, the values of CSV files as text."""
    if path.endswith(".json"):
        with open(path, encoding="utf-8") as fh:
            return list(json.load(fh).items())
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    header = rows[0]
    return [("header", header)] + [
        (field, value) for row in rows[1:] for field, value in zip(header, row, strict=True)
    ]


def _rel_diff(a: float, b: float) -> float:
    if math.isnan(a) and math.isnan(b):
        return 0.0
    if a == b:
        return 0.0
    return abs(a - b) / max(abs(a), abs(b))


def compare(parent: str, change: str, out=sys.stdout) -> bool:
    """Print every mismatch and each float field's largest relative difference."""
    ok = True
    names = _files(parent)
    for name in sorted(names ^ _files(change)):
        print(f"only in {'parent' if name in names else 'change'}: {name}", file=out)
        ok = False
    worst = {}
    for name in sorted(names & _files(change)):
        left = _records(os.path.join(parent, name))
        right = _records(os.path.join(change, name))
        if [f for f, _ in left] != [f for f, _ in right]:
            print(f"{name}: fields differ", file=out)
            ok = False
            continue
        kind = name.split(os.sep, 1)[-1]
        for (field, a), (_, b) in zip(left, right):
            if field in FLOAT_FIELDS:
                key = f"{kind} {field}"
                worst[key] = max(worst.get(key, 0.0), _rel_diff(float(a), float(b)))
            elif a != b:
                print(f"{name}: {field} differs: {a!r} != {b!r}", file=out)
                ok = False
    for key in sorted(worst):
        flag = "" if worst[key] <= RTOL else f"  exceeds {RTOL:g}"
        print(f"{key}: largest relative difference {worst[key]:.3g}{flag}", file=out)
        ok = ok and worst[key] <= RTOL
    return ok


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", metavar="PARENT_DIR")
    ap.add_argument("change", metavar="CHANGE_DIR")
    args = ap.parse_args()
    for path in (args.parent, args.change):
        if not os.path.isdir(path):
            ap.error(f"{path}: not a directory")
    ok = compare(args.parent, args.change)
    print("digests agree" if ok else "digests differ")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
