#!/usr/bin/env python3
"""Compare two result files written by run.py (perfbench/out/result-*.json).

    python3 perfbench/compare.py BASE.json NEW.json

Prints each metric of both results and NEW/BASE. If the environment stamps
differ in anything but the commit, the comparison is flagged: the numbers
were taken under different conditions and are not comparable as they stand.
Exit code 0 when the stamps match, 1 when they differ.
"""

from __future__ import annotations

import json
import sys

import stamp


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    with open(argv[0]) as f:
        base = json.load(f)
    with open(argv[1]) as f:
        new = json.load(f)
    diff = stamp.differences(base["stamp"], new["stamp"])
    if base["workload"] != new["workload"] or base["trace"] != new["trace"]:
        diff.append("workload/trace")
    for key in diff:
        print(f"FLAG stamps differ in {key}: {base['stamp'].get(key, base.get(key))!r} "
              f"vs {new['stamp'].get(key, new.get(key))!r}")
    print(f"commit {base['stamp']['commit']} -> {new['stamp']['commit']}")
    bm, nm = base["result"]["metrics"], new["result"]["metrics"]
    for name in sorted(set(bm) | set(nm)):
        b = bm.get(name, {}).get("value")
        n = nm.get(name, {}).get("value")
        ratio = f"{n / b:.3f}" if b and n is not None else "-"
        unit = (bm.get(name) or nm.get(name))["unit"]
        print(f"{name:<44} {b!s:>22} {n!s:>22} {unit:<9} x{ratio}")
    return 1 if diff else 0


if __name__ == "__main__":
    sys.exit(main())
