#!/usr/bin/env python3
"""Compare two result records written by ``run.py``.

Usage:  python3 perfbench/compare.py BASE.json NEW.json

Prints each metric of both records with the ratio NEW / BASE.  Refuses, with
exit code 2, to compare records of different workloads, trace modes or run
lengths, or records taken under different kernel backends: the compiled and
pure-Python kernels differ by a constant factor that would swamp any change.
"""

import json
import sys


class Incomparable(ValueError):
    """Two records that must not be compared."""


def compare(base, new):
    """Rows (metric, base value, new value, new / base) for two records."""
    for key in ("workload", "trace", "seconds"):
        if base[key] != new[key]:
            raise Incomparable(f"different {key}: {base[key]!r} vs {new[key]!r}")
    b_env, n_env = base["environment"], new["environment"]
    if b_env["backend"] != n_env["backend"]:
        raise Incomparable(
            f"taken under different backends: {b_env['backend']!r} vs {n_env['backend']!r}"
        )
    rows = []
    for name, b in base["metrics"].items():
        n = new["metrics"].get(name)
        rows.append((name, b, n, n / b if n is not None and b else None))
    return rows


def main(argv):
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    records = []
    for path in argv:
        with open(path, encoding="ascii") as fh:
            records.append(json.load(fh))
    try:
        rows = compare(*records)
    except Incomparable as exc:
        print(f"refusing to compare: {exc}", file=sys.stderr)
        return 2
    for key in ("python", "nproc"):
        if records[0]["environment"][key] != records[1]["environment"][key]:
            print(f"# note: {key} differs between the two records")
    for name, b, n, ratio in rows:
        shown = "-" if ratio is None else f"{ratio:.3f}"
        print(f"{name:<32} {b:>12.6g} {n if n is not None else '-':>12.6g} {shown:>8}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
