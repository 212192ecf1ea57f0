#!/usr/bin/env python3
"""Compare two benchmark results metric by metric.

    python3 bench/compare.py BEFORE.json AFTER.json

The files are the full results run.py writes under .bench_out/results/.
Results taken with different rational backends (Fraction and gmpy2 mpq
differ several-fold in speed) are flagged and not compared: exit 3.
"""
import json
import sys
from pathlib import Path


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print("usage: compare.py BEFORE.json AFTER.json", file=sys.stderr)
        return 2
    before, after = (json.loads(Path(p).read_text()) for p in argv)
    for key in ("workload", "trace"):
        if before[key] != after[key]:
            print(f"not comparable: {key} {before[key]} vs {after[key]}")
            return 2
    b_env, a_env = before["env"], after["env"]
    if b_env["backend"] != a_env["backend"]:
        print(f"FLAGGED: rational backend differs ({b_env['backend']} vs "
              f"{a_env['backend']}); metrics not compared")
        return 3
    print(f"{before['workload']}: seed {before['seed']} -> {after['seed']}, "
          f"python {b_env['python']} -> {a_env['python']}, "
          f"nproc {b_env['nproc']} -> {a_env['nproc']}")
    for name, b in before["metrics"].items():
        a = after["metrics"].get(name)
        if a is None:
            print(f"  {name:32s} {b:14.6f}   (missing after)")
            continue
        change = f"{(a - b) / b:+8.1%}" if b else "     n/a"
        print(f"  {name:32s} {b:14.6f} -> {a:14.6f} {change}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
