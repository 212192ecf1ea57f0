"""Traced `bethe` entry point: `python3 bench/trace_child.py OUT.json ARGS...`

Runs `bethe ARGS...` exactly as `python3 -m bethe.cli ARGS...` would, with
the tracer installed between import and `bethe.cli.main`, then writes the
tracer's totals to OUT.json and exits with the CLI's exit code.
"""
import json
import sys

import tracer


def main() -> int:
    out_path, argv = sys.argv[1], sys.argv[2:]
    import bethe.cli

    t = tracer.install()
    code = bethe.cli.main(argv)
    with open(out_path, "w") as fh:
        json.dump(t.totals(), fh, sort_keys=True)
    return code


if __name__ == "__main__":
    sys.exit(main())
