#!/usr/bin/env python3
"""End-to-end benchmark of the `bethe` CLI, with a traced per-module pass.

    python3 bench/run.py --workload gl-plain --seed 0 --seconds 30 --trace 0

Runs the workload's seeded op list (see workloads.py) as real CLI
invocations, one fresh interpreter per op, back to back: a closed loop
with one client.  Every op passes the correctness gate or the run fails:
exit 0, every detail row passing, outputs identical across passes, and at
the default seed equal to the digests stored in digests.json.

The last stdout line is one JSON object with the keys "correct",
"attempted", "failed" and "metrics": the end-to-end metrics with
`--trace 0`, the per-module metrics with `--trace 1`.  The full result
(environment, command lines, per-op records) is written under
.bench_out/results/.  Exit status: 0 when every op passed, 1 when any
failed the gate, 2 when the checkout holds no `bethe` sources.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_out"
DIGESTS = BENCH_DIR / "digests.json"

DEFAULT_SEED = 0
# Wall time of one untraced pass at the commit that added the benchmark,
# on a 2-core x86 VM with the Fraction backend.  A run does
# round(seconds / nominal) passes, but at least MIN_PASSES, so its work is
# fixed by the benchmark, not by how fast the code under test happens to
# be.  Three passes make the median of passes a real median.
NOMINAL_PASS_S = {"gl-plain": 7.0, "twisted-so-sp": 14.0,
                  "classical-rank": 8.0}
MIN_PASSES = 3
# Traced passes are about this many times slower than untraced ones
# (measured the same way); a traced run alternates untraced and traced
# passes.
TRACE_SLOWDOWN = 2.6
SETUP_REPEATS = 9
OP_TIMEOUT_S = 60
TAIL_BEYOND = 10  # the op-time tail keeps at least this many samples beyond it
# What the gate compares between passes and with digests.json.
DIGEST_KEYS = ("digest", "detail_rows", "table_terms")

END_TO_END = {"suite_s": "s", "op_s": "s", "setup_s": "s",
              "peak_rss_mb": "MiB"}
SELF_MODULES = ("rationals", "algebra", "series", "tensor", "poisson")
COUNT_KEYS = (
    "rationals.new_calls", "algebra.mul_calls",
    "algebra.mono_times_mono_calls", "series.mul_calls",
    "series.invert_calls", "series.substitute_calls",
    "series.bilaurent_mul_calls", "tensor.mul_calls", "tensor.trace_calls",
    "twisted.fused_s_calls", "poisson.det_poly_calls",
    "poisson.matrix_rank_calls",
)
INCL_KEYS = (
    "tensor.antisymmetrizer_s", "yangian.bethe_series_s",
    "yangian.bethe_series_tensor_s", "yangian.hat_bethe_series_s",
    "twisted.bethe_series_s", "twisted.fused_s_s", "twisted.s_expand_s",
    "evalmap.busy_s", "poisson.det_poly_s", "poisson.matrix_rank_s",
    "poisson.bracket_s", "cli.conventions_s", "reports.write_s",
)


def per_layer_units() -> dict:
    units = {f"{m}.self_s": "s" for m in SELF_MODULES}
    units.update({k: "count" for k in COUNT_KEYS})
    units.update({k: "s" for k in INCL_KEYS})
    units["trace.suite_s"] = "s"
    units["trace.overhead_s"] = "s"
    return units


# -- running one process ------------------------------------------------------


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["BETHE_OUTPUT_DIR"] = str(WORK / "reports")
    # Fixed string hashing, so two traced runs walk dicts in the same order.
    env["PYTHONHASHSEED"] = "0"
    return env


def run_process(argv: list, env: dict, timeout: float = OP_TIMEOUT_S) -> dict:
    """Run one child to exit; returns wall time, max RSS, exit code."""
    err_path = WORK / "stderr.txt"
    with open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=env,
                                stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL, stderr=err)
    lock = threading.Lock()
    state = {"exited": False, "timed_out": False}

    def kill():
        with lock:
            if not state["exited"]:
                state["timed_out"] = True
                proc.kill()

    timer = threading.Timer(timeout, kill)
    timer.start()
    try:
        # Wait without reaping, so the pid cannot be reused before the
        # watchdog is disarmed; then reap and collect the child's rusage.
        os.waitid(os.P_PID, proc.pid, os.WEXITED | os.WNOWAIT)
        wall = time.perf_counter() - t0
        with lock:
            state["exited"] = True
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        timer.cancel()
        timer.join()
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"wall_s": wall, "rss_mb": usage.ru_maxrss / 1024,
            "exit": proc.returncode, "timed_out": state["timed_out"],
            "stderr": err_path.read_text(errors="replace")[-500:]}


def op_command(op: list) -> str:
    return "bethe " + " ".join(op)


def report_path(op: list) -> Path:
    return WORK / "reports" / f"{op[1]}.json"


def digest(payload) -> str:
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def gate(op: list, proc: dict) -> dict:
    """Check one finished op; returns its record ("error" is None on pass).

    verify: every detail row must pass; the digest covers the rows.
    compute: the digest covers the coefficient table without its "config"
    block, which records the machine-dependent `jobs`."""
    rec = {"wall_s": proc["wall_s"], "rss_mb": proc["rss_mb"],
           "error": None, "digest": None, "detail_rows": 0, "table_terms": 0}
    if proc["timed_out"]:
        rec["error"] = f"timeout after {OP_TIMEOUT_S} s"
        return rec
    if proc["exit"] != 0:
        rec["error"] = f"exit {proc['exit']}: {proc['stderr'].strip()}"
        return rec
    try:
        data = json.loads(report_path(op).read_text())
    except (OSError, ValueError) as e:
        rec["error"] = f"unreadable output: {e}"
        return rec
    if op[0] == "verify":
        rows = data["details"]
        rec["detail_rows"] = len(rows)
        rec["digest"] = digest(rows)
        bad = [r["item"] for r in rows if not r["residual_zero"]]
        if data["result"] != "pass" or bad or not rows:
            rec["error"] = f"failing detail rows: {bad[:3]}"
    else:
        series = data["series"]
        rec["table_terms"] = sum(len(c["terms"]) for row in series
                                 for c in row["coeffs"])
        rec["digest"] = digest(series)
    return rec


def compare_expected(rec: dict, expected: dict | None, what: str) -> None:
    """Mark `rec` failed when its output differs from `expected`."""
    if rec["error"] is not None:
        return
    if expected is None:
        rec["error"] = f"no {what} to compare with"
        return
    for key in DIGEST_KEYS:
        if rec[key] != expected[key]:
            rec["error"] = (f"{key} {rec[key]} differs from {what} "
                            f"{expected[key]}")
            return


def run_pass(ops: list, traced: bool, env: dict) -> dict:
    """One pass over the op list; returns per-op records and trace totals."""
    (WORK / "reports").mkdir(parents=True, exist_ok=True)
    trace_path = WORK / "trace.json"
    records, traces = [], []
    for op in ops:
        report_path(op).unlink(missing_ok=True)
        if traced:
            trace_path.unlink(missing_ok=True)
            argv = [sys.executable, str(BENCH_DIR / "trace_child.py"),
                    str(trace_path), *op]
        else:
            argv = [sys.executable, "-m", "bethe.cli", *op]
        rec = gate(op, run_process(argv, env))
        if traced and rec["error"] is None:
            traces.append(json.loads(trace_path.read_text()))
        records.append(rec)
    return {"traced": traced, "records": records, "traces": traces,
            "suite_s": sum(r["wall_s"] for r in records),
            "peak_rss_mb": max(r["rss_mb"] for r in records)}


def measure_setup(env: dict, repeats: int = SETUP_REPEATS) -> list:
    """Wall times of `bethe --help`: a fresh interpreter imports bethe.cli,
    parses its arguments and exits.  One untimed call warms the bytecode
    cache first."""
    argv = [sys.executable, "-m", "bethe.cli", "--help"]
    times = []
    for i in range(repeats + 1):
        proc = run_process(argv, env, timeout=60)
        if proc["exit"] != 0:
            raise RuntimeError(f"bethe --help failed: {proc['stderr']}")
        if i:
            times.append(proc["wall_s"])
    return times


# -- statistics ---------------------------------------------------------------


def tail(values: list, beyond: int = TAIL_BEYOND) -> tuple:
    """Highest order statistic with at least `beyond` samples above it,
    and its percentile; the maximum (p100) when there are too few samples."""
    xs = sorted(values)
    if len(xs) <= beyond:
        return xs[-1], 100.0
    idx = len(xs) - 1 - beyond
    return xs[idx], 100.0 * (idx + 1) / len(xs)


def end_to_end(passes: list, setup: list) -> dict:
    walls = [r["wall_s"] for p in passes for r in p["records"]]
    return {
        "suite_s": statistics.median(p["suite_s"] for p in passes),
        "op_s": statistics.median(walls),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
    }


def per_layer(untraced: list, traced: list) -> dict:
    """Per-module metrics: sums over a traced pass's ops, median over
    traced passes."""
    def pass_values(p):
        out = {f"{m}.self_s": 0.0 for m in SELF_MODULES}
        out.update({k: 0 for k in COUNT_KEYS})
        out.update({k: 0.0 for k in INCL_KEYS})
        for t in p["traces"]:
            for m in SELF_MODULES:
                out[f"{m}.self_s"] += t["self_s"].get(m, 0.0)
            for k in COUNT_KEYS:
                out[k] += t["calls"].get(k, 0)
            for k in INCL_KEYS:
                out[k] += t["incl_s"].get(k, 0.0)
        return out

    per_pass = [pass_values(p) for p in traced]
    metrics = {k: statistics.median(v[k] for v in per_pass)
               for k in per_pass[0]}
    metrics["trace.suite_s"] = statistics.median(p["suite_s"] for p in traced)
    metrics["trace.overhead_s"] = (
        metrics["trace.suite_s"]
        - statistics.median(p["suite_s"] for p in untraced))
    return metrics


# -- environment --------------------------------------------------------------


def environment() -> dict:
    sys.path.insert(0, str(SRC))
    try:
        from bethe import rationals
    finally:
        sys.path.pop(0)
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    commit = "unknown"
    if (ROOT / ".git").exists():
        git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True)
        if git.returncode == 0:
            commit = git.stdout.strip()
    return {
        "python": platform.python_version(),
        "backend": f"{rationals.Q.__module__}.{rationals.Q.__qualname__}",
        "nproc": os.cpu_count(),
        "git_commit": commit,
        "src_sha256": h.hexdigest()[:16],
    }


# -- the run ------------------------------------------------------------------


def load_digests() -> dict:
    return json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}


def apply_gate(ops: list, passes: list, stored: dict | None) -> None:
    """Cross-pass agreement, and agreement with the stored digests when
    `stored` is given (the default seed)."""
    for i, op in enumerate(ops):
        cmd = op_command(op)
        first = None
        for p in passes:
            rec = p["records"][i]
            if stored is not None:
                compare_expected(rec, stored.get(cmd), "stored digest")
            if first is None:
                if rec["error"] is None:
                    first = rec
            else:
                compare_expected(rec, first, "first pass")


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    ops = workloads.ops(workload, seed)
    env = child_env()
    WORK.mkdir(exist_ok=True)
    setup = [] if trace else measure_setup(env)
    nominal = NOMINAL_PASS_S[workload]
    if trace:
        count = max(1, round(seconds / (nominal * (1 + TRACE_SLOWDOWN))))
        kinds = [False, True] * count
    else:
        kinds = [False] * max(MIN_PASSES, round(seconds / nominal))
    passes = [run_pass(ops, traced, env) for traced in kinds]
    stored = (load_digests().get(workload, {}) if seed == DEFAULT_SEED
              else None)
    apply_gate(ops, passes, stored)
    records = [r for p in passes for r in p["records"]]
    failed = sum(r["error"] is not None for r in records)
    untraced = [p for p in passes if not p["traced"]]
    if trace:
        metrics = per_layer(untraced, [p for p in passes if p["traced"]])
    else:
        metrics = end_to_end(untraced, setup)
    walls = [r["wall_s"] for p in untraced for r in p["records"]]
    op_tail, tail_pct = tail(walls)
    return {
        "workload": workload, "seed": seed, "trace": trace,
        "env": environment(),
        "commands": [op_command(op) for op in ops],
        "passes": len(passes), "traced_passes": sum(kinds),
        "attempted": len(records), "failed": failed,
        "fail_share": failed / len(records),
        "suite_s_all": [p["suite_s"] for p in untraced],
        "op_samples": len(walls), "op_tail_s": op_tail,
        "op_tail_percentile": tail_pct,
        "setup_s_all": setup,
        "ops": [{"command": op_command(op),
                 "records": [p["records"][i] for p in passes]}
                for i, op in enumerate(ops)],
        "metrics": metrics,
    }


def print_summary(res: dict, units: dict) -> None:
    env = res["env"]
    print(f"workload {res['workload']}  seed {res['seed']}  "
          f"trace {int(res['trace'])}  passes {res['passes']} "
          f"({res['traced_passes']} traced)")
    print("env: " + "  ".join(f"{k} {v}" for k, v in env.items()))
    print("commands:")
    for cmd in res["commands"]:
        print(f"  {cmd}")
    for op in res["ops"]:
        for rec in op["records"]:
            if rec["error"]:
                print(f"FAIL {op['command']}: {rec['error']}")
    suites = res["suite_s_all"]
    print(f"suite_s per pass: {', '.join(f'{s:.3f}' for s in suites)} "
          f"(median {statistics.median(suites):.3f}, tail {max(suites):.3f}, "
          f"n={len(suites)})")
    print(f"op_s tail: {res['op_tail_s']:.3f} s at "
          f"p{res['op_tail_percentile']:.0f} of {res['op_samples']} op "
          f"samples (the highest percentile with {TAIL_BEYOND} samples "
          f"beyond it)")
    print(f"fail_share {res['fail_share']:.4f} ratio "
          f"({res['failed']} of {res['attempted']} ops)")
    for name, value in res["metrics"].items():
        print(f"  {name:32s} {value:14.6f} {units[name]}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record-digests", action="store_true",
                    help="run one pass at the default seed and store its "
                         "digests in digests.json")
    args = ap.parse_args(argv)
    if not (SRC / "bethe" / "cli.py").is_file():
        print(f"error: no bethe sources under {SRC}", file=sys.stderr)
        return 2
    if args.record_digests:
        return record_digests(args.workload)
    res = run(args.workload, args.seed, args.seconds, bool(args.trace))
    units = per_layer_units() if args.trace else END_TO_END
    out = WORK / "results"
    out.mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (out / name).write_text(json.dumps(res, indent=1, sort_keys=True) + "\n")
    print_summary(res, units)
    print(f"full result: {(out / name).relative_to(ROOT)}")
    correct = res["failed"] == 0
    print(json.dumps({
        "correct": correct, "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in res["metrics"].items()},
    }))
    return 0 if correct else 1


def record_digests(workload: str) -> int:
    ops = workloads.ops(workload, DEFAULT_SEED)
    WORK.mkdir(exist_ok=True)
    p = run_pass(ops, False, child_env())
    entries = {}
    for op, rec in zip(ops, p["records"]):
        if rec["error"] is not None:
            print(f"FAIL {op_command(op)}: {rec['error']}", file=sys.stderr)
            return 1
        entries[op_command(op)] = {k: rec[k] for k in DIGEST_KEYS}
    stored = load_digests()
    stored[workload] = entries
    DIGESTS.write_text(json.dumps(stored, indent=1, sort_keys=True) + "\n")
    print(f"stored {len(entries)} digests for {workload}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
