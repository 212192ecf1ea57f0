"""Self-tests of the benchmark harness: `python3 -m pytest bench/tests`.

They run real `bethe` processes on small ops and take under a minute.
"""
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import compare  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

SMALL_OPS = [
    ["verify", "centrality", "--kind", "gl", "--N", "2"],
    ["verify", "rtt", "--kind", "gl", "--N", "2"],  # runs the thread pool
    ["compute", "qdet", "--kind", "gl", "--N", "2", "--D", "2"],
    ["verify", "poisson-rank", "--kind", "gl", "--N", "3", "--M", "1"],
]
BAD_OP = ["verify", "classical-so2n", "--kind", "gl", "--N", "2"]  # exits 2


def benchmark_json() -> dict:
    return json.loads((BENCH.parent / "BENCHMARK.json").read_text())


@pytest.fixture
def small_workload(monkeypatch):
    """Make every workload run the given ops instead of its own."""
    def use(ops, stored=None):
        monkeypatch.setattr(run.workloads, "ops", lambda w, s: list(ops))
        monkeypatch.setattr(run, "load_digests", lambda: stored or {})
    return use


def stored_for(ops) -> dict:
    """Digests of a clean pass, in the layout of digests.json."""
    p = run.run_pass(ops, False, run.child_env())
    assert all(r["error"] is None for r in p["records"])
    entries = {run.op_command(op): {k: r[k] for k in run.DIGEST_KEYS}
               for op, r in zip(ops, p["records"])}
    return {"gl-plain": entries}


def test_ops_are_replayable_from_the_seed():
    for w in workloads.WORKLOADS:
        assert workloads.ops(w, 3) == workloads.ops(w, 3)
        assert workloads.ops(w, 3) != workloads.ops(w, 4)
        assert all("--jobs" not in op for op in workloads.ops(w, 3))


def test_clean_run_passes_the_gate(small_workload):
    small_workload(SMALL_OPS, stored_for(SMALL_OPS))
    res = run.run("gl-plain", run.DEFAULT_SEED, 1, False)
    assert res["passes"] == run.MIN_PASSES
    assert (res["attempted"], res["failed"]) == (4 * run.MIN_PASSES, 0)
    assert res["fail_share"] == 0
    assert res["commands"] == [run.op_command(op) for op in SMALL_OPS]
    assert set(res["env"]) >= {"python", "backend", "nproc", "git_commit"}
    recs = [op["records"][0] for op in res["ops"]]
    assert [r["detail_rows"] > 0 for r in recs] == [True, True, False, True]
    assert recs[2]["table_terms"] > 0


def test_corrupted_stored_digest_registers_in_fail_share(small_workload):
    stored = stored_for(SMALL_OPS)
    entry = stored["gl-plain"][run.op_command(SMALL_OPS[2])]
    entry["digest"] = "0" * 16
    small_workload(SMALL_OPS, stored)
    res = run.run("gl-plain", run.DEFAULT_SEED, 1, False)
    assert (res["failed"], res["fail_share"]) == (run.MIN_PASSES, 0.25)
    assert "stored digest" in res["ops"][2]["records"][0]["error"]


def test_nonzero_exit_registers_in_fail_share(small_workload):
    small_workload(SMALL_OPS[:1] + [BAD_OP])
    res = run.run("gl-plain", 1, 1, False)
    assert (res["failed"], res["fail_share"]) == (run.MIN_PASSES, 0.5)
    assert res["ops"][1]["records"][0]["error"].startswith("exit 2")


def test_passes_must_agree():
    rec = {"error": None, "digest": "a", "detail_rows": 3, "table_terms": 0}
    passes = [{"records": [dict(rec)]}, {"records": [dict(rec, digest="b")]}]
    run.apply_gate([SMALL_OPS[0]], passes, None)
    assert passes[0]["records"][0]["error"] is None
    assert "first pass" in passes[1]["records"][0]["error"]


def test_traced_runs_repeat_their_call_counts():
    env = run.child_env()
    first, second = (run.run_pass(SMALL_OPS, True, env) for _ in range(2))
    counts = [[t["calls"] for t in p["traces"]] for p in (first, second)]
    assert len(counts[0]) == len(SMALL_OPS)
    assert counts[0] == counts[1]
    assert sum(c.get("rationals.new_calls", 0) for c in counts[0]) > 0


@pytest.mark.parametrize("trace", [0, 1])
def test_printed_metrics_match_benchmark_json(small_workload, capsys, trace):
    small_workload(SMALL_OPS)
    code = run.main(["--workload", "gl-plain", "--seed", "1", "--seconds", "1",
                     "--trace", str(trace)])
    assert code == 0
    last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    declared = benchmark_json()["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        k: v["unit"] for k, v in last["metrics"].items()}


def test_benchmark_json_lists_the_workloads():
    spec = benchmark_json()
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert spec["paths"] == [BENCH.name]


def test_fails_without_the_program(tmp_path):
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{BENCH.name}/run.py", "--workload", "gl-plain",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def test_compare_flags_a_backend_mismatch(tmp_path, capsys):
    result = {"workload": "gl-plain", "trace": False, "seed": 0,
              "env": {"backend": "fractions.Fraction", "python": "3.11",
                      "nproc": 2},
              "metrics": {"suite_s": 7.0}}
    before, after = tmp_path / "before.json", tmp_path / "after.json"
    before.write_text(json.dumps(result))
    after.write_text(json.dumps(dict(result, metrics={"suite_s": 6.0})))
    assert compare.main([str(before), str(after)]) == 0
    assert "-14.3%" in capsys.readouterr().out
    result["env"]["backend"] = "gmpy2.mpq"
    after.write_text(json.dumps(result))
    assert compare.main([str(before), str(after)]) == 3
    assert "FLAGGED" in capsys.readouterr().out
