"""Self-test of the benchmark, on tiny inputs.

    python3 -m pytest perfbench/ -q -p no:cacheprovider

Every workload runs every stage (both paths) at ``--smoke`` size and must
emit exactly the metrics ``BENCHMARK.json`` names, with their units; the
gate must reject a perturbed candidate set or score; and outside a
repository checkout the runner must fail without printing a result.
"""
import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(cwd, workload, trace):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_emitted_with_its_unit(workload, trace):
    p = _run(ROOT, workload, trace)
    assert p.returncode == 0, p.stderr[-3000:]
    *_, record, last = p.stdout.strip().splitlines()
    result = json.loads(last)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, record
    want = {m["name"]: m["unit"]
            for m in SPEC["per_layer" if trace else "end_to_end"]}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    assert got == want
    assert all(isinstance(v["value"], (int, float))
               for v in result["metrics"].values())
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_bare_directory_fails_without_a_result():
    bare = ROOT / ".perfbench-work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    p = _run(bare, SPEC["workloads"][0]["name"], 0)
    shutil.rmtree(bare)
    assert p.returncode != 0
    assert '"correct"' not in p.stdout


@pytest.fixture(scope="module")
def outputs():
    """Driver outputs at smoke size; the "Spark" output is the driver's
    scored frame, so the gate passes until it is perturbed."""
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    import pipeline as P
    import run
    from repro.blocking import random_hyperplanes
    from repro.er_data import load
    from repro.experiments import BASE_CFG
    from spans import NULL

    spec = run.WORKLOADS["prodag-x1"]
    cfg = replace(BASE_CFG, seed=3)
    ds = load(spec["dataset"], seed=3, scale=run.SMOKE_SCALE)
    dim = len(ds.attributes) * cfg.d
    t = spec["topn"]
    model = P.train(NULL, ds, cfg)
    driver = P.resolve_driver(NULL, ds, model, random_hyperplanes(
        dim, spec["K"], spec["L"], seed=3), cfg.d)
    topn = P.resolve_topn(NULL, ds, model, random_hyperplanes(
        dim, t["K"], t["L"], seed=3), cfg.d, n_probes=t["n_probes"],
        top_n=t["top_n"])
    ids = ds.table_a["id"].tolist(), ds.table_b["id"].tolist()
    spark = P.Resolved(driver.matches, scored=driver.frame(*ids))
    return P, ds, driver, spark, topn


def _failed(outputs, spark):
    P, ds, driver, _, topn = outputs
    return [name for name, pred in P.check_resolve(
        ds, driver, spark, topn, top_n=10, pc_floor=0.0) if not pred()]


def test_gate_passes_on_equal_outputs(outputs):
    assert _failed(outputs, outputs[3]) == []


def test_gate_rejects_a_perturbed_candidate_set(outputs):
    P, spark = outputs[0], outputs[3]
    dropped = P.Resolved(spark.matches, scored=spark.scored.iloc[1:])
    assert "spark candidates == candidate_pairs_np" in _failed(outputs,
                                                               dropped)


def test_gate_rejects_a_perturbed_score(outputs):
    P, spark = outputs[0], outputs[3]
    scored = spark.scored.copy()
    scored.loc[scored.index[0], "prob"] += 1e-6
    assert _failed(outputs, P.Resolved(spark.matches, scored=scored)) == [
        "spark probabilities allclose(1e-9) to driver"]
