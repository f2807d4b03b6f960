"""DeepER pipeline benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload prodag-x1 --seed 1 --seconds 20

The workload seed makes the inputs: ``load(seed=)``, the LSH hyperplanes
and the model seeds. Set-up (Spark start, input generation, a warm-up
round) is timed on its own; then rounds of the workload's stages run until
``--seconds`` have passed and the median round is reported. The output
gate runs outside the timed region; a stage that raises or a check that
fails counts as a failed operation.

The last line of stdout is the result, ``{"correct", "attempted",
"failed", "metrics"}``: with ``--trace 0`` the end-to-end metrics, with
``--trace 1`` the per-layer ones, taken from one traced round that follows
an untraced one. The line before it is the full record: environment,
every stage's time, quality, blocking statistics, the gate and, when
traced, every span name's self time. ``perfbench/README.md`` explains the
workloads and metrics.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext

from spans import NULL, Tracer

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench-work")

WORKLOADS = {
    # Prod-AG scale 1: 680 x 1,600 tuples; d=64, LSH K=5 L=6 (the
    # bench_blocking calibration); top-N with K=10 L=1, one probe, N=10.
    "prodag-x1": {"dataset": "prod_ag", "spark": True, "K": 5, "L": 6,
                  "topn": {"K": 10, "L": 1, "n_probes": 1, "top_n": 10},
                  "pc_floor": 0.7},
    # The Table-4 protocol on Prod-AG scale 1, on the driver.
    "crossval-prodag": {"dataset": "prod_ag", "spark": False},
}
SMOKE_SCALE = 0.15  # --smoke: tiny inputs, for the self-test
LOAD_REPEATS = 3
DRIVER_MEMORY = "2g"
SPARK_CONF = {
    "spark.sql.shuffle.partitions": "64",
    "spark.sql.execution.arrow.pyspark.enabled": "true",
    "spark.sql.autoBroadcastJoinThreshold": "-1",
}


class Run:
    """Counts operations and failures; one ``op`` per stage execution and
    one ``check`` per gate predicate."""

    def __init__(self):
        self.attempted = self.failed = 0
        self.gate: list[dict] = []

    def op(self, name, fn, tr):
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            with tr.span("stage." + name):
                out = fn()
        except Exception:
            self.failed += 1
            print(f"[perfbench] stage {name} raised:\n"
                  f"{traceback.format_exc()}", file=sys.stderr)
            out = None
        return out, time.perf_counter() - t0

    def check(self, name, pred):
        self.attempted += 1
        try:
            ok = bool(pred())
        except Exception:
            print(f"[perfbench] check {name!r} raised:\n"
                  f"{traceback.format_exc()}", file=sys.stderr)
            ok = False
        self.failed += not ok
        self.gate.append({"check": name, "ok": ok})


# -------------------------------------------------------------------- Spark -

def start_spark(nproc):
    os.environ["PYSPARK_SUBMIT_ARGS"] = (
        f"--master local[{min(4, nproc)}] --driver-memory {DRIVER_MEMORY} "
        "--conf spark.driver.host=127.0.0.1 --conf spark.ui.enabled=false "
        "--conf spark.ui.showConsoleProgress=false "
        f"--conf spark.local.dir={WORK}/spark "
        f"--conf spark.sql.warehouse.dir={WORK}/warehouse "
        "pyspark-shell")
    from pyspark.sql import SparkSession

    builder = SparkSession.builder.appName("perfbench")
    for k, v in SPARK_CONF.items():
        builder = builder.config(k, v)
    spark = builder.getOrCreate()
    spark.sparkContext.setLogLevel("ERROR")
    return spark


def stop_spark(spark):
    """Stop Spark, then end the JVM and its Python workers and wait."""
    from pyspark import SparkContext

    gateway = SparkContext._gateway
    spark.stop()
    if gateway is None:
        return
    proc = gateway.proc
    workers = _descendants(proc.pid)
    gateway.shutdown()
    proc.stdin.close()
    try:
        proc.wait(timeout=60)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
    deadline = time.monotonic() + 30
    while workers and time.monotonic() < deadline:
        workers = [p for p in workers if os.path.exists(f"/proc/{p}")]
        time.sleep(0.1)
    SparkContext._gateway = SparkContext._jvm = None


def _descendants(pid: int) -> list[int]:
    children: dict[int, list[int]] = {}
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            try:
                with open(f"/proc/{entry}/stat") as f:
                    ppid = int(f.read().rsplit(")", 1)[1].split()[1])
            except (OSError, IndexError, ValueError):
                continue
            children.setdefault(ppid, []).append(int(entry))
    out, todo = [], [pid]
    while todo:
        kids = children.get(todo.pop(), [])
        out.extend(kids)
        todo.extend(kids)
    return out


def environment(spark, nproc) -> dict:
    import numpy
    import pandas
    import pyspark

    sha = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                 capture_output=True, text=True,
                                 timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    env = {"git_sha": sha, "nproc": nproc, "python": sys.version.split()[0],
           "numpy": numpy.__version__, "pandas": pandas.__version__,
           "pyspark": pyspark.__version__}
    if spark is not None:
        env.update({"master": spark.sparkContext.master,
                    "driver_memory": spark.sparkContext.getConf().get(
                        "spark.driver.memory")},
                   **{k: spark.conf.get(k) for k in SPARK_CONF})
    return env


# ---------------------------------------------------------------- workloads -

class Resolve:
    """prodag-x1: train, then resolve on the driver, on Spark, by top-N."""

    def __init__(self, P, spec, ds, cfg, spark):
        from repro.blocking import random_hyperplanes
        from repro.er_data import to_spark

        self.P, self.spec, self.ds, self.cfg = P, spec, ds, cfg
        dim = len(ds.attributes) * cfg.d
        self.planes = random_hyperplanes(dim, spec["K"], spec["L"],
                                         seed=cfg.seed)
        t = spec["topn"]
        self.planes_topn = random_hyperplanes(dim, t["K"], t["L"],
                                              seed=cfg.seed)
        self.df_a, self.df_b = to_spark(spark, ds)

    def prepare(self, run, tr):
        """Train the matcher on this dataset's labeled pairs (set-up)."""
        self.model, train_s = run.op(
            "train", lambda: self.P.train(tr, self.ds, self.cfg), tr)
        return {"train_s": train_s}

    def spark_pass(self, run, tr, full=False):
        return run.op("resolve_spark", lambda: self.P.resolve_spark(
            tr, self.df_a, self.df_b, self.ds.attributes, self.model,
            self.planes, self.cfg.d, full=full), tr)

    def warm_up(self, run):
        """The first Spark pass is about twice as slow as later ones. This
        one collects every scored candidate for the gate."""
        out, spark_s = self.spark_pass(run, NULL, full=True)
        return {"spark": out}, {"spark.warmup_s": spark_s}

    def round(self, run, tr):
        P, ds, cfg, t = self.P, self.ds, self.cfg, self.spec["topn"]
        model = self.model
        times, outs = {}, {}
        outs["driver"], times["resolve_driver_s"] = run.op(
            "resolve_driver",
            lambda: P.resolve_driver(tr, ds, model, self.planes, cfg.d), tr)
        outs["spark"], times["resolve_spark_s"] = self.spark_pass(run, tr)
        outs["topn"], times["resolve_topn_s"] = run.op(
            "resolve_topn",
            lambda: P.resolve_topn(tr, ds, model, self.planes_topn, cfg.d,
                                   n_probes=t["n_probes"], top_n=t["top_n"]),
            tr)
        return times, outs

    def gate(self, run, warm, rounds):
        P, ds, spec = self.P, self.ds, self.spec
        if any(warm[k] is None for k in ("driver", "spark", "topn")):
            return  # the failed stage is already counted
        for name, pred in (P.check_resolve(
                ds, warm["driver"], warm["spark"], warm["topn"],
                top_n=spec["topn"]["top_n"], pc_floor=spec["pc_floor"])
                + P.check_oracle(warm["spark"])):
            run.check(name, pred)
        for k in ("driver", "spark", "topn"):
            run.check(f"{k} match set is the same in every pass",
                      lambda k=k: all(o[k] is not None
                                      and o[k].matches == warm[k].matches
                                      for _, o, _ in rounds))

    def report(self, warm) -> tuple[dict, dict]:
        """(headline quality, everything else) from the gated outputs."""
        P, ds = self.P, self.ds
        ids = ds.table_a["id"].tolist(), ds.table_b["id"].tolist()
        d, t = warm["driver"], warm["topn"]
        q = P.quality(ds, *ids, d)
        tq = P.quality(ds, *ids, t)
        stats = P.blocking_stats(d.codes, d.ij, ds.n_a, ds.n_b)
        extra = {
            "quality": {**q, "topn_pc": tq["pc"], "topn_recall": tq["recall"],
                        "topn_precision": tq["precision"]},
            "blocking": {**stats, "topn_candidates": len(t.ij),
                         "topn_probes_per_a": P.probes_per_a(
                             self.planes_topn, self.spec["topn"]["n_probes"])},
            "scoring": {"pairs": len(d.ij),
                        "match_ratio": len(d.matches) / max(1, len(d.ij))},
        }
        return {k: q[k] for k in ("f1", "precision", "recall")}, extra


class CrossVal:
    """crossval-prodag: evaluate_deeper then evaluate_magellan."""

    def __init__(self, P, spec, ds, cfg, spark):
        self.P, self.ds, self.cfg = P, ds, cfg

    def prepare(self, run, tr):
        return {}

    def warm_up(self, run):
        return {}, {}

    def round(self, run, tr):
        P, ds, cfg = self.P, self.ds, self.cfg
        times, outs = {}, {}
        with P.traced_library(tr) if tr.on else nullcontext():
            outs["deeper"], times["cv_deeper_s"] = run.op(
                "cv_deeper", lambda: P.evaluate_deeper(ds, cfg), tr)
            outs["magellan"], times["cv_magellan_s"] = run.op(
                "cv_magellan", lambda: P.evaluate_magellan(ds, cfg), tr)
        return times, outs

    def gate(self, run, warm, rounds):
        if warm["deeper"] is None or warm["magellan"] is None:
            return
        run.check("DeepER F1 > Magellan F1",
                  lambda: warm["deeper"]["f1"] > warm["magellan"]["f1"])
        run.check("every round gives the same F1",
                  lambda: all(o["deeper"] == warm["deeper"]
                              and o["magellan"] == warm["magellan"]
                              for _, o, _ in rounds))

    def report(self, warm) -> tuple[dict, dict]:
        d, m = warm["deeper"], warm["magellan"]
        q = {k: d[k] for k in ("f1", "precision", "recall")}
        return q, {"quality": {"deeper": q, "magellan": {
            k: m[k] for k in ("f1", "precision", "recall")}}}


# ---------------------------------------------------------------------- run -

def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def timed_rounds(workload, run, seconds):
    """Untraced rounds, started until ``seconds`` have passed (at least
    one)."""
    rounds, t0 = [], time.perf_counter()
    while not rounds or time.perf_counter() - t0 < seconds:
        r0 = time.perf_counter()
        times, outs = workload.round(run, NULL)
        rounds.append((time.perf_counter() - r0, outs, times))
    return rounds


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help=f"scale inputs to {SMOKE_SCALE} (self-test)")
    args = ap.parse_args(argv)

    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"[perfbench] no src/repro under {ROOT}: run from the "
              "repository root", file=sys.stderr)
        return 2
    for d in ("spark", "warehouse", "tmp"):
        os.makedirs(os.path.join(WORK, d), exist_ok=True)
    os.environ["TMPDIR"] = os.path.join(WORK, "tmp")
    # Every JVM Spark starts: temp files here, no /tmp/hsperfdata_*.
    os.environ["JAVA_TOOL_OPTIONS"] = (
        f"-XX:-UsePerfData -Djava.io.tmpdir={WORK}/tmp")
    os.environ["SPARK_LOCAL_DIRS"] = os.path.join(WORK, "spark")
    os.environ["PYSPARK_PYTHON"] = sys.executable
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [SRC] + [p for p in [os.environ.get("PYTHONPATH")] if p])
    sys.path.insert(0, SRC)

    from dataclasses import replace

    import pipeline as P
    from repro.er_data import load
    from repro.experiments import BASE_CFG

    spec = WORKLOADS[args.workload]
    scale = SMOKE_SCALE if args.smoke else 1.0
    nproc = len(os.sched_getaffinity(0))
    cfg = replace(BASE_CFG, seed=args.seed)
    run = Run()
    spark = None
    try:
        setup0 = time.perf_counter()
        if spec["spark"]:
            spark = start_spark(nproc)
        session_s = time.perf_counter() - setup0
        load_times = []
        for _ in range(LOAD_REPEATS):
            t0 = time.perf_counter()
            ds = load(spec["dataset"], seed=args.seed, scale=scale)
            workload = (Resolve if spec["spark"] else CrossVal)(
                P, spec, ds, cfg, spark)
            load_times.append(time.perf_counter() - t0)
        tr = Tracer() if args.trace else NULL
        t0 = time.perf_counter()
        prepared = workload.prepare(run, tr)
        prepare_s = time.perf_counter() - t0
        t0 = time.perf_counter()
        warm, warm_times = workload.warm_up(run)
        warmup_s = time.perf_counter() - t0
        setup_s = (session_s + statistics.median(load_times) + prepare_s
                   + warmup_s)
        rss_mb = {"setup": peak_rss_mb()}

        rounds = timed_rounds(workload, run, args.seconds if not args.trace
                              else 0)
        rss_mb["rounds"] = peak_rss_mb()
        warm = {**rounds[0][1], **warm}
        traced_s = None
        if args.trace:
            r0 = time.perf_counter()
            workload.round(run, tr)
            traced_s = time.perf_counter() - r0

        workload.gate(run, warm, rounds)
        quality, extra = run.op("report", lambda: workload.report(warm),
                                NULL)[0] or ({}, {})
        env = environment(spark, nproc)
    finally:
        if spark is not None:
            stop_spark(spark)

    stage_s = {k: statistics.median(t[k] for _, _, t in rounds)
               for k in rounds[0][2]}
    record = {
        "workload": args.workload, "seed": args.seed, "scale": scale,
        "env": env, "rounds": len(rounds),
        "setup": {"setup_s": setup_s, "spark.session_s": session_s,
                  "er_data.load_s": statistics.median(load_times),
                  **prepared, "warmup_s": warmup_s, **warm_times},
        "peak_rss_mb": rss_mb, "stages": stage_s,
        "round_s": [w for w, _, _ in rounds], "gate": run.gate, **extra,
    }
    rss_mb["end"] = peak_rss_mb()
    if args.trace:
        path = os.path.join(WORK, f"trace-{args.workload}-{args.seed}.json")
        metrics, record["trace"] = per_layer(tr, traced_s, prepare_s, rounds,
                                             load_times, path)
    else:
        metrics = {
            "setup_s": (setup_s, "s"),
            "pass_s": (statistics.median(w for w, _, _ in rounds), "s"),
            # set-up and timed rounds; the gate's own copies come later
            "peak_rss_mb": (rss_mb["rounds"], "MB"),
            **{k: (quality.get(k), "ratio") for k in ("f1", "recall")},
        }
    record["metrics"] = {k: v for k, (v, _) in metrics.items()}
    print(json.dumps(record, default=float))
    print(json.dumps({
        "correct": run.failed == 0, "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()}}))
    return 0


def per_layer(tr, wall, prepare_s, rounds, load_times, path):
    """Per-layer metrics of the traced set-up step and round (``wall``
    seconds); every span name's self time and counts; spans to ``path``."""
    summary = tr.summary()
    layers = summary["layers"]

    def get(name, key="self_s"):
        return layers.get(name, {}).get(key, 0)

    compose_s = get("compose.driver")
    metrics = {
        "er_data.load_s": (statistics.median(load_times), "s"),
        "compose.driver_s": (compose_s, "s"),
        "compose.tuples": (get("compose.driver", "tuples"), "count"),
        "compose.cells": (get("compose.driver", "cells"), "count"),
        "compose.tuples_per_s": (
            get("compose.driver", "tuples") / compose_s if compose_s else 0.0,
            "1/s"),
        "pairs.sample_s": (get("pairs.sample"), "s"),
        "pairs.sample_calls": (get("pairs.sample", "calls"), "count"),
        "pairs.labeled": (get("pairs.sample", "labeled"), "count"),
        "model.fit_s": (get("model.fit"), "s"),
        "model.fit_pairs": (get("model.fit", "pairs"), "count"),
        "trace.round_s": (wall, "s"),
        "trace.overhead_s": (
            wall - statistics.median(w for w, _, _ in rounds), "s"),
    }
    with open(path, "w") as f:
        json.dump(tr.records(), f)
    flat = {}
    for name, rec in sorted(layers.items()):
        flat[f"{name}_s"] = rec["self_s"]
        flat.update({f"{name}.{k}": v for k, v in rec.items()
                     if k != "self_s"})
    return metrics, {"layers": flat, "root_s": summary["root_s"],
                     "unaccounted_s": prepare_s + wall - summary["root_s"],
                     "spans_file": os.path.relpath(path, ROOT)}


if __name__ == "__main__":
    sys.exit(main())
