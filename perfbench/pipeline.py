"""The DeepER pipeline glued from the library's public functions.

One function per timed stage: ``train`` (§5.1 pair sampling, cosine
features, ``AvgDeepER.fit``), ``resolve_driver`` and ``resolve_spark``
(Algorithm 4: tuple DRs -> LSH codes -> candidates -> scores -> match
set) and ``resolve_topn`` (Algorithm 5: multi-probe top-N); the Table-4
stages call ``evaluate_deeper``/``evaluate_magellan`` as they are, and
``traced_library`` wraps the layer calls inside them. Every stage takes
a tracer (``spans.NULL`` when untraced) and puts each call into a library
layer in a span named after the module; the runner's own set/array/id
conversions are ``bench.glue``.

``check_*`` is the output gate; it runs outside the timed region.
"""
from __future__ import annotations

import itertools
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np
import pandas as pd

from repro.blocking import (
    add_lsh_codes,
    candidate_pairs,
    candidate_pairs_np,
    end_to_end_pr,
    lsh_codes_np,
    multiprobe_topn_candidates,
    pair_completeness,
    reduction_ratio,
)
from repro.blocking.multiprobe import probe_offsets
from repro.core.compose import avg_tuple_matrix, avg_tuple_vectors_spark
from repro.core.deeper import evaluate_deeper, evaluate_magellan  # noqa: F401
from repro.core.model import AvgDeepER
from repro.core.pairs import sample_pairs
from repro.core.scoring import score_candidates_spark
from repro.core.similarity import per_attribute_cosine
from repro.embeddings.pretrained import FACTORIES

DICT = "glove840"
THRESHOLD = 0.5
CHUNK = 8_192  # pairs scored per block on the driver: bounds the gathers

JOIN_SQL = ("SELECT DISTINCT a.id AS id_a, b.id AS id_b FROM codes_a a "
            "JOIN codes_b b ON a.l = b.l AND a.bucket = b.bucket")


@dataclass
class Resolved:
    """A stage's output. Driver stages keep row-index pairs and their
    probabilities; a full Spark pass keeps the collected scored frame."""
    matches: set
    ij: np.ndarray | None = None
    prob: np.ndarray | None = None
    codes: tuple | None = None
    scored: pd.DataFrame | None = None
    spark_codes: tuple | None = None

    def frame(self, ids_a, ids_b) -> pd.DataFrame:
        if self.scored is not None:
            return self.scored
        return pd.DataFrame({"id_a": np.asarray(ids_a)[self.ij[:, 0]],
                             "id_b": np.asarray(ids_b)[self.ij[:, 1]],
                             "prob": self.prob})


# ------------------------------------------------------------------ stages -

def dr_driver(tr, table, attrs, d):
    with tr.span("compose.driver", tuples=len(table),
                 cells=len(table) * len(attrs)):
        return avg_tuple_matrix(table, attrs, FACTORIES[DICT](d))


def _ids(tr, ds):
    with tr.span("bench.glue"):
        return ds.table_a["id"].tolist(), ds.table_b["id"].tolist()


def _pair_array(pairs: set) -> np.ndarray:
    flat = np.fromiter(itertools.chain.from_iterable(pairs), dtype=np.int64,
                       count=2 * len(pairs))
    return flat.reshape(-1, 2)


def _score_driver(tr, model, va, vb, ij, m, d):
    with tr.span("scoring.driver", pairs=len(ij)):
        prob = np.empty(len(ij))
        for s in range(0, len(ij), CHUNK):
            c = ij[s:s + CHUNK]
            prob[s:s + CHUNK] = model.predict_proba(
                per_attribute_cosine(va[c[:, 0]], vb[c[:, 1]], m, d))
    return prob


def _matches(tr, ids_a, ids_b, ij, prob):
    with tr.span("bench.glue"):
        return {(ids_a[i], ids_b[j])
                for i, j in ij[prob >= THRESHOLD].tolist()}


def train(tr, ds, cfg) -> AvgDeepER:
    """Fit the matcher on the §5.1 labeled pair set of ``ds``."""
    m = len(ds.attributes)
    ids_a, ids_b = _ids(tr, ds)
    va = dr_driver(tr, ds.table_a, ds.attributes, cfg.d)
    vb = dr_driver(tr, ds.table_b, ds.attributes, cfg.d)
    with tr.span("pairs.sample", calls=1) as s:
        pairs, y, _ = sample_pairs(ds, va, vb, ids_a, ids_b,
                                   neg_ratio=cfg.neg_ratio, seed=cfg.seed)
        s.count(labeled=len(pairs))
    with tr.span("bench.glue"):
        row_a = {t: i for i, t in enumerate(ids_a)}
        row_b = {t: i for i, t in enumerate(ids_b)}
        ia = np.fromiter((row_a[a] for a, _ in pairs), np.int64, len(pairs))
        ib = np.fromiter((row_b[b] for _, b in pairs), np.int64, len(pairs))
    with tr.span("similarity.features", pairs=len(pairs)):
        X = per_attribute_cosine(va[ia], vb[ib], m, cfg.d)
    with tr.span("model.fit", pairs=len(X)):
        return AvgDeepER(m, hidden=cfg.hidden, lr=cfg.lr, epochs=cfg.epochs,
                         batch=cfg.batch, seed=cfg.seed).fit(X, y)


def resolve_driver(tr, ds, model, planes, d) -> Resolved:
    m = len(ds.attributes)
    ids_a, ids_b = _ids(tr, ds)
    va = dr_driver(tr, ds.table_a, ds.attributes, d)
    vb = dr_driver(tr, ds.table_b, ds.attributes, d)
    with tr.span("blocking.codes_driver", tuples=len(va) + len(vb)):
        codes = lsh_codes_np(va, planes), lsh_codes_np(vb, planes)
    with tr.span("blocking.join_driver") as s:
        cands = candidate_pairs_np(*codes)
        s.count(candidates=len(cands))
    with tr.span("bench.glue"):
        ij = _pair_array(cands)
    prob = _score_driver(tr, model, va, vb, ij, m, d)
    return Resolved(_matches(tr, ids_a, ids_b, ij, prob), ij, prob, codes)


def resolve_topn(tr, ds, model, planes, d, *, n_probes, top_n) -> Resolved:
    m = len(ds.attributes)
    ids_a, ids_b = _ids(tr, ds)
    va = dr_driver(tr, ds.table_a, ds.attributes, d)
    vb = dr_driver(tr, ds.table_b, ds.attributes, d)
    with tr.span("blocking.topn", tuples=len(va)) as s:
        cands = multiprobe_topn_candidates(va, vb, planes, n_probes=n_probes,
                                           top_n=top_n)
        s.count(candidates=len(cands))
    with tr.span("bench.glue"):
        ij = _pair_array(cands)
    prob = _score_driver(tr, model, va, vb, ij, m, d)
    return Resolved(_matches(tr, ids_a, ids_b, ij, prob), ij, prob)


def resolve_spark(tr, df_a, df_b, attrs, model, planes, d, *,
                  full=False) -> Resolved:
    """Algorithm 4 on Spark. The timed pass collects only the match set;
    ``full`` collects every scored candidate and keeps the code tables
    cached for the gate (the caller unpersists them). A traced pass
    materialises each layer boundary so that its span holds its work."""
    from pyspark.sql import functions as F

    m = len(attrs)
    cached = []

    def keep(df):
        cached.append(df.cache())
        return df

    with tr.span("compose.spark") as s:
        va = keep(avg_tuple_vectors_spark(df_a, attrs, DICT, d))
        vb = keep(avg_tuple_vectors_spark(df_b, attrs, DICT, d))
        if tr.on:
            s.count(tuples=va.count() + vb.count())
    with tr.span("blocking.codes_spark"):
        ca, cb = add_lsh_codes(va, planes), add_lsh_codes(vb, planes)
        if tr.on or full:
            ca, cb = keep(ca), keep(cb)
            ca.count(), cb.count()
    with tr.span("blocking.join_spark") as s:
        cands = candidate_pairs(ca, cb)
        if tr.on:
            cands = keep(cands)
            s.count(candidates=cands.count())
    with tr.span("scoring.spark") as s:
        if tr.on:
            s.count(pairs=cands.count())
        scored = score_candidates_spark(cands, va, vb, model, m, d)
        if full:
            pdf = scored.toPandas()
        else:
            rows = (scored.where(F.col("prob") >= THRESHOLD)
                    .select("id_a", "id_b").collect())
    with tr.span("bench.glue"):
        if full:
            hit = pdf["prob"].to_numpy() >= THRESHOLD
            matches = set(zip(pdf["id_a"][hit], pdf["id_b"][hit]))
        else:
            matches = {(r[0], r[1]) for r in rows}
    if full:
        cached.remove(ca)
        cached.remove(cb)
    for df in cached:
        df.unpersist()
    if full:
        return Resolved(matches, scored=pdf, spark_codes=(ca, cb))
    return Resolved(matches)


@contextmanager
def traced_library(tr):
    """Wrap the names ``evaluate_deeper``/``evaluate_magellan`` call into
    the layers, so their work shows as spans. Restored on exit."""
    import repro.baselines.magellan_lite as magellan_lite
    import repro.core.compose as compose
    import repro.core.deeper as deeper
    import repro.core.model as model

    def n(i):
        return lambda a, r: {"pairs": len(a[i])}

    patches = [
        (compose, "avg_tuple_matrix", "compose.driver",
         lambda a, r: {"tuples": len(a[0]), "cells": len(a[0]) * len(a[1])}),
        (deeper, "sample_pairs", "pairs.sample",
         lambda a, r: {"calls": 1, "labeled": len(r[0])}),
        (deeper, "per_attribute_cosine", "similarity.features", n(0)),
        (deeper, "featurize_pairs", "baselines.featurize", n(3)),
        (model.AvgDeepER, "fit", "model.fit", n(1)),
        (model.AvgDeepER, "predict_proba", "model.predict", n(1)),
        (magellan_lite.MagellanLite, "fit", "baselines.fit", n(1)),
        (magellan_lite.MagellanLite, "predict", "baselines.predict", n(1)),
    ]
    saved = [(obj, attr, getattr(obj, attr)) for obj, attr, _, _ in patches]
    for obj, attr, name, counts in patches:
        setattr(obj, attr, tr.wrap(name, getattr(obj, attr), counts))
    try:
        yield
    finally:
        for obj, attr, fn in saved:
            setattr(obj, attr, fn)


# -------------------------------------------------------------- statistics -

def blocking_stats(codes, ij, n_a, n_b) -> dict:
    """Skew and fan-out of an LSH join from the driver's codes: rows the
    ``(l, bucket)`` join emits before ``distinct``, bucket sizes (A+B
    tuples per bucket) and candidates per A-tuple."""
    codes_a, codes_b = codes
    join_rows, sizes = 0, []
    for l in range(codes_a.shape[1]):
        ka, ca = np.unique(codes_a[:, l], return_counts=True)
        kb, cb = np.unique(codes_b[:, l], return_counts=True)
        _, ia, ib = np.intersect1d(ka, kb, return_indices=True)
        join_rows += int((ca[ia] * cb[ib]).sum())
        sizes.extend(np.unique(np.concatenate([codes_a[:, l], codes_b[:, l]]),
                               return_counts=True)[1].tolist())
    per_a = np.bincount(ij[:, 0], minlength=n_a)
    n_cands = len(ij)
    return {
        "join_rows": join_rows,
        "candidates": n_cands,
        "dup_ratio": join_rows / n_cands if n_cands else 0.0,
        "rr": reduction_ratio(n_cands, n_a, n_b),
        "max_bucket": int(max(sizes)),
        "p99_bucket": float(np.percentile(sizes, 99)),
        "cands_per_a_mean": float(per_a.mean()),
        "cands_per_a_max": int(per_a.max()),
    }


def probes_per_a(planes, n_probes) -> int:
    L, K, _ = planes.shape
    return L * len(probe_offsets(K, n_probes))


def quality(ds, ids_a, ids_b, r: Resolved) -> dict:
    cands = set(zip(np.asarray(ids_a)[r.ij[:, 0]].tolist(),
                    np.asarray(ids_b)[r.ij[:, 1]].tolist()))
    precision, recall = end_to_end_pr(r.matches, ds.matches)
    f1 = (2 * precision * recall / (precision + recall)
          if precision + recall else 0.0)
    return {"pc": pair_completeness(cands, ds.matches), "precision": precision,
            "recall": recall, "f1": f1}


# -------------------------------------------------------------------- gate -

def check_resolve(ds, driver: Resolved, spark: Resolved, topn: Resolved,
                  *, top_n: int, pc_floor: float):
    """(name, predicate) pairs over the full warm-up outputs."""
    ids_a, ids_b = ds.table_a["id"].tolist(), ds.table_b["id"].tolist()
    want = driver.frame(ids_a, ids_b).set_index(["id_a", "id_b"])["prob"]
    got = spark.frame(ids_a, ids_b).set_index(["id_a", "id_b"])["prob"]

    def same_candidates():
        return (len(got) == len(want) and got.index.is_unique
                and set(got.index) == set(want.index))

    def probs_close():
        return np.allclose(got.reindex(want.index).to_numpy(),
                           want.to_numpy(), rtol=0.0, atol=1e-9)

    def at_most_n():
        return int(np.bincount(topn.ij[:, 0]).max()) <= top_n

    return [
        ("spark candidates == candidate_pairs_np", same_candidates),
        ("spark probabilities allclose(1e-9) to driver", probs_close),
        ("spark match set == driver match set",
         lambda: spark.matches == driver.matches),
        (f"top-N keeps <= {top_n} per A-tuple", at_most_n),
        (f"PC > {pc_floor}",
         lambda: quality(ds, ids_a, ids_b, driver)["pc"] > pc_floor),
    ]


def check_oracle(spark: Resolved):
    """The ``(l, bucket)`` join equals DuckDB's over the same code tables."""
    from repro.oracle import assert_equivalent

    ca, cb = spark.spark_codes

    def run():
        try:
            assert_equivalent(candidate_pairs(ca, cb), JOIN_SQL,
                              codes_a=ca, codes_b=cb)
        finally:
            ca.unpersist()
            cb.unpersist()
        return True

    return [("(l, bucket) join == DuckDB oracle", run)]

