"""Distributed classifier application (the "apply classifier over blocks"
half of Algorithm 4).

The trained DeepER head is tiny (two dense layers) and the tuple DRs of
both tables are small next to the candidate set (n·m·d doubles against
|C|·2·m·d), so both are collected once and broadcast to the executors.
Each ``mapInPandas`` task gathers its candidates' DR rows from the
broadcast matrices, computes the per-attribute cosine similarity vector
and runs the dense head; no vector is shuffled or joined per pair.
"""
from __future__ import annotations

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame
from pyspark.sql import types as T

from repro.core.compose import collect_vectors
from repro.core.model import AvgDeepER
from repro.core.similarity import per_attribute_cosine

_SCORE_SCHEMA = T.StructType([
    T.StructField("id_a", T.StringType()),
    T.StructField("id_b", T.StringType()),
    T.StructField("prob", T.DoubleType()),
])


def export_head(model: AvgDeepER) -> dict:
    """Plain-numpy snapshot of the trained head for broadcasting."""
    return {
        "W1": model.dense.params["W"].copy(),
        "b1": model.dense.params["b"].copy(),
        "W2": model.clf.params["W"].copy(),
        "b2": model.clf.params["b"].copy(),
    }


def _head_forward(weights: dict, X: np.ndarray) -> np.ndarray:
    h = np.tanh(X @ weights["W1"] + weights["b1"])
    z = h @ weights["W2"] + weights["b2"]
    return 1.0 / (1.0 + np.exp(-z[:, 0]))


def score_candidates_spark(cands: DataFrame, vec_a: DataFrame,
                           vec_b: DataFrame, model: AvgDeepER,
                           m: int, d: int) -> DataFrame:
    """``(id_a, id_b)`` candidates -> ``(id_a, id_b, prob)``.

    ``vec_a`` / ``vec_b`` are ``(id, vec)`` DataFrames from
    :func:`repro.core.compose.avg_tuple_vectors_spark`; their ids must be
    unique. A candidate whose id has no vector is dropped, as an inner join
    on the vector tables would drop it.
    """
    spark = cands.sparkSession
    ids_a, mat_a = collect_vectors(vec_a)
    ids_b, mat_b = collect_vectors(vec_b)
    bc = spark.sparkContext.broadcast(
        (pd.Index(ids_a), mat_a, pd.Index(ids_b), mat_b, export_head(model)))

    def score(iterator):
        index_a, va, index_b, vb, w = bc.value
        for pdf in iterator:
            ia = index_a.get_indexer(pdf["id_a"])
            ib = index_b.get_indexer(pdf["id_b"])
            keep = (ia >= 0) & (ib >= 0)
            if not keep.any():
                continue
            ia, ib = ia[keep], ib[keep]
            X = per_attribute_cosine(va[ia], vb[ib], m, d)
            yield pd.DataFrame({"id_a": pdf["id_a"].to_numpy()[keep],
                                "id_b": pdf["id_b"].to_numpy()[keep],
                                "prob": _head_forward(w, X)})

    # Every Python task pays a fixed start-up cost far above the cost of
    # scoring its share of pairs, so run one task per core rather than
    # one per shuffle partition (coalesce never adds partitions).
    return (cands.select("id_a", "id_b")
            .coalesce(spark.sparkContext.defaultParallelism)
            .mapInPandas(score, schema=_SCORE_SCHEMA))
