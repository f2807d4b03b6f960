"""DeepER end to end: Algorithm 4 (§4.3) and Algorithm 5 (§4.4) as one call.

``fit_matcher`` trains the AVG DeepER head on a dataset's §5.1 labeled pair
set. ``resolve`` runs the pipeline over the whole dataset: tuple DRs →
LSH candidates → the classifier over every candidate. Algorithm 4 keeps
every co-bucketed pair and runs on the driver or on Spark; Algorithm 5
(multi-probe, then top-N by DR cosine) runs on the driver. Every path
returns the same form, so the Spark path is checked against the driver
with ``np.array_equal`` on the candidates.
"""
from __future__ import annotations

from typing import NamedTuple

import numpy as np
from pyspark.sql import SparkSession

from repro.blocking import (
    add_lsh_codes,
    candidate_pairs,
    candidate_pairs_np,
    lsh_codes_np,
    multiprobe_topn_candidates,
)
from repro.core import compose
from repro.core.deeper import DeepERConfig, _prepare, network
from repro.core.model import AvgDeepER
from repro.core.scoring import score_candidates_spark
from repro.core.similarity import per_attribute_cosine
from repro.embeddings.pretrained import FACTORIES
from repro.er_data.datasets import ERDataset, to_spark

CHUNK = 8_192  # candidates scored per block on the driver: bounds the gathers


class Resolution(NamedTuple):
    """Distinct ``(n, 2)`` int64 row-index candidates sorted by ``(i, j)``,
    and each candidate's match probability (``None`` when nothing was
    scored)."""

    ij: np.ndarray
    prob: np.ndarray | None


def _require_static_avg(cfg: DeepERConfig) -> None:
    """The static AVG DRs are the only ones this module builds and scores;
    any other configuration would silently score different DRs."""
    if (cfg.composition != "avg" or cfg.update_embeddings
            or cfg.use_retrofit):
        raise ValueError(
            "the pipeline needs composition='avg', update_embeddings=False "
            f"and use_retrofit=False; got composition={cfg.composition!r}, "
            f"update_embeddings={cfg.update_embeddings}, "
            f"use_retrofit={cfg.use_retrofit}")


def fit_matcher(ds: ERDataset, cfg: DeepERConfig) -> AvgDeepER:
    """``AvgDeepER`` (``deeper.network``) fitted on the whole §5.1 labeled
    pair set of ``ds`` (``_prepare``, then per-attribute cosine features).

    Raises ``ValueError`` for a ``cfg`` other than static AVG, and as
    ``_prepare`` does."""
    _require_static_avg(cfg)
    prep = _prepare(ds, cfg)
    m = len(ds.attributes)
    X = per_attribute_cosine(prep.vec_a[prep.ij[:, 0]],
                             prep.vec_b[prep.ij[:, 1]], m, cfg.d)
    return network(cfg, m).fit(X, prep.y)


def resolve(ds: ERDataset, planes: np.ndarray, cfg: DeepERConfig,
            model: AvgDeepER | None = None, *,
            spark: SparkSession | None = None, n_probes: int | None = None,
            top_n: int | None = None) -> Resolution:
    """Block ``ds`` with the LSH ``planes`` over its AVG tuple DRs
    (``cfg.dictionary``, ``cfg.d``) and score every candidate with
    ``model``.

    Algorithm 4 by default: every pair co-bucketed in some table, on the
    driver, or on ``spark`` when a session is given. With ``top_n``,
    Algorithm 5 on the driver: ``multiprobe_topn_candidates`` with
    ``n_probes`` (default 1). Raises ``ValueError`` for ``spark`` with
    top-N, for ``n_probes`` without ``top_n``, and for a ``cfg`` other
    than static AVG.
    """
    _require_static_avg(cfg)
    if top_n is None and n_probes is not None:
        raise ValueError("n_probes needs top_n: multi-probe is Algorithm 5")
    if spark is not None and top_n is not None:
        raise ValueError("top-N blocking (Algorithm 5) runs on the driver "
                         "only; pass spark=None")
    if spark is not None:
        return _resolve_spark(spark, ds, planes, cfg, model)
    dictionary = FACTORIES[cfg.dictionary](cfg.d)
    va = compose.avg_tuple_matrix(ds.table_a, ds.attributes, dictionary)
    vb = compose.avg_tuple_matrix(ds.table_b, ds.attributes, dictionary)
    if top_n is None:
        ij = candidate_pairs_np(lsh_codes_np(va, planes),
                                lsh_codes_np(vb, planes))
    else:
        ij = multiprobe_topn_candidates(
            va, vb, planes, n_probes=1 if n_probes is None else n_probes,
            top_n=top_n)
    if model is None:
        return Resolution(ij, None)
    m = len(ds.attributes)
    prob = np.empty(len(ij))
    for s in range(0, len(ij), CHUNK):
        c = ij[s:s + CHUNK]
        prob[s:s + CHUNK] = model.predict_proba(
            per_attribute_cosine(va[c[:, 0]], vb[c[:, 1]], m, cfg.d))
    return Resolution(ij, prob)


def _resolve_spark(spark: SparkSession, ds: ERDataset, planes: np.ndarray,
                   cfg: DeepERConfig, model: AvgDeepER | None) -> Resolution:
    """Algorithm 4 as a Spark dataflow (``mapInPandas`` DRs and codes, the
    ``(l, bucket)`` join, broadcast scoring), collected once and mapped
    back to sorted row indices through ``ds.row_pairs``."""
    df_a, df_b = to_spark(spark, ds)
    vecs = [compose.avg_tuple_vectors_spark(df, ds.attributes,
                                            cfg.dictionary, cfg.d).cache()
            for df in (df_a, df_b)]
    try:
        cands = candidate_pairs(*(add_lsh_codes(v, planes) for v in vecs))
        if model is not None:
            cands = score_candidates_spark(cands, *vecs, model,
                                           len(ds.attributes), cfg.d)
        pdf = cands.toPandas()
    finally:
        for v in vecs:
            v.unpersist()
    ij = ds.row_pairs(zip(pdf["id_a"], pdf["id_b"])).astype(np.int64)
    order = np.lexsort((ij[:, 1], ij[:, 0]))
    prob = None if model is None else pdf["prob"].to_numpy()[order]
    return Resolution(ij[order], prob)
