"""End-to-end DeepER evaluation pipeline (§5.1 protocol).

``evaluate_deeper`` runs the paper's setup on one dataset: compute tuple
DRs, build the labeled pair set (matches + sampled informative negatives),
K-fold cross-validate the chosen model, and report mean F1/precision/recall.
``evaluate_magellan`` runs the Magellan-lite baseline on the *same* pair
set so the Table 4 comparison isolates the representation.

Both go through ``_cv``, which fits the K folds in parallel: one forked
worker per fold, up to the CPUs this process may use. Each fold runs the
same code on the same inputs with the same seed as in one process, so
results are identical to a sequential loop. The workers run numpy only;
they never touch Spark or py4j, which is what makes forking safe even
when the caller holds a live SparkSession (``evaluate_deeper(spark=...)``).
"""
from __future__ import annotations

import gc
import multiprocessing as mp
import os
from dataclasses import dataclass, replace

import numpy as np

from repro.baselines.magellan_lite import MagellanLite, featurize_pairs
from repro.core import compose
from repro.core.model import AvgDeepER, AvgDeepEREndToEnd, LSTMDeepER
from repro.core.pairs import f1_score, kfold_indices, sample_pairs
from repro.core.similarity import per_attribute_cosine
from repro.embeddings.pretrained import FACTORIES
from repro.embeddings.retrofit import retrofit_vocabulary
from repro.er_data.datasets import ERDataset, tuple_token_lists, vocabulary


@dataclass(frozen=True)
class DeepERConfig:
    """Paper defaults (§5.1), with sizes scaled per DESIGN.md §5."""

    composition: str = "avg"        # avg | lstm | bilstm
    dictionary: str = "glove840"
    d: int = 32                     # paper: 300
    update_embeddings: bool = False  # Figure 8 "Update"
    use_retrofit: bool = False      # §3.2 vocabulary retrofitting
    lstm_dim: int = 24              # paper: 150
    hidden: int = 24                # paper similarity layer: 50
    epochs: int = 20
    batch: int = 16
    lr: float = 0.01
    neg_ratio: int = 10             # paper: 1:100 (Table 4) / 1:4 (§5.3)
    folds: int = 3                  # paper: 5
    seed: int = 0
    max_tokens: int = 18


def _prepare(ds: ERDataset, cfg: DeepERConfig, spark=None):
    """Shared front half: dictionary (+retrofit), tuple DRs, pair set.

    With ``spark`` given, tuple DRs are computed distributed (mapInPandas
    per partition) and collected; otherwise on the driver. Both paths are
    exactly equal (tested in test_core_compose).
    """
    dictionary = FACTORIES[cfg.dictionary](cfg.d)
    extra = None
    if cfg.use_retrofit:
        extra = retrofit_vocabulary(tuple_token_lists(ds), dictionary)
    ids_a = ds.table_a["id"].tolist()
    ids_b = ds.table_b["id"].tolist()
    if spark is not None:
        from repro.er_data.datasets import to_spark

        df_a, df_b = to_spark(spark, ds)
        got_a, mat_a = compose.collect_vectors(compose.avg_tuple_vectors_spark(
            df_a, ds.attributes, cfg.dictionary, cfg.d, extra))
        got_b, mat_b = compose.collect_vectors(compose.avg_tuple_vectors_spark(
            df_b, ds.attributes, cfg.dictionary, cfg.d, extra))
        row_a = {t: i for i, t in enumerate(got_a)}
        row_b = {t: i for i, t in enumerate(got_b)}
        vec_a = mat_a[[row_a[i] for i in ids_a]]
        vec_b = mat_b[[row_b[i] for i in ids_b]]
    else:
        vec_a = compose.avg_tuple_matrix(ds.table_a, ds.attributes,
                                         dictionary, extra)
        vec_b = compose.avg_tuple_matrix(ds.table_b, ds.attributes,
                                         dictionary, extra)
    pairs, y, threshold = sample_pairs(
        ds, vec_a, vec_b, ids_a, ids_b,
        neg_ratio=cfg.neg_ratio, seed=cfg.seed,
    )
    return dictionary, extra, ids_a, ids_b, vec_a, vec_b, pairs, y, threshold


# (model_factory, fit_predict, splits) of the ``_cv`` call a pool worker
# serves; set once per worker by ``_init_worker``, never in the parent.
_WORKER_JOB = None


def _init_worker(*job):
    global _WORKER_JOB
    _WORKER_JOB = job
    # The worker never collects an object it inherited: no py4j finalizer
    # can then write to the JVM socket the parent shares, and the
    # collector does not copy the parent's pages by touching them.
    gc.freeze()


def _run_fold(model_factory, fit_predict, splits, fold):
    tr, te = splits[fold]
    return fit_predict(model_factory(fold), tr, te)


def _worker_fold(fold):
    return _run_fold(*_WORKER_JOB, fold)


def _cv(y, model_factory, fit_predict, cfg: DeepERConfig):
    """Stratified K-fold CV returning mean (f1, prec, rec) and per-fold F1.

    Folds are fitted in a ``fork`` pool of one worker per fold, up to the
    CPUs in ``os.sched_getaffinity(0)``. Under fork the workers inherit
    ``model_factory``, ``fit_predict`` (closures over the pair arrays) and
    the splits instead of receiving them pickled; each sends back only its
    fold's predictions. Scoring and averaging stay here, in fold order, so
    the result equals the sequential loop's exactly. The folds run in this
    process instead when one worker is all there is, when ``fork`` is not
    available, or when this process is itself a daemon (a pool worker may
    not have children).
    """
    splits = kfold_indices(len(y), cfg.folds, seed=cfg.seed, labels=y)
    job = (model_factory, fit_predict, splits)
    workers = min(len(splits), len(os.sched_getaffinity(0)))
    if (workers < 2 or "fork" not in mp.get_all_start_methods()
            or mp.current_process().daemon):
        preds = [_run_fold(*job, fold) for fold in range(len(splits))]
    else:
        ctx = mp.get_context("fork")
        with ctx.Pool(workers, initializer=_init_worker, initargs=job) as pool:
            preds = pool.map(_worker_fold, range(len(splits)), chunksize=1)
    scores = [f1_score(y[te], p) for (_, te), p in zip(splits, preds)]
    arr = np.asarray(scores)
    return {
        "f1": float(arr[:, 0].mean()),
        "precision": float(arr[:, 1].mean()),
        "recall": float(arr[:, 2].mean()),
        "per_fold": [float(s) for s in arr[:, 0]],
    }


def evaluate_deeper(ds: ERDataset, cfg: DeepERConfig = DeepERConfig(),
                    spark=None):
    """Cross-validated DeepER F1 on one dataset. ``spark`` routes the DR
    computation through the distributed mapInPandas path."""
    (dictionary, extra, ids_a, ids_b, vec_a, vec_b,
     pairs, y, _thr) = _prepare(ds, cfg, spark)
    m, d = len(ds.attributes), cfg.d
    row_a = {t: i for i, t in enumerate(ids_a)}
    row_b = {t: i for i, t in enumerate(ids_b)}
    ia = np.asarray([row_a[a] for a, _ in pairs])
    ib = np.asarray([row_b[b] for _, b in pairs])

    if cfg.composition == "avg" and not cfg.update_embeddings:
        X = per_attribute_cosine(vec_a[ia], vec_b[ib], m, d)

        def factory(fold):
            return AvgDeepER(m, hidden=cfg.hidden, lr=cfg.lr,
                             epochs=cfg.epochs, batch=cfg.batch,
                             seed=cfg.seed + fold)

        def fit_predict(model, tr, te):
            model.fit(X[tr], y[tr])
            return (model.predict_proba(X[te]) >= 0.5).astype(float)

        return _cv(y, factory, fit_predict, cfg)

    # trainable paths need token-id tensors
    vocab = vocabulary(ds)
    index, emb = dictionary.as_matrix(vocab, extra=extra)
    tok_a, msk_a = compose.encode_attr_tokens(ds.table_a, ds.attributes,
                                              index, cfg.max_tokens)
    tok_b, msk_b = compose.encode_attr_tokens(ds.table_b, ds.attributes,
                                              index, cfg.max_tokens)
    pa, pmska = tok_a[ia], msk_a[ia]
    pb, pmskb = tok_b[ib], msk_b[ib]

    if cfg.composition == "avg":  # update_embeddings=True
        def factory(fold):
            return AvgDeepEREndToEnd(m, emb, hidden=cfg.hidden, lr=cfg.lr,
                                     epochs=cfg.epochs, batch=cfg.batch,
                                     seed=cfg.seed + fold,
                                     update_embeddings=True)
    elif cfg.composition in ("lstm", "bilstm"):
        def factory(fold):
            return LSTMDeepER(m, emb,
                              bidirectional=cfg.composition == "bilstm",
                              lstm_dim=cfg.lstm_dim, hidden=cfg.hidden,
                              lr=cfg.lr, epochs=cfg.epochs, batch=cfg.batch,
                              seed=cfg.seed + fold)
    else:
        raise ValueError(f"unknown composition {cfg.composition!r}")

    def fit_predict(model, tr, te):
        model.fit(pa[tr], pmska[tr], pb[tr], pmskb[tr], y[tr])
        proba = model.predict_proba(pa[te], pmska[te], pb[te], pmskb[te])
        return (proba >= 0.5).astype(float)

    return _cv(y, factory, fit_predict, cfg)


def evaluate_magellan(ds: ERDataset, cfg: DeepERConfig = DeepERConfig()):
    """Magellan-lite on the same pair set / CV splits as DeepER."""
    (_dict, _extra, _ia, _ib, _va, _vb, pairs, y, _thr) = _prepare(ds, cfg)
    X = featurize_pairs(ds.table_a, ds.table_b, ds.attributes, pairs)

    def factory(fold):
        return MagellanLite(X.shape[1], seed=cfg.seed + fold)

    def fit_predict(model, tr, te):
        model.fit(X[tr], y[tr])
        return model.predict(X[te])

    return _cv(y, factory, fit_predict, cfg)
