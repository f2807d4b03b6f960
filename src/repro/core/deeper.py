"""End-to-end DeepER evaluation pipeline (§5.1 protocol).

``_prepare`` is the front half, built once per dataset on the driver: the
dictionary, the tuple DRs, and the labeled pair set (matches + sampled
informative negatives) as row indices into both tables. ``evaluate_deeper``
K-fold cross-validates the chosen DeepER model on it and reports mean
F1/precision/recall; ``evaluate_magellan`` runs the Magellan-lite baseline
on the *same* pair set so the Table 4 comparison isolates the
representation. ``compare`` runs both from one ``_prepare``.

Both go through ``_cv``, which fits the K folds in parallel: one forked
worker per fold, up to the CPUs this process may use. Each fold runs the
same code on the same inputs with the same seed as in one process, so
results are identical to a sequential loop. The workers run numpy only;
they never touch Spark or py4j, which is what makes forking safe even
when the caller holds a live SparkSession.
"""
from __future__ import annotations

import gc
import multiprocessing as mp
import os
from dataclasses import dataclass
from functools import partial
from typing import ClassVar, NamedTuple

import numpy as np

from repro.baselines.magellan_lite import MagellanLite, featurize_pairs
from repro.core import compose
from repro.core.model import AvgDeepER, AvgDeepEREndToEnd, LSTMDeepER
from repro.core.pairs import f1_score, kfold_indices, sample_pairs
from repro.core.similarity import per_attribute_cosine
from repro.embeddings.pretrained import FACTORIES, SyntheticEmbeddings
from repro.embeddings.retrofit import retrofit_vocabulary
from repro.er_data.datasets import ERDataset


@dataclass(frozen=True)
class DeepERConfig:
    """Paper defaults (§5.1), with sizes scaled per DESIGN.md §5.

    The training recipe that no run varies (the similarity-layer width
    ``hidden``, Adam's ``lr`` and the ``batch`` size) is constant.

    Raises ``ValueError`` for a composition with no model, for
    ``update_embeddings`` with an LSTM composition (only the AVG model
    trains its embeddings), for ``folds < 2`` or ``epochs < 1``, which
    would score an untrained model, for ``neg_ratio < 1``, which samples
    no negatives, and for ``d < 1``, which has no embedding to compose."""

    composition: str = "avg"        # avg | lstm | bilstm
    dictionary: str = "glove840"
    d: int = 64                     # paper: 300
    update_embeddings: bool = False  # Figure 8 "Update"
    use_retrofit: bool = False      # §3.2 vocabulary retrofitting
    hidden: ClassVar[int] = 24      # paper similarity layer: 50
    epochs: int = 20
    batch: ClassVar[int] = 16
    lr: ClassVar[float] = 0.01
    neg_ratio: int = 10             # paper: 1:100 (Table 4) / 1:4 (§5.3)
    folds: int = 3                  # paper: 5
    seed: int = 0

    def __post_init__(self):
        if self.composition not in ("avg", "lstm", "bilstm"):
            raise ValueError(f"unknown composition {self.composition!r}")
        if self.update_embeddings and self.composition != "avg":
            raise ValueError("update_embeddings=True needs composition='avg'; "
                             f"the {self.composition} model keeps its "
                             "embeddings static")
        for name, low in (("folds", 2), ("epochs", 1), ("neg_ratio", 1),
                          ("d", 1)):
            if getattr(self, name) < low:
                raise ValueError(f"{name} must be >= {low}, "
                                 f"got {getattr(self, name)}")


class Prepared(NamedTuple):
    """What every evaluator of a dataset shares: dictionary, retrofitted OOV
    vectors, tuple DRs, and the labeled pairs as row indices ``ij``."""

    dictionary: SyntheticEmbeddings
    extra: dict | None
    vec_a: np.ndarray
    vec_b: np.ndarray
    ij: np.ndarray
    y: np.ndarray


def _tuple_tokens(ds: ERDataset) -> list[list[str]]:
    """The token list of every tuple of A, then of B."""
    return [toks for t in (ds.table_a, ds.table_b)
            for toks in compose.tuple_tokens(t, ds.attributes)]


def _prepare(ds: ERDataset, cfg: DeepERConfig) -> Prepared:
    """Dictionary (+retrofit), driver-side tuple DRs, and the pair set.

    Raises ``ValueError`` for an empty match set and, through
    ``sample_pairs``, for a table that repeats an id."""
    dictionary = FACTORIES[cfg.dictionary](cfg.d)
    extra = None
    if cfg.use_retrofit:
        extra = retrofit_vocabulary(_tuple_tokens(ds), dictionary)
    vec_a = compose.avg_tuple_matrix(ds.table_a, ds.attributes,
                                     dictionary, extra)
    vec_b = compose.avg_tuple_matrix(ds.table_b, ds.attributes,
                                     dictionary, extra)
    pairs, y, _ = sample_pairs(
        ds, vec_a, vec_b, ds.table_a["id"].tolist(),
        ds.table_b["id"].tolist(), neg_ratio=cfg.neg_ratio, seed=cfg.seed,
    )
    if not pairs:
        raise ValueError(f"dataset {ds.name!r} has no labeled pairs: "
                         "its match set is empty")
    return Prepared(dictionary, extra, vec_a, vec_b, ds.row_pairs(pairs), y)


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


def network(cfg: DeepERConfig, m: int, emb: np.ndarray | None = None,
            fold: int = 0):
    """The DeepER network ``cfg`` names, over ``m`` attributes and seeded
    ``cfg.seed + fold``: AVG over precomputed cosine features, AVG that
    trains the embedding matrix ``emb``, or the (Bi-)LSTM over ``emb``."""
    kw = dict(hidden=cfg.hidden, lr=cfg.lr, epochs=cfg.epochs,
              batch=cfg.batch, seed=cfg.seed + fold)
    if cfg.composition != "avg":
        return LSTMDeepER(m, emb, bidirectional=cfg.composition == "bilstm",
                          **kw)
    if cfg.update_embeddings:
        return AvgDeepEREndToEnd(m, emb, **kw)
    return AvgDeepER(m, **kw)


def _deeper_cv(ds: ERDataset, cfg: DeepERConfig, prep: Prepared):
    (ia, ib), y = prep.ij.T, prep.y
    m = len(ds.attributes)
    emb = None
    if cfg.composition == "avg" and not cfg.update_embeddings:
        inputs = (per_attribute_cosine(prep.vec_a[ia], prep.vec_b[ib], m,
                                       cfg.d),)
    else:  # the trainable networks read token-id tensors
        index, emb = prep.dictionary.as_matrix(
            {w for toks in _tuple_tokens(ds) for w in toks}, extra=prep.extra)
        (tok_a, msk_a), (tok_b, msk_b) = (
            compose.encode_attr_tokens(t, ds.attributes, index)
            for t in (ds.table_a, ds.table_b))
        inputs = (tok_a[ia], msk_a[ia], tok_b[ib], msk_b[ib])

    def fit_predict(model, tr, te):
        model.fit(*(a[tr] for a in inputs), y[tr])
        proba = model.predict_proba(*(a[te] for a in inputs))
        return (proba >= 0.5).astype(float)

    return _cv(y, partial(network, cfg, m, emb), fit_predict, cfg)


def _magellan_cv(ds: ERDataset, cfg: DeepERConfig, prep: Prepared):
    X = featurize_pairs(ds.table_a, ds.table_b, ds.attributes, prep.ij)

    def factory(fold):
        return MagellanLite(X.shape[1], seed=cfg.seed + fold)

    def fit_predict(model, tr, te):
        model.fit(X[tr], prep.y[tr])
        return model.predict(X[te])

    return _cv(prep.y, factory, fit_predict, cfg)


def evaluate_deeper(ds: ERDataset, cfg: DeepERConfig = DeepERConfig()):
    """Cross-validated DeepER F1 on one dataset."""
    return _deeper_cv(ds, cfg, _prepare(ds, cfg))


def evaluate_magellan(ds: ERDataset, cfg: DeepERConfig = DeepERConfig()):
    """Magellan-lite on the same pair set / CV splits as DeepER."""
    return _magellan_cv(ds, cfg, _prepare(ds, cfg))


def compare(ds: ERDataset, cfg: DeepERConfig = DeepERConfig()):
    """``(evaluate_deeper(ds, cfg), evaluate_magellan(ds, cfg))`` from one
    ``_prepare``: both systems score the one labeled pair set it builds."""
    prep = _prepare(ds, cfg)
    return _deeper_cv(ds, cfg, prep), _magellan_cv(ds, cfg, prep)
