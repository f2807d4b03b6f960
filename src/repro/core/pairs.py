"""Training/evaluation pair construction (§5.1 "DeepER Setup").

Following the paper: the similarity threshold is set to the *minimum tuple
cosine among matched pairs in the training data*; negative examples are
generated from positives by pairing a matched tuple with a random
non-matching tuple, preferring *informative* negatives (near-misses whose
similarity approaches the threshold — the paper's "truck not dog as the
negative for cat"). Evaluation is K-fold cross-validation over the pair set.
"""
from __future__ import annotations

import numpy as np

from repro.core.similarity import tuple_cosine
from repro.er_data.datasets import ERDataset


def sample_pairs(ds: ERDataset, vec_a: np.ndarray, vec_b: np.ndarray,
                 ids_a: list[str], ids_b: list[str], *,
                 neg_ratio: int = 10, seed: int = 0):
    """Build the labeled pair set.

    Returns ``(pairs, labels)`` where pairs are ``(id_a, id_b)`` and labels
    are 1.0 for matches. Negatives per positive: ``neg_ratio``, half drawn
    as informative near-misses (highest-cosine non-matches from a random
    candidate pool), half uniform.
    """
    rng = np.random.default_rng(seed)
    pos_a = {a for a, _ in ds.matches}
    row_a = {t: i for i, t in enumerate(ids_a)}
    row_b = {t: i for i, t in enumerate(ids_b)}
    match_of = {a: b for a, b in ds.matches}

    pairs: list[tuple[str, str]] = []
    labels: list[float] = []

    pos_sims = []
    for a, b in sorted(ds.matches):
        pairs.append((a, b))
        labels.append(1.0)
        pos_sims.append(float(tuple_cosine(vec_a[row_a[a]], vec_b[row_b[b]])))
    # Paper: minimum matched similarity. We use the 5th percentile — with
    # synthetic noise a single badly corrupted match can drag the strict
    # minimum to ~0, which would make every negative trivially easy.
    threshold = float(np.percentile(pos_sims, 5)) if pos_sims else 0.0

    n_b = len(ids_b)
    norm_b = np.linalg.norm(vec_b, axis=-1)
    # equal ids share a code, so "not the match" is an integer compare
    code_of = {t: c for c, t in enumerate(dict.fromkeys(ids_b))}
    code_b = np.fromiter((code_of[t] for t in ids_b), np.int64, n_b)
    n_hard, n_easy = neg_ratio - neg_ratio // 2, neg_ratio // 2
    seen = set(pairs)
    for a in sorted(pos_a):
        # Paper §5.1: negatives are non-matches whose cosine lies *below*
        # the minimum matched-pair similarity (the candidate threshold);
        # among those, prefer the most similar ones (informative
        # near-misses, the "truck not dog" principle). Pairs above the
        # threshold are boundary cases excluded from the labeled set.
        sims = tuple_cosine(vec_a[row_a[a]][None, :], vec_b, norm_b)
        below = sims < threshold
        other = code_b != code_of.get(match_of[a], -1)
        order = np.flatnonzero(below)
        order = order[np.argsort(-sims[order])]
        hard = order[other[order]][:n_hard]
        perm = rng.permutation(n_b)
        easy = perm[(below & other)[perm]][:n_easy]
        for bi in np.concatenate([hard, easy]).tolist():
            p = (a, ids_b[bi])
            if p in seen:
                continue
            seen.add(p)
            pairs.append(p)
            labels.append(0.0)
    return pairs, np.asarray(labels), threshold


def kfold_indices(n: int, folds: int, seed: int = 0,
                  labels: np.ndarray | None = None):
    """Stratified K-fold index splits ``[(train_idx, test_idx), ...]``.

    Stratification keeps the positive rate of each fold equal — with a
    1:10+ class ratio an unstratified small fold can end up with almost no
    positives, making fold F1 meaningless.
    """
    rng = np.random.default_rng(seed)
    if labels is None:
        labels = np.zeros(n)
    splits = [[] for _ in range(folds)]
    for cls in np.unique(labels):
        idx = np.flatnonzero(labels == cls)
        idx = idx[rng.permutation(len(idx))]
        for f, chunk in enumerate(np.array_split(idx, folds)):
            splits[f].extend(chunk.tolist())
    out = []
    all_idx = set(range(n))
    for f in range(folds):
        test = np.asarray(sorted(splits[f]))
        train = np.asarray(sorted(all_idx - set(splits[f])))
        out.append((train, test))
    return out


def f1_score(y_true: np.ndarray, y_pred: np.ndarray):
    """(f1, precision, recall) of the positive class."""
    tp = float(np.sum((y_pred == 1) & (y_true == 1)))
    fp = float(np.sum((y_pred == 1) & (y_true == 0)))
    fn = float(np.sum((y_pred == 0) & (y_true == 1)))
    prec = tp / (tp + fp) if tp + fp else 0.0
    rec = tp / (tp + fn) if tp + fn else 0.0
    f1 = 2 * prec * rec / (prec + rec) if prec + rec else 0.0
    return f1, prec, rec
