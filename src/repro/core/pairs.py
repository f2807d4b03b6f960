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

from repro.core.similarity import cosine_topk, tuple_cosine
from repro.er_data.datasets import ERDataset


def sample_pairs(ds: ERDataset, vec_a: np.ndarray, vec_b: np.ndarray,
                 ids_a: list[str], ids_b: list[str], *,
                 neg_ratio: int = 10, seed: int = 0):
    """Build the labeled pair set.

    Returns ``(pairs, labels, threshold)`` where pairs are ``(id_a, id_b)``
    and labels are 1.0 for matches. Negatives per positive: ``neg_ratio``,
    half drawn as informative near-misses (highest-cosine non-matches, of
    equal cosines the lower ``vec_b`` row first), half uniform; both lie
    below the threshold. Raises ``ValueError`` if
    ``neg_ratio < 0`` or if ``ids_a`` or ``ids_b`` repeats an id.
    """
    if neg_ratio < 0:
        raise ValueError(f"neg_ratio must be >= 0, got {neg_ratio}")
    rng = np.random.default_rng(seed)
    row_a = {t: i for i, t in enumerate(ids_a)}
    row_b = {t: i for i, t in enumerate(ids_b)}
    for side, ids, rows in (("A", ids_a, row_a), ("B", ids_b, row_b)):
        if len(rows) < len(ids):
            raise ValueError(f"duplicate ids in table {side}")
    match_of = {a: b for a, b in ds.matches}

    pairs: list[tuple[str, str]] = sorted(ds.matches)
    labels: list[float] = [1.0] * len(pairs)
    ia = np.fromiter((row_a[a] for a, _ in pairs), np.intp, len(pairs))
    ib = np.fromiter((row_b[b] for _, b in pairs), np.intp, len(pairs))
    pos_sims = tuple_cosine(vec_a[ia], vec_b[ib])
    # Paper: minimum matched similarity. We use the 5th percentile — with
    # synthetic noise a single badly corrupted match can drag the strict
    # minimum to ~0, which would make every negative trivially easy.
    threshold = float(np.percentile(pos_sims, 5)) if pairs else 0.0

    n_b = len(ids_b)
    n_hard, n_easy = neg_ratio - neg_ratio // 2, neg_ratio // 2
    # rank one extra: the match's own row may sit among the top ones and
    # is dropped from ``hard``
    n_top = n_hard + 1 if n_hard and n_b else 0
    pos_a = sorted({a for a, _ in ds.matches})
    rows_a = np.fromiter((row_a[a] for a in pos_a), np.intp, len(pos_a))
    # Paper §5.1: negatives are non-matches whose cosine lies *below* the
    # minimum matched-pair similarity (the candidate threshold); among
    # those, prefer the most similar ones (informative near-misses, the
    # "truck not dog" principle). Pairs above the threshold are boundary
    # cases excluded from the labeled set.
    ranked = cosine_topk(vec_a[rows_a], vec_b, n_top, below=threshold)
    seen = set(pairs)
    rows_b = np.arange(n_b)
    for a, (top, below) in zip(pos_a, ranked):
        other = rows_b != row_b[match_of[a]]
        hard = top[other[top]][:n_hard]
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


def kfold_indices(n: int, folds: int, *, labels: np.ndarray, seed: int = 0):
    """Stratified K-fold index splits ``[(train_idx, test_idx), ...]`` of
    the ``n`` items labeled ``labels``.

    Stratification keeps the positive rate of each fold equal — with a
    1:10+ class ratio an unstratified small fold can end up with almost no
    positives, making fold F1 meaningless.
    """
    rng = np.random.default_rng(seed)
    splits = [[] for _ in range(folds)]
    for cls in np.unique(labels):
        idx = np.flatnonzero(labels == cls)
        idx = idx[rng.permutation(len(idx))]
        for f, chunk in enumerate(np.array_split(idx, folds)):
            splits[f].extend(chunk.tolist())
    out = []
    all_idx = set(range(n))
    for f in range(folds):
        test = np.asarray(sorted(splits[f]), dtype=np.intp)
        train = np.asarray(sorted(all_idx - set(splits[f])), dtype=np.intp)
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
