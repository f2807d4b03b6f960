"""Distributional similarity of tuple DRs (§2.3 "Computing Distributional
Similarity").

AVG path: per-attribute cosine over each ``d``-dim block → ``m``-dim
similarity vector. The LSTM path's element-wise |difference| of the
composed vectors lives in ``model.LSTMDeepER``, whose backward pass needs
the sign of the difference.

Ranking B-tuples by whole-tuple cosine for each A-tuple (§5.1 negatives,
§4.4 top-N) goes through ``cosine_topk``: screen a block with one matrix
product, confirm the few entries that matter with the exact formula
(FAISS-style exact search, Johnson et al. 2017).
"""
from __future__ import annotations

import numpy as np

_EPS = 1e-12
_ROWS = 256  # pairs per per_attribute_cosine block: its temporaries stay small


def _attribute_cosines(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``(n, m, d) x (n, m, d) -> (n, m)``; the norms are the values
    ``np.linalg.norm(·, axis=2)`` gives for real input."""
    num = (a * b).sum(axis=2)
    den = np.sqrt((a * a).sum(axis=2)) * np.sqrt((b * b).sum(axis=2)) + _EPS
    return num / den


def per_attribute_cosine(va: np.ndarray, vb: np.ndarray, m: int,
                         d: int) -> np.ndarray:
    """``(n, m*d) x (n, m*d) -> (n, m)`` per-attribute cosine vector;
    ``ValueError`` on other shapes, whose blocks it would misread.

    Computed ``_ROWS`` pairs at a time into one output array; a row's
    value does not depend on the block it falls in."""
    if va.shape != vb.shape or va.shape[-1] != m * d:
        raise ValueError(f"need two (n, {m}*{d}) DRs: {va.shape}, {vb.shape}")
    a = va.reshape(-1, m, d)
    b = vb.reshape(-1, m, d)
    out = np.empty((len(a), m), _attribute_cosines(a[:1], b[:1]).dtype)
    for s in range(0, len(a), _ROWS):
        out[s:s + _ROWS] = _attribute_cosines(a[s:s + _ROWS], b[s:s + _ROWS])
    return out


def tuple_cosine(va: np.ndarray, vb: np.ndarray,
                 norm_b: np.ndarray | None = None) -> np.ndarray:
    """Whole-tuple cosine of concatenated DRs, row by row: the exact
    formula behind the pair sampler's threshold and every ranking decision
    of ``cosine_topk``. ``norm_b`` is ``np.linalg.norm(vb, axis=-1)`` when
    the caller already has it.

    Each row's dot product is an elementwise product summed along the row,
    so a row's value does not depend on which other rows share the call.
    """
    if norm_b is None:
        norm_b = np.linalg.norm(vb, axis=-1)
    num = (va * vb).sum(axis=-1)
    den = (np.linalg.norm(va, axis=-1) * norm_b) + _EPS
    return num / den


_SCREEN_TOL = 1e-9  # least error allowance of the BLAS screen
_BLOCK = 1 << 17    # entries per score block and per exact-recompute chunk


def cosine_topk(va: np.ndarray, vb: np.ndarray, k: int, *,
                below: float = np.inf, norm_b: np.ndarray | None = None):
    """Exact top-``k`` of each row of ``va`` against the rows of ``vb``.

    Yields, for each row of ``va`` in order, ``(top, is_below)``:
    ``is_below`` is the row's ``tuple_cosine(...) < below`` mask over
    ``vb``, and ``top`` holds the ``vb`` row indices of its ``k`` largest
    cosines among the entries below ``below``, largest first, equal
    cosines in ascending row order: exactly
    ``order[np.argsort(-sims[order], kind="stable")][:k]`` with
    ``order = np.flatnonzero(is_below)`` on the full exact row ``sims``.
    Rows are finite; ``norm_b`` is ``np.linalg.norm(vb, axis=-1)``.

    The screen scores a block of rows with one ``va @ vb.T`` over norms
    computed once. Its value differs from ``tuple_cosine``'s by at most
    ``2*gamma_d + 2u`` (``u`` the unit roundoff, ``gamma_d = d*u/(1-d*u)``:
    both dot products err by at most ``gamma_d * |a| |b|``), which
    ``tol = max(1e-9, 8*d*u)`` bounds. So an entry whose screened value
    lies farther than ``tol`` from ``below`` is on its screened side, and
    an entry screened more than ``2*tol`` under a row's ``k``-th screened
    value cannot be in its exact top ``k``. Only the entries left, the
    row's top ``k`` plus the near ones, are recomputed with
    ``tuple_cosine``; every decision is taken on those exact values.
    Every entry whose exact value ties the ``k``-th is among them, and a
    stable sort of them keeps equal values in column order, so the result
    does not depend on which sort the CPU dispatches to.
    """
    if norm_b is None:
        norm_b = np.linalg.norm(vb, axis=-1)
    norm_a = np.linalg.norm(va, axis=-1)
    step = max(1, _BLOCK // max(len(vb), 1))
    for s in range(0, len(va), step):
        yield from _topk_block(va[s:s + step], norm_a[s:s + step], vb,
                               norm_b, k, below)


def _topk_block(va, norm_a, vb, norm_b, k, below):
    n_r, n_c = len(va), len(vb)
    scores = va @ vb.T
    scores /= np.multiply.outer(norm_a, norm_b) + _EPS
    tol = max(_SCREEN_TOL, 8 * va.shape[1] * np.finfo(scores.dtype).eps)

    is_below = scores < below
    r, c = np.nonzero(np.abs(scores - below) <= tol)
    is_below[r, c] = _cosine_pairs(va, vb, norm_b, r, c) < below
    scores[~is_below] = -np.inf
    if k == 0:
        lo = np.full(n_r, np.inf)
    elif k > n_c:
        lo = np.full(n_r, -np.inf)
    else:
        lo = np.partition(scores, n_c - k, axis=1)[:, n_c - k] - 2 * tol
    r, c = np.nonzero(is_below & (scores >= lo[:, None]))
    exact = _cosine_pairs(va, vb, norm_b, r, c)
    o = np.lexsort((-exact, r))
    r, c = r[o], c[o]
    starts = np.searchsorted(r, np.arange(n_r + 1))
    for i in range(n_r):
        yield c[starts[i]:min(starts[i] + k, starts[i + 1])], is_below[i]


def _cosine_pairs(va, vb, norm_b, r, c):
    """``tuple_cosine`` of the row pairs ``(va[r], vb[c])``, in chunks."""
    out = np.empty(len(r), np.result_type(va, vb, norm_b))
    step = max(1, _BLOCK // max(va.shape[1], 1))
    for s in range(0, len(r), step):
        rs, cs = r[s:s + step], c[s:s + step]
        out[s:s + step] = tuple_cosine(va[rs], vb[cs], norm_b[cs])
    return out
