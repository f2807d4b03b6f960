"""Distributional similarity of tuple DRs (§2.3 "Computing Distributional
Similarity").

AVG path: per-attribute cosine over each ``d``-dim block → ``m``-dim
similarity vector. LSTM path: element-wise vector difference (abs) or
hadamard product of the composed vectors.
"""
from __future__ import annotations

import numpy as np

_EPS = 1e-12


def per_attribute_cosine(va: np.ndarray, vb: np.ndarray, m: int,
                         d: int) -> np.ndarray:
    """``(n, m*d) x (n, m*d) -> (n, m)`` per-attribute cosine vector."""
    a = va.reshape(-1, m, d)
    b = vb.reshape(-1, m, d)
    num = (a * b).sum(axis=2)
    den = np.linalg.norm(a, axis=2) * np.linalg.norm(b, axis=2) + _EPS
    return num / den


def abs_diff(ha: np.ndarray, hb: np.ndarray) -> np.ndarray:
    """Element-wise |difference| of composed vectors (vector-difference
    similarity in the paper, made sign-invariant for the classifier)."""
    return np.abs(ha - hb)


def hadamard(ha: np.ndarray, hb: np.ndarray) -> np.ndarray:
    """Element-wise product of composed vectors."""
    return ha * hb


def tuple_cosine(va: np.ndarray, vb: np.ndarray,
                 norm_b: np.ndarray | None = None) -> np.ndarray:
    """Whole-tuple cosine of concatenated DRs (used by the pair sampler's
    similarity threshold and by blocking's top-N ranking). ``norm_b`` is
    ``np.linalg.norm(vb, axis=-1)`` when the caller already has it."""
    if norm_b is None:
        norm_b = np.linalg.norm(vb, axis=-1)
    num = (va * vb).sum(axis=-1)
    den = (np.linalg.norm(va, axis=-1) * norm_b) + _EPS
    return num / den
