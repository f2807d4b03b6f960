"""Multi-probe LSH + top-N nearest-neighbour blocking (§4.4, Algorithm 5).

Multi-probe inspects, besides a tuple's own bucket, the buckets whose hash
codes lie within a small hamming distance — recovering the recall of many
hash tables with few (even L=1). The top-N step ranks a tuple's candidates
by DR cosine similarity and keeps only the N most similar, bounding
classifier invocations at Θ(n·N) instead of Θ(b²) per block.
"""
from __future__ import annotations

from itertools import combinations

import numpy as np

from repro.blocking.lsh import _pair_rows, _probe_buckets, lsh_codes_np
from repro.core.similarity import cosine_topk


def probe_offsets(K: int, n_probes: int) -> list[int]:
    """XOR masks for all codes within hamming distance <= n_probes
    (including 0 — the home bucket)."""
    offs = [0]
    for dist in range(1, n_probes + 1):
        for bits in combinations(range(K), dist):
            mask = 0
            for b in bits:
                mask |= 1 << b
            offs.append(mask)
    return offs


def multiprobe_topn_candidates(mat_a: np.ndarray, mat_b: np.ndarray,
                               planes: np.ndarray, *, n_probes: int = 1,
                               top_n: int = 10) -> np.ndarray:
    """Algorithm 5 on the driver: for each A-tuple, collect B-tuples from
    all probed buckets across the L tables, rank by cosine, keep top-N.

    A-tuples with the same L codes probe the same buckets, so each such
    group is ranked against its candidate set in one ``cosine_topk`` call;
    of equal cosines, the lower B row is kept first.
    Returns the kept row-index pairs as ``candidate_pairs_np`` does: a
    ``(n, 2)`` int64 array sorted by ``(i, j)``. Raises ``ValueError``
    unless ``0 <= n_probes <= K`` and ``top_n >= 1``.
    """
    _, K, _ = planes.shape
    if not 0 <= n_probes <= K:
        raise ValueError(f"n_probes must be in [0, K={K}], got {n_probes}")
    if top_n < 1:
        raise ValueError(f"top_n must be >= 1, got {top_n}")
    n_b = len(mat_b)
    norm_b = np.linalg.norm(mat_b, axis=-1)
    keys = []
    for rows, cand in _probe_buckets(lsh_codes_np(mat_a, planes),
                                     lsh_codes_np(mat_b, planes),
                                     probe_offsets(K, n_probes)):
        ranked = cosine_topk(mat_a[rows], mat_b[cand], top_n,
                             norm_b=norm_b[cand])
        keys.extend(i * n_b + cand[keep]
                    for i, (keep, _) in zip(rows.tolist(), ranked))
    return _pair_rows(keys, n_b)
