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

from repro.blocking.lsh import lsh_codes_np
from repro.core.similarity import tuple_cosine


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
                               top_n: int = 10) -> set[tuple[int, int]]:
    """Algorithm 5 on the driver: for each A-tuple, collect B-tuples from
    all probed buckets across the L tables, rank by cosine, keep top-N.

    Returns row-index pairs ``(i, j)``. Raises ``ValueError`` unless
    ``0 <= n_probes <= K`` and ``top_n >= 1``.
    """
    L, K, _ = planes.shape
    if not 0 <= n_probes <= K:
        raise ValueError(f"n_probes must be in [0, K={K}], got {n_probes}")
    if top_n < 1:
        raise ValueError(f"top_n must be >= 1, got {top_n}")
    codes_a = lsh_codes_np(mat_a, planes)
    codes_b = lsh_codes_np(mat_b, planes)
    offsets = probe_offsets(K, n_probes)

    tables: list[dict[int, list[int]]] = []
    for l in range(L):
        buckets: dict[int, list[int]] = {}
        for j, c in enumerate(codes_b[:, l]):
            buckets.setdefault(int(c), []).append(j)
        tables.append(buckets)

    out: set[tuple[int, int]] = set()
    for i in range(len(mat_a)):
        cand: set[int] = set()
        for l in range(L):
            home = int(codes_a[i, l])
            for off in offsets:
                cand.update(tables[l].get(home ^ off, ()))
        if not cand:
            continue
        cand_list = sorted(cand)
        sims = tuple_cosine(mat_a[i][None, :], mat_b[cand_list])
        keep = np.argsort(-sims)[:top_n]
        for k in keep:
            out.add((i, cand_list[int(k)]))
    return out
