"""Vocabulary retrofitting (§3.2, after Faruqui et al.).

Builds an undirected word graph with an edge between words that co-occur in
some tuple, seeds out-of-vocabulary words with the average of their top-K
most frequent co-occurring in-vocabulary words, then iteratively pulls every
retrofitted vector toward (a) its original vector and (b) its graph
neighbours:

    q_i <- (beta_i * q̂_i + sum_j alpha_ij * q_j) / (beta_i + sum_j alpha_ij)

This *learns* vectors for unknown words (IDs, rare names). It also tunes
in-vocabulary words toward the dataset's own co-occurrence structure (the
SIGMOD~Stonebraker example in the paper), but those tuned vectors only
steer the OOV updates: ``SyntheticEmbeddings.as_matrix`` reads the returned
vectors only for words the dictionary lacks.

The state is one ``(V, d)`` matrix with a row per word in sorted order,
updated in place row by row. That sweep order is fixed because the update
is Gauss–Seidel: each row reads the rows before it as already updated this
iteration, so another order gives other vectors and other published F1s.
"""
from __future__ import annotations

from collections import Counter
from functools import reduce
from itertools import combinations
from operator import add
from typing import Iterable, Sequence

import numpy as np

from repro.embeddings.pretrained import SyntheticEmbeddings

K_INIT = 5  # an OOV word starts as the mean of this many neighbours
ITERS = 10
BETA_INVOCAB = 1.0
BETA_OOV = 0.1
MAX_TOKENS_PER_TUPLE = 40  # distinct tokens of a tuple that get edges


def build_cooccurrence(token_lists: Iterable[Sequence[str]]):
    """Pairwise co-occurrence counts over tuples (each tuple = one context,
    per the paper's "connected if they co-occur in some tuple")."""
    edges: Counter = Counter()
    freq: Counter = Counter()
    for toks in token_lists:
        toks = list(dict.fromkeys(toks))[:MAX_TOKENS_PER_TUPLE]
        freq.update(toks)
        edges.update((a, b) if a < b else (b, a)
                     for a, b in combinations(toks, 2))
    return edges, freq


def retrofit_vocabulary(token_lists: Iterable[Sequence[str]],
                        dictionary: SyntheticEmbeddings
                        ) -> dict[str, np.ndarray]:
    """Return retrofitted vectors for every word seen in ``token_lists``.

    In-vocabulary words are anchored strongly (``BETA_INVOCAB``) so they
    move only slightly; OOV words are anchored weakly (``BETA_OOV``) to
    their co-occurrence initialization and mostly follow their neighbours.
    """
    edges, freq = build_cooccurrence(token_lists)
    words = sorted(freq)
    if not words:
        return {}
    row = {w: k for k, w in enumerate(words)}
    adj: list[list[tuple[int, int]]] = [[] for _ in words]  # (row, count)
    for (a, b), cnt in edges.items():
        adj[row[a]].append((row[b], cnt))
        adj[row[b]].append((row[a], cnt))

    vecs = [dictionary.vector(w) for w in words]
    beta = [BETA_OOV if v is None else BETA_INVOCAB for v in vecs]
    q = np.stack([_init_oov(adj[k], words, freq, vecs, dictionary)
                  if v is None else v for k, v in enumerate(vecs)])
    anchor = np.array(beta)[:, None] * q
    nbrs = [np.array(a, dtype=np.intp).reshape(-1, 2) for a in adj]
    # Neighbour weights are normalized to sum to 1 so the anchor
    # strength beta is relative to the *whole* neighbourhood: an
    # in-vocab word moves mildly no matter how many neighbours it
    # has, while an OOV word (small beta) mostly follows the graph.
    alpha = [nb[:, 1:] / (float(nb[:, 1].sum()) or 1.0) for nb in nbrs]
    # beta, then each alpha in row order (sum() compensates on Python 3.12+).
    den = [reduce(add, a[:, 0].tolist(), b) for a, b in zip(alpha, beta)]
    for _ in range(ITERS):
        for k, (nb, a) in enumerate(zip(nbrs, alpha)):
            q[k] = np.add.reduce(np.vstack([anchor[k], a * q[nb[:, 0]]]),
                                 axis=0) / den[k]
    for v in q:
        n = np.linalg.norm(v)
        if n > 0:
            v /= n
    return dict(zip(words, q))


def _init_oov(adj: list[tuple[int, int]], words, freq, vecs,
              dictionary: SyntheticEmbeddings) -> np.ndarray:
    """Average of the top-K most frequent co-occurring in-vocab words."""
    ranked = sorted(
        ((cnt * freq[words[j]], words[j]) for j, cnt in adj
         if vecs[j] is not None),
        reverse=True,
    )
    top = [dictionary.vector(nb) for _, nb in ranked[:K_INIT]]
    if not top:
        return dictionary.unk_vector.copy()
    return np.mean(top, axis=0)
