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
"""
from __future__ import annotations

from collections import Counter, defaultdict
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
        for i in range(len(toks)):
            for j in range(i + 1, len(toks)):
                a, b = toks[i], toks[j]
                if a > b:
                    a, b = b, a
                edges[(a, b)] += 1
    return edges, freq


def retrofit_vocabulary(token_lists: Iterable[Sequence[str]],
                        dictionary: SyntheticEmbeddings
                        ) -> dict[str, np.ndarray]:
    """Return retrofitted vectors for every word seen in ``token_lists``.

    In-vocabulary words are anchored strongly (``BETA_INVOCAB``) so they
    move only slightly; OOV words are anchored weakly (``BETA_OOV``) to
    their co-occurrence initialization and mostly follow their neighbours.
    """
    token_lists = [list(t) for t in token_lists]
    edges, freq = build_cooccurrence(token_lists)

    nbrs: dict[str, list[tuple[str, int]]] = defaultdict(list)
    for (a, b), w in edges.items():
        nbrs[a].append((b, w))
        nbrs[b].append((a, w))

    words = sorted(freq)
    base: dict[str, np.ndarray] = {}
    is_oov: dict[str, bool] = {}
    for w in words:
        v = dictionary.vector(w)
        is_oov[w] = v is None
        base[w] = v if v is not None else _init_oov(w, nbrs, freq, dictionary)

    q = {w: base[w].copy() for w in words}
    for _ in range(ITERS):
        for w in words:
            beta = BETA_OOV if is_oov[w] else BETA_INVOCAB
            num = beta * base[w]
            den = beta
            # Neighbour weights are normalized to sum to 1 so the anchor
            # strength beta is relative to the *whole* neighbourhood: an
            # in-vocab word moves mildly no matter how many neighbours it
            # has, while an OOV word (small beta) mostly follows the graph.
            total = float(sum(cnt for _, cnt in nbrs[w])) or 1.0
            for nb, cnt in nbrs[w]:
                a = cnt / total
                num = num + a * q[nb]
                den += a
            q[w] = num / den
    for w in words:
        n = np.linalg.norm(q[w])
        if n > 0:
            q[w] = q[w] / n
    return q


def _init_oov(word: str, nbrs, freq,
              dictionary: SyntheticEmbeddings) -> np.ndarray:
    """Average of the top-K most frequent co-occurring in-vocab words."""
    ranked = sorted(
        ((cnt * freq[nb], nb) for nb, cnt in nbrs.get(word, [])
         if dictionary.vector(nb) is not None),
        reverse=True,
    )
    vecs = [dictionary.vector(nb) for _, nb in ranked[:K_INIT]]
    if not vecs:
        return dictionary.unk_vector.copy()
    return np.mean(vecs, axis=0)
