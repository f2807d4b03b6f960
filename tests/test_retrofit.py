"""Tests for vocabulary retrofitting (§3.2)."""
from collections import Counter, defaultdict
from typing import Iterable, Sequence

import numpy as np
import pytest

from repro.core.deeper import _tuple_tokens
from repro.embeddings import (
    SyntheticEmbeddings,
    fasttext,
    glove840,
    glove_wiki,
    retrofit_vocabulary,
    word2vec,
)
from repro.embeddings.retrofit import (
    BETA_INVOCAB,
    BETA_OOV,
    ITERS,
    K_INIT,
    MAX_TOKENS_PER_TUPLE,
    build_cooccurrence,
)
from repro.er_data import load

# The word-keyed loop that ``retrofit_vocabulary`` replaced, kept as the
# reference its matrix sweep must equal bit for bit. That equality rests on
# ``np.add.reduce(axis=0)`` adding the rows in order, as this loop does.


def _ref_build_cooccurrence(token_lists: Iterable[Sequence[str]]):
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


def _ref_retrofit_vocabulary(token_lists: Iterable[Sequence[str]],
                              dictionary: SyntheticEmbeddings
                              ) -> dict[str, np.ndarray]:
    """Return retrofitted vectors for every word seen in ``token_lists``.

    In-vocabulary words are anchored strongly (``BETA_INVOCAB``) so they
    move only slightly; OOV words are anchored weakly (``BETA_OOV``) to
    their co-occurrence initialization and mostly follow their neighbours.
    """
    token_lists = [list(t) for t in token_lists]
    edges, freq = _ref_build_cooccurrence(token_lists)

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
        base[w] = (v if v is not None
                   else _ref_init_oov(w, nbrs, freq, dictionary))

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


def _ref_init_oov(word: str, nbrs, freq,
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


def _assert_same_as_reference(tuples, dictionary):
    ref_edges, ref_freq = _ref_build_cooccurrence(tuples)
    edges, freq = build_cooccurrence(tuples)
    assert list(edges.items()) == list(ref_edges.items())
    assert list(freq.items()) == list(ref_freq.items())
    ref = _ref_retrofit_vocabulary(tuples, dictionary)
    q = retrofit_vocabulary(tuples, dictionary)
    assert list(q) == list(ref)
    for w in ref:
        assert np.array_equal(q[w], ref[w]), w


def _cos(a, b):
    return float(a @ b / (np.linalg.norm(a) * np.linalg.norm(b)))


class TestCooccurrence:
    def test_counts(self):
        edges, freq = build_cooccurrence([["a", "b", "a"], ["a", "b", "c"]])
        assert edges[("a", "b")] == 2
        assert edges[("b", "c")] == 1
        assert freq["a"] == 2  # deduped within a tuple

    def test_symmetric_key_order(self):
        edges, _ = build_cooccurrence([["z", "a"]])
        assert ("a", "z") in edges and ("z", "a") not in edges


class TestRetrofit:
    def test_returns_vector_for_every_seen_word(self):
        d = glove840()
        q = retrofit_vocabulary([["database", "0042317"]], d)
        assert set(q) == {"database", "0042317"}
        for v in q.values():
            assert np.isclose(np.linalg.norm(v), 1.0)

    def test_oov_id_lands_near_cooccurring_words(self):
        """An ID always co-occurring with 'database systems' should end up
        close to those words — the paper's 'IDs' example."""
        d = glove840()
        tuples = [["database", "systems", "0042317"] for _ in range(5)]
        tuples += [["toaster", "kettle", "9971", "blender"] for _ in range(5)]
        q = retrofit_vocabulary(tuples, d)
        sim_home = _cos(q["0042317"], d.vector("database"))
        sim_away = _cos(q["0042317"], d.vector("toaster"))
        assert sim_home > sim_away
        assert sim_home > 0.4

    def test_invocab_words_move_only_slightly(self):
        d = glove840()
        tuples = [["database", "query", "systems"]] * 3
        q = retrofit_vocabulary(tuples, d)
        assert _cos(q["database"], d.vector("database")) > 0.7

    def test_retrofitting_pulls_dataset_cooccurring_pairs_together(self):
        """The SIGMOD~Stonebraker effect: words that rarely co-occur in the
        pretraining corpus but always do in the dataset get tuned closer."""
        d = glove840()
        before = _cos(d.vector("sigmod"), d.vector("stonebraker")
                      if d.vector("stonebraker") is not None
                      else d.unk_vector)
        tuples = [["sigmod", "stonebraker"]] * 10
        q = retrofit_vocabulary(tuples, d)
        after = _cos(q["sigmod"], q["stonebraker"])
        assert after > before
        assert after > 0.5

    def test_isolated_oov_word_gets_unk_anchor(self):
        d = glove840()
        q = retrofit_vocabulary([["00912345"]], d)
        assert np.isfinite(q["00912345"]).all()

    def test_deterministic(self):
        d = glove840()
        tuples = [["database", "0042317", "query"]] * 4
        q1 = retrofit_vocabulary(tuples, d)
        q2 = retrofit_vocabulary(tuples, d)
        for w in q1:
            np.testing.assert_allclose(q1[w], q2[w])

    def test_only_oov_vectors_reach_the_embedding_matrix(self):
        """``as_matrix`` reads a retrofitted vector only for a word the
        dictionary lacks: a tuned in-vocabulary word keeps its dictionary
        row, and the OOV word gets its retrofitted one."""
        d = glove840()
        q = retrofit_vocabulary([["database", "systems", "0042317"]] * 5, d)
        assert not np.allclose(q["database"], d.vector("database"))
        index, mat = d.as_matrix(q, extra=q)
        assert np.array_equal(mat[index["database"]], d.vector("database"))
        assert np.array_equal(mat[index["0042317"]], q["0042317"])


_LONG = [f"term{i}" for i in range(MAX_TOKENS_PER_TUPLE + 10)] + ["0042317"]


class TestMatchesReference:
    """The matrix sweep equals the word-keyed loop it replaced: the same
    words in the same order, and every vector ``np.array_equal``."""

    @pytest.mark.parametrize("key, factory", [
        ("pub_da", glove840), ("rest_fz", glove_wiki),
        ("pub_ds", word2vec), ("prod_ag", fasttext),
    ])
    def test_dataset_vocabularies(self, key, factory):
        tuples = _tuple_tokens(load(key, scale=0.2))
        _assert_same_as_reference(tuples, factory())

    @pytest.mark.parametrize("tuples", [
        [],
        [[]],
        [["00912345"]],
        [["0042317", "99712345"]] * 3,
        [["database", "database", "0042317", "database", "systems"]] * 2,
        [_LONG, _LONG[::-1], ["term3", "0042317"]],
    ], ids=["empty_corpus", "empty_tuple", "lone_oov", "oov_neighbours_only",
            "repeated_tokens", "over_token_cap"])
    def test_edge_cases(self, tuples):
        _assert_same_as_reference(tuples, glove840())
