"""Tests for vocabulary retrofitting (§3.2)."""
import numpy as np

from repro.embeddings import glove840, retrofit_vocabulary
from repro.embeddings.retrofit import build_cooccurrence


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
