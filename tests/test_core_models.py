"""Behavioural tests for the three DeepER model paths (Figure 5)."""
import numpy as np
import pytest

from repro.core.model import AvgDeepER, AvgDeepEREndToEnd, LSTMDeepER
from repro.core.pairs import f1_score

# The training recipe that ``DeepERConfig`` declares, passed whole: the
# models take no training defaults of their own.
RECIPE = dict(hidden=24, lr=0.01, epochs=20, batch=16, seed=0)


def _toy_cosine_task(n=300, m=4, seed=0):
    """Synthetic similarity vectors: positives high cosine, negatives low."""
    rng = np.random.default_rng(seed)
    y = (rng.random(n) < 0.3).astype(float)
    X = np.where(y[:, None] == 1,
                 rng.uniform(0.6, 1.0, (n, m)),
                 rng.uniform(-0.2, 0.5, (n, m)))
    return X, y


class TestAvgDeepER:
    def test_learns_separable_similarity_vectors(self):
        X, y = _toy_cosine_task()
        model = AvgDeepER(4, **dict(RECIPE, epochs=25)).fit(X, y)
        f1, _, _ = f1_score(y, (model.predict_proba(X) >= 0.5).astype(float))
        assert f1 > 0.95

    def test_deterministic_given_seed(self):
        X, y = _toy_cosine_task()
        p1 = AvgDeepER(4, **dict(RECIPE, seed=3)).fit(X, y).predict_proba(X)
        p2 = AvgDeepER(4, **dict(RECIPE, seed=3)).fit(X, y).predict_proba(X)
        np.testing.assert_allclose(p1, p2)

    def test_proba_in_unit_interval(self):
        X, y = _toy_cosine_task(50)
        p = AvgDeepER(4, **dict(RECIPE, epochs=2)).fit(X, y).predict_proba(X)
        assert np.all((p >= 0) & (p <= 1))


def _toy_pair_tensors(n=120, m=2, T=4, vocab=30, seed=1):
    """Token-id pair task: positives share the token multiset, negatives
    do not."""
    rng = np.random.default_rng(seed)
    E = rng.standard_normal((vocab + 1, 12))
    E[0] = 0.0
    ids_a = rng.integers(1, vocab + 1, (n, m, T))
    ids_b = ids_a.copy()
    y = (rng.random(n) < 0.5).astype(float)
    neg = np.flatnonzero(y == 0)
    ids_b[neg] = rng.integers(1, vocab + 1, (len(neg), m, T))
    mask = np.ones((n, m, T))
    return E, ids_a, mask, ids_b, mask.copy(), y


class TestEndToEndAvg:
    def test_learns_and_updates_embeddings(self):
        E, ia, ma, ib, mb, y = _toy_pair_tensors()
        model = AvgDeepEREndToEnd(2, E, **dict(RECIPE, epochs=25))
        before = model.emb.params["E"].copy()
        model.fit(ia, ma, ib, mb, y)
        after = model.emb.params["E"]
        assert not np.allclose(before[1:], after[1:])  # embeddings moved
        np.testing.assert_allclose(before[0], after[0])  # UNK frozen
        p = (model.predict_proba(ia, ma, ib, mb) >= 0.5).astype(float)
        assert f1_score(y, p)[0] > 0.9


class TestLSTMDeepER:
    @pytest.mark.parametrize("bidir", [False, True])
    def test_learns_pair_task(self, bidir):
        E, ia, ma, ib, mb, y = _toy_pair_tensors(n=100, T=3)
        model = LSTMDeepER(2, E, bidirectional=bidir, lstm_dim=8,
                           **dict(RECIPE, hidden=12, epochs=30, batch=20,
                                  seed=0))
        model.fit(ia, ma, ib, mb, y)
        p = (model.predict_proba(ia, ma, ib, mb) >= 0.5).astype(float)
        assert f1_score(y, p)[0] > 0.85

    def test_identical_pair_gets_zero_features(self):
        """|h_a - h_b| = 0 for identical inputs regardless of training."""
        E, ia, ma, ib, mb, y = _toy_pair_tensors(n=8)
        model = LSTMDeepER(2, E, lstm_dim=6,
                           **dict(RECIPE, hidden=8, epochs=1))
        state = {}
        model._similarity(np.arange(4), (ia, ma, ia, ma), state)
        # sign(diff) of identical sides is all zeros
        assert np.all(state["sign"] == 0)

    def test_word_order_sensitivity(self):
        """The LSTM composition distinguishes reordered sequences that
        averaging cannot (the paper's motivation for Algorithm 2)."""
        rng = np.random.default_rng(5)
        E = rng.standard_normal((6, 10))
        E[0] = 0.0
        n, T = 160, 3
        ids_a = np.zeros((n, 1, T), dtype=np.int64)
        ids_b = np.zeros((n, 1, T), dtype=np.int64)
        y = np.zeros(n)
        for i in range(n):
            seq = rng.choice(np.arange(1, 6), size=T, replace=False)
            ids_a[i, 0] = seq
            if i % 2 == 0:
                ids_b[i, 0] = seq           # same order -> match
                y[i] = 1.0
            else:
                perm = seq[::-1].copy()     # same tokens, reversed
                ids_b[i, 0] = perm
        mask = np.ones((n, 1, T))
        model = LSTMDeepER(1, E, lstm_dim=10, hidden=12, epochs=40,
                           batch=20, lr=0.02, seed=0)
        model.fit(ids_a, mask, ids_b, mask, y)
        p = (model.predict_proba(ids_a, mask, ids_b, mask) >= 0.5)
        assert f1_score(y, p.astype(float))[0] > 0.9
