"""Numerical gradient checks for the numpy DL substrate.

Every layer's analytic backward pass is compared against central finite
differences on small random instances. A wrong BPTT would silently produce
an untrainable DeepER model, so these are the foundation tests.
"""
import numpy as np
import pytest

from repro.nn import LSTM, Adam, BiLSTM, Dense, sigmoid
from repro.nn.layers import BCE_EPS, bce_grad


def _num_grad(f, x, eps=1e-6):
    g = np.zeros_like(x, dtype=np.float64)
    it = np.nditer(x, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        old = x[idx]
        x[idx] = old + eps
        fp = f()
        x[idx] = old - eps
        fm = f()
        x[idx] = old
        g[idx] = (fp - fm) / (2 * eps)
        it.iternext()
    return g


def _rel_err(a, b):
    denom = max(np.abs(a).max(), np.abs(b).max(), 1e-8)
    return np.abs(a - b).max() / denom


class TestDenseGrad:
    @pytest.mark.parametrize("act", [None, "sigmoid", "tanh"])
    def test_input_and_param_grads(self, act):
        rng = np.random.default_rng(7)
        layer = Dense(4, 3, activation=act, rng=rng)
        x = rng.normal(size=(5, 4))
        w = rng.normal(size=(5, 3))  # random projection -> scalar loss

        def loss():
            return float((layer.forward(x)[0] * w).sum())

        _, cache = layer.forward(x)
        dx = layer.backward(w, cache)
        assert _rel_err(dx, _num_grad(loss, x)) < 1e-5
        assert _rel_err(layer.grads["W"], _num_grad(loss, layer.params["W"])) < 1e-5
        assert _rel_err(layer.grads["b"], _num_grad(loss, layer.params["b"])) < 1e-5

    def test_grads_accumulate_until_zeroed(self):
        layer = Dense(2, 2)
        opt = Adam([layer])
        x = np.ones((1, 2))
        layer.backward(np.ones((1, 2)), layer.forward(x)[1])
        g1 = layer.grads["W"].copy()
        layer.backward(np.ones((1, 2)), layer.forward(x)[1])
        np.testing.assert_allclose(layer.grads["W"], 2 * g1)
        opt.zero_grad()
        assert np.all(layer.grads["W"] == 0)


class TestLSTMGrad:
    def _setup(self, cls, seed=3):
        rng = np.random.default_rng(seed)
        enc = cls(3, 4, rng=rng)
        X = rng.normal(size=(4, 5, 3))
        mask = np.ones((4, 5))
        mask[0, 3:] = 0  # variable lengths exercise the carry-through path
        mask[2, 1:] = 0
        d_out = 8 if cls is BiLSTM else 4
        w = rng.normal(size=(4, d_out))
        return enc, X, mask, w

    @pytest.mark.parametrize("cls", [LSTM, BiLSTM])
    def test_input_grad(self, cls):
        enc, X, mask, w = self._setup(cls)

        def loss():
            return float((enc.forward(X, mask)[0] * w).sum())

        _, cache = enc.forward(X, mask)
        dX = enc.backward(w, cache)
        assert _rel_err(dX, _num_grad(loss, X)) < 1e-5

    def test_param_grads_unidirectional(self):
        enc, X, mask, w = self._setup(LSTM)

        def loss():
            return float((enc.forward(X, mask)[0] * w).sum())

        _, cache = enc.forward(X, mask)
        enc.backward(w, cache)
        for k in ("Wx", "Wh", "b"):
            assert _rel_err(enc.grads[k], _num_grad(loss, enc.params[k])) < 1e-5, k

    def test_param_grads_bidirectional(self):
        enc, X, mask, w = self._setup(BiLSTM)

        def loss():
            return float((enc.forward(X, mask)[0] * w).sum())

        _, cache = enc.forward(X, mask)
        enc.backward(w, cache)
        for mod in enc.modules:
            for k in ("Wx", "Wh", "b"):
                assert _rel_err(mod.grads[k], _num_grad(loss, mod.params[k])) < 1e-5

    def test_masked_tail_is_ignored(self):
        rng = np.random.default_rng(0)
        enc = LSTM(3, 4, rng=rng)
        X = rng.normal(size=(2, 6, 3))
        mask = np.ones((2, 6))
        mask[:, 4:] = 0
        h1, _ = enc.forward(X, mask)
        X2 = X.copy()
        X2[:, 4:, :] = rng.normal(size=(2, 2, 3))  # garbage in padding
        h2, _ = enc.forward(X2, mask)
        np.testing.assert_allclose(h1, h2)

    def test_empty_sequence_yields_zero_state(self):
        enc = LSTM(3, 4)
        X = np.zeros((1, 3, 3))
        h, _ = enc.forward(X, np.zeros((1, 3)))
        np.testing.assert_allclose(h, 0.0)

    def test_bilstm_reversal_symmetry(self):
        # For a palindromic input both directions see the same sequence, so
        # both halves of the output must be identical (shared init params).
        rng = np.random.default_rng(1)
        enc = BiLSTM(3, 4, rng=rng)
        # force identical params in both directions
        for k in enc.fwd.params:
            enc.bwd.params[k][...] = enc.fwd.params[k]
        x = rng.normal(size=(1, 1, 3))
        seq = np.concatenate([x, x, x], axis=1)
        h, _ = enc.forward(seq, np.ones((1, 3)))
        np.testing.assert_allclose(h[:, :4], h[:, 4:])


def _bce_loss(p, y):
    """Mean binary cross-entropy over clipped probabilities: the loss whose
    gradient ``bce_grad`` is."""
    q = np.clip(p, BCE_EPS, 1.0 - BCE_EPS)
    return -float(np.mean(y * np.log(q) + (1.0 - y) * np.log(1.0 - q)))


class TestBCE:
    def test_matches_numerical(self):
        rng = np.random.default_rng(5)
        p = rng.uniform(0.05, 0.95, size=8)
        y = rng.integers(0, 2, size=8).astype(float)
        dp = bce_grad(p, y)
        num = _num_grad(lambda: _bce_loss(p, y), p)
        assert _rel_err(dp, num) < 1e-5

    def test_clipping_keeps_loss_finite(self):
        p, y = np.array([0.0, 1.0]), np.array([1.0, 0.0])
        assert np.isfinite(_bce_loss(p, y))
        assert np.all(np.isfinite(bce_grad(p, y)))


def _ref_sigmoid(x):
    """The boolean-mask sigmoid the branch-free one replaced."""
    out = np.empty_like(x, dtype=np.float64)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


class TestSigmoid:
    GRID = np.array([np.inf, -np.inf, np.nan, 0.0, -0.0, 1e-300, -1e-300,
                     36.7, -36.7, 750.0, -750.0])

    @pytest.mark.parametrize("x", [
        GRID,
        np.random.default_rng(0).normal(0, 5, (16, 1)),
        np.random.default_rng(1).normal(0, 50, (8192, 1)),
        np.random.default_rng(2).normal(0, 800, (16, 96)),
    ], ids=["grid", "16x1", "8192x1", "16x96"])
    def test_equals_masked_formula(self, x):
        with np.errstate(all="ignore"):  # the reference overflows exp(750)
            want = _ref_sigmoid(x)
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            got = sigmoid(x)
        assert got.dtype == np.float64 and got.shape == x.shape
        assert np.array_equal(got, want, equal_nan=True)
        num = ~np.isnan(want)  # a NaN's sign bit carries no value
        assert np.array_equal(np.signbit(got[num]), np.signbit(want[num]))
