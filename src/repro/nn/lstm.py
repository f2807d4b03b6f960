"""Uni- and bi-directional LSTM sequence encoders with full BPTT.

The paper (§2.3) composes the token vectors of an attribute value with a
*shared* LSTM-RNN and takes the last hidden state as the attribute's
distributed representation; the bidirectional variant concatenates the last
hidden states of the left-to-right and right-to-left passes.

Sequences are right-padded; a ``(B, T)`` 0/1 mask marks valid positions. At a
masked step the hidden and cell state carry through unchanged, so the "last"
hidden state of a padded sequence equals the hidden state at its true final
token.
"""
from __future__ import annotations

import numpy as np

from repro.nn.layers import sigmoid


class LSTM:
    """Single-layer unidirectional LSTM returning the final hidden state.

    ``forward(X, mask)`` consumes ``X`` of shape ``(B, T, d)`` and returns
    ``(B, h)`` with the BPTT cache, which ``backward(dh, cache)`` takes to
    return ``dX`` of shape ``(B, T, d)`` and accumulate parameter gradients.
    Inference calls the encoder as ``enc(X, mask)``: no step is kept.
    """

    def __init__(self, d_in: int, d_hidden: int, *, rng: np.random.Generator | None = None):
        rng = rng or np.random.default_rng(0)
        s = np.sqrt(1.0 / d_hidden)
        self.d_in, self.d_hidden = d_in, d_hidden
        self.params = {
            "Wx": rng.uniform(-s, s, size=(d_in, 4 * d_hidden)),
            "Wh": rng.uniform(-s, s, size=(d_hidden, 4 * d_hidden)),
            "b": np.zeros(4 * d_hidden),
        }
        # Forget-gate bias init to 1: standard trick so early training does
        # not erase state (paper relies on LSTM's long-range memory).
        self.params["b"][d_hidden:2 * d_hidden] = 1.0
        self.grads = {k: np.zeros_like(v) for k, v in self.params.items()}

    def __call__(self, X: np.ndarray, mask: np.ndarray,
                 steps: list | None = None) -> np.ndarray:
        """The final hidden state for ``X``. Keeps no step (inference);
        appends each step's BPTT inputs to ``steps`` when it is given."""
        B, T, d = X.shape
        h = self.d_hidden
        Wx, Wh, b = self.params["Wx"], self.params["Wh"], self.params["b"]
        h_t = np.zeros((B, h))
        c_t = np.zeros((B, h))
        for t in range(T):
            x_t = X[:, t, :]
            m = mask[:, t][:, None]
            z = x_t @ Wx + h_t @ Wh + b
            i = sigmoid(z[:, :h])
            f = sigmoid(z[:, h:2 * h])
            o = sigmoid(z[:, 2 * h:3 * h])
            g = np.tanh(z[:, 3 * h:])
            c_raw = f * c_t + i * g
            tc = np.tanh(c_raw)
            h_raw = o * tc
            h_prev, c_prev = h_t, c_t
            h_t = m * h_raw + (1.0 - m) * h_prev
            c_t = m * c_raw + (1.0 - m) * c_prev
            if steps is not None:
                steps.append((x_t, h_prev, c_prev, i, f, o, g, tc, m))
        return h_t

    def forward(self, X: np.ndarray,
                mask: np.ndarray) -> tuple[np.ndarray, tuple]:
        """``self(X, mask)`` and the cache ``backward`` takes: every step."""
        steps = []
        h_t = self(X, mask, steps)
        return h_t, (X.shape, steps)

    def backward(self, dh_last: np.ndarray, cache: tuple) -> np.ndarray:
        (B, T, d), steps = cache
        h = self.d_hidden
        Wx, Wh = self.params["Wx"], self.params["Wh"]
        dX = np.zeros((B, T, d))
        dh = dh_last.copy()
        dc = np.zeros_like(dh)
        for t in range(T - 1, -1, -1):
            x_t, h_prev, c_prev, i, f, o, g, tc, m = steps[t]
            dh_raw = m * dh
            dc_raw = m * dc
            do = dh_raw * tc
            dc_raw = dc_raw + dh_raw * o * (1.0 - tc * tc)
            di = dc_raw * g
            df = dc_raw * c_prev
            dg = dc_raw * i
            dz = np.concatenate(
                [
                    di * i * (1.0 - i),
                    df * f * (1.0 - f),
                    do * o * (1.0 - o),
                    dg * (1.0 - g * g),
                ],
                axis=1,
            )
            self.grads["Wx"] += x_t.T @ dz
            self.grads["Wh"] += h_prev.T @ dz
            self.grads["b"] += dz.sum(axis=0)
            dX[:, t, :] = dz @ Wx.T
            dh = dz @ Wh.T + (1.0 - m) * dh
            dc = dc_raw * f + (1.0 - m) * dc
        return dX


def _reverse_padded(X: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Reverse each row's valid prefix, keeping right-padding in place."""
    out = np.zeros_like(X)
    lengths = mask.sum(axis=1).astype(int)
    for b, n in enumerate(lengths):
        if n > 0:
            out[b, :n] = X[b, n - 1::-1]
    return out


class BiLSTM:
    """Bidirectional LSTM: concatenation of both directions' final states.

    Output dimension is ``2 * d_hidden`` (the paper's ``[h_fwd, h_bwd]``).
    """

    def __init__(self, d_in: int, d_hidden: int, *, rng: np.random.Generator | None = None):
        rng = rng or np.random.default_rng(0)
        self.fwd = LSTM(d_in, d_hidden, rng=rng)
        self.bwd = LSTM(d_in, d_hidden, rng=rng)
        self.d_hidden = d_hidden

    @property
    def modules(self):
        return [self.fwd, self.bwd]

    def __call__(self, X: np.ndarray, mask: np.ndarray) -> np.ndarray:
        """The concatenated final states for ``X``: inference."""
        hf = self.fwd(X, mask)
        hb = self.bwd(_reverse_padded(X, mask), mask)
        return np.concatenate([hf, hb], axis=1)

    def forward(self, X: np.ndarray,
                mask: np.ndarray) -> tuple[np.ndarray, tuple]:
        """``self(X, mask)`` and the cache ``backward`` takes."""
        hf, cf = self.fwd.forward(X, mask)
        hb, cb = self.bwd.forward(_reverse_padded(X, mask), mask)
        return np.concatenate([hf, hb], axis=1), (cf, cb, mask)

    def backward(self, dh: np.ndarray, cache: tuple) -> np.ndarray:
        cf, cb, mask = cache
        h = self.d_hidden
        dXf = self.fwd.backward(dh[:, :h], cf)
        dXb = self.bwd.backward(dh[:, h:], cb)
        return dXf + _reverse_padded(dXb, mask)
