"""The DeepER networks of Figure 5.

Three trainable models share the architecture *embedding lookup →
composition → similarity → dense → classification*:

- :class:`AvgDeepER` — static embeddings, AVG composition. The similarity
  vector (per-attribute cosine, ``m`` dims) is precomputed, so the model is
  just the dense + classification layers. This is the configuration used
  for the paper's headline Table 4 numbers.
- :class:`AvgDeepEREndToEnd` — same, but errors backpropagate through the
  cosine and the averaging into the *word embedding layer* (§3.4 "dynamic"
  embeddings, Figure 8).
- :class:`LSTMDeepER` — shared uni/bi-directional LSTM composition with
  abs-difference similarity (§2.3, Figure 9). The LSTM is trained on the ER
  task; embeddings stay static.
"""
from __future__ import annotations

import numpy as np

from repro.nn import Adam, BiLSTM, Dense, LSTM, TrainLoop

_EPS = 1e-12


class _Embedding:
    """Trainable embedding table module (row 0 = UNK)."""

    def __init__(self, matrix: np.ndarray):
        self.params = {"E": matrix.astype(np.float64).copy()}
        self.grads = {"E": np.zeros_like(self.params["E"])}

    def zero_grad(self):
        self.grads["E"][...] = 0.0


def _masked_mean(E: np.ndarray, ids: np.ndarray, mask: np.ndarray):
    """(B,T) ids -> (B,d) mean of valid token vectors; returns cache."""
    X = E[ids]                                # (B, T, d)
    cnt = np.clip(mask.sum(axis=1, keepdims=True), 1.0, None)  # (B,1)
    u = (X * mask[:, :, None]).sum(axis=1) / cnt
    return u, cnt


def _cosine_fwd(u: np.ndarray, v: np.ndarray):
    nu = np.linalg.norm(u, axis=1) + _EPS
    nv = np.linalg.norm(v, axis=1) + _EPS
    cos = (u * v).sum(axis=1) / (nu * nv)
    return cos, (u, v, nu, nv, cos)


def _cosine_bwd(dcos: np.ndarray, cache):
    u, v, nu, nv, cos = cache
    du = dcos[:, None] * (v / (nu * nv)[:, None] - (cos / nu**2)[:, None] * u)
    dv = dcos[:, None] * (u / (nu * nv)[:, None] - (cos / nv**2)[:, None] * v)
    return du, dv


class AvgDeepER:
    """Dense head over precomputed per-attribute cosine features."""

    def __init__(self, m: int, *, hidden: int = 24, lr: float = 0.01,
                 epochs: int = 20, batch: int = 16, seed: int = 0):
        rng = np.random.default_rng(seed)
        self.dense = Dense(m, hidden, activation="tanh", rng=rng)
        self.clf = Dense(hidden, 1, activation="sigmoid", rng=rng)
        self.loop = TrainLoop([self.dense, self.clf], lr=lr, epochs=epochs,
                              batch=batch, rng=np.random.default_rng(seed))

    def fit(self, X: np.ndarray, y: np.ndarray) -> "AvgDeepER":
        def forward(idx):
            return self.clf.forward(self.dense.forward(X[idx]))[:, 0]

        def backward(idx, dp):
            self.dense.backward(self.clf.backward(dp[:, None]))

        self.loop.run(len(X), forward, backward, y)
        return self

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        return self.clf(self.dense(X))[:, 0]


class AvgDeepEREndToEnd:
    """AVG composition with a trainable embedding layer (§3.4).

    Inputs are token-id tensors ``(n, m, T)`` + masks for both tuple sides;
    gradients flow through cosine and averaging into the embedding matrix
    (updated at its own rate, the paper's "embeddings update rate 0.01").
    """

    def __init__(self, m: int, emb_matrix: np.ndarray, *, hidden: int = 24,
                 lr: float = 0.01, emb_lr: float = 0.01, epochs: int = 20,
                 batch: int = 16, seed: int = 0):
        rng = np.random.default_rng(seed)
        self.m = m
        self.emb = _Embedding(emb_matrix)
        self.dense = Dense(m, hidden, activation="tanh", rng=rng)
        self.clf = Dense(hidden, 1, activation="sigmoid", rng=rng)
        self.loop = TrainLoop([self.dense, self.clf], lr=lr, epochs=epochs,
                              batch=batch, rng=np.random.default_rng(seed))
        self.emb_opt = Adam([self.emb], lr=emb_lr, weight_decay=0.0)

    # -- batched forward/backward ------------------------------------------
    def _features(self, idx, data, with_cache=False):
        ids_a, mask_a, ids_b, mask_b = data
        E = self.emb.params["E"]
        B = len(idx)
        X = np.empty((B, self.m))
        caches = []
        for j in range(self.m):
            u, cu = _masked_mean(E, ids_a[idx, j], mask_a[idx, j])
            v, cv = _masked_mean(E, ids_b[idx, j], mask_b[idx, j])
            cos, cc = _cosine_fwd(u, v)
            X[:, j] = cos
            if with_cache:
                caches.append((cc, cu, cv))
        return X, caches

    def fit(self, ids_a, mask_a, ids_b, mask_b, y) -> "AvgDeepEREndToEnd":
        data = (ids_a, mask_a, ids_b, mask_b)
        state = {}

        def forward(idx):
            X, caches = self._features(idx, data, with_cache=True)
            state["X"], state["caches"] = X, caches
            return self.clf.forward(self.dense.forward(X))[:, 0]

        def backward(idx, dp):
            dX = self.dense.backward(self.clf.backward(dp[:, None]))
            self.emb.zero_grad()
            dE = self.emb.grads["E"]
            for j in range(self.m):
                cc, cu, cv = state["caches"][j]
                du, dv = _cosine_bwd(dX[:, j], cc)
                # scatter mean-gradients back to the embedding rows
                ga = (du / cu)[:, None, :] * mask_a[idx, j][:, :, None]
                gb = (dv / cv)[:, None, :] * mask_b[idx, j][:, :, None]
                np.add.at(dE, ids_a[idx, j].ravel(),
                          ga.reshape(-1, dE.shape[1]))
                np.add.at(dE, ids_b[idx, j].ravel(),
                          gb.reshape(-1, dE.shape[1]))
            dE[0, :] = 0.0  # UNK stays fixed
            self.emb_opt.step()

        self.loop.run(len(y), forward, backward, y)
        return self

    def predict_proba(self, ids_a, mask_a, ids_b, mask_b) -> np.ndarray:
        data = (ids_a, mask_a, ids_b, mask_b)
        out = []
        for s in range(0, len(ids_a), 512):
            idx = np.arange(s, min(s + 512, len(ids_a)))
            X, _ = self._features(idx, data)
            out.append(self.clf(self.dense(X))[:, 0])
        return np.concatenate(out)


class LSTMDeepER:
    """Shared (Bi-)LSTM composition + abs-difference similarity (§2.3).

    All ``2*m*B`` attribute sequences of a batch are encoded in one LSTM
    call (the network is *shared* across attributes per the paper), so BPTT
    runs once per step.
    """

    def __init__(self, m: int, emb_matrix: np.ndarray, *,
                 bidirectional: bool = False, lstm_dim: int = 24,
                 hidden: int = 24, lr: float = 0.01, epochs: int = 20,
                 batch: int = 16, seed: int = 0):
        rng = np.random.default_rng(seed)
        self.m = m
        self.E = emb_matrix.astype(np.float64)
        d = self.E.shape[1]
        if bidirectional:
            self.enc = BiLSTM(d, lstm_dim, rng=rng)
            out_dim = 2 * lstm_dim
            enc_modules = self.enc.modules
        else:
            self.enc = LSTM(d, lstm_dim, rng=rng)
            out_dim = lstm_dim
            enc_modules = [self.enc]
        self.out_dim = out_dim
        self.dense = Dense(m * out_dim, hidden, activation="tanh", rng=rng)
        self.clf = Dense(hidden, 1, activation="sigmoid", rng=rng)
        self.loop = TrainLoop(enc_modules + [self.dense, self.clf], lr=lr,
                              epochs=epochs, batch=batch,
                              rng=np.random.default_rng(seed))

    def _stack(self, idx, ids, mask):
        """(B,m,T) -> (m*B, T, d) sequence batch + (m*B, T) mask."""
        sel_ids = ids[idx]        # (B, m, T)
        sel_mask = mask[idx]
        B, m, T = sel_ids.shape
        seq = self.E[sel_ids.transpose(1, 0, 2).reshape(m * B, T)]
        return seq, sel_mask.transpose(1, 0, 2).reshape(m * B, T)

    def _forward(self, idx, data, state=None):
        """Match probabilities of the pairs ``idx``. Training passes a
        ``state`` dict: every layer then caches for ``backward``, and
        ``state`` gets what the similarity's backward needs. Without it
        nothing is cached, so a model keeps no scored block alive."""
        if state is None:
            enc, dense, clf = self.enc, self.dense, self.clf
        else:
            enc, dense, clf = (self.enc.forward, self.dense.forward,
                               self.clf.forward)
        ids_a, mask_a, ids_b, mask_b = data
        seq_a, ma = self._stack(idx, ids_a, mask_a)
        seq_b, mb = self._stack(idx, ids_b, mask_b)
        seq = np.concatenate([seq_a, seq_b], axis=0)
        msk = np.concatenate([ma, mb], axis=0)
        h = enc(seq, msk)                         # (2mB, out)
        B = len(idx)
        ha = h[: self.m * B].reshape(self.m, B, self.out_dim)
        hb = h[self.m * B:].reshape(self.m, B, self.out_dim)
        diff = ha - hb
        feat = np.abs(diff).transpose(1, 0, 2).reshape(B, -1)
        if state is not None:
            state["sign"] = np.sign(diff)
            state["B"] = B
        return clf(dense(feat))[:, 0]

    def fit(self, ids_a, mask_a, ids_b, mask_b, y) -> "LSTMDeepER":
        data = (ids_a, mask_a, ids_b, mask_b)
        state = {}

        def forward(idx):
            return self._forward(idx, data, state)

        def backward(idx, dp):
            dfeat = self.dense.backward(self.clf.backward(dp[:, None]))
            B = state["B"]
            ddiff = dfeat.reshape(B, self.m, self.out_dim).transpose(1, 0, 2)
            ddiff = ddiff * state["sign"]
            dh = np.concatenate([
                ddiff.reshape(self.m * B, self.out_dim),
                -ddiff.reshape(self.m * B, self.out_dim),
            ], axis=0)
            self.enc.backward(dh)

        self.loop.run(len(y), forward, backward, y)
        return self

    def predict_proba(self, ids_a, mask_a, ids_b, mask_b) -> np.ndarray:
        data = (ids_a, mask_a, ids_b, mask_b)
        out = []
        for s in range(0, len(ids_a), 256):
            idx = np.arange(s, min(s + 256, len(ids_a)))
            out.append(self._forward(idx, data))
        return np.concatenate(out)
