"""The DeepER network of Figure 5.

*Embedding lookup → composition → similarity → dense → classification* is
one network: ``_DeepER`` owns everything from the similarity vector up
(the dense and sigmoid layers, the training loop, scoring), and the three
models differ only in the similarity layer below it:

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

The models take the training recipe (``hidden``, ``lr``, ``epochs``,
``batch``, ``seed``) without defaults: ``DeepERConfig`` declares it once,
and ``deeper.network`` passes it.
"""
from __future__ import annotations

import numpy as np

from repro.nn import Adam, BiLSTM, Dense, LSTM, TrainLoop

_EPS = 1e-12
EMB_LR = 0.01  # the paper's embedding update rate (§5.1)


class _Embedding:
    """Trainable embedding table module (row 0 = UNK)."""

    def __init__(self, matrix: np.ndarray):
        self.params = {"E": matrix.astype(np.float64).copy()}
        self.grads = {"E": np.zeros_like(self.params["E"])}


def _masked_mean(E: np.ndarray, ids: np.ndarray, mask: np.ndarray):
    """(..., T) ids -> (..., d) mean of valid token vectors; returns cache.
    The gathered vectors are masked in place, so a call holds one
    ``(..., T, d)`` array, not two."""
    X = E[ids]                                # (..., T, d)
    cnt = np.clip(mask.sum(axis=-1, keepdims=True), 1.0, None)  # (..., 1)
    X *= mask[..., None]
    u = X.sum(axis=-2) / cnt
    return u, cnt


def _cosine_fwd(u: np.ndarray, v: np.ndarray):
    nu = np.linalg.norm(u, axis=-1) + _EPS
    nv = np.linalg.norm(v, axis=-1) + _EPS
    cos = (u * v).sum(axis=-1) / (nu * nv)
    return cos, (u, v, nu, nv, cos)


def _cosine_bwd(dcos: np.ndarray, cache):
    u, v, nu, nv, cos = cache
    du = dcos[..., None] * (v / (nu * nv)[..., None]
                            - (cos / nu**2)[..., None] * u)
    dv = dcos[..., None] * (u / (nu * nv)[..., None]
                            - (cos / nv**2)[..., None] * v)
    return du, dv


def _attr_major(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The A and B sides ``(B, m, ...)`` as one C-ordered ``(m, 2, B, ...)``
    array: in that order a reshape is a view, not a strided copy."""
    return np.ascontiguousarray(np.moveaxis(np.stack([a, b]), 2, 0))


class _DeepER:
    """Figure 5 from the similarity vector up: the dense (tanh) and
    classification (sigmoid) layers, their training loop, and scoring.

    A subclass is its similarity layer. ``_similarity(idx, data, state)``
    returns the ``(B, width)`` similarity vectors of the pairs ``idx`` of
    ``data``, the input arrays that ``fit`` and ``predict_proba`` take.
    ``_similarity_backward(idx, data, dsim, state)`` carries their gradient
    below the similarity vector. Layers keep no state: ``fit`` holds their
    caches, and what else the similarity layer's backward pass needs, in a
    ``state`` dict that lives only as long as ``fit``; scoring passes none.
    So a fitted model is just its parameters. ``_block`` pairs are scored
    at a time (``None``: all at once).
    """

    _block: int | None = None

    def __init__(self, width: int, rng: np.random.Generator, encoder, *,
                 hidden: int, lr: float, epochs: int, batch: int, seed: int):
        self.dense = Dense(width, hidden, activation="tanh", rng=rng)
        self.clf = Dense(hidden, 1, activation="sigmoid", rng=rng)
        self.loop = TrainLoop([*encoder, self.dense, self.clf], lr=lr,
                              epochs=epochs, batch=batch,
                              rng=np.random.default_rng(seed))

    def _similarity_backward(self, idx, data, dsim, state) -> None:
        """Nothing below a precomputed similarity vector trains."""

    def fit(self, *data_y):
        """Train on the input arrays followed by the 0/1 labels ``y``."""
        *data, y = data_y
        state = {}

        def forward(idx):
            sim = self._similarity(idx, data, state)
            hid, state["dense"] = self.dense.forward(sim)
            p, state["clf"] = self.clf.forward(hid)
            return p[:, 0]

        def backward(idx, dp):
            dhid = self.clf.backward(dp[:, None], state["clf"])
            dsim = self.dense.backward(dhid, state["dense"])
            self._similarity_backward(idx, data, dsim, state)

        self.loop.run(len(y), forward, backward, y)
        return self

    def predict_proba(self, *data) -> np.ndarray:
        """Match probability of every pair in ``data``, caching nothing."""
        n = len(data[0])
        block = self._block or max(n, 1)
        out = np.empty(n)
        for s in range(0, n, block):
            idx = slice(s, s + block)
            out[idx] = self.clf(self.dense(self._similarity(idx, data)))[:, 0]
        return out


class AvgDeepER(_DeepER):
    """The head over precomputed per-attribute cosine features:
    ``fit(X, y)``, ``predict_proba(X)`` with ``X`` of shape ``(n, m)``."""

    def __init__(self, m: int, *, hidden: int, lr: float, epochs: int,
                 batch: int, seed: int):
        super().__init__(m, np.random.default_rng(seed), [], hidden=hidden,
                         lr=lr, epochs=epochs, batch=batch, seed=seed)

    def _similarity(self, idx, data, state=None):
        return data[0][idx]


class AvgDeepEREndToEnd(_DeepER):
    """AVG composition with a trainable embedding layer (§3.4).

    Inputs are token-id tensors ``(n, m, T)`` + masks for both tuple sides,
    ``fit(ids_a, mask_a, ids_b, mask_b, y)``; gradients flow through cosine
    and averaging into the embedding matrix (updated at its own rate
    ``EMB_LR``, the paper's "embeddings update rate 0.01").
    """

    _block = 512
    _gather = 32  # scored pairs whose (m, T, d) token vectors are gathered at once

    def __init__(self, m: int, emb_matrix: np.ndarray, *, hidden: int,
                 lr: float, epochs: int, batch: int, seed: int):
        self.emb = _Embedding(emb_matrix)
        super().__init__(m, np.random.default_rng(seed), [], hidden=hidden,
                         lr=lr, epochs=epochs, batch=batch, seed=seed)
        self.emb_opt = Adam([self.emb], lr=EMB_LR, weight_decay=0.0)

    def _similarity(self, idx, data, state=None):
        """Per attribute, the cosine of the two sides' masked token means,
        all ``m`` attributes of the batch in one pass. Scoring computes the
        same rows ``_gather`` pairs at a time, so a ``_block`` never holds
        its whole ``(B, m, T, d)`` gather."""
        ids_a, mask_a, ids_b, mask_b = (x[idx] for x in data)
        E = self.emb.params["E"]
        if state is None:
            cos = np.empty(ids_a.shape[:2])
            for s in range(0, len(cos), self._gather):
                sub = slice(s, s + self._gather)
                cos[sub] = _cosine_fwd(
                    _masked_mean(E, ids_a[sub], mask_a[sub])[0],
                    _masked_mean(E, ids_b[sub], mask_b[sub])[0])[0]
            return cos
        u, cu = _masked_mean(E, ids_a, mask_a)  # (B, m, d)
        v, cv = _masked_mean(E, ids_b, mask_b)
        cos, cc = _cosine_fwd(u, v)             # (B, m)
        state["cache"] = (cc, cu, cv)
        return cos

    def _similarity_backward(self, idx, data, dsim, state) -> None:
        """Scatter the mean-gradients into the embedding rows, then take one
        embedding Adam step. The scatter adds attribute by attribute, A
        side before B side: rows shared across attributes and sides sum in
        that order, which fixes the fitted bits."""
        ids_a, mask_a, ids_b, mask_b = data
        cc, cu, cv = state["cache"]
        du, dv = _cosine_bwd(dsim, cc)
        ids = _attr_major(ids_a[idx], ids_b[idx])    # (m, 2, B, T)
        mask = _attr_major(mask_a[idx], mask_b[idx])
        dmean = _attr_major(du / cu, dv / cv)         # (m, 2, B, d)
        self.emb_opt.zero_grad()
        dE = self.emb.grads["E"]
        np.add.at(dE, ids.ravel(), (dmean[..., None, :] * mask[..., None])
                  .reshape(-1, dE.shape[1]))
        dE[0, :] = 0.0  # UNK stays fixed
        self.emb_opt.step()


class LSTMDeepER(_DeepER):
    """Shared (Bi-)LSTM composition + abs-difference similarity (§2.3),
    over the same inputs as :class:`AvgDeepEREndToEnd`.

    All ``2*m*B`` attribute sequences of a batch are encoded in one LSTM
    call (the network is *shared* across attributes per the paper), so BPTT
    runs once per step.
    """

    _block = 256

    def __init__(self, m: int, emb_matrix: np.ndarray, *,
                 bidirectional: bool = False,
                 lstm_dim: int = 24,  # paper: 150
                 hidden: int, lr: float, epochs: int, batch: int, seed: int):
        rng = np.random.default_rng(seed)
        self.m = m
        self.E = emb_matrix.astype(np.float64)
        d = self.E.shape[1]
        if bidirectional:
            self.enc = BiLSTM(d, lstm_dim, rng=rng)
            self.out_dim = 2 * lstm_dim
            encoder = self.enc.modules
        else:
            self.enc = LSTM(d, lstm_dim, rng=rng)
            self.out_dim = lstm_dim
            encoder = [self.enc]
        super().__init__(m * self.out_dim, rng, encoder, hidden=hidden, lr=lr,
                         epochs=epochs, batch=batch, seed=seed)

    def _stack(self, ids, mask):
        """(B,m,T) -> (m*B, T, d) sequence batch + (m*B, T) mask."""
        B, m, T = ids.shape
        return (self.E[ids.transpose(1, 0, 2).reshape(m * B, T)],
                mask.transpose(1, 0, 2).reshape(m * B, T))

    def _similarity(self, idx, data, state=None):
        """|h_a - h_b| per attribute, concatenated; ``state`` gets the sign
        of the difference and the encoder's BPTT cache."""
        ids_a, mask_a, ids_b, mask_b = data
        seq_a, ma = self._stack(ids_a[idx], mask_a[idx])
        seq_b, mb = self._stack(ids_b[idx], mask_b[idx])
        seq, mask = np.concatenate([seq_a, seq_b]), np.concatenate([ma, mb])
        if state is None:
            h = self.enc(seq, mask)
        else:
            h, state["enc"] = self.enc.forward(seq, mask)
        ha, hb = h.reshape(2, self.m, -1, self.out_dim)  # (m, B, out) each
        diff = ha - hb
        if state is not None:
            state["sign"] = np.sign(diff)
        return np.abs(diff).transpose(1, 0, 2).reshape(diff.shape[1], -1)

    def _similarity_backward(self, idx, data, dsim, state) -> None:
        sign = state["sign"]
        m, B, k = sign.shape
        ddiff = dsim.reshape(B, m, k).transpose(1, 0, 2) * sign
        dh = ddiff.reshape(m * B, k)
        self.enc.backward(np.concatenate([dh, -dh]), state["enc"])
