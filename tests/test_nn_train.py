"""Training-dynamics tests: the substrate must actually learn.

These are end-to-end sanity checks on toy tasks that exercise the same
optimization loop DeepER uses (Adam, mini-batches, BCE).
"""
import pickle

import numpy as np
import pytest

import repro.core.model as model_mod
import repro.nn.adam as adam_mod
from repro.baselines.magellan_lite import MagellanLite
from repro.core.model import AvgDeepER, AvgDeepEREndToEnd, LSTMDeepER
from repro.nn import LSTM, Adam, BiLSTM, Dense, TrainLoop
from repro.nn.layers import bce_grad

# The training recipe that ``DeepERConfig`` declares, passed whole: the
# models take no training defaults of their own.
RECIPE = dict(hidden=24, lr=0.01, epochs=20, batch=16, seed=0)


def test_dense_learns_linearly_separable():
    rng = np.random.default_rng(0)
    X = rng.normal(size=(200, 4))
    y = (X @ np.array([1.0, -2.0, 0.5, 0.0]) > 0).astype(float)
    clf = Dense(4, 1, activation="sigmoid", rng=rng)
    opt = Adam([clf], lr=0.05, weight_decay=0.0)
    for _ in range(300):
        p, cache = clf.forward(X)
        dp = bce_grad(p[:, 0], y)
        opt.zero_grad()
        clf.backward(dp[:, None], cache)
        opt.step()
    acc = float(np.mean((clf(X)[:, 0] > 0.5) == y))
    assert acc > 0.97


def test_adam_descends_quadratic():
    class Quad:
        def __init__(self):
            self.params = {"x": np.array([5.0, -3.0])}
            self.grads = {"x": np.zeros(2)}

    q = Quad()
    opt = Adam([q], lr=0.1, weight_decay=0.0)
    for _ in range(500):
        opt.zero_grad()
        q.grads["x"] += 2.0 * q.params["x"]
        opt.step()
    assert np.abs(q.params["x"]).max() < 1e-2


def test_lstm_learns_order_sensitive_task():
    """Classify whether token A precedes token B — impossible for averaging,
    learnable by an LSTM. This is the mechanism behind the paper's claim that
    LSTM composition helps on word-order-sensitive data (§2.3, Fig. 9)."""
    rng = np.random.default_rng(2)
    d, T, n = 6, 4, 240
    tok = rng.normal(size=(3, d))  # A, B, filler
    X = np.zeros((n, T, d))
    y = np.zeros(n)
    for i in range(n):
        order = [0, 1] if i % 2 == 0 else [1, 0]
        y[i] = float(i % 2 == 0)
        pos = sorted(rng.choice(T, size=2, replace=False))
        seq = [2] * T
        seq[pos[0]], seq[pos[1]] = order
        X[i] = tok[seq]
    mask = np.ones((n, T))
    enc = LSTM(d, 8, rng=rng)
    head = Dense(8, 1, activation="sigmoid", rng=rng)
    opt = Adam([enc, head], lr=0.02, weight_decay=0.0)
    for _ in range(150):
        h, enc_cache = enc.forward(X, mask)
        p, head_cache = head.forward(h)
        dp = bce_grad(p[:, 0], y)
        opt.zero_grad()
        dh = head.backward(dp[:, None], head_cache)
        enc.backward(dh, enc_cache)
        opt.step()
    p = head(enc(X, mask))[:, 0]
    acc = float(np.mean((p > 0.5) == y))
    assert acc > 0.95

    # averaging the same token vectors cannot distinguish the classes:
    avg = X.mean(axis=1)
    same = np.abs(avg[0] - avg[1]).max()
    assert same < 2.0  # averaged representations overlap across classes


def test_weight_decay_shrinks_unused_weights():
    rng = np.random.default_rng(3)
    layer = Dense(2, 1, rng=rng)
    layer.params["W"][...] = 10.0
    opt = Adam([layer], lr=0.05, weight_decay=1e-1)
    X = np.zeros((4, 2))  # no signal: only decay acts on W
    for _ in range(200):
        _, cache = layer.forward(X)
        opt.zero_grad()
        layer.backward(np.zeros((4, 1)), cache)
        opt.step()
    assert np.abs(layer.params["W"]).max() < 10.0


# -- bit-identity with the per-parameter optimizer ----------------------------

class _RefAdam:
    """The per-parameter Adam that the flat-buffer one replaced, kept as the
    reference its results must equal bit for bit."""

    def __init__(self, modules, *, lr=0.01, beta1=0.9, beta2=0.999, eps=1e-8,
                 weight_decay=1e-3):
        self.modules = list(modules)
        self.lr, self.b1, self.b2, self.eps = lr, beta1, beta2, eps
        self.weight_decay = weight_decay
        self.t = 0
        self._m = [{k: np.zeros_like(v) for k, v in mod.params.items()}
                   for mod in self.modules]
        self._v = [{k: np.zeros_like(v) for k, v in mod.params.items()}
                   for mod in self.modules]

    def zero_grad(self):
        for mod in self.modules:
            for g in mod.grads.values():
                g[...] = 0.0

    def step(self):
        self.t += 1
        bc1 = 1.0 - self.b1 ** self.t
        bc2 = 1.0 - self.b2 ** self.t
        for mod, ms, vs in zip(self.modules, self._m, self._v):
            for k, p in mod.params.items():
                g = mod.grads[k]
                if self.weight_decay and p.ndim > 1:
                    g = g + self.weight_decay * p
                ms[k] = self.b1 * ms[k] + (1.0 - self.b1) * g
                vs[k] = self.b2 * vs[k] + (1.0 - self.b2) * g * g
                p -= self.lr * (ms[k] / bc1) / (np.sqrt(vs[k] / bc2) + self.eps)


def _ref_run(self, n, forward, backward, y):
    """``TrainLoop.run`` as it was, less the loss value it computed and
    dropped."""
    for _ in range(self.epochs):
        order = self.rng.permutation(n)
        for s in range(0, n, self.batch):
            idx = order[s:s + self.batch]
            p = forward(idx)
            dp = bce_grad(p, y[idx])
            self.opt.zero_grad()
            backward(idx, dp)
            self.opt.step()


def _fit_both(build, fit):
    """``(reference, flat)`` models: each built by ``build()`` and trained by
    ``fit(model)``, the first with ``_RefAdam`` and ``_ref_run``."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(adam_mod, "Adam", _RefAdam)
        mp.setattr(model_mod, "Adam", _RefAdam)
        mp.setattr(adam_mod.TrainLoop, "run", _ref_run)
        ref = build()
        fit(ref)
    new = build()
    fit(new)
    return ref, new


def _named_params(model):
    out = {}
    for name, mod in vars(model).items():
        if isinstance(mod, (_RefAdam, Adam)):
            continue
        for sub, m in [(name, mod)] + [(f"{name}.{i}", x) for i, x in
                                       enumerate(getattr(mod, "modules", []))]:
            for k, v in getattr(m, "params", {}).items():
                out[f"{sub}.{k}"] = v
    return out


def _assert_same_params(ref, new):
    a, b = _named_params(ref), _named_params(new)
    assert a and a.keys() == b.keys()
    for k in a:
        assert np.array_equal(a[k], b[k]), k


def _token_data(rng, n=40, m=2, T=4, vocab=20):
    ids = [rng.integers(0, vocab, size=(n, m, T)) for _ in range(2)]
    masks = [(rng.random((n, m, T)) < 0.7).astype(float) for _ in range(2)]
    for mk in masks:
        mk[:, :, 0] = 1.0
    y = (rng.random(n) < 0.4).astype(float)
    return ids[0], masks[0], ids[1], masks[1], y


@pytest.mark.parametrize("seed", [0, 3])
def test_avg_deeper_equals_reference(seed):
    rng = np.random.default_rng(seed)
    X = rng.random((50, 4))
    y = (X.sum(axis=1) > 2.0).astype(float)
    ref, new = _fit_both(lambda: AvgDeepER(4, **dict(RECIPE, hidden=6,
                                                     epochs=3, batch=8,
                                                     seed=seed)),
                         lambda mdl: mdl.fit(X, y))
    _assert_same_params(ref, new)
    assert np.array_equal(ref.predict_proba(X), new.predict_proba(X))


def test_magellan_equals_reference():
    """Magellan-lite draws its batches from the generator that initialised
    its layer, so the two runs must also consume it identically."""
    rng = np.random.default_rng(1)
    X = rng.random((70, 6))
    y = (X[:, 0] > 0.5).astype(float)
    ref, new = _fit_both(lambda: MagellanLite(6, epochs=3, batch=8, seed=2),
                         lambda mdl: mdl.fit(X, y))
    _assert_same_params(ref, new)
    assert np.array_equal(ref.predict_proba(X), new.predict_proba(X))


def test_end_to_end_with_embedding_updates_equals_reference():
    data = _token_data(np.random.default_rng(4))
    emb = np.random.default_rng(5).normal(size=(20, 5))
    ref, new = _fit_both(
        lambda: AvgDeepEREndToEnd(2, emb, **dict(RECIPE, hidden=6, epochs=2,
                                                  batch=8)),
        lambda mdl: mdl.fit(*data))
    _assert_same_params(ref, new)
    assert not np.array_equal(new.emb.params["E"], emb)  # embeddings moved
    assert np.array_equal(ref.predict_proba(*data[:4]),
                          new.predict_proba(*data[:4]))


def _ref_masked_mean(E, ids, mask):
    """(B,T) ids -> (B,d) mean of valid token vectors; returns cache."""
    X = E[ids]                                # (B, T, d)
    cnt = np.clip(mask.sum(axis=1, keepdims=True), 1.0, None)  # (B,1)
    u = (X * mask[:, :, None]).sum(axis=1) / cnt
    return u, cnt


def _ref_cosine_fwd(u, v):
    nu = np.linalg.norm(u, axis=1) + model_mod._EPS
    nv = np.linalg.norm(v, axis=1) + model_mod._EPS
    cos = (u * v).sum(axis=1) / (nu * nv)
    return cos, (u, v, nu, nv, cos)


def _ref_cosine_bwd(dcos, cache):
    u, v, nu, nv, cos = cache
    du = dcos[:, None] * (v / (nu * nv)[:, None] - (cos / nu**2)[:, None] * u)
    dv = dcos[:, None] * (u / (nu * nv)[:, None] - (cos / nv**2)[:, None] * v)
    return du, dv


class _RefAvgDeepEREndToEnd(AvgDeepEREndToEnd):
    """The per-attribute similarity layer that the batched one replaced,
    kept as the reference its results must equal bit for bit."""

    def __init__(self, m, emb_matrix, **kw):
        self.m = m
        super().__init__(m, emb_matrix, **kw)

    def _similarity(self, idx, data, state=None):
        ids_a, mask_a, ids_b, mask_b = data
        E = self.emb.params["E"]
        cols = []
        if state is not None:
            state["caches"] = []
        for j in range(self.m):
            u, cu = _ref_masked_mean(E, ids_a[idx, j], mask_a[idx, j])
            v, cv = _ref_masked_mean(E, ids_b[idx, j], mask_b[idx, j])
            cos, cc = _ref_cosine_fwd(u, v)
            cols.append(cos)
            if state is not None:
                state["caches"].append((cc, cu, cv))
        return np.column_stack(cols)

    def _similarity_backward(self, idx, data, dsim, state) -> None:
        ids_a, mask_a, ids_b, mask_b = data
        dE = self.emb.grads["E"]
        dE[...] = 0.0
        for j, (cc, cu, cv) in enumerate(state["caches"]):
            du, dv = _ref_cosine_bwd(dsim[:, j], cc)
            ga = (du / cu)[:, None, :] * mask_a[idx, j][:, :, None]
            gb = (dv / cv)[:, None, :] * mask_b[idx, j][:, :, None]
            np.add.at(dE, ids_a[idx, j].ravel(), ga.reshape(-1, dE.shape[1]))
            np.add.at(dE, ids_b[idx, j].ravel(), gb.reshape(-1, dE.shape[1]))
        dE[0, :] = 0.0  # UNK stays fixed
        self.emb_opt.step()


@pytest.mark.parametrize("m", [1, 2, 5, 17])
def test_batched_end_to_end_equals_per_attribute_reference(m):
    """All attributes in one pass fit the same bits as the loop over them.

    Six token ids over ``m`` attributes and both sides make every batch
    scatter into shared embedding rows, so the order in which the
    scatter adds the attributes and sides shows in the fitted bits."""
    data = _token_data(np.random.default_rng(0), m=m, T=5, vocab=6)
    emb = np.random.default_rng(9).normal(size=(6, 4))
    models = [cls(m, emb, **dict(RECIPE, hidden=5, epochs=2, batch=8))
              .fit(*data) for cls in (_RefAvgDeepEREndToEnd,
                                      AvgDeepEREndToEnd)]
    ref, new = models
    _assert_same_params(ref, new)
    assert not np.array_equal(new.emb.params["E"], emb)  # embeddings moved
    assert np.array_equal(ref.predict_proba(*data[:4]),
                          new.predict_proba(*data[:4]))


def test_end_to_end_scoring_by_gathers_equals_whole_blocks():
    """Scoring gathers ``_gather`` pairs' token vectors at a time; the
    probabilities equal those of one gather per ``_block``, across both
    boundaries (1,100 pairs: two full blocks and a partial one)."""
    data = _token_data(np.random.default_rng(4), n=1100, m=3, T=5, vocab=30)
    emb = np.random.default_rng(5).normal(size=(30, 4))
    model = AvgDeepEREndToEnd(3, emb, **dict(RECIPE, hidden=5, epochs=1,
                                             batch=64)).fit(*data)
    got = model.predict_proba(*data[:4])
    model._gather = model._block
    assert np.array_equal(got, model.predict_proba(*data[:4]))


@pytest.mark.parametrize("bidirectional", [False, True])
def test_lstm_deeper_equals_reference(bidirectional):
    data = _token_data(np.random.default_rng(6))
    emb = np.random.default_rng(7).normal(size=(20, 5))
    ref, new = _fit_both(
        lambda: LSTMDeepER(2, emb, bidirectional=bidirectional, lstm_dim=4,
                           **dict(RECIPE, hidden=5, epochs=2, batch=8,
                                  seed=1)),
        lambda mdl: mdl.fit(*data))
    _assert_same_params(ref, new)
    assert np.array_equal(ref.predict_proba(*data[:4]),
                          new.predict_proba(*data[:4]))


@pytest.mark.parametrize("activation", [None, "sigmoid", "tanh"])
def test_dense_call_is_forward_without_cache(activation):
    layer = Dense(5, 3, activation=activation,
                  rng=np.random.default_rng(0))
    x = np.random.default_rng(1).normal(size=(7, 5))
    assert np.array_equal(layer(x), layer.forward(x)[0])


def test_dense_rejects_unknown_activation():
    with pytest.raises(ValueError, match="unknown activation 'relu'"):
        Dense(2, 2, activation="relu")


# Every attribute a layer may hold: its parameters, their gradients and its
# constructor's settings. Anything else is state a call left behind.
_LAYER_FIELDS = {
    Dense: {"params", "grads", "activation"},
    LSTM: {"params", "grads", "d_in", "d_hidden"},
    BiLSTM: {"fwd", "bwd", "d_hidden"},
    model_mod._Embedding: {"params", "grads"},
}


def _assert_layers_hold_no_state(model, n_layers):
    top = [v for v in vars(model).values() if type(v) in _LAYER_FIELDS]
    layers = top + [m for v in top if isinstance(v, BiLSTM)
                    for m in v.modules]
    assert len(layers) == n_layers
    for layer in layers:
        assert set(vars(layer)) == _LAYER_FIELDS[type(layer)], layer


@pytest.mark.parametrize("build, n_layers", [
    (lambda emb: AvgDeepER(4, **dict(RECIPE, hidden=6, epochs=1, batch=8)),
     2),
    (lambda emb: MagellanLite(4, epochs=1, batch=8), 1),
    (lambda emb: AvgDeepEREndToEnd(2, emb, **dict(RECIPE, hidden=6,
                                                  epochs=1, batch=8)), 3),
    (lambda emb: LSTMDeepER(2, emb, lstm_dim=4,
                            **dict(RECIPE, hidden=6, epochs=1, batch=8)), 3),
    (lambda emb: LSTMDeepER(2, emb, bidirectional=True, lstm_dim=4,
                            **dict(RECIPE, hidden=6, epochs=1, batch=8)), 5),
], ids=["avg", "magellan", "end_to_end", "lstm", "bilstm"])
def test_predict_proba_keeps_no_scored_block(build, n_layers):
    """After ``fit``, and again after ``predict_proba``, every layer holds
    only its params, grads and constructor settings: a fitted model keeps
    no training batch, and scoring keeps no scored block."""
    model = build(np.random.default_rng(5).normal(size=(20, 5)))
    if isinstance(model, (AvgDeepER, MagellanLite)):
        X = np.random.default_rng(2).random((40, 4))
        *data, y = X, (X[:, 0] > 0.5).astype(float)
    else:
        *data, y = _token_data(np.random.default_rng(4))
    model.fit(*data, y)
    _assert_layers_hold_no_state(model, n_layers)
    model.predict_proba(*data)
    _assert_layers_hold_no_state(model, n_layers)


@pytest.mark.parametrize("bidirectional", [False, True])
def test_pickled_lstm_model_predicts_exactly_without_forward_cache(
        bidirectional):
    """A pickled LSTM model predicts exactly as the original does."""
    data = _token_data(np.random.default_rng(4))
    emb = np.random.default_rng(5).normal(size=(20, 5))
    model = LSTMDeepER(2, emb, bidirectional=bidirectional, lstm_dim=4,
                       **dict(RECIPE, hidden=6, epochs=1, batch=8)
                       ).fit(*data)
    got = pickle.loads(pickle.dumps(model))
    assert np.array_equal(got.predict_proba(*data[:4]),
                          model.predict_proba(*data[:4]))


@pytest.mark.parametrize("build", [
    lambda emb: AvgDeepER(4, **dict(RECIPE, epochs=1)),
    lambda emb: AvgDeepEREndToEnd(2, emb, **dict(RECIPE, epochs=1)),
    lambda emb: LSTMDeepER(2, emb, lstm_dim=4, **dict(RECIPE, epochs=1)),
    lambda emb: LSTMDeepER(2, emb, bidirectional=True, lstm_dim=4,
                           **dict(RECIPE, epochs=1)),
], ids=["avg", "end_to_end", "lstm", "bilstm"])
def test_predict_proba_of_no_pairs_is_empty(build):
    """A CV fold can have an empty test set: every model scores it."""
    ids, mask = np.zeros((0, 2, 4), np.int64), np.zeros((0, 2, 4))
    emb = np.random.default_rng(5).normal(size=(20, 5))
    model = build(emb)
    data = (np.empty((0, 4)),) if isinstance(model, AvgDeepER) else (
        ids, mask, ids, mask)
    assert model.predict_proba(*data).shape == (0,)


@pytest.mark.parametrize("cls", [LSTM, BiLSTM])
def test_lstm_call_is_forward_without_cache(cls):
    enc = cls(3, 4, rng=np.random.default_rng(0))
    rng = np.random.default_rng(1)
    X = rng.normal(size=(6, 5, 3))
    mask = (rng.random((6, 5)) < 0.7).astype(float)
    assert np.array_equal(enc(X, mask), enc.forward(X, mask)[0])


class _Vector:
    """A module with only 1-D params: its optimizer's decayed prefix is empty."""

    def __init__(self):
        self.params = {"x": np.array([5.0, -3.0, 0.5]), "y": np.array([2.0])}
        self.grads = {k: np.zeros_like(v) for k, v in self.params.items()}


@pytest.mark.parametrize("weight_decay", [0.0, 1e-2])
@pytest.mark.parametrize("make", [
    lambda: [_Vector()],
    lambda: [Dense(3, 4, rng=np.random.default_rng(0)), _Vector(),
             LSTM(2, 3, rng=np.random.default_rng(1))],
], ids=["1d-only", "mixed"])
def test_adam_steps_equal_reference(make, weight_decay):
    trajectories = []
    for cls in (_RefAdam, Adam):
        modules = make()
        opt = cls(modules, lr=0.05, weight_decay=weight_decay)
        for step in range(25):
            opt.zero_grad()
            for mod in modules:
                for k, p in mod.params.items():
                    mod.grads[k] += np.sin(p * (step + 1)) + 0.1
            opt.step()
        trajectories.append([p.copy() for mod in modules
                             for p in mod.params.values()])
    ref, new = trajectories
    assert all(np.array_equal(a, b) for a, b in zip(ref, new))


def test_adam_rejects_module_listed_twice():
    layer = Dense(3, 2)
    with pytest.raises(ValueError, match="listed twice"):
        Adam([layer, layer])


def test_adam_rejects_module_owned_by_another_optimizer():
    layer = Dense(3, 2)
    Adam([layer])
    with pytest.raises(ValueError, match="another Adam"):
        Adam([layer])
    with pytest.raises(ValueError, match="another Adam"):
        TrainLoop([layer], lr=0.01, epochs=1, batch=4,
                  rng=np.random.default_rng(0))
