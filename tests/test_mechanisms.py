"""Mechanism tests for the §5.3 "Understanding DeepER Performance" knobs.

The corresponding *figures* (6–9) are out of reproduction scope, but the
pipeline must support the underlying experiments: varying training size,
injecting label noise, static vs dynamic embeddings, and swapping the
composition method. These tests exercise each knob end-to-end at small
scale and assert the qualitative direction the paper reports.
"""
from dataclasses import replace

import numpy as np
import pytest

from repro.core import DeepERConfig, evaluate_deeper
from repro.core.deeper import _prepare, network
from repro.core.pairs import f1_score
from repro.core.similarity import per_attribute_cosine
from repro.er_data import load

CFG = DeepERConfig(folds=2, neg_ratio=8, d=48, epochs=15)


def _pair_features(ds, cfg):
    prep = _prepare(ds, cfg)
    X = per_attribute_cosine(prep.vec_a[prep.ij[:, 0]],
                             prep.vec_b[prep.ij[:, 1]],
                             len(ds.attributes), cfg.d)
    return X, prep.y


def _cv_f1(X, y, train_frac=1.0, flip_frac=0.0, seed=0):
    """2-fold CV with optional training subsampling / label flipping."""
    rng = np.random.default_rng(seed)
    n = len(y)
    order = rng.permutation(n)
    half = n // 2
    scores = []
    for te_idx, tr_idx in ((order[:half], order[half:]),
                           (order[half:], order[:half])):
        tr = tr_idx[rng.random(len(tr_idx)) < train_frac]
        ytr = y[tr].copy()
        flip = rng.random(len(ytr)) < flip_frac
        ytr[flip] = 1.0 - ytr[flip]
        model = network(replace(CFG, seed=seed), X.shape[1]).fit(X[tr], ytr)
        pred = (model.predict_proba(X[te_idx]) >= 0.5).astype(float)
        scores.append(f1_score(y[te_idx], pred)[0])
    return float(np.mean(scores))


@pytest.fixture(scope="module")
def prod_features():
    ds = load("prod_ag", scale=0.4)
    return _pair_features(ds, CFG)


class TestVaryingTrainingData:
    """Figure 6 mechanism: DeepER is competitive with little training
    data, and does not get worse with more."""

    def test_small_fraction_still_competitive(self, prod_features):
        X, y = prod_features
        f1_small = _cv_f1(X, y, train_frac=0.1)
        assert f1_small > 0.75

    def test_more_data_does_not_hurt(self, prod_features):
        X, y = prod_features
        f1_small = _cv_f1(X, y, train_frac=0.1)
        f1_full = _cv_f1(X, y, train_frac=1.0)
        assert f1_full >= f1_small - 0.03


class TestLabelNoise:
    """Figure 7 mechanism: modest label noise degrades gracefully, heavy
    noise degrades more."""

    def test_graceful_at_10pct(self, prod_features):
        X, y = prod_features
        clean = _cv_f1(X, y)
        noisy = _cv_f1(X, y, flip_frac=0.10)
        assert noisy > clean - 0.12

    def test_monotone_damage(self, prod_features):
        X, y = prod_features
        f1_00 = _cv_f1(X, y)
        f1_30 = _cv_f1(X, y, flip_frac=0.30)
        assert f1_30 <= f1_00 + 0.02


class TestStaticVsDynamic:
    """Figure 8 mechanism: end-to-end embedding updates are at least
    roughly neutral on an easy dataset (the paper: tiny effect)."""

    def test_update_close_to_static(self):
        ds = load("rest_fz", scale=0.4)
        static = evaluate_deeper(ds, CFG)
        dynamic = evaluate_deeper(ds, replace(CFG, update_embeddings=True))
        assert abs(static["f1"] - dynamic["f1"]) < 0.15


class TestComposition:
    """Figure 9 mechanism: both composition paths produce usable models;
    averaging is at least as good on an easy dataset (the paper: simple
    averaging usually wins on the easy tier)."""

    def test_avg_vs_lstm_easy_tier(self):
        ds = load("rest_fz", scale=0.3)
        avg = evaluate_deeper(ds, CFG)
        lstm = evaluate_deeper(ds, replace(CFG, composition="lstm",
                                           epochs=8))
        assert avg["f1"] >= lstm["f1"] - 0.1
        assert lstm["f1"] > 0.5

    def test_bilstm_runs_on_hard_tier(self):
        ds = load("prod_ag", scale=0.15)
        r = evaluate_deeper(ds, replace(CFG, composition="bilstm",
                                        epochs=6, neg_ratio=4))
        assert 0.0 <= r["f1"] <= 1.0
