"""Magellan-lite: the classical feature-engineering EM baseline of Table 4.

Magellan's matcher auto-generates per-attribute string-similarity features
and trains an ML classifier on labeled pairs. We reproduce that pipeline
class: five symbolic similarity functions per attribute + a logistic
regression head trained with Adam (same optimizer budget as DeepER so the
comparison isolates the *representation*, which is the paper's point —
symbolic token similarity vs distributed similarity).
"""
from __future__ import annotations

import numpy as np
import pandas as pd

from repro.baselines import simfns
from repro.nn import Dense, TrainLoop

LR = 0.05
THRESHOLD = 0.5  # a pair matches when its probability is at least this


def featurize_pairs(table_a: pd.DataFrame, table_b: pd.DataFrame,
                    attrs: list[str], ij: np.ndarray) -> np.ndarray:
    """(n_pairs, n_attrs * 5) symbolic feature matrix of the ``(n, 2)``
    row-index pairs ``ij`` into ``table_a`` and ``table_b``.

    Only the rows the pairs use are read; per attribute, ``pair_features``
    parses each distinct value once and computes each feature once per
    distinct pair of values.
    """
    ra, ia = np.unique(ij[:, 0], return_inverse=True)
    rb, ib = np.unique(ij[:, 1], return_inverse=True)
    n_f = len(simfns.PAIR_FEATURES)
    X = np.empty((len(ij), len(attrs) * n_f))
    for k, attr in enumerate(attrs):
        X[:, k * n_f:(k + 1) * n_f] = simfns.pair_features(
            table_a[attr].to_numpy(object)[ra],
            table_b[attr].to_numpy(object)[rb], ia, ib)
    return X


class MagellanLite:
    """Logistic-regression matcher over symbolic similarity features."""

    def __init__(self, n_features: int, *, epochs: int = 30, batch: int = 64,
                 seed: int = 0):
        rng = np.random.default_rng(seed)
        self.clf = Dense(n_features, 1, activation="sigmoid", rng=rng)
        self.loop = TrainLoop([self.clf], lr=LR, epochs=epochs, batch=batch,
                              rng=rng, weight_decay=1e-4)

    def fit(self, X: np.ndarray, y: np.ndarray) -> "MagellanLite":
        state = {}  # the layer's cache, from forward to backward

        def forward(idx):
            p, state["clf"] = self.clf.forward(X[idx])
            return p[:, 0]

        def backward(idx, dp):
            self.clf.backward(dp[:, None], state["clf"])

        self.loop.run(len(X), forward, backward, y)
        return self

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        return self.clf(X)[:, 0]

    def predict(self, X: np.ndarray) -> np.ndarray:
        return (self.predict_proba(X) >= THRESHOLD).astype(float)
