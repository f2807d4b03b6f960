"""Dense layer, activations, and binary cross-entropy with explicit backward.

Conventions: every layer exposes ``forward(x)`` returning the output and
stashing a cache, and ``backward(dout)`` returning the gradient w.r.t. the
input while accumulating parameter gradients in ``.grads`` (keyed like
``.params``). Inference calls a ``Dense`` as ``layer(x)``: the same output,
no cache, so a model keeps no scored block alive. Parameters are plain
numpy arrays; an Adam optimizer rebinds them and their grads to views of
its flat buffers, so layers only ever update them in place.
"""
from __future__ import annotations

import numpy as np


def sigmoid(x: np.ndarray) -> np.ndarray:
    """Numerically stable logistic sigmoid.

    ``exp`` only ever sees ``-|x|``, so it cannot overflow: ``1 / (1 + e)``
    for ``x >= 0`` and ``e / (1 + e)`` below, with ``e = exp(-|x|)``.
    """
    e = np.exp(-np.abs(x))
    d = 1.0 + e
    return np.where(x >= 0, 1.0 / d, e / d).astype(np.float64, copy=False)


class Dense:
    """Affine layer ``y = x @ W + b`` with optional activation.

    ``activation`` is one of ``None``, ``"sigmoid"``, ``"tanh"``.
    """

    def __init__(self, d_in: int, d_out: int, *, activation: str | None = None,
                 rng: np.random.Generator | None = None):
        rng = rng or np.random.default_rng(0)
        scale = np.sqrt(2.0 / (d_in + d_out))
        self.params = {
            "W": rng.normal(0.0, scale, size=(d_in, d_out)),
            "b": np.zeros(d_out),
        }
        self.grads = {k: np.zeros_like(v) for k, v in self.params.items()}
        self.activation = activation
        self._cache: tuple | None = None

    def __call__(self, x: np.ndarray) -> np.ndarray:
        """The layer's output for ``x``, caching nothing: inference."""
        z = x @ self.params["W"] + self.params["b"]
        if self.activation == "sigmoid":
            return sigmoid(z)
        if self.activation == "tanh":
            return np.tanh(z)
        if self.activation is None:
            return z
        raise ValueError(f"unknown activation {self.activation!r}")

    def forward(self, x: np.ndarray) -> np.ndarray:
        """``self(x)``, caching the input and output for ``backward``."""
        a = self(x)
        self._cache = (x, a)
        return a

    def backward(self, dout: np.ndarray) -> np.ndarray:
        x, a = self._cache
        if self.activation == "sigmoid":
            dz = dout * a * (1.0 - a)
        elif self.activation == "tanh":
            dz = dout * (1.0 - a * a)
        else:
            dz = dout
        self.grads["W"] += x.T @ dz
        self.grads["b"] += dz.sum(axis=0)
        return dz @ self.params["W"].T

    def zero_grad(self) -> None:
        for g in self.grads.values():
            g[...] = 0.0

    def __getstate__(self) -> dict:
        # A pickled layer (e.g. a model broadcast to Spark tasks) carries
        # its parameters, not the last forward pass's batch-sized cache.
        return {**self.__dict__, "_cache": None}


BCE_EPS = 1e-9  # probabilities are clipped to [BCE_EPS, 1 - BCE_EPS]


def bce_grad(p: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Gradient of the mean binary cross-entropy w.r.t. probabilities ``p``
    (clipped), 1/N mean factor included."""
    p = np.clip(p, BCE_EPS, 1.0 - BCE_EPS)
    return (p - y) / (p * (1.0 - p)) / p.shape[0]
