"""Dense layer, activations, and binary cross-entropy with explicit backward.

Conventions: a layer keeps no state between calls. ``forward(x)`` returns
``(out, cache)``; the caller hands the cache back to ``backward(dout,
cache)``, which returns the gradient w.r.t. the input and accumulates
parameter gradients in ``.grads`` (keyed like ``.params``). Inference calls
a ``Dense`` as ``layer(x)``: the same output, no cache. Parameters are plain
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
        if activation not in (None, "sigmoid", "tanh"):
            raise ValueError(f"unknown activation {activation!r}")
        rng = rng or np.random.default_rng(0)
        scale = np.sqrt(2.0 / (d_in + d_out))
        self.params = {
            "W": rng.normal(0.0, scale, size=(d_in, d_out)),
            "b": np.zeros(d_out),
        }
        self.grads = {k: np.zeros_like(v) for k, v in self.params.items()}
        self.activation = activation

    def __call__(self, x: np.ndarray) -> np.ndarray:
        """The layer's output for ``x``, caching nothing: inference."""
        z = x @ self.params["W"] + self.params["b"]
        if self.activation == "sigmoid":
            return sigmoid(z)
        if self.activation == "tanh":
            return np.tanh(z)
        return z

    def forward(self, x: np.ndarray) -> tuple[np.ndarray, tuple]:
        """``self(x)`` and the cache ``backward`` takes: input and output."""
        a = self(x)
        return a, (x, a)

    def backward(self, dout: np.ndarray, cache: tuple) -> np.ndarray:
        x, a = cache
        if self.activation == "sigmoid":
            dz = dout * a * (1.0 - a)
        elif self.activation == "tanh":
            dz = dout * (1.0 - a * a)
        else:
            dz = dout
        self.grads["W"] += x.T @ dz
        self.grads["b"] += dz.sum(axis=0)
        return dz @ self.params["W"].T


BCE_EPS = 1e-9  # probabilities are clipped to [BCE_EPS, 1 - BCE_EPS]


def bce_grad(p: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Gradient of the mean binary cross-entropy w.r.t. probabilities ``p``
    (clipped), 1/N mean factor included."""
    p = np.clip(p, BCE_EPS, 1.0 - BCE_EPS)
    return (p - y) / (p * (1.0 - p)) / p.shape[0]
