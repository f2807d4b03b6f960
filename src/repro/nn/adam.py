"""Adam optimizer over modules exposing ``.params`` / ``.grads`` dicts,
and the mini-batch loop every trainable model here runs it in.

The paper trains DeepER with Adam (lr 0.01, 20 epochs, batch 16, L2
regularization 1e-3); those defaults are mirrored here.
"""
from __future__ import annotations

import numpy as np

from repro.nn.layers import bce_loss


class Adam:
    def __init__(self, modules, *, lr: float = 0.01, beta1: float = 0.9,
                 beta2: float = 0.999, eps: float = 1e-8, weight_decay: float = 1e-3):
        self.modules = list(modules)
        self.lr, self.b1, self.b2, self.eps = lr, beta1, beta2, eps
        self.weight_decay = weight_decay
        self.t = 0
        self._m = [
            {k: np.zeros_like(v) for k, v in mod.params.items()} for mod in self.modules
        ]
        self._v = [
            {k: np.zeros_like(v) for k, v in mod.params.items()} for mod in self.modules
        ]

    def zero_grad(self) -> None:
        for mod in self.modules:
            mod.zero_grad()

    def step(self) -> None:
        self.t += 1
        bc1 = 1.0 - self.b1 ** self.t
        bc2 = 1.0 - self.b2 ** self.t
        for mod, ms, vs in zip(self.modules, self._m, self._v):
            for k, p in mod.params.items():
                g = mod.grads[k]
                if self.weight_decay and p.ndim > 1:  # no decay on biases
                    g = g + self.weight_decay * p
                ms[k] = self.b1 * ms[k] + (1.0 - self.b1) * g
                vs[k] = self.b2 * vs[k] + (1.0 - self.b2) * g * g
                p -= self.lr * (ms[k] / bc1) / (np.sqrt(vs[k] / bc2) + self.eps)


class TrainLoop:
    """Adam on the BCE loss over shuffled mini-batches, driven by
    ``forward(idx) -> p`` and ``backward(idx, dp)`` closures.

    ``rng`` draws each epoch's row order. A model that must keep its
    batches tied to the draws that initialised its layers (Magellan-lite)
    passes that same generator.
    """

    def __init__(self, modules, *, lr: float, epochs: int, batch: int,
                 rng: np.random.Generator, weight_decay: float = 1e-3):
        self.opt = Adam(modules, lr=lr, weight_decay=weight_decay)
        self.epochs, self.batch = epochs, batch
        self.rng = rng

    def run(self, n: int, forward, backward, y: np.ndarray) -> None:
        for _ in range(self.epochs):
            order = self.rng.permutation(n)
            for s in range(0, n, self.batch):
                idx = order[s:s + self.batch]
                p = forward(idx)
                _, dp = bce_loss(p, y[idx])
                self.opt.zero_grad()
                backward(idx, dp)
                self.opt.step()
