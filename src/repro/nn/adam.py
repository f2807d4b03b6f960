"""Adam optimizer over modules exposing ``.params`` / ``.grads`` dicts,
and the mini-batch loop every trainable model here runs it in.

The paper trains DeepER with Adam (lr 0.01, 20 epochs, batch 16, L2
regularization 1e-3); those defaults are mirrored here.

Adam owns flat storage: it copies every module's params into one float64
buffer and their grads into a second, and rebinds each ``mod.params[k]`` /
``mod.grads[k]`` to a view of those buffers. A step is then a fixed handful
of whole-buffer operations however many arrays the modules hold. Modules
must therefore update their params and grads in place (``+=``, ``[...] =``)
and never rebind them, and a module belongs to at most one Adam.
"""
from __future__ import annotations

import numpy as np

from repro.nn.layers import bce_grad

BETA1, BETA2, EPS = 0.9, 0.999, 1e-8  # Kingma & Ba's defaults


class Adam:
    """Adam with L2 decay on weights: ``weight_decay · p`` is added to the
    gradient of every parameter with ``ndim > 1``, never to biases.

    Decayed parameters sit first in the flat buffers, so the decay touches
    one prefix slice; ``step`` adds it into the grads in place. Raises
    ``ValueError`` when a module is listed twice or when its arrays are
    already views (for instance of another Adam's buffers): either way one
    of the two copies would silently stop being updated.
    """

    def __init__(self, modules, *, lr: float = 0.01,
                 weight_decay: float = 1e-3):
        modules = list(modules)
        if len({id(mod) for mod in modules}) < len(modules):
            raise ValueError("a module is listed twice")
        slots = [(mod, k) for mod in modules for k in mod.params]
        for mod, k in slots:
            if mod.params[k].base is not None or mod.grads[k].base is not None:
                raise ValueError(
                    f"{type(mod).__name__}.params[{k!r}] or its grad is a view, "
                    "not an array of its own (does another Adam own it?)")
        slots.sort(key=lambda s: s[0].params[s[1]].ndim < 2)  # decayed first
        sizes = [mod.params[k].size for mod, k in slots]
        n = sum(sizes)
        self._p, self._g = np.empty(n), np.empty(n)
        self._m, self._v = np.zeros(n), np.zeros(n)
        self._s1, self._s2 = np.empty(n), np.empty(n)  # step scratch
        self._n_decay = sum(size for (mod, k), size in zip(slots, sizes)
                            if mod.params[k].ndim > 1)
        off = 0
        for (mod, k), size in zip(slots, sizes):
            for arrays, buf in ((mod.params, self._p), (mod.grads, self._g)):
                view = buf[off:off + size].reshape(arrays[k].shape)
                view[...] = arrays[k]
                arrays[k] = view
            off += size
        self.lr, self.weight_decay = lr, weight_decay
        self.t = 0

    def zero_grad(self) -> None:
        self._g.fill(0.0)

    def step(self) -> None:
        self.t += 1
        bc1 = 1.0 - BETA1 ** self.t
        bc2 = 1.0 - BETA2 ** self.t
        p, g, m, v, a, b = self._p, self._g, self._m, self._v, self._s1, self._s2
        nd = self._n_decay
        if self.weight_decay and nd:  # g + wd·p on the decayed prefix
            np.multiply(p[:nd], self.weight_decay, out=a[:nd])
            g[:nd] += a[:nd]
        m *= BETA1                      # b1·m + (1−b1)·g
        np.multiply(g, 1.0 - BETA1, out=a)
        m += a
        v *= BETA2                      # b2·v + ((1−b2)·g)·g
        np.multiply(g, 1.0 - BETA2, out=a)
        a *= g
        v += a
        np.divide(v, bc2, out=a)        # p −= (lr·(m/bc1)) / (√(v/bc2) + eps)
        np.sqrt(a, out=a)
        a += EPS
        np.divide(m, bc1, out=b)
        b *= self.lr
        b /= a
        p -= b


class TrainLoop:
    """Adam on the BCE loss over shuffled mini-batches, driven by
    ``forward(idx) -> p`` and ``backward(idx, dp)`` closures.

    Only the loss gradient is computed; the loss value itself is never
    needed for training. ``rng`` draws each epoch's row order. A model
    that must keep its batches tied to the draws that initialised its
    layers (Magellan-lite) passes that same generator.
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
                self.opt.zero_grad()
                backward(idx, bce_grad(p, y[idx]))
                self.opt.step()
