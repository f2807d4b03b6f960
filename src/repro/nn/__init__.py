"""Minimal numpy deep-learning substrate.

The paper trains its models with Torch/Keras on a GPU; this container has
neither, so we implement the required pieces from scratch: dense layers,
uni-/bi-directional LSTM encoders with full backpropagation-through-time,
binary cross-entropy, and the Adam optimizer. Everything is gradient-checked
in ``tests/test_nn_grad.py``.

A module is any object with ``.params`` / ``.grads`` dicts of float64
arrays; its optimizer zeroes the grads (``Adam.zero_grad``). A layer keeps
no state between calls: ``forward`` returns its output and a cache, which
the caller holds and hands back to ``backward``; calling a layer is
inference. Adam owns flat storage: once a module is handed to an ``Adam``
(or a ``TrainLoop``), its params and grads are views of the optimizer's
buffers, so the module must update them in place and never rebind them.
"""
from repro.nn.adam import Adam, TrainLoop
from repro.nn.layers import Dense, sigmoid
from repro.nn.lstm import LSTM, BiLSTM

__all__ = ["Adam", "Dense", "LSTM", "BiLSTM", "TrainLoop", "sigmoid"]
