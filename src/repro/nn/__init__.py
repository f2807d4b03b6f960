"""Minimal numpy deep-learning substrate.

The paper trains its models with Torch/Keras on a GPU; this container has
neither, so we implement the required pieces from scratch: dense layers,
uni-/bi-directional LSTM encoders with full backpropagation-through-time,
binary cross-entropy, and the Adam optimizer. Everything is gradient-checked
in ``tests/test_nn_grad.py``.
"""
from repro.nn.adam import Adam, TrainLoop
from repro.nn.layers import Dense, bce_loss, sigmoid, tanh
from repro.nn.lstm import LSTM, BiLSTM

__all__ = ["Adam", "Dense", "LSTM", "BiLSTM", "TrainLoop", "bce_loss",
           "sigmoid", "tanh"]
