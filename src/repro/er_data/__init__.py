"""Synthetic ER benchmark datasets shaped after the paper's Table 3.

The real corpora (DBLP-ACM, DBLP-Scholar, DBLP-Citeseer, Amazon-Google,
Walmart-Amazon, Fodors-Zagat) are not available offline; these generators
reproduce their *structure*: schemas, easy/challenging noise profiles, and
(scaled) size/match statistics, with ground truth known by construction.
"""
from repro.er_data.corrupt import EASY, HARD, NoiseConfig, TRIVIAL, corrupt_row
from repro.er_data.datasets import (
    DATASET_KEYS,
    ERDataset,
    SPECS,
    load,
    to_spark,
)

__all__ = [
    "ERDataset",
    "NoiseConfig",
    "EASY",
    "HARD",
    "TRIVIAL",
    "corrupt_row",
    "DATASET_KEYS",
    "SPECS",
    "load",
    "to_spark",
]
