"""Blocking quality metrics (§5.4).

- **Pair completeness (PC)**: fraction of true duplicate pairs that survive
  blocking (recall of the blocker).
- **Reduction ratio (RR)**: candidate pairs / all possible pairs — the
  paper plots the *ratio of comparisons made* (smaller = more reduction),
  so we follow that convention.
"""
from __future__ import annotations


def pair_completeness(candidates: set, matches: set) -> float:
    if not matches:
        return 1.0
    return len(candidates & matches) / len(matches)


def reduction_ratio(n_candidates: int, n_a: int, n_b: int) -> float:
    total = n_a * n_b
    return n_candidates / total if total else 0.0


def end_to_end_pr(predicted: set, matches: set) -> tuple[float, float]:
    """Precision/recall of a full block->classify pipeline's predicted
    match set against ground truth. With no matches to find, recall is 1.0
    (as in ``pair_completeness``); with no predictions, precision is 0.0."""
    tp = len(predicted & matches)
    prec = tp / len(predicted) if predicted else 0.0
    rec = tp / len(matches) if matches else 1.0
    return prec, rec
