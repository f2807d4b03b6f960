"""DeepER core: distributed representations of tuples + ER classifier."""
from repro.core.compose import (
    avg_tuple_matrix,
    avg_tuple_vectors_spark,
    encode_attr_tokens,
)
from repro.core.deeper import DeepERConfig, evaluate_deeper, evaluate_magellan
from repro.core.similarity import per_attribute_cosine

__all__ = [
    "avg_tuple_matrix",
    "avg_tuple_vectors_spark",
    "encode_attr_tokens",
    "per_attribute_cosine",
    "DeepERConfig",
    "evaluate_deeper",
    "evaluate_magellan",
]
