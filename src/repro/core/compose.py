"""Tuple → distributed representation composition (Algorithms 1 & 2).

The AVG path (Algorithm 1) averages token vectors per attribute and
concatenates the attribute vectors into an ``m*d`` tuple DR. The LSTM path
(Algorithm 2) runs a *shared* LSTM over each attribute's token sequence
(see ``repro.core.model.LSTMDeepER`` for the trainable composition).

``avg_tuple_vectors_spark`` is the distributed dataflow: DR computation runs
inside Spark via ``mapInPandas``, reconstructing the (deterministic,
hash-based) dictionary on each executor instead of shipping a giant matrix
— how one would deploy DeepER's representation layer at scale.
"""
from __future__ import annotations

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame
from pyspark.sql import types as T

from repro.embeddings.pretrained import FACTORIES, SyntheticEmbeddings
from repro.embeddings.tokenize import tokenize


def avg_attr_vector(dictionary: SyntheticEmbeddings, value,
                    extra: dict | None = None) -> np.ndarray:
    """Algorithm 1, one attribute: mean of token vectors (UNK for OOV)."""
    return dictionary.lookup_tokens(tokenize(value), extra).mean(axis=0)


def avg_tuple_matrix(table: pd.DataFrame, attrs: list[str],
                     dictionary: SyntheticEmbeddings,
                     extra: dict | None = None) -> np.ndarray:
    """(n, m*d) matrix of tuple DRs for a pandas table (driver-side path)."""
    n, m, d = len(table), len(attrs), dictionary.d
    out = np.empty((n, m * d))
    for j, attr in enumerate(attrs):
        col = table[attr].tolist()
        for i, v in enumerate(col):
            out[i, j * d:(j + 1) * d] = avg_attr_vector(dictionary, v, extra)
    return out


def avg_tuple_vectors_spark(df: DataFrame, attrs: list[str],
                            dict_name: str, d: int = 32,
                            extra: dict | None = None) -> DataFrame:
    """Distributed Algorithm 1: ``(id, vec)`` with ``vec`` an ``m*d`` array.

    The dictionary is rebuilt on each executor from its registry name —
    synthetic embeddings are pure functions of (word, seed), so this is
    exactly equivalent to broadcasting the pre-trained matrix.
    """
    spark = df.sparkSession
    bc_extra = spark.sparkContext.broadcast(extra)

    schema = T.StructType([
        T.StructField("id", T.StringType()),
        T.StructField("vec", T.ArrayType(T.DoubleType())),
    ])

    def compute(iterator):
        dictionary = FACTORIES[dict_name](d)
        ex = bc_extra.value
        for pdf in iterator:
            mat = avg_tuple_matrix(pdf, attrs, dictionary, ex)
            yield pd.DataFrame({"id": pdf["id"].tolist(),
                                "vec": list(map(list, mat))})

    return df.mapInPandas(compute, schema=schema)


def collect_vectors(df_vec: DataFrame) -> tuple[list[str], np.ndarray]:
    """Collect a ``(id, vec)`` DataFrame to ``(ids, matrix)`` on the driver.

    Goes through Arrow, and raises ``ValueError`` on a duplicate id: callers
    index the matrix by id, so each id must name exactly one row.
    """
    pdf = df_vec.select("id", "vec").toPandas()
    dup = pdf["id"].duplicated()
    if dup.any():
        raise ValueError(f"duplicate id {pdf['id'][dup].iloc[0]!r} "
                         "in vector table")
    if pdf.empty:
        return [], np.empty((0, 0))
    return pdf["id"].tolist(), np.stack(pdf["vec"].to_numpy())


def encode_attr_tokens(table: pd.DataFrame, attrs: list[str],
                       index: dict[str, int], max_len: int = 18):
    """Token-id tensors for the trainable paths.

    Returns ``(ids, mask)`` of shape ``(n, m, max_len)``; OOV/unknown words
    map to row 0 (UNK), empty values get a single UNK token, matching the
    UNK semantics of the lookup layer.
    """
    n, m = len(table), len(attrs)
    ids = np.zeros((n, m, max_len), dtype=np.int64)
    mask = np.zeros((n, m, max_len))
    for j, attr in enumerate(attrs):
        for i, v in enumerate(table[attr].tolist()):
            toks = tokenize(v)[:max_len] or ["<unk>"]
            for t_i, tok in enumerate(toks):
                ids[i, j, t_i] = index.get(tok, 0)
                mask[i, j, t_i] = 1.0
    return ids, mask
