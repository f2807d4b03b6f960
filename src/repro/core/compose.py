"""Tuple → distributed representation composition (Algorithms 1 & 2).

Every cell is tokenized once and encoded to ragged token ids by one
encoder, ``_encode`` (row 0 of the dictionary matrix is UNK). The AVG path
(Algorithm 1) averages each cell's token vectors and concatenates them into
an ``m*d`` tuple DR; the trainable paths (Algorithm 2, ``repro.core.model``)
take the same ids padded to ``max_len``.

``avg_tuple_vectors_spark`` is the distributed dataflow: DR computation runs
inside Spark via ``mapInPandas``. Each Python worker process builds the
(deterministic, hash-based) dictionary from its name once and reuses it
across the tasks it runs, instead of receiving a shipped matrix — how one
would deploy DeepER's representation layer at scale.
"""
from __future__ import annotations

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame
from pyspark.sql import types as T

from repro.embeddings.pretrained import FACTORIES, SyntheticEmbeddings
from repro.embeddings.tokenize import tokenize


def _tokenize_cells(table: pd.DataFrame, attrs: list[str]):
    """Token list of every cell, attribute-major: cell ``j*n + i`` is
    ``table[attrs[j]]`` at row ``i``."""
    return [tokenize(v) for attr in attrs for v in table[attr].tolist()]


def tuple_tokens(table: pd.DataFrame, attrs: list[str]) -> list[list[str]]:
    """Token list of every tuple: its cells' tokens in ``attrs`` order (the
    retrofitting corpus, §3.2, and the trainable networks' vocabulary)."""
    n, cells = len(table), _tokenize_cells(table, attrs)
    return [[t for j in range(len(attrs)) for t in cells[j * n + i]]
            for i in range(n)]


def _encode(cells: list[list[str]], index: dict[str, int]):
    """Ragged token ids of tokenized cells: ``(ids, lens)``.

    ``ids`` concatenates every cell's ids and ``lens[k]`` is the token count
    of cell ``k``. A word missing from ``index`` is 0 (UNK); an empty or
    NULL cell is exactly one 0, so every cell has at least one id.
    """
    lens = np.fromiter((len(c) or 1 for c in cells), np.int64, len(cells))
    ids = np.fromiter((i for c in cells
                       for i in [index.get(t, 0) for t in c] or [0]),
                      np.int64, int(lens.sum()))
    return ids, lens


def avg_tuple_matrix(table: pd.DataFrame, attrs: list[str],
                     dictionary: SyntheticEmbeddings,
                     extra: dict | None = None) -> np.ndarray:
    """(n, m*d) matrix of tuple DRs for a pandas table (driver-side path)."""
    n, m, d = len(table), len(attrs), dictionary.d
    if n * m == 0:
        return np.zeros((n, m * d))
    cells = _tokenize_cells(table, attrs)
    index, E = dictionary.as_matrix({t for c in cells for t in c}, extra)
    ids, lens = _encode(cells, index)
    starts = np.cumsum(lens) - lens
    means = np.add.reduceat(E[ids], starts, axis=0) / lens[:, None]
    return means.reshape(m, n, d).transpose(1, 0, 2).reshape(n, m * d)


def avg_tuple_vectors_spark(df: DataFrame, attrs: list[str],
                            dict_name: str, d: int) -> DataFrame:
    """Distributed Algorithm 1: ``(id, vec)`` with ``vec`` an ``m*d`` array.

    The dictionary is built from its registry name once per Python worker
    process and reused across tasks (Spark reuses its Python workers by
    default) — synthetic embeddings are pure functions of (word, seed), so
    this is exactly equivalent to broadcasting the pre-trained matrix.
    Raises ``ValueError`` for an unknown ``dict_name`` before any Spark
    plan is built.
    """
    if dict_name not in FACTORIES:
        raise ValueError(f"unknown dictionary {dict_name!r}; "
                         f"known: {', '.join(sorted(FACTORIES))}")
    schema = T.StructType([
        T.StructField("id", T.StringType()),
        T.StructField("vec", T.ArrayType(T.DoubleType())),
    ])

    def compute(iterator):
        dictionary = FACTORIES[dict_name](d)
        for pdf in iterator:
            mat = avg_tuple_matrix(pdf, attrs, dictionary)
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

    Returns ``(ids, mask)`` of shape ``(n, m, max_len)``: each cell's ids
    from ``_encode`` (OOV words are 0, UNK; an empty value is a single UNK
    token) truncated to ``max_len`` and zero-padded.
    """
    n, m = len(table), len(attrs)
    ids, lens = _encode(_tokenize_cells(table, attrs), index)
    pos = np.arange(len(ids)) - np.repeat(np.cumsum(lens) - lens, lens)
    keep = pos < max_len
    cell = np.repeat(np.arange(n * m), lens)[keep]
    at = (cell % n, cell // n, pos[keep])  # (row, attribute, position)
    out = np.zeros((n, m, max_len), dtype=np.int64)
    mask = np.zeros((n, m, max_len))
    out[at] = ids[keep]
    mask[at] = 1.0
    return out, mask
