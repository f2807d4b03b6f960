"""Random-hyperplane LSH blocking (§4.2–4.3, Algorithm 4).

``K`` hyperplanes per hash table give a K-bit bucket code; ``L`` tables
repeat the process. A tuple pair is a *candidate* iff the two tuples share a
bucket in at least one table. The Spark path implements blocking as a
distributed dataflow: hash codes via ``mapInPandas``, candidate generation
as an equi-join on ``(table, bucket)`` — the classic "similarity join via
LSH" plan, oracle-checked against DuckDB in the tests.
"""
from __future__ import annotations

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame
from pyspark.sql import functions as F
from pyspark.sql import types as T


def random_hyperplanes(dim: int, K: int, L: int, seed: int = 0) -> np.ndarray:
    """``(L, K, dim)`` unit normal vectors (the random hyperplane family
    for cosine distance, Def. 1 / §4.2).

    Raises ``ValueError`` unless ``1 <= K <= 62`` and ``L >= 1``: a bucket
    code packs K bits into an int64, and K >= 63 would overflow it.
    """
    if not 1 <= K <= 62:
        raise ValueError(f"K must be in [1, 62], got {K}")
    if L < 1:
        raise ValueError(f"L must be >= 1, got {L}")
    rng = np.random.default_rng(seed)
    planes = rng.standard_normal((L, K, dim))
    return planes / np.linalg.norm(planes, axis=2, keepdims=True)


def lsh_codes_np(mat: np.ndarray, planes: np.ndarray) -> np.ndarray:
    """``(n, L)`` integer bucket codes: bit k of table l is
    ``sign(v . h_lk)`` (+1 -> 1, otherwise 0)."""
    L, K, dim = planes.shape
    bits = np.einsum("nd,lkd->nlk", mat, planes) >= 0  # (n, L, K)
    weights = (1 << np.arange(K)).astype(np.int64)
    return (bits.astype(np.int64) * weights).sum(axis=2)


def candidate_pairs_np(codes_a: np.ndarray,
                       codes_b: np.ndarray) -> set[tuple[int, int]]:
    """Driver-side candidate generation: row-index pairs co-bucketed in at
    least one of the L tables."""
    out: set[tuple[int, int]] = set()
    L = codes_a.shape[1]
    for l in range(L):
        buckets: dict[int, list[int]] = {}
        for i, c in enumerate(codes_a[:, l]):
            buckets.setdefault(int(c), []).append(i)
        for j, c in enumerate(codes_b[:, l]):
            for i in buckets.get(int(c), ()):
                out.add((i, j))
    return out


# ------------------------------------------------------------- Spark path -

_CODE_SCHEMA = T.StructType([
    T.StructField("id", T.StringType()),
    T.StructField("l", T.IntegerType()),
    T.StructField("bucket", T.LongType()),
])


def add_lsh_codes(df_vec: DataFrame, planes: np.ndarray) -> DataFrame:
    """``(id, vec)`` -> ``(id, l, bucket)``, one row per hash table
    (the "index the DR of t into L hash tables" step of Algorithm 4)."""
    spark = df_vec.sparkSession
    bc = spark.sparkContext.broadcast(planes)

    def hash_partition(iterator):
        planes_local = bc.value
        L = planes_local.shape[0]
        for pdf in iterator:
            if len(pdf) == 0:
                continue
            mat = np.asarray(pdf["vec"].tolist())
            codes = lsh_codes_np(mat, planes_local)  # (n, L)
            n = len(pdf)
            yield pd.DataFrame({
                "id": np.repeat(pdf["id"].to_numpy(), L),
                "l": np.tile(np.arange(L, dtype=np.int32), n),
                "bucket": codes.reshape(-1),
            })

    return df_vec.mapInPandas(hash_partition, schema=_CODE_SCHEMA)


def candidate_pairs(codes_a: DataFrame, codes_b: DataFrame) -> DataFrame:
    """Distinct ``(id_a, id_b)`` candidate pairs — a distributed similarity
    join: equi-join of the two code tables on ``(l, bucket)``."""
    a = codes_a.select(F.col("id").alias("id_a"), "l", "bucket")
    b = codes_b.select(F.col("id").alias("id_b"), "l", "bucket")
    return a.join(b, on=["l", "bucket"]).select("id_a", "id_b").distinct()
