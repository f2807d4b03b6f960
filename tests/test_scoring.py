"""Distributed scoring (the classifier half of Algorithm 4) against the
driver: every candidate, any partitioning, missing vectors, no candidates."""
import numpy as np
import pandas as pd
import pytest

from repro.blocking import (
    add_lsh_codes,
    candidate_pairs,
    candidate_pairs_np,
    lsh_codes_np,
    random_hyperplanes,
)
from repro.core.compose import avg_tuple_matrix, avg_tuple_vectors_spark
from repro.core.model import AvgDeepER
from repro.core.pairs import sample_pairs
from repro.core.scoring import score_candidates_spark
from repro.core.similarity import per_attribute_cosine
from repro.embeddings import glove840
from repro.er_data import load, to_spark

D = 32


@pytest.fixture(scope="module")
def setup(spark):
    """A trained head, Spark vectors and candidates, and the driver's
    probability for every driver candidate, keyed by id pair."""
    ds = load("rest_fz", scale=0.3)
    m = len(ds.attributes)
    dictionary = glove840(D)
    va = avg_tuple_matrix(ds.table_a, ds.attributes, dictionary)
    vb = avg_tuple_matrix(ds.table_b, ds.attributes, dictionary)
    ids_a = ds.table_a["id"].tolist()
    ids_b = ds.table_b["id"].tolist()
    ra = {t: i for i, t in enumerate(ids_a)}
    rb = {t: i for i, t in enumerate(ids_b)}
    pairs, y, _ = sample_pairs(ds, va, vb, ids_a, ids_b, neg_ratio=5, seed=0)
    X = per_attribute_cosine(va[[ra[a] for a, _ in pairs]],
                             vb[[rb[b] for _, b in pairs]], m, D)
    model = AvgDeepER(m, epochs=5, seed=0).fit(X, y)

    planes = random_hyperplanes(m * D, K=4, L=2, seed=3)
    ij = np.asarray(sorted(candidate_pairs_np(lsh_codes_np(va, planes),
                                              lsh_codes_np(vb, planes))))
    prob = model.predict_proba(
        per_attribute_cosine(va[ij[:, 0]], vb[ij[:, 1]], m, D))
    want = pd.Series(prob, index=pd.MultiIndex.from_arrays(
        [np.asarray(ids_a)[ij[:, 0]], np.asarray(ids_b)[ij[:, 1]]],
        names=["id_a", "id_b"]))

    df_a, df_b = to_spark(spark, ds)
    sva = avg_tuple_vectors_spark(df_a, ds.attributes, "glove840", D).cache()
    svb = avg_tuple_vectors_spark(df_b, ds.attributes, "glove840", D).cache()
    cands = candidate_pairs(add_lsh_codes(sva, planes),
                            add_lsh_codes(svb, planes)).cache()
    yield model, m, sva, svb, cands, want
    for df in (sva, svb, cands):
        df.unpersist()


def _scored(cands, setup) -> pd.Series:
    model, m, sva, svb, _, _ = setup
    pdf = score_candidates_spark(cands, sva, svb, model, m, D).toPandas()
    return pdf.set_index(["id_a", "id_b"])["prob"]


def _assert_equals_driver(got: pd.Series, want: pd.Series):
    assert got.index.is_unique
    assert set(got.index) == set(want.index)
    np.testing.assert_allclose(got.reindex(want.index).to_numpy(),
                               want.to_numpy(), rtol=0, atol=1e-12)


def test_every_candidate_equals_driver(setup):
    *_, cands, want = setup
    _assert_equals_driver(_scored(cands, setup), want)


@pytest.mark.parametrize("n", [1, 200])
def test_partition_count_does_not_change_scores(setup, n):
    *_, cands, want = setup
    _assert_equals_driver(_scored(cands.repartition(n), setup), want)


def test_candidate_without_vector_is_dropped(spark, setup):
    *_, cands, want = setup
    a, b = want.index[0]
    ghosts = spark.createDataFrame([("no-such-a", b), (a, "no-such-b")],
                                   "id_a string, id_b string")
    _assert_equals_driver(_scored(cands.unionByName(ghosts), setup), want)


def test_no_candidates_give_empty_frame(spark, setup):
    empty = spark.createDataFrame([], "id_a string, id_b string")
    got = _scored(empty, setup)
    assert len(got) == 0
