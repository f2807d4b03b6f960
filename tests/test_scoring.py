"""Distributed scoring (the classifier half of Algorithm 4) against the
driver: every candidate, any partitioning, missing vectors, no candidates,
and the broadcast model itself."""
import pickle

import numpy as np
import pandas as pd
import pytest

from repro.blocking import add_lsh_codes, candidate_pairs, random_hyperplanes
from repro.core import DeepERConfig
from repro.core.compose import avg_tuple_vectors_spark
from repro.core.model import AvgDeepER
from repro.core.scoring import score_candidates_spark
from repro.er_data import load, to_spark
from repro.pipeline import fit_matcher, resolve

D = 32


@pytest.fixture(scope="module")
def setup(spark):
    """A trained head, Spark vectors and candidates, and the driver's
    probability for every driver candidate, keyed by id pair."""
    ds = load("rest_fz", scale=0.3)
    m = len(ds.attributes)
    cfg = DeepERConfig(d=D, neg_ratio=5, epochs=5)
    model = fit_matcher(ds, cfg)
    planes = random_hyperplanes(m * D, K=4, L=2, seed=3)
    ij, prob = resolve(ds, planes, cfg, model)
    want = pd.Series(prob, index=pd.MultiIndex.from_arrays(
        [ds.table_a["id"].to_numpy()[ij[:, 0]],
         ds.table_b["id"].to_numpy()[ij[:, 1]]], names=["id_a", "id_b"]))

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


def test_pickled_model_predicts_exactly_without_forward_cache():
    """Scoring broadcasts the trained model: its pickle predicts as the
    driver's model does."""
    rng = np.random.default_rng(0)
    X = rng.normal(0, 10, (8192, 5))
    model = AvgDeepER(5, hidden=24, lr=0.01, epochs=2, batch=16, seed=0)
    model.fit(X[:300], (X[:300, 0] > 0) * 1.0)
    want = model.predict_proba(X)
    got = pickle.loads(pickle.dumps(model))
    assert np.array_equal(got.predict_proba(X), want)
