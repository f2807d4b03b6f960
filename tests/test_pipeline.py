"""``repro.pipeline``: Algorithm 4 on the driver and on Spark gives the same
candidates and probabilities, Algorithm 5 equals the top-N blocker, and
configurations the pipeline cannot honour are refused."""
from dataclasses import replace

import numpy as np
import pytest

from repro import pipeline
from repro.blocking import (
    candidate_pairs_np,
    lsh_codes_np,
    multiprobe_topn_candidates,
    random_hyperplanes,
)
from repro.core import DeepERConfig
from repro.core.compose import avg_tuple_matrix
from repro.core.similarity import per_attribute_cosine
from repro.embeddings import glove840
from repro.er_data import load
from repro.pipeline import fit_matcher, resolve

CFG = DeepERConfig(d=32, neg_ratio=5, epochs=5)


@pytest.fixture(scope="module")
def fitted():
    ds = load("rest_fz", scale=0.3)
    planes = random_hyperplanes(len(ds.attributes) * CFG.d, K=4, L=2, seed=3)
    return ds, planes, fit_matcher(ds, CFG)


def _drs(ds):
    dictionary = glove840(CFG.d)
    return (avg_tuple_matrix(ds.table_a, ds.attributes, dictionary),
            avg_tuple_matrix(ds.table_b, ds.attributes, dictionary))


@pytest.fixture(params=[1, 200])
def shuffle_partitions(spark, request):
    old = spark.conf.get("spark.sql.shuffle.partitions")
    spark.conf.set("spark.sql.shuffle.partitions", str(request.param))
    yield request.param
    spark.conf.set("spark.sql.shuffle.partitions", old)


def test_spark_equals_driver(spark, shuffle_partitions, fitted):
    ds, planes, model = fitted
    want = resolve(ds, planes, CFG, model)
    got = resolve(ds, planes, CFG, model, spark=spark)
    assert len(want.ij) > 0
    assert got.ij.dtype == want.ij.dtype == np.int64
    assert np.array_equal(got.ij, want.ij)
    np.testing.assert_allclose(got.prob, want.prob, rtol=0, atol=1e-12)
    blocked = resolve(ds, planes, CFG, spark=spark)
    assert blocked.prob is None
    assert np.array_equal(blocked.ij, want.ij)


def test_driver_scores_every_candidate_in_blocks(monkeypatch, fitted):
    """The driver's candidates are the LSH join's, and scoring them in
    blocks of a few pairs equals one ``predict_proba`` call."""
    ds, planes, model = fitted
    va, vb = _drs(ds)
    monkeypatch.setattr(pipeline, "CHUNK", 7)
    got = resolve(ds, planes, CFG, model)
    ij = candidate_pairs_np(lsh_codes_np(va, planes), lsh_codes_np(vb, planes))
    assert np.array_equal(got.ij, ij)
    want = model.predict_proba(per_attribute_cosine(
        va[ij[:, 0]], vb[ij[:, 1]], len(ds.attributes), CFG.d))
    np.testing.assert_allclose(got.prob, want, rtol=0, atol=1e-12)


@pytest.mark.parametrize("n_probes", [None, 0, 2])
def test_topn_equals_multiprobe_blocker(fitted, n_probes):
    ds, _, model = fitted
    va, vb = _drs(ds)
    planes = random_hyperplanes(va.shape[1], K=6, L=1, seed=2)
    got = resolve(ds, planes, CFG, model, n_probes=n_probes, top_n=3)
    want = multiprobe_topn_candidates(
        va, vb, planes, n_probes=1 if n_probes is None else n_probes,
        top_n=3)
    assert np.array_equal(got.ij, want)
    assert np.bincount(got.ij[:, 0]).max() <= 3
    assert got.prob.shape == (len(want),)


def test_without_model_prob_is_none(fitted):
    ds, planes, _ = fitted
    assert resolve(ds, planes, CFG).prob is None
    assert resolve(ds, planes, CFG, top_n=3).prob is None


def test_spark_with_topn_raises(spark, fitted):
    ds, planes, model = fitted
    with pytest.raises(ValueError, match="driver only"):
        resolve(ds, planes, CFG, model, spark=spark, top_n=3)


def test_n_probes_without_topn_raises(fitted):
    ds, planes, model = fitted
    with pytest.raises(ValueError, match="n_probes needs top_n"):
        resolve(ds, planes, CFG, model, n_probes=1)


@pytest.mark.parametrize("change", [
    {"use_retrofit": True},
    {"update_embeddings": True},
    {"composition": "lstm"},
    {"composition": "bilstm"},
], ids=["retrofit", "update_embeddings", "lstm", "bilstm"])
def test_config_other_than_static_avg_raises(fitted, change):
    """Each of these changes the DRs or the model, which the pipeline's
    static AVG path would silently ignore."""
    ds, planes, model = fitted
    cfg = replace(CFG, **change)
    with pytest.raises(ValueError, match="composition='avg'"):
        fit_matcher(ds, cfg)
    with pytest.raises(ValueError, match="composition='avg'"):
        resolve(ds, planes, cfg, model)
