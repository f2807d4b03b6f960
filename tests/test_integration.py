"""Integration tests: the full block -> match pipeline (Algorithm 4) run as
a distributed Spark dataflow, evaluated against ground truth."""
import os

import numpy as np
import pytest

from repro.blocking import (
    end_to_end_pr,
    pair_completeness,
    random_hyperplanes,
    reduction_ratio,
)
from repro.core import DeepERConfig
from repro.er_data import load
from repro.pipeline import fit_matcher, resolve


@pytest.fixture(scope="module")
def pipeline(spark):
    """Train a matcher on the labeled pair set (driver side), then resolve
    the whole dataset on Spark and on the driver."""
    ds = load("rest_fz", scale=1.0)
    cfg = DeepERConfig(d=48, neg_ratio=10, epochs=20)
    model = fit_matcher(ds, cfg)
    planes = random_hyperplanes(len(ds.attributes) * cfg.d, K=4, L=4, seed=1)
    return (ds, resolve(ds, planes, cfg, model, spark=spark),
            resolve(ds, planes, cfg, model))


class TestFullPipeline:
    def test_blocking_metrics(self, pipeline):
        ds, dist, _ = pipeline
        assert pair_completeness(ds.id_pairs(dist.ij), ds.matches) > 0.9
        assert reduction_ratio(len(dist.ij), ds.n_a, ds.n_b) < 0.5

    def test_end_to_end_precision_recall(self, pipeline):
        ds, dist, _ = pipeline
        predicted = ds.id_pairs(dist.ij[dist.prob >= 0.5])
        prec, rec = end_to_end_pr(predicted, ds.matches)
        assert prec > 0.8
        assert rec > 0.8

    def test_spark_scores_match_driver_model(self, pipeline):
        """Distributed scoring must equal driver-side head application."""
        _, dist, driver = pipeline
        assert np.array_equal(dist.ij, driver.ij)
        np.testing.assert_allclose(dist.prob, driver.prob, atol=1e-9)


class TestTranslateAndBio:
    def test_spanish_pipeline_runs_and_scores(self):
        from dataclasses import replace
        from repro.core import DeepERConfig, evaluate_deeper
        from repro.er_data.translate import translate_dataset
        ds = translate_dataset(load("rest_fz", scale=0.4))
        cfg = DeepERConfig(folds=2, neg_ratio=5, d=48,
                           dictionary="spanish", epochs=12)
        assert evaluate_deeper(ds, cfg)["f1"] > 0.8

    def test_translation_is_deterministic_and_total(self):
        from repro.er_data.translate import translate_value
        assert translate_value("golden seafood restaurant") == \
            "dorado mariscos restaurante"
        assert translate_value(None) is None
        assert translate_value("samsung xr200") == "samsung xr200"

    def test_bio_dataset_shape(self):
        from repro.er_data.bio import load_bio
        ds = load_bio(n_a=60, n_b=60, n_matches=25)
        assert ds.n_a == 60 and ds.n_matches == 25
        assert "sequence" in ds.attributes
        # k-mer rendering: every sequence token has length 8
        toks = str(ds.table_a["sequence"].iloc[0]).split()
        assert all(len(t) == 8 for t in toks)

    def test_bio_pipeline_beats_chance(self):
        from repro.core import DeepERConfig, evaluate_deeper
        from repro.er_data.bio import load_bio
        ds = load_bio(n_a=150, n_b=150, n_matches=60)
        cfg = DeepERConfig(folds=2, neg_ratio=6, d=48, dictionary="bio",
                           epochs=12)
        assert evaluate_deeper(ds, cfg)["f1"] > 0.7


def test_cv_folds_fork_safely_beside_a_live_spark_session(spark,
                                                          monkeypatch):
    """``_cv`` forks its fold workers while this process holds a live
    SparkSession. The workers run numpy only, so the result equals the
    sequential fold loop's and the session still runs jobs afterwards."""
    from repro.core import DeepERConfig, deeper, evaluate_deeper
    from tests.test_core_pipeline import _ref_cv
    ds = load("rest_fz", scale=0.3)
    cfg = DeepERConfig(folds=3, neg_ratio=4, d=32, epochs=6)
    assert spark.range(5).count() == 5
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
    got = evaluate_deeper(ds, cfg)
    monkeypatch.setattr(deeper, "_cv", _ref_cv)
    assert got == evaluate_deeper(ds, cfg)
    assert spark.range(5).count() == 5
