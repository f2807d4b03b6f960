"""Integration tests: the full block -> match pipeline (Algorithm 4) run as
a distributed Spark dataflow, evaluated against ground truth."""
import numpy as np
import pytest

from repro.blocking import (
    add_lsh_codes,
    candidate_pairs,
    end_to_end_pr,
    pair_completeness,
    random_hyperplanes,
    reduction_ratio,
)
from repro.core.compose import avg_tuple_matrix, avg_tuple_vectors_spark
from repro.core.model import AvgDeepER
from repro.core.pairs import sample_pairs
from repro.core.scoring import export_head, score_candidates_spark
from repro.core.similarity import per_attribute_cosine
from repro.embeddings import glove840
from repro.er_data import load, to_spark


@pytest.fixture(scope="module")
def pipeline(spark):
    """Train a matcher on labeled pairs, then run blocking + distributed
    scoring over the whole dataset."""
    ds = load("rest_fz", scale=1.0)
    d = glove840(48)
    m = len(ds.attributes)

    # train the matcher on the labeled pair set (driver side)
    va = avg_tuple_matrix(ds.table_a, ds.attributes, d)
    vb = avg_tuple_matrix(ds.table_b, ds.attributes, d)
    ids_a = ds.table_a["id"].tolist()
    ids_b = ds.table_b["id"].tolist()
    pairs, y, _ = sample_pairs(ds, va, vb, ids_a, ids_b, neg_ratio=10,
                               seed=0)
    ra = {t: i for i, t in enumerate(ids_a)}
    rb = {t: i for i, t in enumerate(ids_b)}
    X = per_attribute_cosine(
        va[[ra[a] for a, _ in pairs]], vb[[rb[b] for _, b in pairs]],
        m, d.d)
    model = AvgDeepER(m, epochs=20, seed=0).fit(X, y)

    # distributed: vectors -> LSH codes -> candidates -> scores
    df_a, df_b = to_spark(spark, ds)
    sva = avg_tuple_vectors_spark(df_a, ds.attributes, "glove840", d.d)
    svb = avg_tuple_vectors_spark(df_b, ds.attributes, "glove840", d.d)
    planes = random_hyperplanes(m * d.d, K=4, L=4, seed=1)
    cands = candidate_pairs(add_lsh_codes(sva, planes),
                            add_lsh_codes(svb, planes))
    scored = score_candidates_spark(cands, sva, svb, model, m, d.d)
    rows = scored.collect()
    return ds, model, X, y, cands, rows


class TestFullPipeline:
    def test_blocking_metrics(self, pipeline):
        ds, _, _, _, cands, _ = pipeline
        cset = {(r["id_a"], r["id_b"]) for r in cands.collect()}
        assert pair_completeness(cset, ds.matches) > 0.9
        assert reduction_ratio(len(cset), ds.n_a, ds.n_b) < 0.5

    def test_end_to_end_precision_recall(self, pipeline):
        ds, _, _, _, _, rows = pipeline
        predicted = {(r["id_a"], r["id_b"]) for r in rows
                     if r["prob"] >= 0.5}
        prec, rec = end_to_end_pr(predicted, ds.matches)
        assert prec > 0.8
        assert rec > 0.8

    def test_spark_scores_match_driver_model(self, pipeline):
        """Distributed scoring must equal driver-side head application."""
        ds, model, _, _, _, rows = pipeline
        d = glove840(48)
        m = len(ds.attributes)
        va = avg_tuple_matrix(ds.table_a, ds.attributes, d)
        vb = avg_tuple_matrix(ds.table_b, ds.attributes, d)
        ra = {t: i for i, t in enumerate(ds.table_a["id"])}
        rb = {t: i for i, t in enumerate(ds.table_b["id"])}
        X = per_attribute_cosine(
            va[[ra[r["id_a"]] for r in rows]],
            vb[[rb[r["id_b"]] for r in rows]], m, d.d)
        want = model.predict_proba(X)
        got = np.array([r["prob"] for r in rows])
        np.testing.assert_allclose(got, want, atol=1e-9)

    def test_export_head_roundtrip(self, pipeline):
        _, model, X, y, _, _ = pipeline
        from repro.core.scoring import _head_forward
        np.testing.assert_allclose(_head_forward(export_head(model), X),
                                   model.predict_proba(X), atol=1e-12)


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


def test_cv_folds_fork_safely_beside_a_live_spark_session(spark):
    """``_cv`` forks its fold workers while this process holds a live
    SparkSession. The workers run numpy only, so the result equals the
    driver path's and the session still runs jobs afterwards."""
    from repro.core import DeepERConfig, evaluate_deeper
    ds = load("rest_fz", scale=0.3)
    cfg = DeepERConfig(folds=3, neg_ratio=4, d=32, epochs=6)
    assert evaluate_deeper(ds, cfg, spark=spark) == evaluate_deeper(ds, cfg)
    assert spark.range(5).count() == 5
