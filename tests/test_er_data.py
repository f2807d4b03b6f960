"""Tests for the synthetic benchmark dataset generators."""
from dataclasses import replace

import numpy as np
import pandas as pd
import pytest

from repro.core.compose import tuple_tokens
from repro.embeddings import glove840, tokenize
from repro.er_data import DATASET_KEYS, SPECS, load, to_spark
from repro.er_data.corrupt import EASY, HARD, NoiseConfig, corrupt_row, corrupt_value
from repro.oracle import assert_equivalent

SCALE = 0.25  # unit tests run small


def _vocabulary(ds) -> set[str]:
    """Every token of either table."""
    return {t for table in (ds.table_a, ds.table_b)
            for toks in tuple_tokens(table, ds.attributes) for t in toks}


def _coverage(dictionary, words) -> float:
    """The share of ``words`` the dictionary holds."""
    return float(np.mean([w in dictionary for w in words]))


class TestSpecsMatchTable3Shape:
    def test_all_six_datasets_present(self):
        assert set(DATASET_KEYS) == {"pub_da", "pub_ds", "pub_dc",
                                     "prod_ag", "prod_wa", "rest_fz"}

    def test_tiers(self):
        assert SPECS["prod_ag"]["tier"] == "hard"
        assert SPECS["prod_wa"]["tier"] == "hard"
        for k in ["pub_da", "pub_ds", "pub_dc", "rest_fz"]:
            assert SPECS[k]["tier"] == "easy"

    def test_attribute_counts_match_table3(self):
        # Table 3: citations 4 attrs, Prod-AG 5, Prod-WA 17, Rest-FZ 7
        assert len(load("pub_da", scale=0.05).attributes) == 4
        assert len(load("prod_ag", scale=0.05).attributes) == 5
        assert len(load("prod_wa", scale=0.05).attributes) == 17
        assert len(load("rest_fz", scale=0.05).attributes) == 7

    def test_rest_fz_kept_at_real_size(self):
        ds = load("rest_fz")
        assert (ds.n_a, ds.n_b, ds.n_matches) == (533, 331, 112)


@pytest.mark.parametrize("key", DATASET_KEYS)
class TestDatasetInvariants:
    def test_sizes_and_ids(self, key):
        ds = load(key, scale=SCALE)
        assert ds.n_a == len(set(ds.table_a["id"]))
        assert ds.n_b == len(set(ds.table_b["id"]))
        assert 0 < ds.n_matches <= min(ds.n_a, ds.n_b)

    def test_matches_reference_existing_ids(self, key):
        ds = load(key, scale=SCALE)
        ids_a = set(ds.table_a["id"])
        ids_b = set(ds.table_b["id"])
        for ia, ib in ds.matches:
            assert ia in ids_a and ib in ids_b

    def test_matches_one_to_one(self, key):
        ds = load(key, scale=SCALE)
        assert len({a for a, _ in ds.matches}) == ds.n_matches
        assert len({b for _, b in ds.matches}) == ds.n_matches

    def test_deterministic(self, key):
        d1, d2 = load(key, scale=SCALE), load(key, scale=SCALE)
        pd.testing.assert_frame_equal(d1.table_a, d2.table_a)
        pd.testing.assert_frame_equal(d1.table_b, d2.table_b)
        assert d1.matches == d2.matches

    def test_different_seed_different_data(self, key):
        d1 = load(key, scale=SCALE, seed=0)
        d2 = load(key, scale=SCALE, seed=9)
        assert not d1.table_a.equals(d2.table_a)

    def test_matched_pairs_share_tokens(self, key):
        """A duplicate must remain recognizable: on average a matched pair
        shares a nontrivial fraction of tokens. Hard-tier datasets are
        paraphrase-dominant by design, so their surface overlap is low but
        must stay clearly above the random-pair level."""
        ds = load(key, scale=SCALE)
        a = ds.table_a.set_index("id")
        b = ds.table_b.set_index("id")
        overlaps = []
        for ia, ib in list(ds.matches)[:40]:
            ta = set(t for attr in ds.attributes for t in tokenize(a.loc[ia][attr]))
            tb = set(t for attr in ds.attributes for t in tokenize(b.loc[ib][attr]))
            overlaps.append(len(ta & tb) / max(1, len(ta | tb)))
        floor = 0.3 if ds.tier == "easy" else 0.15
        assert np.mean(overlaps) > floor

    def test_vocabulary_nonempty_and_tokenized(self, key):
        v = _vocabulary(load(key, scale=SCALE))
        assert len(v) > 50
        assert all(w == w.lower() for w in v)


class TestDifficultyContrast:
    def test_hard_datasets_have_lower_token_overlap(self):
        def mean_overlap(key):
            ds = load(key, scale=SCALE)
            a = ds.table_a.set_index("id")
            b = ds.table_b.set_index("id")
            vals = []
            for ia, ib in list(ds.matches)[:60]:
                ta = set(t for at in ds.attributes for t in tokenize(a.loc[ia][at]))
                tb = set(t for at in ds.attributes for t in tokenize(b.loc[ib][at]))
                vals.append(len(ta & tb) / max(1, len(ta | tb)))
            return float(np.mean(vals))

        assert mean_overlap("prod_wa") < mean_overlap("pub_da")
        assert mean_overlap("prod_ag") < mean_overlap("rest_fz")


class TestCorruptChannel:
    def test_zero_noise_is_identity(self):
        rng = np.random.default_rng(0)
        cfg = NoiseConfig()
        assert corrupt_value("wireless keyboard xr200", cfg, rng) == \
            "wireless keyboard xr200"

    def test_corrupt_row_touches_only_the_attrs_it_is_given(self):
        rng = np.random.default_rng(0)
        cfg = NoiseConfig(typo=1.0)
        row = corrupt_row({"id": "a0001", "x": "hello world"}, ["x"],
                          cfg, rng)
        assert row["id"] == "a0001"
        assert row["x"] != "hello world"

    def test_drop_attr_nulls(self):
        rng = np.random.default_rng(0)
        cfg = NoiseConfig(drop_attr=1.0)
        row = corrupt_row({"x": "hello"}, ["x"], cfg, rng)
        assert row["x"] is None

    def test_nickname_substitution(self):
        rng = np.random.default_rng(0)
        cfg = NoiseConfig(nickname=1.0)
        out = corrupt_value("william smith", cfg, rng)
        assert out.split()[0] in {"bill", "will"}

    def test_synonym_substitution(self):
        rng = np.random.default_rng(0)
        cfg = NoiseConfig(synonym=1.0)
        out = corrupt_value("laptop", cfg, rng)
        assert out in {"notebook"}

    def test_reorder_preserves_tokens(self):
        rng = np.random.default_rng(1)
        cfg = NoiseConfig(reorder=1.0)
        src = "alpha beta gamma delta epsilon"
        out = corrupt_value(src, cfg, rng)
        assert sorted(out.split()) == sorted(src.split())

    def test_never_empties_value(self):
        rng = np.random.default_rng(2)
        cfg = NoiseConfig(drop_token=1.0)
        for v in ["one", "one two", "one two three"]:
            assert corrupt_value(v, cfg, rng)

    def test_hard_noisier_than_easy(self):
        src = "samsung wireless portable laptop xr200 premium edition"
        changed_easy = changed_hard = 0
        for s in range(40):
            rng_e, rng_h = np.random.default_rng(s), np.random.default_rng(s)
            e = corrupt_value(src, EASY, rng_e)
            h = corrupt_value(src, HARD, rng_h)
            changed_easy += e != src
            changed_hard += len(set(src.split()) - set(h.split()))
        assert changed_hard > changed_easy


class TestTokenListsAndCoverage:
    def test_tuple_token_lists_cover_both_tables(self):
        ds = load("pub_da", scale=0.1)
        lists = [toks for table in (ds.table_a, ds.table_b)
                 for toks in tuple_tokens(table, ds.attributes)]
        assert len(lists) == ds.n_a + ds.n_b
        assert all(isinstance(t, str) for lst in lists[:5] for t in lst)

    def test_glove840_covers_most_citation_vocab(self):
        ds = load("pub_da", scale=SCALE)
        cov = _coverage(glove840(), _vocabulary(ds))
        assert cov > 0.8  # "general data with full coverage" (§3.1)

    def test_prod_wa_has_more_oov_than_pub_da(self):
        d = glove840()
        cov_wa = _coverage(d, _vocabulary(load("prod_wa", scale=SCALE)))
        cov_da = _coverage(d, _vocabulary(load("pub_da", scale=SCALE)))
        assert cov_wa < cov_da  # wide schema carries IDs (partial coverage)


class TestRowPairs:
    """``ERDataset.row_pairs``: the one id -> row boundary every evaluator
    goes through."""

    def test_inverse_of_id_pairs(self):
        ds = load("rest_fz", scale=SCALE)
        pairs = sorted(ds.matches) + [(ds.table_a["id"][0],
                                       ds.table_b["id"][0])]
        ij = ds.row_pairs(pairs)
        assert ij.shape == (len(pairs), 2) and ij.dtype == np.intp
        assert list(zip(ds.table_a["id"][ij[:, 0]],
                        ds.table_b["id"][ij[:, 1]])) == pairs
        assert ds.id_pairs(ij) == set(pairs)
        assert ds.row_pairs([]).shape == (0, 2)

    def test_duplicate_id_raises(self):
        ds = load("rest_fz", scale=0.1)
        pair = [(ds.table_a["id"][0], ds.table_b["id"][0])]
        dup = pd.concat([ds.table_a, ds.table_a.iloc[:1]], ignore_index=True)
        with pytest.raises(ValueError, match="duplicate ids in table A"):
            replace(ds, table_a=dup).row_pairs(pair)
        dup = pd.concat([ds.table_b.iloc[:1], ds.table_b], ignore_index=True)
        with pytest.raises(ValueError, match="duplicate ids in table B"):
            replace(ds, table_b=dup).row_pairs(pair)

    def test_unknown_id_raises_key_error(self):
        ds = load("rest_fz", scale=0.1)
        a0, b0 = ds.table_a["id"][0], ds.table_b["id"][0]
        with pytest.raises(KeyError, match="no-such-id"):
            ds.row_pairs([(a0, b0), ("no-such-id", b0)])
        with pytest.raises(KeyError, match="no-such-id"):
            ds.row_pairs([(a0, "no-such-id")])


class TestSparkConversion:
    def test_roundtrip_counts_and_schema(self, spark):
        ds = load("rest_fz", scale=0.2)
        df_a, df_b = to_spark(spark, ds)
        assert df_a.count() == ds.n_a
        assert df_b.count() == ds.n_b
        assert df_a.columns == ["id"] + ds.attributes

    def test_oracle_checks_group_stats(self, spark):
        """Spark aggregation over the generated data matches DuckDB."""
        ds = load("rest_fz", scale=0.3)
        df_a, _ = to_spark(spark, ds)
        got = df_a.groupBy("city").count().withColumnRenamed("count", "n")
        assert_equivalent(
            got,
            "SELECT city, COUNT(*) AS n FROM a GROUP BY city",
            a=ds.table_a,
        )
