"""Tests for the synthetic pre-trained dictionaries and tokenizer."""
import numpy as np
import pandas as pd
import pytest

from repro.core.compose import avg_tuple_matrix
from repro.embeddings import (
    SyntheticEmbeddings,
    bio_dict,
    fasttext,
    glove840,
    glove_wiki,
    spanish_glove,
    tokenize,
    word2vec,
)
from repro.embeddings import lexicon
from repro.embeddings.pretrained import FACTORIES, _hash_vec, _trigrams
from repro.er_data import load


def _avg(dictionary, value):
    """AVG DR of one attribute value: a one-cell table's tuple DR."""
    return avg_tuple_matrix(pd.DataFrame({"x": [value]}), ["x"],
                            dictionary)[0]


def _cos(a, b):
    return float(a @ b / (np.linalg.norm(a) * np.linalg.norm(b)))


class TestTokenize:
    def test_basic(self):
        assert tokenize("Bill Gates, Seattle!") == ["bill", "gates", "seattle"]

    def test_null_and_empty(self):
        assert tokenize(None) == []
        assert tokenize("") == []
        assert tokenize("   ") == []
        assert tokenize(float("nan")) == []

    def test_numbers_kept(self):
        assert tokenize("Model X-200 v2") == ["model", "x", "200", "v2"]

    def test_apostrophes_kept_inside_words(self):
        assert tokenize("mama's kitchen") == ["mama's", "kitchen"]


class TestDeterminismAndShape:
    def test_same_word_same_vector_across_instances(self):
        # Two independent instances (the factory returns one shared
        # instance): Spark workers in other processes rely on this.
        a, b = glove840.__wrapped__(32), glove840.__wrapped__(32)
        assert a is not b
        np.testing.assert_allclose(a.vector("database"), b.vector("database"))

    def test_unit_norm(self):
        d = glove840()
        for w in ["database", "william", "seattle", "xyzzy"]:
            assert np.isclose(np.linalg.norm(d.vector(w)), 1.0)

    def test_dimension(self):
        assert glove840(d=16).vector("data").shape == (16,)

    def test_different_families_differ(self):
        g, w = glove840(), word2vec()
        assert abs(_cos(g.vector("database"), w.vector("database"))) < 0.9


def _reference_vector(e: SyntheticEmbeddings, word: str) -> np.ndarray:
    """The word-vector formula with every hash drawn afresh: no trigram
    memo."""
    c = lexicon.concept_map().get(word, word)
    cv = _hash_vec(c, e.seed, e.d)
    cv /= np.linalg.norm(cv)
    tv = np.mean([_hash_vec(t, 7, e.d) for t in _trigrams(word)], axis=0)
    tv /= np.linalg.norm(tv)
    cw = e.char_weight
    v = np.sqrt(1.0 - cw) * cv + np.sqrt(cw) * tv
    n = np.linalg.norm(v)
    return v / n if n > 0 else v


class TestVectorsEqualReference:
    # Words sharing trigrams ("<da", "dat", "ata", ...), a nickname pair
    # mapped to one concept, and a 1-letter word (a single "<x>" trigram).
    WORDS = ["data", "database", "datasets", "date", "bill", "william",
             "intl", "international", "x", "samsung", "data"]

    @pytest.mark.parametrize("e", [
        glove840(), fasttext(d=16),
        SyntheticEmbeddings("custom", d=24, seed=9, char_weight=0.3),
    ], ids=["glove840", "fasttext16", "custom_char_weight"])
    def test_vectors_bit_identical(self, e):
        for w in self.WORDS:
            assert np.array_equal(e.vector(w), _reference_vector(e, w)), w


class TestSemanticStructure:
    def test_nickname_close_to_full_name(self):
        d = glove840()
        sim_syn = _cos(d.vector("bill"), d.vector("william"))
        sim_rand = _cos(d.vector("bill"), d.vector("seattle"))
        assert sim_syn > 0.5 > sim_rand

    def test_abbreviation_close_to_expansion(self):
        d = glove840()
        assert _cos(d.vector("intl"), d.vector("international")) > 0.4

    def test_typo_close_via_char_ngrams(self):
        d = glove840()
        sim_typo = _cos(d.vector("seattle"), d.vector("seattl"))
        sim_rand = _cos(d.vector("seattle"), d.vector("chicago"))
        assert sim_typo > sim_rand
        assert sim_typo > 0.15

    def test_unrelated_words_near_orthogonal(self):
        d = glove840()
        sims = [
            _cos(d.vector(a), d.vector(b))
            for a, b in [("database", "toaster"), ("seattle", "keyboard"),
                         ("william", "vacuum"), ("sigmod", "tavern")]
        ]
        assert max(abs(s) for s in sims) < 0.6

    def test_fasttext_more_subword_sensitive(self):
        # Averaged over typo pairs to wash out per-word seed noise.
        pairs = [("optimization", "optimizaton"), ("keyboard", "keybard"),
                 ("restaurant", "restuarant"), ("distributed", "distribted"),
                 ("professional", "profesional"), ("classification",
                 "clasification"), ("recommendation", "recomendation"),
                 ("architecture", "architecure"), ("performance",
                 "performnce"), ("integration", "integartion")]
        ft, gl = fasttext(), glove840()
        typo_ft = np.mean([_cos(ft.vector(a), ft.vector(b)) for a, b in pairs])
        typo_gl = np.mean([_cos(gl.vector(a), gl.vector(b)) for a, b in pairs])
        assert typo_ft > typo_gl


class TestCoverage:
    def test_glove840_covers_names_and_brands(self):
        d = glove840()
        for w in ["william", "smith", "samsung", "sigmod", "seattle"]:
            assert w in d

    def test_glove840_rejects_ids(self):
        d = glove840()
        for w in ["a1b2c3d4", "0042317", "x99182k3"]:
            assert w not in d
            assert d.vector(w) is None

    def test_glove_wiki_misses_proper_nouns(self):
        d = glove_wiki()
        assert "database" in d and "street" in d
        for w in ["william", "samsung", "sigmod", "smith"]:
            assert w not in d

    def test_wiki_coverage_strictly_lower(self):
        """Over every surface form the generators can emit (minus random
        IDs), the Wikipedia-sized dictionary covers far less."""
        words = lexicon.common_words()
        for pool in (lexicon.FIRST_NAMES, lexicon.LAST_NAMES, lexicon.VENUES,
                     lexicon.BRANDS, lexicon.PRODUCT_UNITS, lexicon.NICKNAMES,
                     lexicon.ABBREV):
            words.update(pool)
        words = sorted(words)
        wiki, full = (np.mean([w in d for w in words])
                      for d in (glove_wiki(), glove840()))
        assert wiki < full - 0.2

    def test_oov_lookup_falls_back_to_unk(self):
        d = glove840()
        idx, mat = d.as_matrix(["0042317", "database"])
        assert idx.get("0042317", 0) == 0  # OOV -> row 0, the UNK row
        np.testing.assert_allclose(mat[0], d.unk_vector)
        assert not np.allclose(mat[idx["database"]], d.unk_vector)
        np.testing.assert_allclose(_avg(d, "0042317"), d.unk_vector)
        assert not np.allclose(_avg(d, "database"), d.unk_vector)

    def test_empty_tokens_yield_unk_row(self):
        d = glove840()
        idx, mat = d.as_matrix([])
        assert idx == {"<unk>": 0} and mat.shape == (1, d.d)
        np.testing.assert_allclose(mat[0], d.unk_vector)
        for null in (None, "", "   "):
            np.testing.assert_allclose(_avg(d, null), d.unk_vector)


class TestVariants:
    @pytest.mark.parametrize("factory", [glove840, glove_wiki, word2vec,
                                         fasttext, spanish_glove, bio_dict])
    def test_factory_builds(self, factory):
        d = factory()
        assert isinstance(d, SyntheticEmbeddings)
        v = d.vector("cocina") if d.name == "spanish" else d.vector("acgtacgt"
              ) if d.name == "bio" else d.vector("database")
        if v is not None:
            assert np.isfinite(v).all()

    def test_spanish_synonym_collapse(self):
        # "square" and "plaza" translate to the same Spanish word; their
        # Spanish vectors are identical (translation lossiness, Table 7).
        assert lexicon.SPANISH["square"] == lexicon.SPANISH["plaza"]

    def test_bio_overlapping_kmers_close(self):
        d = bio_dict()
        near = _cos(d.vector("acgtacgt"), d.vector("cgtacgta"))
        far = _cos(d.vector("acgtacgt"), d.vector("ttggccaa"))
        assert near > far


class TestEmbedValueAndMatrix:
    def test_embed_value_is_token_mean(self):
        d = glove840()
        v = _avg(d, "Bill Gates")
        expect = (d.vector("bill") + d.vector("gates")) / 2
        np.testing.assert_allclose(v, expect)

    def test_as_matrix_rows_match_vectors(self):
        d = glove840()
        idx, mat = d.as_matrix(["database", "query", "0042317"])
        assert idx["<unk>"] == 0
        np.testing.assert_allclose(mat[idx["database"]], d.vector("database"))
        assert "0042317" not in idx  # OOV without extra vectors is skipped

    def test_as_matrix_includes_extra(self):
        d = glove840()
        extra = {"0042317": np.ones(d.d) / np.sqrt(d.d)}
        idx, mat = d.as_matrix(["0042317"], extra=extra)
        np.testing.assert_allclose(mat[idx["0042317"]], extra["0042317"])


class TestMemoisedFactories:
    @pytest.mark.parametrize("name", sorted(FACTORIES))
    def test_one_instance_per_family_and_d(self, name):
        factory = FACTORIES[name]
        assert factory(32) is factory(32) is factory(d=32) is factory()
        assert factory(16) is not factory(32)
        assert (factory(16).d, factory(32).d) == (16, 32)
        v = factory(16).vector("acgtacgt" if name == "bio" else "data")
        assert v.shape == (16,)

    @pytest.mark.parametrize("d", [32, 64])
    @pytest.mark.parametrize("name", ["glove840", "glove_wiki"])
    def test_drs_bit_identical_to_fresh_instance(self, name, d):
        ds = load("prod_ag", scale=0.5)
        shared = FACTORIES[name](d)
        fresh = FACTORIES[name].__wrapped__(d)
        assert fresh is not shared
        # The repeated table_a pass reads only already-memoised vectors.
        for table in (ds.table_a, ds.table_b, ds.table_a):
            got = avg_tuple_matrix(table, ds.attributes, shared)
            want = avg_tuple_matrix(table, ds.attributes, fresh)
            assert np.array_equal(got, want)

    def test_extra_never_leaks_into_shared_instance(self):
        d, w = glove840(), "0042317"
        extra = {w: np.ones(d.d) / np.sqrt(d.d)}
        idx, _ = d.as_matrix([w, "database"], extra)
        assert w in idx
        assert not np.allclose(avg_tuple_matrix(
            pd.DataFrame({"x": [w]}), ["x"], d, extra)[0], d.unk_vector)
        idx, _ = glove840().as_matrix([w, "database"])
        assert w not in idx and glove840().vector(w) is None
        np.testing.assert_array_equal(_avg(glove840(), w), d.unk_vector)

    def test_shared_vectors_are_read_only(self):
        d = glove840()
        for v in (d.vector("database"), d.unk_vector):
            with pytest.raises(ValueError):
                v[0] = 1.0
