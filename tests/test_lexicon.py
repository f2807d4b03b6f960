"""Integrity tests for the shared lexicon — the contract between the
dataset generators and the synthetic dictionaries."""
from repro.embeddings import lexicon as lx


class TestPools:
    def test_pools_lowercase_single_tokens(self):
        for pool in (lx.FIRST_NAMES, lx.LAST_NAMES, lx.TOPIC_WORDS,
                     lx.RARE_TOPIC_WORDS, lx.VENUES, lx.BRANDS,
                     lx.PRODUCT_NOUNS, lx.CITIES, lx.CUISINES):
            for w in pool:
                assert w == w.lower() and " " not in w

    def test_pools_no_internal_duplicates(self):
        for pool in (lx.FIRST_NAMES, lx.LAST_NAMES, lx.TOPIC_WORDS,
                     lx.RARE_TOPIC_WORDS, lx.VENUES, lx.BRANDS):
            assert len(pool) == len(set(pool))

    def test_rare_topic_words_disjoint_from_common(self):
        """Table 5 depends on jargon being OUTSIDE the wiki dictionary."""
        assert not set(lx.RARE_TOPIC_WORDS) & lx.common_words()


class TestConceptMap:
    def test_nicknames_target_real_first_names(self):
        for nick, full in lx.NICKNAMES.items():
            assert full in lx.FIRST_NAMES, (nick, full)

    def test_abbreviations_are_shorter(self):
        for abbr, full in lx.ABBREV.items():
            assert len(abbr) < len(full), (abbr, full)

    def test_no_key_is_its_own_concept(self):
        m = lx.concept_map()
        for k, v in m.items():
            assert k != v

    def test_concept_map_merges_all_three_sources(self):
        m = lx.concept_map()
        assert m["bill"] == "william"         # nickname
        assert m["intl"] == "international"   # abbreviation
        assert m["notebook"] == "laptop"      # synonym

    def test_abbrev_keys_not_shadowing_pool_words(self):
        """An abbreviation key that is also a pool word would silently
        change that word's semantics dataset-wide."""
        pools = set()
        for pool in (lx.FIRST_NAMES, lx.LAST_NAMES, lx.TOPIC_WORDS,
                     lx.RARE_TOPIC_WORDS, lx.BRANDS, lx.PRODUCT_NOUNS,
                     lx.CITIES, lx.CUISINES, lx.VENUES):
            pools.update(pool)
        shadow = set(lx.ABBREV) & pools
        assert not shadow, shadow


class TestSpanish:
    def test_targets_are_single_lowercase_tokens(self):
        for en, es in lx.SPANISH.items():
            assert es == es.lower() and " " not in es

    def test_known_collapses_exist(self):
        """Translation lossiness: several English words share one Spanish
        surface form (drives Table 7's drop)."""
        from collections import Counter
        c = Counter(lx.SPANISH.values())
        assert any(v >= 2 for v in c.values())

    def test_covers_core_common_vocab(self):
        for w in ("restaurant", "street", "database", "wireless", "black"):
            assert w in lx.SPANISH


class TestVocabularySets:
    def test_common_excludes_proper_nouns(self):
        common = lx.common_words()
        assert "william" not in common and "samsung" not in common
