"""Tests for pair sampling, K-fold CV, the DeepER pipeline, and the
baseline — the machinery behind every evaluation table."""
import multiprocessing as mp
import os
from dataclasses import fields, replace
from functools import lru_cache

import numpy as np
import pandas as pd
import pytest

from repro.baselines import MagellanLite
from repro.baselines.magellan_lite import featurize_pairs
from repro.baselines.simfns import (
    PAIR_FEATURES,
    levenshtein_batch,
    pair_features,
)
from repro.core import DeepERConfig, deeper, evaluate_deeper, evaluate_magellan
from repro.core.compose import avg_tuple_matrix
from repro.core.pairs import f1_score, kfold_indices, sample_pairs
from repro.core.similarity import cosine_topk, tuple_cosine
from repro.embeddings import glove840
from repro.embeddings.tokenize import tokenize
from repro.er_data import ERDataset, load


def _one_pair(feature: str):
    """The ``pair_features`` column ``feature`` of one cell pair."""
    col = [f.__name__ for f in PAIR_FEATURES].index(f"_{feature}")
    one = np.zeros(1, np.intp)
    return lambda a, b: float(pair_features([a], [b], one, one)[0, col])


jaccard_tokens = _one_pair("jaccard_tokens")
jaccard_trigrams = _one_pair("jaccard_trigrams")
levenshtein_sim = _one_pair("levenshtein_sim")
exact_match = _one_pair("exact_match")
numeric_sim = _one_pair("numeric_sim")


def levenshtein(a: str, b: str) -> int:
    return int(levenshtein_batch([a], [b])[0])


class TestSimilarityFunctions:
    def test_jaccard_tokens(self):
        assert jaccard_tokens("a b c", "a b d") == pytest.approx(2 / 4)
        assert jaccard_tokens("", "") == 0.0
        assert jaccard_tokens("A b", "a B") == 1.0  # case-insensitive

    def test_jaccard_trigrams_typo_robust(self):
        assert jaccard_trigrams("seattle", "seattel") > \
            jaccard_trigrams("seattle", "chicago")

    def test_levenshtein_basics(self):
        assert levenshtein("abc", "abc") == 0
        assert levenshtein("abc", "abd") == 1
        assert levenshtein("", "xyz") == 3
        assert levenshtein("kitten", "sitting") == 3

    def test_levenshtein_sim_range(self):
        assert levenshtein_sim("hello", "hello") == 1.0
        assert 0.0 <= levenshtein_sim("hello", "world") < 1.0
        assert levenshtein_sim(None, None) == 0.0

    def test_exact_match(self):
        assert exact_match("VLDB 2018", "vldb 2018") == 1.0
        assert exact_match("a", "b") == 0.0
        assert exact_match("", "") == 0.0

    def test_numeric_sim(self):
        assert numeric_sim("99.99", "99.99") == 1.0
        assert numeric_sim("100", "50") == pytest.approx(0.5)
        assert numeric_sim("abc", "100") == 0.0


class TestF1:
    def test_perfect(self):
        y = np.array([1.0, 0.0, 1.0])
        assert f1_score(y, y) == (1.0, 1.0, 1.0)

    def test_no_predictions(self):
        assert f1_score(np.array([1.0, 0.0]), np.array([0.0, 0.0]))[0] == 0.0

    def test_half_precision(self):
        y = np.array([1.0, 0.0])
        p = np.array([1.0, 1.0])
        f1, prec, rec = f1_score(y, p)
        assert prec == 0.5 and rec == 1.0


class TestKFold:
    def test_partition_properties(self):
        y = np.array([1.0] * 10 + [0.0] * 50)
        folds = kfold_indices(60, 3, seed=0, labels=y)
        seen = []
        for tr, te in folds:
            assert set(tr) | set(te) == set(range(60))
            assert not set(tr) & set(te)
            seen.extend(te.tolist())
        assert sorted(seen) == list(range(60))

    def test_stratification(self):
        y = np.array([1.0] * 9 + [0.0] * 81)
        for _, te in kfold_indices(90, 3, seed=1, labels=y):
            assert np.sum(y[te]) == 3  # each fold gets its share of positives

    @pytest.mark.parametrize("n", [0, 2])
    def test_empty_folds_hold_integer_indices(self, n):
        folds = kfold_indices(n, 3, seed=0, labels=np.ones(n))
        assert any(len(te) == 0 for _, te in folds)
        for tr, te in folds:
            assert tr.dtype == te.dtype == np.intp


class TestPairSampling:
    @pytest.fixture(scope="class")
    def sampled(self):
        ds = load("rest_fz", scale=0.5)
        d = glove840()
        va = avg_tuple_matrix(ds.table_a, ds.attributes, d)
        vb = avg_tuple_matrix(ds.table_b, ds.attributes, d)
        ids_a = ds.table_a["id"].tolist()
        ids_b = ds.table_b["id"].tolist()
        pairs, y, thr = sample_pairs(ds, va, vb, ids_a, ids_b,
                                     neg_ratio=5, seed=0)
        return ds, pairs, y, thr

    def test_all_matches_are_positives(self, sampled):
        ds, pairs, y, _ = sampled
        pos = {p for p, lab in zip(pairs, y) if lab == 1.0}
        assert pos == ds.matches

    def test_negatives_are_nonmatches(self, sampled):
        ds, pairs, y, _ = sampled
        for p, lab in zip(pairs, y):
            if lab == 0.0:
                assert p not in ds.matches

    def test_ratio_approximate(self, sampled):
        ds, pairs, y, _ = sampled
        n_pos = int(y.sum())
        n_neg = len(y) - n_pos
        assert 3 * n_pos <= n_neg <= 5 * n_pos

    def test_no_duplicate_pairs(self, sampled):
        _, pairs, _, _ = sampled
        assert len(pairs) == len(set(pairs))

    def test_deterministic(self):
        ds = load("rest_fz", scale=0.3)
        d = glove840()
        va = avg_tuple_matrix(ds.table_a, ds.attributes, d)
        vb = avg_tuple_matrix(ds.table_b, ds.attributes, d)
        ia, ib = ds.table_a["id"].tolist(), ds.table_b["id"].tolist()
        r1 = sample_pairs(ds, va, vb, ia, ib, neg_ratio=4, seed=2)
        r2 = sample_pairs(ds, va, vb, ia, ib, neg_ratio=4, seed=2)
        assert r1[0] == r2[0]
        np.testing.assert_array_equal(r1[1], r2[1])


class TestMagellanLite:
    def test_learns_separable(self):
        rng = np.random.default_rng(0)
        X = rng.random((200, 10))
        y = (X[:, 0] + X[:, 3] > 1.0).astype(float)
        model = MagellanLite(10, epochs=60, seed=0).fit(X, y)
        f1, _, _ = f1_score(y, model.predict(X))
        assert f1 > 0.9


SMALL = DeepERConfig(folds=2, neg_ratio=4, d=32, epochs=12)


class TestPipelineEndToEnd:
    def test_deeper_easy_dataset_high_f1(self):
        r = evaluate_deeper(load("rest_fz", scale=0.5), SMALL)
        assert r["f1"] > 0.9
        assert set(r) >= {"f1", "precision", "recall", "per_fold"}
        assert len(r["per_fold"]) == 2

    def test_magellan_easy_dataset_high_f1(self):
        r = evaluate_magellan(load("rest_fz", scale=0.5), SMALL)
        assert r["f1"] > 0.9

    def test_deeper_beats_magellan_on_challenging_products(self):
        """The paper's headline claim (Table 4) at test scale."""
        ds = load("prod_ag", scale=0.5)
        cfg = DeepERConfig(folds=2, neg_ratio=10, d=64)
        assert evaluate_deeper(ds, cfg)["f1"] > \
            evaluate_magellan(ds, cfg)["f1"] - 0.01

    def test_lstm_composition_runs(self):
        from dataclasses import replace
        r = evaluate_deeper(load("rest_fz", scale=0.2),
                            replace(SMALL, composition="lstm", epochs=6))
        assert 0.0 <= r["f1"] <= 1.0

    def test_end_to_end_embedding_update_runs(self):
        from dataclasses import replace
        r = evaluate_deeper(load("rest_fz", scale=0.2),
                            replace(SMALL, update_embeddings=True, epochs=6))
        assert r["f1"] > 0.7

    def test_retrofit_config_runs(self):
        from dataclasses import replace
        r = evaluate_deeper(load("rest_fz", scale=0.2),
                            replace(SMALL, use_retrofit=True, epochs=6))
        assert r["f1"] > 0.7

    def test_unknown_composition_raises(self):
        from dataclasses import replace
        with pytest.raises(ValueError):
            evaluate_deeper(load("rest_fz", scale=0.1),
                            replace(SMALL, composition="transformer"))

    @pytest.mark.parametrize("composition", ["lstm", "bilstm"])
    def test_update_embeddings_needs_avg_composition(self, composition):
        with pytest.raises(ValueError, match="update_embeddings"):
            replace(SMALL, composition=composition, update_embeddings=True)

    @pytest.mark.parametrize("field", ["folds", "epochs", "neg_ratio", "d"])
    def test_setting_that_leaves_the_model_untrained_raises(self, field):
        """One fold has no training split, zero epochs no step, no negatives
        an all-match pair set (Magellan-lite scores it F1 1.0), and zero
        dimensions no tuple representation: each would score a model that
        learnt nothing as if it were a result."""
        bad = {"folds": 1, "epochs": 0, "neg_ratio": 0, "d": 0}[field]
        with pytest.raises(ValueError, match=f"{field} must be >= "):
            replace(SMALL, **{field: bad})

    def test_config_declares_only_what_runs_vary(self):
        """The training recipe no run varies is constant: the similarity
        layer's width, Adam's rate and the batch size are not fields."""
        assert [f.name for f in fields(DeepERConfig)] == [
            "composition", "dictionary", "d", "update_embeddings",
            "use_retrofit", "epochs", "neg_ratio", "folds", "seed"]
        assert (SMALL.hidden, SMALL.lr, SMALL.batch) == (24, 0.01, 16)
        with pytest.raises(TypeError, match="hidden"):
            DeepERConfig(hidden=50)

    @pytest.mark.parametrize("evaluate", [evaluate_deeper, evaluate_magellan])
    def test_empty_match_set_raises_naming_dataset(self, evaluate):
        ds = replace(load("rest_fz", scale=0.2), matches=set())
        with pytest.raises(ValueError, match="'rest_fz' has no labeled pairs"):
            evaluate(ds, SMALL)

    @pytest.mark.parametrize("evaluate", [evaluate_deeper, evaluate_magellan])
    def test_duplicated_id_raises(self, evaluate):
        """A repeated A row makes every row index of its id a guess: both
        systems refuse it rather than score a pair set built on one."""
        ds = load("rest_fz", scale=0.2)
        dup = pd.concat([ds.table_a, ds.table_a.iloc[:1]], ignore_index=True)
        with pytest.raises(ValueError, match="duplicate ids in table A"):
            evaluate(replace(ds, table_a=dup), SMALL)

    def test_compare_equals_both_evaluators(self):
        ds = load("rest_fz", scale=0.2)
        assert deeper.compare(ds, SMALL) == (evaluate_deeper(ds, SMALL),
                                             evaluate_magellan(ds, SMALL))


# ------------------------------------------------------------ references -
# The per-pair implementations that the batched featurizer and the
# vectorised sampler replaced, kept to check that outputs did not change.

def _ref_norm(value) -> str:
    return " ".join(tokenize(value))


def _ref_jaccard_tokens(a, b) -> float:
    ta, tb = set(tokenize(a)), set(tokenize(b))
    if not ta and not tb:
        return 0.0
    return len(ta & tb) / max(1, len(ta | tb))


def _ref_trigrams(s: str) -> set[str]:
    s = f"##{s}#"
    return {s[i:i + 3] for i in range(len(s) - 2)}


def _ref_jaccard_trigrams(a, b) -> float:
    sa, sb = _ref_norm(a), _ref_norm(b)
    if not sa and not sb:
        return 0.0
    ta, tb = _ref_trigrams(sa), _ref_trigrams(sb)
    return len(ta & tb) / max(1, len(ta | tb))


def _ref_levenshtein(a: str, b: str) -> int:
    if a == b:
        return 0
    if not a:
        return len(b)
    if not b:
        return len(a)
    prev = list(range(len(b) + 1))
    for i, ca in enumerate(a, 1):
        cur = [i]
        for j, cb in enumerate(b, 1):
            cur.append(min(prev[j] + 1, cur[j - 1] + 1,
                           prev[j - 1] + (ca != cb)))
        prev = cur
    return prev[-1]


def _ref_levenshtein_sim(a, b) -> float:
    sa, sb = _ref_norm(a)[:24], _ref_norm(b)[:24]
    if not sa and not sb:
        return 0.0
    m = max(len(sa), len(sb))
    return 1.0 - _ref_levenshtein(sa, sb) / m if m else 0.0


def _ref_exact_match(a, b) -> float:
    sa, sb = _ref_norm(a), _ref_norm(b)
    return 1.0 if sa and sa == sb else 0.0


def _ref_numeric_sim(a, b) -> float:
    def first_num(v):
        for t in tokenize(v):
            try:
                return float(t)
            except ValueError:
                continue
        return None

    na, nb = first_num(a), first_num(b)
    if na is None or nb is None:
        return 0.0
    denom = max(abs(na), abs(nb), 1e-9)
    return max(0.0, 1.0 - abs(na - nb) / denom)


_REF_FEATURES = [_ref_jaccard_tokens, _ref_jaccard_trigrams,
                 _ref_levenshtein_sim, _ref_exact_match, _ref_numeric_sim]


def _ref_featurize_pairs(table_a, table_b, attrs, pairs):
    a = table_a.set_index("id")
    b = table_b.set_index("id")
    rows = np.empty((len(pairs), len(attrs) * len(_REF_FEATURES)))
    for i, (ia, ib) in enumerate(pairs):
        ra, rb = a.loc[ia], b.loc[ib]
        col = 0
        for attr in attrs:
            va, vb = ra[attr], rb[attr]
            for fn in _REF_FEATURES:
                rows[i, col] = fn(va, vb)
                col += 1
    return rows


def _ref_sample_pairs(ds, vec_a, vec_b, ids_a, ids_b, *, neg_ratio=10,
                      seed=0):
    rng = np.random.default_rng(seed)
    pos_a = {a for a, _ in ds.matches}
    row_a = {t: i for i, t in enumerate(ids_a)}
    row_b = {t: i for i, t in enumerate(ids_b)}
    match_of = {a: b for a, b in ds.matches}
    pairs, labels, pos_sims = [], [], []
    for a, b in sorted(ds.matches):
        pairs.append((a, b))
        labels.append(1.0)
        pos_sims.append(float(tuple_cosine(vec_a[row_a[a]], vec_b[row_b[b]])))
    threshold = float(np.percentile(pos_sims, 5)) if pos_sims else 0.0
    n_b = len(ids_b)
    seen = set(pairs)
    for a in sorted(pos_a):
        sims = tuple_cosine(vec_a[row_a[a]][None, :], vec_b)
        below = np.flatnonzero(sims < threshold)
        order = below[np.argsort(-sims[below], kind="stable")]
        hard = [int(i) for i in order
                if ids_b[int(i)] != match_of[a]][: neg_ratio - neg_ratio // 2]
        easy = [int(i) for i in rng.permutation(n_b)
                if ids_b[int(i)] != match_of[a] and sims[int(i)] < threshold
                ][: neg_ratio // 2]
        for bi in hard + easy:
            p = (a, ids_b[bi])
            if p in seen:
                continue
            seen.add(p)
            pairs.append(p)
            labels.append(0.0)
    return pairs, np.asarray(labels), threshold


# Cells the generators never produce: NULL/empty/blank, longer than the
# edit-distance cap, non-ASCII, and tokens that parse to nan/inf.
_EDGE_CELLS = [
    None, np.nan, "", "   ", "NaN", "none",
    "an extremely long product title well past the twenty four cap",
    "an extremely long product title well past the cap, differently",
    "Café Zürich naïve", "straße ŝtrange ünïcödé", "東京 タワー 42",
    "emoji 🙂 7", "nan 5", "inf", "1e400", "12 nan", "inf inf 3",
    "0", "0.0 0", "price 1e400 99", "99.99", "100 dollars",
]


def _with_edge_cells(ds):
    """Copies of both tables whose first rows cycle through
    ``_EDGE_CELLS`` (so equal values meet across tables), plus every pair
    of those rows."""
    ta, tb = ds.table_a.copy(), ds.table_b.copy()
    n = len(_EDGE_CELLS)
    for k, attr in enumerate(ds.attributes):
        for t, step in ((ta, 1), (tb, 3)):
            col = t[attr].astype(object).to_numpy()
            col[:n] = [_EDGE_CELLS[(step * i + k) % n] for i in range(n)]
            t[attr] = col
    pairs = [(a, b) for a in ta["id"][:n] for b in tb["id"][:n]]
    return ta, tb, pairs


@lru_cache(maxsize=None)
def _sampled(name: str, seed: int):
    ds = load(name, scale=0.5, seed=seed)
    emb = glove840(d=64)
    va = avg_tuple_matrix(ds.table_a, ds.attributes, emb)
    vb = avg_tuple_matrix(ds.table_b, ds.attributes, emb)
    ids_a, ids_b = ds.table_a["id"].tolist(), ds.table_b["id"].tolist()
    return ds, va, vb, ids_a, ids_b


def _assert_same_pair_set(got, ref):
    assert got[0] == ref[0]
    assert np.array_equal(got[1], ref[1])
    assert got[2] == ref[2]


@pytest.mark.parametrize("name", ["prod_ag", "pub_ds", "rest_fz", "pub_dc"])
@pytest.mark.parametrize("seed", [0, 3])
def test_sample_pairs_equals_reference(name, seed):
    ds, va, vb, ids_a, ids_b = _sampled(name, seed)
    got = sample_pairs(ds, va, vb, ids_a, ids_b, neg_ratio=20, seed=seed)
    ref = _ref_sample_pairs(ds, va, vb, ids_a, ids_b, neg_ratio=20,
                            seed=seed)
    _assert_same_pair_set(got, ref)
    # the matched-pair cosines, one row-wise call, equal the per-pair ones
    row_a = {t: i for i, t in enumerate(ids_a)}
    row_b = {t: i for i, t in enumerate(ids_b)}
    pos = [float(tuple_cosine(va[row_a[a]], vb[row_b[b]]))
           for a, b in sorted(ds.matches)]
    assert float(np.percentile(pos, 5)) == got[2]


def test_sample_pairs_rejects_negative_neg_ratio():
    ds, va, vb, ids_a, ids_b = _sampled("rest_fz", 0)
    with pytest.raises(ValueError, match="neg_ratio"):
        sample_pairs(ds, va, vb, ids_a, ids_b, neg_ratio=-1)


@pytest.mark.parametrize("side", [0, 1])
def test_sample_pairs_rejects_repeated_id(side):
    """A repeated id makes its row a guess: the sampler refuses it before
    ranking or drawing anything."""
    ds, va, vb, ids_a, ids_b = _sampled("rest_fz", 0)
    ids = [list(ids_a), list(ids_b)]
    ids[side][1] = ids[side][0]
    with pytest.raises(ValueError,
                       match=f"duplicate ids in table {'AB'[side]}"):
        sample_pairs(ds, va, vb, *ids)


@pytest.mark.parametrize("neg_ratio", [0, 1])
def test_sample_pairs_small_neg_ratio_equals_reference(neg_ratio):
    ds, va, vb, ids_a, ids_b = _sampled("rest_fz", 0)
    got = sample_pairs(ds, va, vb, ids_a, ids_b, neg_ratio=neg_ratio)
    _assert_same_pair_set(got, _ref_sample_pairs(ds, va, vb, ids_a, ids_b,
                                                 neg_ratio=neg_ratio))
    n_neg = len(got[0]) - len(ds.matches)
    assert n_neg <= neg_ratio * len(ds.matches)
    assert (n_neg > 0) == (neg_ratio > 0)


def test_sample_pairs_without_matches():
    ds, va, vb, ids_a, ids_b = _sampled("rest_fz", 0)
    ds = replace(ds, matches=set())
    got = sample_pairs(ds, va, vb, ids_a, ids_b)
    assert got[0] == [] and got[1].size == 0 and got[2] == 0.0
    _assert_same_pair_set(got, _ref_sample_pairs(ds, va, vb, ids_a, ids_b))


def _tied_pair_set():
    """21 matches, every B row twice under two ids, and NULL-only
    (all-zero) rows on both sides. With 21 matched cosines the 5th
    percentile is one of them, so the duplicate of that match's B row
    lies exactly on the threshold, and every row's ranking has ties."""
    rng = np.random.default_rng(0)
    va = rng.standard_normal((30, 12))
    base = rng.standard_normal((40, 12))
    base[:21] = va[:21] + 0.6 * rng.standard_normal((21, 12))
    base[-2:] = 0.0
    va[20] = 0.0
    vb = np.concatenate([base, base])
    ids_a = [f"a{i}" for i in range(len(va))]
    ids_b = [f"b{j}" for j in range(len(vb))]
    ds = ERDataset("tied", "easy", [], pd.DataFrame(), pd.DataFrame(),
                   {(f"a{i}", f"b{i}") for i in range(21)})
    return ds, va, vb, ids_a, ids_b


TIED_NEG_RATIOS = [1, 2, 6, 20, 200]


@pytest.mark.parametrize("neg_ratio", TIED_NEG_RATIOS)
def test_sample_pairs_ties_rank_by_row(neg_ratio):
    ds, va, vb, ids_a, ids_b = _tied_pair_set()
    got = sample_pairs(ds, va, vb, ids_a, ids_b, neg_ratio=neg_ratio)
    _assert_same_pair_set(got, _ref_sample_pairs(ds, va, vb, ids_a, ids_b,
                                                 neg_ratio=neg_ratio))
    on_threshold = tuple_cosine(va[:21], vb[40:61]) == got[2]
    assert on_threshold.any()


TIED_KS = [1, 2, 3, 4, 60]


def _tied_rows():
    """Every B row two or three times: each A row's cosines tie in pairs
    and triples. Returns ``(va, vb, belows)``, where one ``below`` is a
    cosine of the row set and one lies just above it."""
    rng = np.random.default_rng(1)
    va = rng.standard_normal((20, 8))
    base = rng.standard_normal((25, 8))
    vb = np.concatenate([base, base, base[:5]])
    on_a_value = float(tuple_cosine(va[0], vb[3]))
    return va, vb, (np.inf, on_a_value, np.nextafter(on_a_value, 2.0))


def _ref_topk(va, vb, k, below):
    out = []
    for row in va:
        sims = tuple_cosine(row[None, :], vb)
        order = np.flatnonzero(sims < below)
        out.append((order[np.argsort(-sims[order], kind="stable")][:k],
                    sims < below))
    return out


class TestCosineTopk:
    @staticmethod
    def _check(va, vb, k, below=np.inf):
        got = list(cosine_topk(va, vb, k, below=below))
        ref = _ref_topk(va, vb, k, below)
        assert len(got) == len(ref)
        for (top, is_below), (ref_top, ref_below) in zip(got, ref):
            assert top.tolist() == ref_top.tolist()
            assert np.array_equal(is_below, ref_below)

    @pytest.mark.parametrize("k", [0, 1, 7, 1500, 1501])
    @pytest.mark.parametrize("below", [np.inf, 0.1, -0.3])
    def test_equals_full_row_ranking(self, k, below):
        # 1,500 columns: the 200 rows span several score blocks
        rng = np.random.default_rng(k)
        va = rng.standard_normal((200, 24))
        vb = rng.standard_normal((1500, 24))
        self._check(va, vb, k, below)

    @pytest.mark.parametrize("k", TIED_KS)
    def test_ties_rank_by_row(self, k):
        va, vb, belows = _tied_rows()
        for below in belows:
            self._check(va, vb, k, below)

    def test_values_closer_than_the_screen_error(self):
        """B rows 1e-15 apart: exact cosines differ by a few ulps, about
        the screen's own error, so only the exact confirmation ranks them
        right."""
        rng = np.random.default_rng(5)
        vb = rng.standard_normal(64) + 1e-15 * rng.standard_normal((400, 64))
        va = rng.standard_normal((50, 64))
        mid = float(np.median(tuple_cosine(va[0][None, :], vb)))
        for k in (1, 5, 20):
            for below in (np.inf, mid):
                self._check(va, vb, k, below)

    def test_zero_rows_and_empty_sides(self):
        rng = np.random.default_rng(2)
        va = rng.standard_normal((6, 8))
        vb = rng.standard_normal((9, 8))
        va[1] = vb[4] = vb[7] = 0.0
        for below in (np.inf, 0.0, 0.5):
            self._check(va, vb, 3, below)
        assert list(cosine_topk(va[:0], vb, 3)) == []
        for top, is_below in cosine_topk(va, vb[:0], 3):
            assert top.size == 0 and is_below.size == 0


class TestFeaturizePairs:
    @pytest.mark.parametrize("name", ["prod_ag", "pub_ds"])
    @pytest.mark.parametrize("seed", [0, 3])
    def test_equals_per_pair_reference(self, name, seed):
        ds, va, vb, ids_a, ids_b = _sampled(name, seed)
        pairs, _, _ = sample_pairs(ds, va, vb, ids_a, ids_b, neg_ratio=10,
                                   seed=seed)
        ta, tb, edge_pairs = _with_edge_cells(ds)
        pairs = pairs + edge_pairs
        ij = replace(ds, table_a=ta, table_b=tb).row_pairs(pairs)
        X = featurize_pairs(ta, tb, ds.attributes, ij)
        assert X.shape == (len(pairs), 5 * len(ds.attributes))
        assert not np.isnan(X).any()
        assert np.array_equal(
            X, _ref_featurize_pairs(ta, tb, ds.attributes, pairs))

    def test_levenshtein_batch_equals_reference_dp(self):
        rng = np.random.default_rng(0)
        alphabet = list("abcde ") + ["é", "ß", "東", "🙂"]

        def word():
            return "".join(rng.choice(alphabet, size=rng.integers(0, 25)))

        sa = [word() for _ in range(2_000)] + ["", "", "same", "x" * 24]
        sb = [word() for _ in range(2_000)] + ["", "abc", "same", "x" * 24]
        sb[:200] = sa[:200]  # equal strings
        got = levenshtein_batch(sa, sb)
        assert got.tolist() == [_ref_levenshtein(a, b)
                                for a, b in zip(sa, sb)]

    def test_empty_pair_list(self):
        ds = load("rest_fz", scale=0.1)
        X = featurize_pairs(ds.table_a, ds.table_b, ds.attributes,
                            ds.row_pairs([]))
        assert X.shape == (0, 5 * len(ds.attributes))


# ---------------------------------------------------------- parallel CV -
# The sequential fold loop that ``deeper._cv`` replaced, kept to check
# that fitting the folds in forked workers changes no result.

def _ref_cv(y, model_factory, fit_predict, cfg):
    scores = []
    for fold, (tr, te) in enumerate(
            kfold_indices(len(y), cfg.folds, seed=cfg.seed, labels=y)):
        model = model_factory(fold)
        y_pred = fit_predict(model, tr, te)
        scores.append(f1_score(y[te], y_pred))
    arr = np.asarray(scores)
    return {
        "f1": float(arr[:, 0].mean()),
        "precision": float(arr[:, 1].mean()),
        "recall": float(arr[:, 2].mean()),
        "per_fold": [float(s) for s in arr[:, 0]],
    }


_CV_CASES = {
    "avg": (evaluate_deeper, {}),
    "avg-update": (evaluate_deeper, {"update_embeddings": True,
                                     "epochs": 4}),
    "lstm": (evaluate_deeper, {"composition": "lstm", "epochs": 3}),
    "magellan": (evaluate_magellan, {}),
}


@lru_cache(maxsize=None)
def _rest_fz():
    return load("rest_fz", scale=0.2)


@pytest.mark.parametrize("folds", [2, 5])
@pytest.mark.parametrize("case", list(_CV_CASES))
def test_parallel_cv_equals_sequential(case, folds, monkeypatch):
    evaluate, overrides = _CV_CASES[case]
    cfg = replace(SMALL, folds=folds, **overrides)
    got = evaluate(_rest_fz(), cfg)
    monkeypatch.setattr(deeper, "_cv", _ref_cv)
    assert got == evaluate(_rest_fz(), cfg)


def test_single_cpu_runs_folds_in_process(monkeypatch):
    parent = os.getpid()
    ran_in = set()
    real_cv = deeper._cv

    def spy_cv(y, model_factory, fit_predict, cfg):
        def fit_predict_here(model, tr, te):
            ran_in.add(os.getpid())
            return fit_predict(model, tr, te)
        return real_cv(y, model_factory, fit_predict_here, cfg)

    ds = _rest_fz()
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    monkeypatch.setattr(deeper, "_cv", spy_cv)
    got = evaluate_deeper(ds, SMALL)
    assert ran_in == {parent}
    monkeypatch.setattr(deeper, "_cv", _ref_cv)
    assert got == evaluate_deeper(ds, SMALL)


_Y = np.array([1.0] * 12 + [0.0] * 48)


def _toy_fit_predict(model, tr, te):
    """Predicts fold-dependent labels, so every fold scores differently."""
    return np.where(np.arange(len(te)) % (model + 2) == 0, 1.0, _Y[te])


def test_folds_run_in_workers_when_cpus_allow(monkeypatch):
    parent = os.getpid()

    def fit_predict(model, tr, te):
        if os.getpid() == parent:
            raise RuntimeError("fold ran in the parent")
        return _toy_fit_predict(model, tr, te)

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
    cfg = DeepERConfig(folds=3)
    got = deeper._cv(_Y, lambda fold: fold, fit_predict, cfg)
    assert got == _ref_cv(_Y, lambda fold: fold, _toy_fit_predict, cfg)
    assert mp.active_children() == []


def test_cv_inside_daemonic_process_runs_in_process(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
    cfg = DeepERConfig(folds=3)
    ctx = mp.get_context("fork")
    out = ctx.Queue()

    def target():
        try:
            out.put(deeper._cv(_Y, lambda f: f, _toy_fit_predict, cfg))
        except Exception as e:  # report the failure to the test process
            out.put(repr(e))

    proc = ctx.Process(target=target, daemon=True)
    proc.start()
    got = out.get(timeout=60)
    proc.join(timeout=60)
    assert not proc.is_alive() and proc.exitcode == 0
    assert got == _ref_cv(_Y, lambda f: f, _toy_fit_predict, cfg)


def test_failing_fold_raises_and_leaves_no_children(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})

    def fit_predict(model, tr, te):
        if model == 1:
            raise ValueError("fold 1 failed")
        return _toy_fit_predict(model, tr, te)

    with pytest.raises(ValueError, match="fold 1 failed"):
        deeper._cv(_Y, lambda f: f, fit_predict, DeepERConfig(folds=3))
    assert mp.active_children() == []
