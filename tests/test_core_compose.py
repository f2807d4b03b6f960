"""Tests for tuple composition (Algorithms 1 & 2 front half) and the
distributed DR computation."""
import numpy as np
import pandas as pd
import pytest

from repro.core.compose import (
    avg_tuple_matrix,
    avg_tuple_vectors_spark,
    collect_vectors,
    encode_attr_tokens,
    tuple_tokens,
)
from repro.core.similarity import per_attribute_cosine, tuple_cosine
from repro.embeddings import (
    glove840,
    glove_wiki,
    retrofit_vocabulary,
    tokenize,
)
from repro.er_data import load, to_spark


def _cell_dr(dictionary, value, extra=None):
    """One attribute's AVG DR, the per-cell formula of Algorithm 1 as a
    reference: each token's vector, else its ``extra`` vector, else UNK;
    a cell without tokens is a single UNK. Then the mean."""
    rows = []
    for t in tokenize(value):
        v = dictionary.vector(t)
        if v is None and extra is not None:
            v = extra.get(t)
        rows.append(dictionary.unk_vector if v is None else v)
    return np.asarray(rows or [dictionary.unk_vector]).mean(axis=0)


def _one_cell(dictionary, value, extra=None):
    """``avg_tuple_matrix`` of a one-row, one-attribute table."""
    return avg_tuple_matrix(pd.DataFrame({"x": [value]}), ["x"], dictionary,
                            extra)[0]


class TestPaperRunningExample:
    """§2.3 Example 1: the Bill Gates / William Gates toy relation.

    With real GloVe the averaged name vectors are close and the city
    vectors identical; our dictionary reproduces exactly that structure.
    """

    def setup_method(self):
        self.d = glove840()
        self.t1 = {"name": "Bill Gates", "city": "Seattle"}
        self.t2 = {"name": "William Gates", "city": "Seattle"}

    def test_attr_vector_is_token_average(self):
        v = _one_cell(self.d, "Bill Gates")
        np.testing.assert_allclose(
            v, (self.d.vector("bill") + self.d.vector("gates")) / 2)

    def test_same_city_identical_vectors(self):
        va = _one_cell(self.d, self.t1["city"])
        vb = _one_cell(self.d, self.t2["city"])
        np.testing.assert_allclose(va, vb)

    def test_similarity_vector_matches_example(self):
        """Example 3 analog: name cosine high (~0.99 in the paper's toy
        numbers), city cosine exactly 1."""
        table = pd.DataFrame([self.t1, self.t2])
        mat = avg_tuple_matrix(table, ["name", "city"], self.d)
        sim = per_attribute_cosine(mat[0:1], mat[1:2], 2, self.d.d)[0]
        assert sim[1] == pytest.approx(1.0)
        assert 0.5 < sim[0] < 1.0  # nickname makes names close, not equal

    def test_matching_pair_more_similar_than_random(self):
        t3 = {"name": "Cynthia Ortiz", "city": "Chicago"}
        table = pd.DataFrame([self.t1, self.t2, t3])
        mat = avg_tuple_matrix(table, ["name", "city"], self.d)
        assert tuple_cosine(mat[0], mat[1]) > tuple_cosine(mat[0], mat[2])


class TestAvgMatrix:
    def test_shape(self):
        ds = load("rest_fz", scale=0.1)
        d = glove840()
        mat = avg_tuple_matrix(ds.table_a, ds.attributes, d)
        assert mat.shape == (ds.n_a, len(ds.attributes) * d.d)

    def test_null_attr_gives_zero_block(self):
        d = glove840()
        table = pd.DataFrame([{"x": None, "y": "seattle"}])
        mat = avg_tuple_matrix(table, ["x", "y"], d)
        np.testing.assert_allclose(mat[0, :d.d], 0.0)  # UNK = zero vector
        assert np.abs(mat[0, d.d:]).sum() > 0

    def test_extra_vectors_used_for_oov(self):
        d = glove840()
        extra = {"00912345": np.ones(d.d)}
        table = pd.DataFrame([{"x": "00912345"}])
        with_extra = avg_tuple_matrix(table, ["x"], d, extra)
        without = avg_tuple_matrix(table, ["x"], d)
        np.testing.assert_allclose(with_extra[0], 1.0)
        np.testing.assert_allclose(without[0], 0.0)

    def test_equals_per_cell_reference(self):
        """Prod-AG has empty cells. With the small dictionary and retrofit
        vectors for only half of its OOV words, every table mixes
        in-dictionary, ``extra`` and UNK words."""
        ds = load("prod_ag", scale=0.25)
        d = glove_wiki()
        extra = retrofit_vocabulary(
            [toks for table in (ds.table_a, ds.table_b)
             for toks in tuple_tokens(table, ds.attributes)], d)
        extra = dict(sorted(extra.items())[::2])
        for table in (ds.table_a, ds.table_b):
            want = np.asarray([np.concatenate([_cell_dr(d, v, extra)
                                               for v in row])
                               for row in table[ds.attributes].itertuples(
                                   index=False)])
            got = avg_tuple_matrix(table, ds.attributes, d, extra)
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

    def test_empty_table(self):
        d = glove840()
        table = pd.DataFrame({"id": [], "x": [], "y": []})
        assert avg_tuple_matrix(table, ["x", "y"], d).shape == (0, 2 * d.d)

    def test_all_null_attribute_gives_zero_blocks(self):
        d = glove840()
        table = pd.DataFrame({"x": [None, "", None],
                              "y": ["seattle", "bill gates", "chicago"]})
        mat = avg_tuple_matrix(table, ["x", "y"], d)
        np.testing.assert_array_equal(mat[:, :d.d], 0.0)
        assert (np.abs(mat[:, d.d:]).sum(axis=1) > 0).all()

    def test_long_cell_averages_every_token(self):
        """AVG is not truncated: a 25-token cell averages all 25 vectors."""
        d = glove840()
        words = ["database", "query", "seattle", "bill", "gates"] * 5
        got = _one_cell(d, " ".join(words))
        np.testing.assert_allclose(
            got, np.mean([d.vector(w) for w in words], axis=0), atol=1e-12)
        assert not np.allclose(
            got, np.mean([d.vector(w) for w in words[:18]], axis=0))


class TestSimilarityOps:
    def test_per_attribute_cosine_blockwise(self):
        # two attributes of 2 dims each: first identical, second opposite
        va = np.array([[1.0, 0.0, 0.0, 1.0]])
        vb = np.array([[1.0, 0.0, 0.0, -1.0]])
        sim = per_attribute_cosine(va, vb, 2, 2)
        np.testing.assert_allclose(sim, [[1.0, -1.0]], atol=1e-9)

    def test_zero_vector_cosine_is_zero(self):
        va = np.zeros((1, 4))
        vb = np.ones((1, 4))
        assert per_attribute_cosine(va, vb, 1, 4)[0, 0] == 0.0

    @pytest.mark.parametrize("n", [0, 1, 255, 256, 257, 8192, 20000])
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_per_attribute_cosine_blocks_equal_one_pass(self, n, dtype):
        """The blocked computation is bit-identical to the one-pass
        formula with ``np.linalg.norm``, NULL (all-zero) blocks included,
        whether ``n`` is below, at or past a block boundary."""
        m, d = 5, 16
        rng = np.random.default_rng(n)
        va, vb = (rng.normal(size=(n, m * d)).astype(dtype) for _ in "ab")
        va[rng.random(n) < 0.2, :d] = 0.0
        vb[:, 2 * d:3 * d][rng.random(n) < 0.3] = 0.0
        a, b = va.reshape(-1, m, d), vb.reshape(-1, m, d)
        want = (a * b).sum(axis=2) / (np.linalg.norm(a, axis=2)
                                      * np.linalg.norm(b, axis=2) + 1e-12)
        got = per_attribute_cosine(va, vb, m, d)
        assert got.dtype == want.dtype and got.shape == (n, m)
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("va, vb, m, d", [
        (np.ones((3, 320)), np.ones((3, 320)), 5, 32),  # reshapes to 6 rows
        (np.ones((1, 8)), np.ones((3, 8)), 2, 4),       # broadcasts to 3
    ], ids=["width", "sides"])
    def test_per_attribute_cosine_rejects_mismatched_shapes(self, va, vb,
                                                            m, d):
        with pytest.raises(ValueError, match="need two"):
            per_attribute_cosine(va, vb, m, d)


class TestTokenEncoding:
    def test_shapes_and_mask(self):
        d = glove840()
        ds = load("pub_da", scale=0.05)
        index, _ = d.as_matrix(["database", "query"])
        ids, mask = encode_attr_tokens(ds.table_a, ds.attributes, index,
                                       max_len=6)
        assert ids.shape == (ds.n_a, len(ds.attributes), 6)
        assert mask.shape == ids.shape
        assert ((ids > 0) <= (mask > 0)).all()  # nonzero id => masked in

    def test_unknown_words_map_to_unk_row(self):
        ids, mask = encode_attr_tokens(pd.DataFrame([{"x": "zzz qqq"}]),
                                       ["x"], {"<unk>": 0}, max_len=4)
        assert ids[0, 0, 0] == 0 and mask[0, 0, 0] == 1.0

    def test_null_value_single_unk(self):
        ids, mask = encode_attr_tokens(pd.DataFrame([{"x": None}]), ["x"],
                                       {"<unk>": 0}, max_len=4)
        assert mask[0, 0].sum() == 1.0

    def test_empty_table(self):
        ids, mask = encode_attr_tokens(pd.DataFrame({"x": [], "y": []}),
                                       ["x", "y"], {"<unk>": 0}, max_len=5)
        assert ids.shape == mask.shape == (0, 2, 5)

    def test_long_cell_truncated_to_max_len(self):
        index = {"<unk>": 0, "a": 1, "b": 2}
        table = pd.DataFrame({"x": [" ".join(["a", "b", "zzz"] * 8 + ["a"])],
                              "y": ["b"]})
        ids, mask = encode_attr_tokens(table, ["x", "y"], index, max_len=18)
        np.testing.assert_array_equal(ids[0, 0], [1, 2, 0] * 6)
        np.testing.assert_array_equal(mask[0, 0], 1.0)
        np.testing.assert_array_equal(ids[0, 1], [2] + [0] * 17)
        np.testing.assert_array_equal(mask[0, 1], [1.0] + [0.0] * 17)

    def test_attribute_major_layout(self):
        """Cell (row i, attribute j) lands at ``[i, j]`` whatever the
        token counts of the cells before it."""
        index = {"<unk>": 0, "a": 1, "b": 2, "c": 3}
        table = pd.DataFrame({"x": ["a a a", None], "y": ["b", "c b"]})
        ids, mask = encode_attr_tokens(table, ["x", "y"], index, max_len=3)
        np.testing.assert_array_equal(
            ids, [[[1, 1, 1], [2, 0, 0]], [[0, 0, 0], [3, 2, 0]]])
        np.testing.assert_array_equal(
            mask, [[[1, 1, 1], [1, 0, 0]], [[1, 0, 0], [1, 1, 0]]])

    def test_tuple_tokens_concatenate_cells_in_attribute_order(self):
        table = pd.DataFrame({"x": ["A a", None, "c"], "y": ["b", "c B", ""]})
        assert tuple_tokens(table, ["x", "y"]) == [
            ["a", "a", "b"], ["c", "b"], ["c"]]
        assert tuple_tokens(table, ["y", "x"])[0] == ["b", "a", "a"]
        assert tuple_tokens(table.iloc[:0], ["x", "y"]) == []


class TestSparkCompose:
    def test_distributed_equals_driver(self, spark):
        """The mapInPandas DR computation must agree exactly with the
        driver-side path — same dictionary, built from its name."""
        ds = load("rest_fz", scale=0.3)
        df_a, _ = to_spark(spark, ds)
        d = glove840()
        want = avg_tuple_matrix(ds.table_a, ds.attributes, d)
        got_ids, got = collect_vectors(
            avg_tuple_vectors_spark(df_a, ds.attributes, "glove840", d.d))
        row = {t: i for i, t in enumerate(got_ids)}
        order = [row[t] for t in ds.table_a["id"]]
        np.testing.assert_allclose(got[order], want, atol=1e-12)

    def test_unknown_dictionary_rejected_on_driver(self):
        # The name is checked before the DataFrame is touched, so no
        # DataFrame (and no Spark session or job) is needed to see it fail.
        with pytest.raises(ValueError, match="glove_840.*glove840"):
            avg_tuple_vectors_spark(None, ["title"], "glove_840", 32)

    def test_collect_vectors_rejects_duplicate_ids(self, spark):
        df = spark.createDataFrame(
            [("a", [1.0, 0.0]), ("b", [0.0, 1.0]), ("a", [0.5, 0.5])],
            "id string, vec array<double>")
        with pytest.raises(ValueError, match="'a'"):
            collect_vectors(df)
