"""Tests for LSH blocking (§4): hash family, candidate generation (driver
and Spark paths, oracle-checked), PC/RR metrics, and the K/L monotonicity
the paper's Figure 10 documents."""
import numpy as np
import pandas as pd
import pytest

from repro.blocking import (
    add_lsh_codes,
    candidate_pairs,
    candidate_pairs_np,
    end_to_end_pr,
    lsh_codes_np,
    multiprobe_topn_candidates,
    pair_completeness,
    random_hyperplanes,
    reduction_ratio,
)
from repro.blocking.multiprobe import probe_offsets
from repro.core.compose import (
    avg_tuple_matrix,
    avg_tuple_vectors_spark,
    collect_vectors,
)
from repro.embeddings import glove840
from repro.er_data import load, to_spark
from repro.oracle import assert_equivalent


def _unit_rows(rng, n, d):
    m = rng.standard_normal((n, d))
    return m / np.linalg.norm(m, axis=1, keepdims=True)


class TestHashFamily:
    def test_shapes_and_unit_norm(self):
        p = random_hyperplanes(16, K=8, L=3, seed=1)
        assert p.shape == (3, 8, 16)
        np.testing.assert_allclose(np.linalg.norm(p, axis=2), 1.0)

    def test_deterministic(self):
        np.testing.assert_allclose(random_hyperplanes(8, 4, 2, seed=5),
                                   random_hyperplanes(8, 4, 2, seed=5))

    @pytest.mark.parametrize("K,L", [(0, 1), (63, 1), (64, 2), (4, 0)])
    def test_rejects_k_outside_1_62_and_l_below_1(self, K, L):
        with pytest.raises(ValueError):
            random_hyperplanes(8, K, L)

    def test_k62_codes_fit_int64(self):
        rng = np.random.default_rng(2)
        codes = lsh_codes_np(_unit_rows(rng, 200, 16),
                             random_hyperplanes(16, K=62, L=1))
        assert codes.min() >= 0 and codes.max() < 2**62

    def test_codes_in_range(self):
        rng = np.random.default_rng(0)
        codes = lsh_codes_np(_unit_rows(rng, 50, 16),
                             random_hyperplanes(16, K=6, L=4))
        assert codes.shape == (50, 4)
        assert codes.min() >= 0 and codes.max() < 2**6

    def test_identical_vectors_same_code(self):
        rng = np.random.default_rng(1)
        v = _unit_rows(rng, 1, 16)
        mat = np.vstack([v, v])
        codes = lsh_codes_np(mat, random_hyperplanes(16, 8, 3))
        np.testing.assert_array_equal(codes[0], codes[1])

    def test_running_example_of_paper(self):
        """Example 4 (§4.3): hand-computed hash codes for the toy vectors."""
        h = np.array([[[-1, 1, 1], [1, 1, 1], [-1, -1, 1], [-1, 1, -1]]],
                     dtype=float)
        h = h / np.linalg.norm(h, axis=2, keepdims=True)
        v1 = np.array([[0.45, 0.8, 0.85]])
        v2 = np.array([[0.4, 0.85, 0.75]])
        c1, c2 = lsh_codes_np(v1, h)[0, 0], lsh_codes_np(v2, h)[0, 0]
        # paper: both hash to [+1, +1, -1, -1] -> bits 1,1,0,0 -> 0b0011
        assert c1 == c2 == 0b0011

    def test_collision_prob_tracks_angle(self):
        """Random-hyperplane LSH: P[h(a)=h(b)] = 1 - angle/pi per bit."""
        rng = np.random.default_rng(3)
        a = np.array([1.0, 0.0])
        for angle, expect in [(np.pi / 6, 1 - 1 / 6), (np.pi / 2, 0.5)]:
            b = np.array([np.cos(angle), np.sin(angle)])
            planes = random_hyperplanes(2, K=1, L=4000, seed=7)
            ca = lsh_codes_np(a[None, :], planes)[0]
            cb = lsh_codes_np(b[None, :], planes)[0]
            agree = float(np.mean(ca == cb))
            assert abs(agree - expect) < 0.05


class TestCandidatesDriver:
    def test_simple_buckets(self):
        codes_a = np.array([[0], [1], [2]])
        codes_b = np.array([[1], [2], [9]])
        assert candidate_pairs_np(codes_a, codes_b) == {(1, 0), (2, 1)}

    def test_union_over_tables(self):
        codes_a = np.array([[0, 5]])
        codes_b = np.array([[0, 9], [7, 5]])
        assert candidate_pairs_np(codes_a, codes_b) == {(0, 0), (0, 1)}

    def test_pc_rr_metrics(self):
        cands = {(0, 0), (0, 1), (1, 1)}
        matches = {(0, 0), (2, 2)}
        assert pair_completeness(cands, matches) == 0.5
        assert reduction_ratio(len(cands), 3, 3) == pytest.approx(3 / 9)
        p, r = end_to_end_pr({(0, 0), (0, 1)}, matches)
        assert p == 0.5 and r == 0.5

    def test_pc_empty_matches_is_one(self):
        assert pair_completeness(set(), set()) == 1.0


class TestKLMonotonicity:
    """Figure 10's qualitative laws on real dataset DRs."""

    @pytest.fixture(scope="class")
    def vecs(self):
        ds = load("prod_ag", scale=0.25)
        d = glove840(48)
        va = avg_tuple_matrix(ds.table_a, ds.attributes, d)
        vb = avg_tuple_matrix(ds.table_b, ds.attributes, d)
        row_a = {t: i for i, t in enumerate(ds.table_a["id"])}
        row_b = {t: i for i, t in enumerate(ds.table_b["id"])}
        matches = {(row_a[a], row_b[b]) for a, b in ds.matches}
        return va, vb, matches

    def _pc_rr(self, va, vb, matches, K, L):
        planes = random_hyperplanes(va.shape[1], K, L, seed=11)
        cands = candidate_pairs_np(lsh_codes_np(va, planes),
                                   lsh_codes_np(vb, planes))
        return (pair_completeness(cands, matches),
                reduction_ratio(len(cands), len(va), len(vb)))

    def test_pc_and_rr_decrease_with_k(self, vecs):
        va, vb, matches = vecs
        pc1, rr1 = self._pc_rr(va, vb, matches, K=1, L=4)
        pc8, rr8 = self._pc_rr(va, vb, matches, K=8, L=4)
        assert pc1 >= pc8
        assert rr1 > rr8  # far fewer comparisons at higher K

    def test_pc_and_rr_increase_with_l(self, vecs):
        va, vb, matches = vecs
        pc1, rr1 = self._pc_rr(va, vb, matches, K=4, L=1)
        pc8, rr8 = self._pc_rr(va, vb, matches, K=4, L=8)
        assert pc8 > pc1
        assert rr8 > rr1

    def test_k1_l1_buckets_near_half(self, vecs):
        """One hyperplane splits tuples into 2 buckets -> RR ~= 0.5."""
        va, vb, matches = vecs
        _, rr = self._pc_rr(va, vb, matches, K=1, L=1)
        assert 0.3 < rr < 0.7


class TestMultiProbe:
    def test_probe_offsets_counts(self):
        assert len(probe_offsets(4, 0)) == 1
        assert len(probe_offsets(4, 1)) == 1 + 4
        assert len(probe_offsets(4, 2)) == 1 + 4 + 6

    def test_multiprobe_recall_increases(self):
        ds = load("prod_ag", scale=0.25)
        d = glove840(48)
        va = avg_tuple_matrix(ds.table_a, ds.attributes, d)
        vb = avg_tuple_matrix(ds.table_b, ds.attributes, d)
        row_a = {t: i for i, t in enumerate(ds.table_a["id"])}
        row_b = {t: i for i, t in enumerate(ds.table_b["id"])}
        matches = {(row_a[a], row_b[b]) for a, b in ds.matches}
        planes = random_hyperplanes(va.shape[1], K=10, L=1, seed=2)
        recalls = []
        for p in (0, 1, 2):
            cand = multiprobe_topn_candidates(va, vb, planes, n_probes=p,
                                              top_n=10)
            recalls.append(pair_completeness(cand, matches))
        assert recalls[0] <= recalls[1] <= recalls[2]
        assert recalls[2] > recalls[0]  # probing strictly helps overall

    @pytest.mark.parametrize("n_probes,top_n", [(-1, 5), (5, 5), (1, 0)])
    def test_rejects_bad_probes_and_top_n(self, n_probes, top_n):
        rng = np.random.default_rng(5)
        va, vb = _unit_rows(rng, 5, 16), _unit_rows(rng, 5, 16)
        planes = random_hyperplanes(16, K=4, L=1)
        with pytest.raises(ValueError):
            multiprobe_topn_candidates(va, vb, planes, n_probes=n_probes,
                                       top_n=top_n)

    def test_topn_bounds_candidates(self):
        rng = np.random.default_rng(4)
        va = _unit_rows(rng, 30, 16)
        vb = _unit_rows(rng, 200, 16)
        planes = random_hyperplanes(16, K=1, L=1, seed=0)  # huge buckets
        cand = multiprobe_topn_candidates(va, vb, planes, n_probes=0,
                                          top_n=5)
        per_a: dict[int, int] = {}
        for i, _ in cand:
            per_a[i] = per_a.get(i, 0) + 1
        assert max(per_a.values()) <= 5


class TestSparkBlocking:
    """The distributed dataflow path, oracle-checked against DuckDB."""

    @pytest.fixture(scope="class")
    def block_setup(self, spark):
        ds = load("rest_fz", scale=0.5)
        df_a, df_b = to_spark(spark, ds)
        va = avg_tuple_vectors_spark(df_a, ds.attributes, "glove840", 32)
        vb = avg_tuple_vectors_spark(df_b, ds.attributes, "glove840", 32)
        planes = random_hyperplanes(32 * len(ds.attributes), K=4, L=2,
                                    seed=3)
        return ds, va, vb, planes

    def test_spark_codes_match_driver(self, block_setup):
        ds, va, vb, planes = block_setup
        codes_df = add_lsh_codes(va, planes).toPandas()
        ids, mat = zip(*[(r["id"], r["vec"]) for r in va.collect()])
        codes_np = lsh_codes_np(np.asarray(mat), planes)
        lookup = {(i, l): c for i, row in zip(ids, codes_np)
                  for l, c in enumerate(row)}
        assert len(codes_df) == len(ids) * planes.shape[0]
        for _, r in codes_df.iterrows():
            assert lookup[(r["id"], r["l"])] == r["bucket"]

    def test_candidates_oracle_checked(self, block_setup):
        ds, va, vb, planes = block_setup
        ca, cb = add_lsh_codes(va, planes), add_lsh_codes(vb, planes)
        got = candidate_pairs(ca, cb)
        assert_equivalent(
            got,
            """
            SELECT DISTINCT a.id AS id_a, b.id AS id_b
            FROM codes_a a JOIN codes_b b
              ON a.l = b.l AND a.bucket = b.bucket
            """,
            codes_a=ca, codes_b=cb,
        )

    def test_spark_candidates_equal_driver(self, block_setup):
        ds, va, vb, planes = block_setup
        rows_a = va.collect()
        rows_b = vb.collect()
        ids_a = [r["id"] for r in rows_a]
        ids_b = [r["id"] for r in rows_b]
        mat_a = np.asarray([r["vec"] for r in rows_a])
        mat_b = np.asarray([r["vec"] for r in rows_b])
        want = {(ids_a[i], ids_b[j])
                for i, j in candidate_pairs_np(lsh_codes_np(mat_a, planes),
                                               lsh_codes_np(mat_b, planes))}
        got = {(r["id_a"], r["id_b"])
               for r in candidate_pairs(add_lsh_codes(va, planes),
                                        add_lsh_codes(vb, planes)).collect()}
        assert got == want

    def test_blocking_keeps_most_duplicates(self, block_setup):
        ds, va, vb, planes = block_setup
        got = {(r["id_a"], r["id_b"])
               for r in candidate_pairs(add_lsh_codes(va, planes),
                                        add_lsh_codes(vb, planes)).collect()}
        pc = pair_completeness(got, ds.matches)
        rr = reduction_ratio(len(got), ds.n_a, ds.n_b)
        assert pc > 0.8   # K=4, L=2 keeps nearly all true matches
        assert rr < 0.6   # while pruning a large share of comparisons


class TestSparkPartitionCounts:
    """Spark DRs, codes and candidates equal the driver's whether the input
    and the shuffle sit in one partition or in 200 (most of them empty),
    with an attribute that is NULL in every row of both tables."""

    D = 32

    @pytest.fixture(scope="class")
    def tables(self):
        ds = load("pub_ds", scale=0.25)
        tabs = [t.assign(notes=None) for t in (ds.table_a, ds.table_b)]
        return tabs, ds.attributes + ["notes"]

    @pytest.mark.parametrize("parts", [1, 200])
    def test_spark_equals_driver(self, spark, tables, parts):
        tabs, attrs = tables
        planes = random_hyperplanes(self.D * len(attrs), K=4, L=3, seed=7)
        want = [avg_tuple_matrix(t, attrs, glove840(self.D)) for t in tabs]
        schema = ", ".join(f"{c} string" for c in tabs[0].columns)
        shuffle = spark.conf.get("spark.sql.shuffle.partitions")
        spark.conf.set("spark.sql.shuffle.partitions", str(parts))
        vecs, codes = [], []
        try:
            dfs = [spark.createDataFrame(t, schema).repartition(parts)
                   for t in tabs]
            assert [df.rdd.getNumPartitions() for df in dfs] == [parts] * 2
            for df in dfs:
                vecs.append(avg_tuple_vectors_spark(
                    df, attrs, "glove840", self.D).cache())
                codes.append(add_lsh_codes(vecs[-1], planes).cache())
            got_vecs = [collect_vectors(v) for v in vecs]
            got_codes = [c.toPandas() for c in codes]
            got_cands = {(r["id_a"], r["id_b"])
                         for r in candidate_pairs(*codes).collect()}
        finally:
            spark.conf.set("spark.sql.shuffle.partitions", shuffle)
            for df in vecs + codes:
                df.unpersist()

        for t, w, (ids, mat), c in zip(tabs, want, got_vecs, got_codes):
            np.testing.assert_array_equal(w[:, -self.D:], 0.0)  # NULL attr
            row = {i: k for k, i in enumerate(t["id"])}
            np.testing.assert_allclose(mat, w[[row[i] for i in ids]],
                                       rtol=0, atol=1e-12)
            c = c.assign(r=c["id"].map(row)).sort_values(["r", "l"])
            np.testing.assert_array_equal(
                c["bucket"].to_numpy().reshape(len(t), -1),
                lsh_codes_np(w, planes))
        ids_a, ids_b = (t["id"].to_numpy() for t in tabs)
        want_cands = candidate_pairs_np(*(lsh_codes_np(w, planes)
                                          for w in want))
        assert got_cands == {(ids_a[i], ids_b[j]) for i, j in want_cands}
