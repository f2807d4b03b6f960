"""Benchmark + artifacts for LSH blocking: the distributed Spark blocking
pass, the Figure-10-shaped K/L sweep, and the Figure-12-shaped multi-probe
sweep."""
from repro.blocking import (
    add_lsh_codes,
    candidate_pairs,
    pair_completeness,
    random_hyperplanes,
    reduction_ratio,
)
from repro.core.compose import avg_tuple_vectors_spark
from repro.er_data import load, to_spark
from repro.experiments import (
    blocking_sweep_rows,
    multiprobe_rows,
    render,
    write_result,
)


def test_spark_lsh_blocking(benchmark, spark):
    """End-to-end distributed blocking pass on Prod-AG.

    K=5, L=6 calibrated for our scaled DRs (matched-pair cosine ~0.75 →
    per-bit collision ~0.77 → PC ~ 1-(1-0.77^5)^6 ~ 0.85). The paper's
    §4.5 example (K=12, L=2 from Equation 1 with P1=0.95) assumes a far
    higher per-bit collision than d=64 synthetic embeddings deliver."""
    ds = load("prod_ag", scale=1.0)
    df_a, df_b = to_spark(spark, ds)
    d = 64
    va = avg_tuple_vectors_spark(df_a, ds.attributes, "glove840", d).cache()
    vb = avg_tuple_vectors_spark(df_b, ds.attributes, "glove840", d).cache()
    va.count(), vb.count()
    planes = random_hyperplanes(len(ds.attributes) * d, K=5, L=6, seed=0)

    def block():
        return {(r["id_a"], r["id_b"])
                for r in candidate_pairs(add_lsh_codes(va, planes),
                                         add_lsh_codes(vb, planes)).collect()}

    cands = benchmark.pedantic(block, rounds=1, iterations=1)
    pc = pair_completeness(cands, ds.matches)
    rr = reduction_ratio(len(cands), ds.n_a, ds.n_b)
    text = (f"## Spark LSH blocking, Prod-AG, K=5 L=6\n"
            f"pair completeness: {pc:.3f}\nreduction ratio: {rr:.4f}\n"
            f"candidates: {len(cands)} of {ds.n_a * ds.n_b}\n")
    print("\n" + text)
    write_result("blocking_spark", text)
    assert pc > 0.7
    assert rr < 0.45


def test_blocking_kl_sweep(benchmark):
    rows = benchmark.pedantic(blocking_sweep_rows, rounds=1, iterations=1)
    text = render("blocking_sweep", rows)
    print("\n" + text)
    write_result("blocking_sweep", text)
    by = {(r["dataset"], r["sweep"], r["value"]): r for r in rows}
    # Figure 10 shapes: PC falls with K, rises with L; RR falls with K,
    # rises with L
    for ds in ("prod_ag", "pub_ds"):
        assert by[(ds, "K (L=10)", 1)]["pc"] >= by[(ds, "K (L=10)", 10)]["pc"]
        assert by[(ds, "K (L=10)", 1)]["rr"] > by[(ds, "K (L=10)", 10)]["rr"]
        assert by[(ds, "L (K=4)", 10)]["pc"] >= by[(ds, "L (K=4)", 1)]["pc"]
        assert by[(ds, "L (K=4)", 10)]["rr"] > by[(ds, "L (K=4)", 1)]["rr"]


def test_multiprobe_sweep(benchmark):
    rows = benchmark.pedantic(multiprobe_rows, rounds=1, iterations=1)
    text = render("multiprobe", rows)
    print("\n" + text)
    write_result("multiprobe", text)
    # Figure 12 shape: more probes -> higher recall at fixed top-N
    by = {(r["top_n"], r["probes"]): r["recall"] for r in rows}
    for top_n in (10, 20, 30, 50):
        assert by[(top_n, 2)] >= by[(top_n, 0)]
    # top-N bounds classifier invocations: fewer kept pairs at smaller N
    kept = {(r["top_n"], r["probes"]): r["candidates"] for r in rows}
    for probes in (0, 1, 2):
        assert kept[(10, probes)] <= kept[(50, probes)]
