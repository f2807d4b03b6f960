"""Benchmark + artifact for Table 4 (DeepER vs Magellan, all datasets).

Tuple-DR computation runs through the distributed Spark path."""
from repro.experiments import render, table4_rows, write_result


def test_table4(benchmark, spark):
    rows = benchmark.pedantic(table4_rows,
                              kwargs={"scale": 1.0, "spark": spark},
                              rounds=1, iterations=1)
    text = render("table4", rows)
    print("\n" + text)
    write_result("table4", text)
    # shape assertions: the paper's headline orderings
    r = {row["dataset"]: row for row in rows}
    assert r["prod_ag"]["ours_deeper"] > r["prod_ag"]["ours_magellan"]
    assert r["rest_fz"]["ours_deeper"] >= 99.0
    for key in ("pub_da", "pub_ds", "pub_dc"):
        assert r[key]["ours_deeper"] > 95.0
