"""Benchmark + artifact for Table 3 (dataset statistics / generation)."""
from repro.experiments import render, table3_rows, write_result


def test_table3(benchmark):
    rows = benchmark.pedantic(table3_rows, kwargs={"scale": 1.0},
                              rounds=1, iterations=1)
    text = render("table3", rows)
    print("\n" + text)
    write_result("table3", text)
    assert len(rows) == 6
