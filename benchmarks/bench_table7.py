"""Benchmark + artifact for Table 7 (multilingual ER)."""
from repro.experiments import render, table7_rows, write_result


def test_table7(benchmark):
    rows = benchmark.pedantic(table7_rows, rounds=1, iterations=1)
    text = render("table7", rows)
    print("\n" + text)
    write_result("table7", text)
    # shape: Spanish close to but not above English + noise margin
    for row in rows:
        assert row["ours_spanish"] <= row["ours_english"] + 1.0
        assert row["ours_spanish"] > 80.0  # still works cross-lingually
