"""Benchmark + artifact for Table 5 (embedding dictionary impact)."""
from repro.experiments import render, table5_rows, write_result


def test_table5(benchmark):
    rows = benchmark.pedantic(table5_rows, rounds=1, iterations=1)
    text = render("table5", rows)
    print("\n" + text)
    write_result("table5", text)
    # shape: the small dictionary is strictly worse on every dataset where
    # the paper reports a drop (everywhere except ties at the top)
    drops = [row["ours_glove"] - row["ours_glove_wiki"] for row in rows]
    assert all(d >= -0.5 for d in drops)
    assert max(d for d in drops) > 3.0  # at least one steep drop
