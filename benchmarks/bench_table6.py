"""Benchmark + artifact for Table 6 (embedding model family impact)."""
from repro.experiments import render, table6_rows, write_result


def test_table6(benchmark):
    rows = benchmark.pedantic(table6_rows, rounds=1, iterations=1)
    text = render("table6", rows)
    print("\n" + text)
    write_result("table6", text)
    # shape: only minor variation between model families (paper: <2.8 max)
    for row in rows:
        vals = [row["ours_glove"], row["ours_word2vec"], row["ours_fasttext"]]
        assert max(vals) - min(vals) < 6.0
