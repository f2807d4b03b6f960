"""Benchmark + artifact for the §5.2 nucleotide-dedup experiment."""
from repro.experiments import bio_rows, render, write_result


def test_bio(benchmark):
    rows = benchmark.pedantic(bio_rows, rounds=1, iterations=1)
    text = render("bio", rows)
    print("\n" + text)
    write_result("bio", text)
    # shape: DeepER with a domain dictionary beats the hand-crafted baseline
    assert rows[0]["ours_deeper"] > rows[0]["ours_handcrafted_ml"] - 1.0
