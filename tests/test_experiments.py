"""Tests for the table harnesses, the table registry and its job, and
the formatting utilities."""
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.core import DeepERConfig
from repro.experiments import (
    PAPER_T3,
    PAPER_T4,
    PAPER_T5,
    PAPER_T6,
    PAPER_T7,
    T4_ORDER,
    TABLES,
    blocking_sweep_rows,
    format_table,
    multiprobe_rows,
    render,
    table3_rows,
    table4_rows,
    write_result,
)

FAST = DeepERConfig(folds=2, neg_ratio=4, d=32, epochs=8)
ROOT = Path(__file__).resolve().parents[1]


class TestPaperConstants:
    def test_all_six_datasets_covered(self):
        assert set(T4_ORDER) == set(PAPER_T3) == set(PAPER_T4) \
            == set(PAPER_T5) == set(PAPER_T6)
        assert set(PAPER_T7) <= set(PAPER_T3)

    def test_table4_values_match_paper_text(self):
        assert PAPER_T4["prod_ag"][1] == pytest.approx(96.03, abs=0.01)
        assert PAPER_T4["rest_fz"][:2] == (100.0, 100.0)

    def test_table3_scaling_direction(self):
        # our generators never exceed the paper's sizes
        for key, (pa, pb, pm, _) in PAPER_T3.items():
            from repro.er_data import SPECS
            assert SPECS[key]["n_a"] <= pa
            assert SPECS[key]["n_b"] <= pb
            assert SPECS[key]["n_matches"] <= pm


class TestTable3:
    def test_rows_structure(self):
        rows = table3_rows(scale=0.2)
        assert [r["dataset"] for r in rows] == T4_ORDER
        for r in rows:
            assert r["paper_attrs"] == r["ours_attrs"]


class TestBlockingSweeps:
    def test_sweep_rows_cover_grid(self):
        rows = blocking_sweep_rows(scale=0.15)
        assert len(rows) == 2 * 20
        assert all(0.0 <= r["pc"] <= 1.0 for r in rows)
        assert all(0.0 <= r["rr"] <= 1.0 for r in rows)

    def test_sweep_table_equals_committed_result(self):
        """The Figure-10 table, rebuilt in memory, is byte-identical to
        ``results/blocking_sweep.md`` (``benchmarks/bench_blocking.py``)."""
        text = render("blocking_sweep", blocking_sweep_rows())
        assert text == (ROOT / "results" / "blocking_sweep.md").read_text()

    def test_multiprobe_rows_cover_grid(self):
        rows = multiprobe_rows(scale=0.15)
        assert len(rows) == 4 * 3

    def test_multiprobe_table_equals_committed_result(self):
        """The Figure-12 table, rebuilt in memory, is byte-identical to
        ``results/multiprobe.md`` (``benchmarks/bench_blocking.py``)."""
        text = render("multiprobe", multiprobe_rows())
        assert text == (ROOT / "results" / "multiprobe.md").read_text()


class TestTable4:
    def test_table4_equals_committed_result(self):
        """Table 4, rebuilt in memory on the driver path, is byte-identical
        to ``results/table4.md`` (``benchmarks/bench_table4.py`` writes it
        through the Spark DR path)."""
        text = render("table4", table4_rows())
        assert text == (ROOT / "results" / "table4.md").read_text()


class TestFormatting:
    def test_format_table_alignment(self):
        text = format_table([{"a": 1, "bb": "xy"}, {"a": 22, "bb": "z"}],
                            "T")
        lines = text.splitlines()
        assert lines[0] == "## T"
        assert "a" in lines[1] and "bb" in lines[1]
        assert len({len(l) for l in lines[1:4]}) <= 2  # aligned columns

    def test_format_empty(self):
        assert "(no rows)" in format_table([], "T")

    def test_write_result_creates_file(self, tmp_path, monkeypatch):
        p = write_result("unit_test_artifact", "hello\n")
        assert p.exists() and p.read_text() == "hello\n"
        assert p.parent.name == "results"
        p.unlink()


class TestTables:
    @pytest.mark.parametrize("name", list(TABLES))
    def test_committed_result_has_registered_title(self, name):
        text = (ROOT / "results" / f"{name}.md").read_text()
        assert text.splitlines()[0] == f"## {TABLES[name][1]}"

    def test_job_prints_committed_table3(self):
        """``jobs/tables.py table3`` prints ``results/table3.md`` byte for
        byte (Table 3 builds no SparkSession)."""
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]))
        out = subprocess.run(
            [sys.executable, str(ROOT / "jobs" / "tables.py"), "table3"],
            env=env, capture_output=True, text=True, check=True).stdout
        assert out == (ROOT / "results" / "table3.md").read_text()
