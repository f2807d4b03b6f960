"""Tests for the table harnesses, the table registry (rows function,
title and shape check per ``results/<name>.md``), the one job that checks
and writes the artifacts, and the formatting utilities. No test writes
under ``results/``: a test that writes redirects
``experiments.RESULTS_DIR``."""
import importlib.util
from pathlib import Path

import pytest

from repro import experiments
from repro.core import DeepERConfig, deeper
from repro.experiments import (
    PAPER_T3,
    PAPER_T4,
    PAPER_T5,
    PAPER_T6,
    PAPER_T7,
    T4_ORDER,
    TABLES,
    bio_rows,
    blocking_spark_rows,
    blocking_sweep_rows,
    format_table,
    multiprobe_rows,
    render,
    table3_rows,
    table4_rows,
    table5_rows,
    table6_rows,
    table7_rows,
    write_result,
)

FAST = DeepERConfig(folds=2, neg_ratio=4, d=32, epochs=8)
ROOT = Path(__file__).resolve().parents[1]


def _committed(name: str) -> str:
    return (ROOT / "results" / f"{name}.md").read_text()


def _check(name: str, rows: list[dict]) -> None:
    TABLES[name][2](rows)


@pytest.fixture
def results_dir(tmp_path, monkeypatch):
    monkeypatch.setattr(experiments, "RESULTS_DIR", tmp_path / "results")
    return tmp_path / "results"


def _job():
    spec = importlib.util.spec_from_file_location(
        "tables_job", ROOT / "jobs" / "tables.py")
    job = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(job)
    return job


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
        """The Figure-10 table, rebuilt in memory, passes its shape check
        and is byte-identical to ``results/blocking_sweep.md``."""
        rows = blocking_sweep_rows()
        _check("blocking_sweep", rows)
        assert render("blocking_sweep", rows) == _committed("blocking_sweep")

    def test_multiprobe_rows_cover_grid(self):
        rows = multiprobe_rows(scale=0.15)
        assert len(rows) == 4 * 3

    def test_multiprobe_table_equals_committed_result(self):
        """The Figure-12 table, rebuilt in memory, passes its shape check
        and is byte-identical to ``results/multiprobe.md``."""
        rows = multiprobe_rows()
        _check("multiprobe", rows)
        assert render("multiprobe", rows) == _committed("multiprobe")

    def test_spark_blocking_table_equals_committed_result(self, spark):
        """The distributed Spark blocking table, rebuilt in memory, passes
        its shape check and is byte-identical to
        ``results/blocking_spark.md``."""
        rows = blocking_spark_rows(spark)
        _check("blocking_spark", rows)
        assert render("blocking_spark", rows) == _committed("blocking_spark")


def _record_sample_pairs(monkeypatch) -> list:
    """The ``(pairs, y, threshold)`` of every ``deeper.sample_pairs`` call
    made after this, in call order."""
    sampled = []
    sample = deeper.sample_pairs

    def recording(*args, **kwargs):
        sampled.append(sample(*args, **kwargs))
        return sampled[-1]

    monkeypatch.setattr(deeper, "sample_pairs", recording)
    return sampled


class TestTable4:
    def test_table4_equals_committed_result(self):
        """Table 4, rebuilt in memory, passes its shape check and is
        byte-identical to ``results/table4.md``."""
        rows = table4_rows()
        _check("table4", rows)
        assert render("table4", rows) == _committed("table4")

    def test_one_pair_set_per_dataset(self, monkeypatch):
        """DeepER and Magellan-lite share each dataset's labeled pair set:
        it is sampled once per dataset, not once per system."""
        sampled = _record_sample_pairs(monkeypatch)
        rows = table4_rows(scale=0.2, cfg=FAST)
        assert [r["dataset"] for r in rows] == T4_ORDER
        assert len(sampled) == len(T4_ORDER)


class TestTable5:
    def test_table5_equals_committed_result(self):
        """Table 5 (glove840 against the low-coverage glove_wiki, both with
        retrofitting), rebuilt in memory, passes its shape check and is
        byte-identical to ``results/table5.md``."""
        rows = table5_rows()
        _check("table5", rows)
        assert render("table5", rows) == _committed("table5")


class TestTable6:
    def test_table6_equals_committed_result(self):
        """Table 6 (glove840, word2vec and fasttext, with retrofitting),
        rebuilt in memory, passes its shape check and is byte-identical to
        ``results/table6.md``."""
        rows = table6_rows()
        _check("table6", rows)
        assert render("table6", rows) == _committed("table6")


class TestTable7:
    def test_table7_equals_committed_result(self):
        """Table 7 (the Spanish dictionary on translated datasets), rebuilt
        in memory, passes its shape check and is byte-identical to
        ``results/table7.md``."""
        rows = table7_rows()
        _check("table7", rows)
        assert render("table7", rows) == _committed("table7")


class TestBio:
    def test_bio_equals_committed_result(self):
        """The §5.2 nucleotide table (bio dictionary, ``load_bio``'s
        constants), rebuilt in memory, passes its shape check and is
        byte-identical to ``results/bio.md``."""
        rows = bio_rows()
        _check("bio", rows)
        assert render("bio", rows) == _committed("bio")

    def test_deeper_and_magellan_get_one_pair_set(self, monkeypatch):
        """Both §5.2 systems are scored on the same labeled pairs: one
        dictionary ranks the negatives, once, for both."""
        sampled = _record_sample_pairs(monkeypatch)
        bio_rows()
        assert len(sampled) == 1


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

    def test_write_result_creates_file(self, results_dir):
        p = write_result("unit_test_artifact", "hello\n")
        assert p == results_dir / "unit_test_artifact.md"
        assert p.read_text() == "hello\n"


class TestTables:
    @pytest.mark.parametrize("name", list(TABLES))
    def test_committed_result_has_registered_title(self, name):
        assert _committed(name).splitlines()[0] == f"## {TABLES[name][1]}"

    def test_job_prints_committed_table3(self, results_dir, capsys):
        """``jobs/tables.py table3`` writes and prints ``results/table3.md``
        byte for byte (Table 3 builds no SparkSession)."""
        _job().main(["table3"])
        assert (results_dir / "table3.md").read_text() == _committed("table3")
        assert capsys.readouterr().out == _committed("table3")

    def test_failing_check_raises_and_writes_nothing(self, results_dir,
                                                     monkeypatch):
        _, title, check = TABLES["table3"]
        monkeypatch.setitem(TABLES, "table3",
                            (lambda: [{"dataset": "prod_ag"}], title, check))
        with pytest.raises(AssertionError, match="6 datasets, got 1"):
            _job().main(["table3"])
        assert not (results_dir / "table3.md").exists()

    def test_job_rejects_unknown_name(self, results_dir):
        with pytest.raises(SystemExit):
            _job().main(["table3", "table99"])
        assert not results_dir.exists()
