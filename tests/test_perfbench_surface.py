"""The library surface the benchmark harness reads stays in place.

The harness's own self-test (``perfbench/test_perfbench.py``) takes over a
minute, so these sub-second checks guard the names it imports, the config
attributes it reads and the methods ``traced_library`` wraps: importing
its ``pipeline`` module fails if a name it imports is gone, every
``cfg.<name>`` it reads must exist on the config it builds, and leaving
``traced_library`` must restore every attribute it patched.
"""
import re
import sys
from dataclasses import replace
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture(scope="module")
def perfbench():
    sys.path.insert(0, str(PERFBENCH))
    try:
        import pipeline
        import spans
        yield pipeline, spans
    finally:
        sys.path.remove(str(PERFBENCH))
        for name in ("pipeline", "spans"):
            sys.modules.pop(name, None)


def test_traced_library_restores_every_patched_attribute(perfbench):
    import repro.baselines.magellan_lite as magellan_lite
    import repro.core.compose as compose
    import repro.core.deeper as deeper
    import repro.core.model as model

    pipeline, spans = perfbench
    patched = [
        (compose, "avg_tuple_matrix"), (deeper, "sample_pairs"),
        (deeper, "per_attribute_cosine"), (deeper, "featurize_pairs"),
        (model.AvgDeepER, "fit"), (model.AvgDeepER, "predict_proba"),
        (magellan_lite.MagellanLite, "fit"),
        (magellan_lite.MagellanLite, "predict"),
    ]
    before = [getattr(obj, attr) for obj, attr in patched]
    with pipeline.traced_library(spans.Tracer()):
        inside = [getattr(obj, attr) for obj, attr in patched]
    after = [getattr(obj, attr) for obj, attr in patched]
    assert all(a is not b for a, b in zip(inside, before))
    assert all(a is b for a, b in zip(after, before))


def test_every_config_attribute_the_harness_reads_exists():
    """The harness runs ``replace(BASE_CFG, seed=...)``: a config field it
    reads that is renamed or removed fails here, not only at bench time."""
    from repro.experiments import BASE_CFG

    cfg = replace(BASE_CFG, seed=3)
    read = {name for path in PERFBENCH.glob("*.py")
            for name in re.findall(r"cfg\.(\w+)", path.read_text())}
    assert "seed" in read  # the scan sees the harness's reads
    assert [name for name in sorted(read) if not hasattr(cfg, name)] == []
