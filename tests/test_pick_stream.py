"""The generators' scalar draws rest on one numpy stream identity.

``repro.er_data`` draws one element of a list with ``_pick(rng, seq)``,
``seq[rng.integers(0, len(seq))]``, which consumes the same PCG64 stream
as ``rng.choice(seq)``. Every generated dataset depends on that identity,
so it is pinned here over interleaved draws of every kind the generators
make: a numpy release that changes either call then fails this test
instead of silently changing the data. A second, ``ast`` check keeps
every size-less ``choice`` call out of ``src/repro/er_data/``.
"""
import ast
from pathlib import Path

import numpy as np
import pytest

from repro.embeddings import lexicon as lx
from repro.er_data.entities import _pick

ROOT = Path(__file__).resolve().parents[1]

_SEQS = [
    ["only"],
    [0, 1],
    ["a", "b", "x"],
    lx.CITIES,
    [5, 12, 110, 220],
    [f"w{i}" for i in range((1 << 16) + 3)],
    list(range((1 << 16) + 3)),
]


def _draw(op: int, rng: np.random.Generator):
    """One non-``choice`` draw of the kinds the generators interleave."""
    if op == 0:
        return rng.random()
    if op == 1:
        return int(rng.integers(1, 4))
    if op == 2:
        return int(rng.integers(100_000_000, 999_999_999))
    if op == 3:
        return rng.permutation(9).tolist()
    return rng.choice(123, size=5, replace=False).tolist()


@pytest.mark.parametrize("seed", range(40))
def test_pick_consumes_the_stream_of_scalar_choice(seed):
    ours, numpys = np.random.default_rng(seed), np.random.default_rng(seed)
    schedule = np.random.default_rng(10_000 + seed)
    for _ in range(300):
        op = int(schedule.integers(0, 5 + len(_SEQS)))
        if op < 5:
            assert _draw(op, ours) == _draw(op, numpys)
            continue
        seq = _SEQS[op - 5]
        if len(seq) > 1000 and schedule.random() < 0.9:
            continue  # choice converts the whole list: keep these few
        picked = _pick(ours, seq)
        assert type(picked) is type(seq[0])
        assert picked == numpys.choice(seq)
    assert ours.bit_generator.state == numpys.bit_generator.state


def _sizeless_choices(source: str) -> list[int]:
    """Lines of the ``choice`` calls that pass no ``size=``."""
    return [node.lineno for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Call)
            and getattr(node.func, "attr", getattr(node.func, "id", None))
            == "choice"
            and not any(k.arg == "size" for k in node.keywords)]


def test_checker_flags_only_sizeless_choices():
    source = ("a = rng.choice(xs)\nb = rng.choice(xs, replace=False)\n"
              "c = choice(xs)\nd = rng.choice(xs, size=2)\n"
              "e = rng.choice(9, size=3, replace=False)\nf = _pick(rng, xs)\n")
    assert _sizeless_choices(source) == [1, 2, 3]


def test_er_data_draws_single_elements_only_through_pick():
    found = [f"{path.relative_to(ROOT)}:{line}"
             for path in sorted((ROOT / "src/repro/er_data").rglob("*.py"))
             for line in _sizeless_choices(path.read_text())]
    assert not found, "choice( without size=, use _pick:\n" + "\n".join(found)
