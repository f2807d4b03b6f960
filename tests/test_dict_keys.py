"""No dict literal in ``src/`` or ``jobs/`` repeats a constant key.

Python keeps the last value of a repeated key without a warning, so every
earlier entry under that key is dead. This ``ast`` check fails on a dict
display that holds one constant key twice.
"""
import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _repeated_keys(source: str) -> list[int]:
    """Lines of the constant keys that an earlier key of the same dict
    literal already holds."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Dict):
            continue
        seen = set()
        for key in node.keys:  # None for a ``**mapping`` entry
            if isinstance(key, ast.Constant):
                if key.value in seen:
                    lines.append(key.lineno)
                seen.add(key.value)
    return sorted(lines)


def test_checker_flags_only_repeated_constant_keys():
    source = ('a = {"x": 1, "y": 2,\n     "x": 3}\n'
              'b = {"x": 1, **c, "y": 2}\n'
              'c = {k: 0, k: 1, "k": 2}\n'
              'd = {"o": {"x": 1}, "i": {"x": 2, "x": 3}}\n'
              'e = {1: 0, True: 1}\n')
    assert _repeated_keys(source) == [2, 5, 6]


def test_no_dict_literal_repeats_a_key():
    repeated = [f"{path.relative_to(ROOT)}:{line}"
                for top in ("src", "jobs")
                for path in sorted((ROOT / top).rglob("*.py"))
                for line in _repeated_keys(path.read_text())]
    assert not repeated, "repeated dict key:\n" + "\n".join(repeated)
