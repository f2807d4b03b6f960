"""Every ``argsort`` in ``src/`` and ``jobs/`` is stable.

numpy's default ``argsort`` is an unstable quicksort whose order of equal
keys depends on the kernel the CPU dispatches to, so an unstable ranking
of tied values can differ between machines. This ``ast`` check fails on
an ``argsort`` call, as ``np.argsort(x)`` or ``x.argsort()``, that does
not pass ``kind="stable"``.
"""
import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _unstable_argsorts(source: str) -> list[int]:
    """Lines of the ``argsort`` calls without ``kind="stable"``."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        name = getattr(node.func, "attr", getattr(node.func, "id", None))
        stable = any(k.arg == "kind" and isinstance(k.value, ast.Constant)
                     and k.value.value == "stable" for k in node.keywords)
        if name == "argsort" and not stable:
            lines.append(node.lineno)
    return lines


def test_checker_flags_only_unstable_argsorts():
    source = ("import numpy as np\nfrom numpy import argsort\n"
              "a = np.argsort(x)\nb = x.argsort(kind='quicksort')\n"
              "c = argsort(x, axis=1)\n"
              "d = np.argsort(x, kind='stable')\ne = x.argsort(kind='stable')\n"
              "f = np.lexsort((x, y))\n")
    assert _unstable_argsorts(source) == [3, 4, 5]


def test_every_argsort_is_stable():
    unstable = [f"{path.relative_to(ROOT)}:{line}"
                for top in ("src", "jobs")
                for path in sorted((ROOT / top).rglob("*.py"))
                for line in _unstable_argsorts(path.read_text())]
    assert not unstable, "argsort without kind=\"stable\":\n" + \
        "\n".join(unstable)
