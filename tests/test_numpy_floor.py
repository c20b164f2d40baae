"""The code runs on the oldest numpy ``pyproject.toml`` allows (1.24).

A static scan stands in for a run on that numpy: it walks the syntax tree
of every Python file under ``src/``, ``tests/`` and ``bench/`` for names
that numpy 2 added, and for ``asarray``'s ``copy`` keyword, which numpy 2
added too. Reading the tree, not the text, leaves strings and comments
(this file's own included) out.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
NUMPY_2_ONLY = {"vecdot", "unstack", "strings", "bitwise_count", "concat", "pow", "permute_dims"}
NUMPY_ALIASES = {"np", "numpy"}


def numpy_2_uses(tree):
    """(line, what) for each numpy-2-only name or ``asarray(..., copy=)`` in ``tree``."""
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and node.attr in NUMPY_2_ONLY
                and isinstance(node.value, ast.Name) and node.value.id in NUMPY_ALIASES):
            yield node.lineno, f"{node.value.id}.{node.attr}"
        elif isinstance(node, ast.ImportFrom) and node.module == "numpy":
            for alias in node.names:
                if alias.name in NUMPY_2_ONLY:
                    yield node.lineno, f"from numpy import {alias.name}"
        elif isinstance(node, ast.Call) and any(kw.arg == "copy" for kw in node.keywords):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if name == "asarray":
                yield node.lineno, "asarray(..., copy=)"


def test_the_scan_finds_every_numpy_2_only_form():
    source = "\n".join([*(f"np.{name}" for name in sorted(NUMPY_2_ONLY)),
                        "numpy.concat([a, b])", "from numpy import vecdot",
                        "np.asarray(x, copy=False)", "asarray(f(x), dtype=float, copy=None)",
                        "np.asarray(x)", "np.concatenate([a])", "np.power(a, 2)", "x.copy()"])
    lines = sorted(line for line, _ in numpy_2_uses(ast.parse(source)))
    assert lines == list(range(1, len(NUMPY_2_ONLY) + 5))


@pytest.mark.parametrize("directory", ["src", "tests", "bench"])
def test_no_file_uses_a_name_numpy_1_24_lacks(directory):
    problems = [f"{path.relative_to(ROOT)}:{line}: {what}"
                for path in sorted((ROOT / directory).rglob("*.py"))
                for line, what in numpy_2_uses(ast.parse(path.read_text(encoding="utf-8"),
                                                         filename=str(path)))]
    assert not problems, "numpy 2 only, but pyproject.toml allows numpy 1.24:\n" + "\n".join(
        problems)
