"""Every public function and class of ``csti`` is named by the package or the benchmark.

A static scan: it lists each ``def`` and ``class`` under ``src/csti/`` but
``__init__.py`` whose name does not start with ``_``, and each name that
the package or ``bench/`` mentions, as an AST ``Name`` or as the attribute
of an ``Attribute``. In ``bench/`` a string constant counts too, because its
patch tables name their targets as strings. A public name that neither
mentions serves only the tests, and its reference belongs in ``tests/``.

The check goes by name alone, not by what a name is bound to: it cannot
see an unused method whose name is also a variable's or another
attribute's name somewhere (a ``loss`` method beside a ``loss`` variable).
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def definitions(tree):
    """(line, name) of each public function or class that the module defines, nested ones too."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) and (
                not node.name.startswith("_")):
            yield node.lineno, node.name


def mentioned(tree, strings=False):
    """Every name the tree mentions as a ``Name`` or an attribute, and its strings if asked."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield node.value


def _trees(directory):
    for path in sorted(directory.rglob("*.py")):
        yield path, ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def test_the_scan_sees_names_attributes_and_only_the_benchmarks_strings():
    package = ast.parse("\n".join([
        "def used(): pass", "def called_as_attribute(): pass", "def unused(): pass",
        "def _private(): pass", "class Patched:", "    def method(self): pass",
        "x = used()", "y = module.called_as_attribute", "z = 'unused'",
    ]))
    bench = ast.parse("PATCHES = [(module, 'Patched'), (module.Patched, 'method')]")
    names = {*mentioned(package), *mentioned(bench, strings=True)}
    assert list(definitions(package)) == [
        (1, "used"), (2, "called_as_attribute"), (3, "unused"), (5, "Patched"), (6, "method")]
    assert [name for _, name in definitions(package) if name not in names] == ["unused"]


def test_every_public_name_in_src_is_named_by_src_or_the_benchmark():
    trees = list(_trees(ROOT / "src" / "csti"))
    names = {name for _, tree in trees for name in mentioned(tree)}
    names.update(name for _, tree in _trees(ROOT / "bench") for name in mentioned(tree, True))
    problems = [f"{path.relative_to(ROOT)}:{line} {name}"
                for path, tree in trees if path.name != "__init__.py"
                for line, name in definitions(tree) if name not in names]
    assert not problems, "public names only the tests use:\n" + "\n".join(problems)
