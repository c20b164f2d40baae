"""Only ``numerics`` tests a value's type against bool or numpy's scalar types.

A static scan: it walks the syntax tree of every Python file under
``src/csti/`` but ``numerics.py`` and lists each ``isinstance`` or
``issubclass`` call, and each comparison of a ``type(...)`` call, whose
types name ``bool``, ``integer`` or ``floating`` (``np.integer`` under any
module alias). Such a test spells "an integer that is not a boolean" or "a
finite real" again, which the rule vocabulary of ``numerics`` states once.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SCALAR_TYPES = {"bool", "integer", "floating"}


def _type_names(node):
    """The names a type expression mentions: ``bool``, ``np.integer`` as ``integer``, and
    those of each entry of a tuple."""
    if isinstance(node, ast.Tuple):
        for entry in node.elts:
            yield from _type_names(entry)
    elif isinstance(node, ast.Name):
        yield node.id
    elif isinstance(node, ast.Attribute):
        yield node.attr


def _is_type_call(node):
    return isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and (
        node.func.id == "type")


def scalar_type_tests(tree):
    """(line, sorted scalar type names) for each type test against bool or a numpy scalar."""
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id in ("isinstance", "issubclass") and len(node.args) == 2):
            types = [node.args[1]]
        elif isinstance(node, ast.Compare) and any(
                map(_is_type_call, [node.left, *node.comparators])):
            types = [node.left, *node.comparators]
        else:
            continue
        found = SCALAR_TYPES.intersection(name for t in types for name in _type_names(t))
        if found:
            yield node.lineno, sorted(found)


def test_the_scan_finds_every_scalar_type_test():
    source = "\n".join([
        "isinstance(v, bool)",
        "isinstance(v, (int, np.integer))",
        "type(v) is not bool and isinstance(v, numpy.floating)",
        "type(v) in (bool, float)",
        "issubclass(t, np.integer)",
        "isinstance(v, (list, tuple)) and isinstance(v, np.ndarray)",  # not scalar types
        "type(v) is int",
        "np.zeros(3, dtype=bool)",  # a dtype, not a test
        "{bool: 'a boolean'}.get(type(v))",
    ])
    assert sorted(scalar_type_tests(ast.parse(source))) == [
        (1, ["bool"]), (2, ["integer"]), (3, ["bool"]), (3, ["floating"]), (4, ["bool"]),
        (5, ["integer"])]


def test_only_numerics_tests_a_value_against_a_scalar_type():
    problems = [f"{path.relative_to(ROOT)}:{line}: {', '.join(names)}"
                for path in sorted((ROOT / "src" / "csti").rglob("*.py"))
                if path.name != "numerics.py"
                for line, names in scalar_type_tests(
                    ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))]
    assert not problems, ("type tests that restate a rule of numerics' vocabulary:\n"
                          + "\n".join(problems))
