"""Every parameter of a function in ``csti`` is read.

A static scan: it walks the syntax tree of every Python file under
``src/csti/`` and lists each ``def`` parameter that no expression in the
function's body (nested functions and lambdas included) loads. ``self``,
``cls`` and names that start with ``_`` are exempt, and so are the kind
hooks, whose signature ``ForecastModel`` fixes for every kind.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
KIND_HOOKS = {"segments", "default_hyper", "_buffers", "_bind", "bind_rows"}


def unread_parameters(tree):
    """(line, function, parameter) for each parameter its function's body never reads."""
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) or (
                node.name in KIND_HOOKS):
            continue
        args = node.args
        params = [*args.posonlyargs, *args.args, *filter(None, [args.vararg]),
                  *args.kwonlyargs, *filter(None, [args.kwarg])]
        read = {"self", "cls"}
        for statement in node.body:
            for n in ast.walk(statement):
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
                    read.add(n.id)
                elif isinstance(n, ast.AugAssign) and isinstance(n.target, ast.Name):
                    read.add(n.target.id)  # ``x += 1`` reads x too
        for param in params:
            if param.arg not in read and not param.arg.startswith("_"):
                yield node.lineno, node.name, param.arg


def test_the_scan_finds_every_unread_parameter():
    source = "\n".join([
        "def f(a, b, *c, d, **e):", "    return a",
        "def g(x, y=1):", "    def h():", "        return x", "    y = 2", "    return h",
        "class K:", "    def m(self, _spare, v):", "        return lambda: v",
        "    @classmethod", "    def segments(cls, lookback):", "        raise NotImplementedError",
        "    def n(cls, w):", "        return f'{w}'",
        "def step(theta, eta):", "    theta -= eta",
    ])
    assert list(unread_parameters(ast.parse(source))) == [
        (1, "f", "b"), (1, "f", "c"), (1, "f", "d"), (1, "f", "e"), (3, "g", "y")]


def test_every_parameter_in_src_is_read():
    problems = [f"{path.relative_to(ROOT)}:{line}: {function}({param})"
                for path in sorted((ROOT / "src" / "csti").rglob("*.py"))
                for line, function, param in unread_parameters(
                    ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))]
    assert not problems, "parameters their function never reads:\n" + "\n".join(problems)
