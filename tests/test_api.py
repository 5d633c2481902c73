"""Every public name has a use outside the tests, and every other name has one in the code.

A name in ``templatefit.__all__`` must appear in the package's own code
(other than its definition, ``__init__.py`` and the ``__all__`` lists), in
the benchmark harness under ``perfbench/`` (its tests excluded) or in
README.md.  Every other function, class and method the package defines,
dunders aside, must appear in the package's code or in that harness code;
README mentions do not count for them.  A function only the tests call is
a second copy of what the fits compute, and the tests should check the
code the fits run instead.
"""

import ast
import io
import re
import tokenize
from pathlib import Path

import templatefit as tf

ROOT = Path(__file__).resolve().parents[1]


def _code_names(path: Path) -> set[str]:
    """Identifiers used in a module's code: no strings, no comments, no def/class names."""
    names = set()
    previous = None
    for tok in tokenize.generate_tokens(io.StringIO(path.read_text()).readline):
        if tok.type == tokenize.NAME and previous not in ("def", "class"):
            names.add(tok.string)
        if tok.type not in (tokenize.NL, tokenize.NEWLINE, tokenize.COMMENT):
            previous = tok.string
    return names


PACKAGE = sorted((ROOT / "src" / "templatefit").glob("*.py"))


def _code_uses() -> set[str]:
    used = set()
    for path in PACKAGE:
        if path.name != "__init__.py":
            used |= _code_names(path)
    bench = ROOT / "perfbench"
    for path in bench.rglob("*.py"):
        if bench / "tests" not in path.parents:
            used |= _code_names(path)
    return used


def test_every_public_name_has_a_use_outside_the_tests():
    public = [name for name in tf.__all__ if name != "__version__"]
    used = _code_uses() | set(re.findall(r"\w+", (ROOT / "README.md").read_text()))
    unused = sorted(set(public) - used)
    assert not unused, f"public names that only tests use: {unused}"


def test_every_private_name_has_a_use_in_the_code():
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    defined = {
        node.name
        for path in PACKAGE
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, kinds)
    }
    private = {n for n in defined - set(tf.__all__) if not (n.startswith("__") and n.endswith("__"))}
    unused = sorted(private - _code_uses())
    assert not unused, f"functions, classes and methods that only tests use: {unused}"

