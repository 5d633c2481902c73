"""Every name the package defines has a use in the code, and README shows only public names.

A name in ``templatefit.__all__`` must appear in the package's own code
(other than its definition, ``__init__.py`` and the ``__all__`` lists) or
in the benchmark harness under ``perfbench/`` (its tests excluded); so
must every other function, class and method the package defines, dunders
aside.  README mentions do not count.  A function only the tests and the
examples call is a second copy of what the fits compute, and the tests
should check the code the fits run instead.  Every ``tf.<name>`` in
README's python examples must be in ``templatefit.__all__``, so an
example cannot show a retired name.
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
    unused = sorted(set(public) - _code_uses())
    assert not unused, f"public names that no program code uses: {unused}"


def test_readme_examples_use_public_names():
    blocks = re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(), re.S)
    assert blocks
    shown = {name for block in blocks for name in re.findall(r"\btf\.(\w+)", block)}
    assert shown
    missing = sorted(shown - set(tf.__all__))
    assert not missing, f"README examples show names outside templatefit.__all__: {missing}"


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

