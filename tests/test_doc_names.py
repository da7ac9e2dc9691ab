"""Every backticked ``module.name`` of an ``sgdd`` module that README.md or
a docstring of ``src/sgdd`` names resolves to a live name of that module; a
trailing ``*`` is a prefix, as in ``fileio.read_*``."""

import ast
import importlib
import pkgutil
import re
from pathlib import Path

import sgdd

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted(info.name for info in pkgutil.iter_modules(sgdd.__path__))
NAME = re.compile(rf"`+(?:sgdd\.)?({'|'.join(MODULES)})\.(\w+(?:\.\w+)*)(\*?)")


def _texts():
    """(where, text) of README.md and of every module, class and function
    docstring of ``src/sgdd``."""
    yield "README.md", (ROOT / "README.md").read_text()
    for path in sorted((ROOT / "src" / "sgdd").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                if doc := ast.get_docstring(node, clean=False):
                    yield f"{path.name}:{getattr(node, 'name', '')}", doc


def _resolves(module: str, dotted: str, prefix: str) -> bool:
    """Whether ``module.dotted`` is a live name, or with ``prefix`` "*" the
    prefix of one."""
    obj = importlib.import_module(f"sgdd.{module}")
    *head, last = dotted.split(".")
    for part in head:
        if not hasattr(obj, part):
            return False
        obj = getattr(obj, part)
    return any(name.startswith(last) for name in dir(obj)) if prefix else hasattr(obj, last)


def test_every_backticked_module_name_resolves():
    named = [(where, *found) for where, text in _texts() for found in NAME.findall(text)]
    assert len(named) > 20
    stale = [(where, f"{module}.{dotted}{star}") for where, module, dotted, star in named if not _resolves(module, dotted, star)]
    assert not stale


def test_the_gate_reads_names_prefixes_and_calls():
    text = "`designs.orbit_rows(m, n, mask)`, ``fileio.read_*``, `sgdd.designs.Certificate.ok`, `designs.gone`, `np.take`"
    found = NAME.findall(text)
    assert found == [("designs", "orbit_rows", ""), ("fileio", "read_", "*"), ("designs", "Certificate.ok", ""), ("designs", "gone", "")]
    assert [_resolves(*f) for f in found] == [True, True, True, False]
    assert not _resolves("fileio", "no_such_", "*")
