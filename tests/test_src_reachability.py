"""Every public top-level function and class in ``src/repro`` has a reader
outside the test suite.

A *reader* is a name or attribute load of the symbol in ``src/`` outside
the symbol's own body, or anywhere in ``benchmarks/``, ``scripts/``,
``examples/`` or ``tests/reference_cache.py`` (the hot-path benchmark
imports that reference).  Imports alone do not count, so an ``__init__``
re-export does not keep a name alive.  A symbol only tests read is either
promoted to a ``CLAIMS`` row, moved into the test that pins it, or deleted.
There is no allowlist.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "repro"
READERS = ("benchmarks", "scripts", "examples")
_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _loads(tree: ast.Module) -> set:
    """Names read in ``tree``; a top-level def's reads of itself don't count."""
    read = set()
    for top in tree.body:
        own = top.name if isinstance(top, _DEFS) else None
        for node in ast.walk(top):
            if isinstance(node, ast.Name):
                name = node.id
            elif isinstance(node, ast.Attribute):
                name = node.attr
            else:
                continue
            if name != own:
                read.add(name)
    return read


def test_every_public_src_symbol_has_a_non_test_reader():
    src_trees = {path: ast.parse(path.read_text()) for path in sorted(SRC.rglob("*.py"))}
    others = [p for d in READERS for p in (ROOT / d).rglob("*.py")]
    others.append(ROOT / "tests" / "reference_cache.py")
    read = set().union(
        *map(_loads, src_trees.values()),
        *(_loads(ast.parse(path.read_text())) for path in others),
    )
    unread = [
        f"{path.relative_to(SRC)}::{top.name}"
        for path, tree in src_trees.items()
        for top in tree.body
        if isinstance(top, _DEFS) and not top.name.startswith("_") and top.name not in read
    ]
    assert not unread, (
        f"{len(unread)} public src/ symbols are read only by tests; give each a "
        "product reader or a CLAIMS row, move it into its test, or delete it:\n  "
        + "\n  ".join(unread)
    )
