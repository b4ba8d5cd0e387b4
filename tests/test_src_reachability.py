"""Product code reaches every public name and every serving option.

Every public top-level function and class in ``src/repro`` has a reader
outside the test suite.  A *reader* is a name load of the symbol, or an
attribute load ``x.symbol`` where ``x`` is a name the file binds by
``import`` / ``from ... import``, in ``src/`` outside the symbol's own
body, or anywhere in ``benchmarks/``, ``scripts/``, ``examples/`` or
``tests/reference_cache.py`` (the hot-path benchmark imports that
reference).  Attribute loads on any other object do not count: a method
or property of the same name is not a reader of a module-level function.
Imports alone do not count either, so an ``__init__`` re-export does not
keep a name alive.  A symbol only tests read is either promoted to a
``CLAIMS`` row, moved into the test that pins it, or deleted.

Every field of the serving records is set by product code.  An option
only tests set to a second value is a constant in disguise.

There is no allowlist for either rule.
"""

import ast
import dataclasses
from pathlib import Path

from repro.faults.plan import FaultSpec
from repro.model.memory import CacheFormat
from repro.serving.engine import EngineConfig
from repro.serving.request import DeadlinePolicy

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "repro"
READERS = ("benchmarks", "scripts", "examples")
_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _imported(tree: ast.Module) -> set:
    """Names ``tree`` binds by ``import`` or ``from ... import``."""
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound.add(alias.asname or alias.name.partition(".")[0])
    return bound


def _loads(tree: ast.Module) -> set:
    """Names read in ``tree``; a top-level def's reads of itself don't count."""
    modules = _imported(tree)
    read = set()
    for top in tree.body:
        own = top.name if isinstance(top, _DEFS) else None
        for node in ast.walk(top):
            if isinstance(node, ast.Name):
                name = node.id
            elif (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id in modules
            ):
                name = node.attr
            else:
                continue
            if name != own:
                read.add(name)
    return read


def _set_names(tree: ast.Module) -> set:
    """Keyword-argument names and string dict keys in ``tree``."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.keyword) and node.arg is not None:
            names.add(node.arg)
        elif isinstance(node, ast.Dict):
            names.update(
                key.value
                for key in node.keys
                if isinstance(key, ast.Constant) and isinstance(key.value, str)
            )
    return names


def test_attribute_loads_count_only_on_imported_names():
    """``mod.f`` reads ``f`` when ``mod`` is imported; ``obj.g`` on any
    other object does not read a module-level ``g``."""
    tree = ast.parse(
        "import pkg.mod\n"
        "from pkg import other as alias\n"
        "obj = object()\n"
        "pkg.mod.deep\n"
        "alias.f\n"
        "obj.g\n"
        "def h():\n"
        "    return h\n"
    )
    read = _loads(tree)
    assert {"f", "mod", "obj", "alias", "pkg"} <= read
    assert "g" not in read
    assert "h" not in read  # a def reading itself is not a reader


def test_setters_are_keywords_and_string_dict_keys():
    tree = ast.parse("f(a=1, **extra)\nd = {'b': 2, 3: 4, name: 5}\nc = 6\n")
    assert _set_names(tree) == {"a", "b"}


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


def test_every_serving_option_has_a_product_setter():
    """Every field of the serving, fault and memory records is set as a
    keyword argument or a string dict key in ``src/``, ``benchmarks/`` or
    ``scripts/``.  ``BitDecodingConfig`` is outside this check: its fields
    are the paper's parameter space (bit width, granularity, group sizes,
    kernel version and the Fig. 16 ablation flags).  The ablation
    experiments sweep those values, and group-size sweeps extend them.
    """
    set_names = set().union(
        *(
            _set_names(ast.parse(path.read_text()))
            for d in ("src", "benchmarks", "scripts")
            for path in (ROOT / d).rglob("*.py")
        )
    )
    unset = [
        f"{record.__name__}.{field.name}"
        for record in (EngineConfig, FaultSpec, DeadlinePolicy, CacheFormat)
        for field in dataclasses.fields(record)
        if field.name not in set_names
    ]
    assert not unset, (
        f"{len(unset)} options are never set by product code; make each a "
        "constant or give it a product setter:\n  " + "\n  ".join(unset)
    )
