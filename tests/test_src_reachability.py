"""Product code reaches every public name and every serving option.

Every public top-level function and class in ``src/repro`` has a reader
outside the test suite.  A *reader* is a name load of the symbol, or an
attribute load ``x.symbol`` where ``x`` is a name the file binds by
``import`` / ``from ... import``, in ``src/`` outside the symbol's own
body, or anywhere in ``benchmarks/``, ``scripts/`` or ``examples/``.
Attribute loads on any other object do not count: a method
or property of the same name is not a reader of a module-level function.
Imports alone do not count either, so an ``__init__`` re-export does not
keep a name alive.  A symbol only tests read is either promoted to a
``CLAIMS`` row, moved into the test that pins it, or deleted.

Every public member of a ``src/repro`` class (method, property, or
attribute a method assigns through ``self.<name>``) and every public
module-level name bound by assignment has a reader too.  For a member,
a reader is an attribute load ``.name`` in ``src/`` outside the member's
own body, an attribute load anywhere in the reader directories above, a
``getattr(x, "name")`` string literal, or a target in
``benchmarks/e2e/tracing.py::SEAMS``.  For a module constant it is a name
load, counted as for top-level symbols, or a ``getattr`` literal.
Dataclass fields are left to the options rule below, and dunders and
``@abc.abstractmethod`` declarations are exempt.

Every field of the serving records is set by product code.  An option
only tests set to a second value is a constant in disguise.

There is no allowlist for any of the rules.
"""

import ast
import dataclasses
import importlib.util
import sys
from collections import defaultdict
from pathlib import Path

import pytest

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
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
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


def _getattr_literals(tree: ast.Module) -> set:
    """Attribute names spelled as ``getattr(x, "name")`` in ``tree``."""
    return {
        node.args[1].value
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "getattr"
        and len(node.args) >= 2
        and isinstance(node.args[1], ast.Constant)
        and isinstance(node.args[1].value, str)
    }


def _attribute_loads(tree: ast.Module) -> dict:
    """``name -> [line, ...]`` of every attribute load ``x.name`` in ``tree``."""
    lines = defaultdict(list)
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            lines[node.attr].append(node.lineno)
    return lines


def _is_abstract(fn: ast.AST) -> bool:
    return any(
        (isinstance(d, ast.Attribute) and d.attr == "abstractmethod")
        or (isinstance(d, ast.Name) and d.id == "abstractmethod")
        for d in fn.decorator_list
    )


def _members(tree: ast.Module) -> list:
    """``(Class.name, name, def node or None)`` for every public member.

    Members are methods and properties in a class body (abstract
    declarations exempt) and attributes a method assigns as ``self.name``;
    names a class body annotates (dataclass fields) are not members.
    """
    found = []
    for cls in (node for node in ast.walk(tree) if isinstance(node, ast.ClassDef)):
        fields = {
            stmt.target.id
            for stmt in cls.body
            if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)
        }
        methods = [s for s in cls.body if isinstance(s, (ast.FunctionDef, ast.AsyncFunctionDef))]
        seen = set()
        for fn in methods:
            if not fn.name.startswith("_") and not _is_abstract(fn) and fn.name not in seen:
                seen.add(fn.name)
                found.append((f"{cls.name}.{fn.name}", fn.name, fn))
        for fn in methods:
            for node in ast.walk(fn):
                if (
                    isinstance(node, ast.Attribute)
                    and isinstance(node.ctx, ast.Store)
                    and isinstance(node.value, ast.Name)
                    and node.value.id == "self"
                    and not node.attr.startswith("_")
                    and node.attr not in fields | seen
                ):
                    seen.add(node.attr)
                    found.append((f"{cls.name}.{node.attr}", node.attr, None))
    return found


def _constants(tree: ast.Module) -> list:
    """Public module-level names ``tree`` binds by assignment."""
    names = []
    for stmt in tree.body:
        if isinstance(stmt, ast.Assign):
            targets = stmt.targets
        elif isinstance(stmt, ast.AnnAssign):
            targets = [stmt.target]
        else:
            continue
        for target in targets:
            for node in ast.walk(target):
                if (
                    isinstance(node, ast.Name)
                    and isinstance(node.ctx, ast.Store)
                    and not node.id.startswith("_")
                ):
                    names.append(node.id)
    return names


def _seam_names() -> set:
    """Member and function names the e2e tracer wraps."""
    path = ROOT / "benchmarks" / "e2e" / "tracing.py"
    spec = importlib.util.spec_from_file_location("_reachability_tracing", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses resolve annotations here
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return {seam.target.rpartition(".")[2].rpartition(":")[2] for seam in module.SEAMS}


def _unread_members(src_trees: dict, other_trees: list, seams: set) -> list:
    """Members and constants of ``src_trees`` with no reader (see module doc)."""
    every = list(src_trees.values()) + other_trees
    literals = set().union(*map(_getattr_literals, every))
    outside = literals | set(seams)
    for tree in other_trees:
        outside.update(_attribute_loads(tree))
    src_loads = {key: _attribute_loads(tree) for key, tree in src_trees.items()}
    constant_reads = literals.union(*map(_loads, every))
    unread = []
    for key, tree in src_trees.items():
        for qualname, name, node in _members(tree):
            if name in outside:
                continue
            own = range(node.lineno, node.end_lineno + 1) if node else range(0)
            if not any(
                other != key or any(line not in own for line in loads.get(name, ()))
                for other, loads in src_loads.items()
                if name in loads
            ):
                unread.append(f"{key}::{qualname}")
        unread.extend(
            f"{key}::{name}"
            for name in _constants(tree)
            if name not in constant_reads
        )
    return unread


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


_COUNTER = (
    "class C:\n"
    "    def __init__(self):\n"
    "        self.hits = 0\n"
    "    def tick(self):\n"
    "        self.hits += 1\n"
)
_THREE = "class C:\n    def a(self): ...\n    def b(self): ...\n    def c(self): ...\n"
_SIZE = "class C:\n    @property\n    def size(self):\n        return 1\n"


@pytest.mark.parametrize(
    "src, other, seams, expected",
    [
        # A method reading itself is not a reader, another method is; names
        # a dataclass body annotates are fields; abstract hooks are exempt.
        (
            "class P:\n"
            "    @abc.abstractmethod\n"
            "    def hook(self): ...\n"
            "@dataclass\n"
            "class R:\n"
            "    x: int\n"
            "    def __post_init__(self):\n"
            "        self.x = 1\n"
            "        self.count = 0\n"
            "    def loop(self):\n"
            "        return self.loop()\n"
            "    def used(self):\n"
            "        return self.count\n"
            "def caller(r):\n"
            "    return r.used()\n",
            "",
            (),
            ["m.py::R.loop"],
        ),
        # Dunder and private members are exempt.
        (
            "class C:\n"
            "    def __len__(self):\n"
            "        self.__n = 0\n"
            "        return 0\n"
            "    def _helper(self):\n"
            "        self._cache = {}\n",
            "",
            (),
            [],
        ),
        # A SEAMS target, a getattr string literal and an outside load read.
        (_THREE, "", (), ["m.py::C.a", "m.py::C.b", "m.py::C.c"]),
        (_THREE, "", ("a",), ["m.py::C.b", "m.py::C.c"]),
        (_THREE, "getattr(obj, 'b')\nobj.c\n", ("a",), []),
        (_THREE, "getattr(obj, name)\nobj.c\n", ("a",), ["m.py::C.b"]),
        # ``self.n += 1`` stores without loading: a write-only counter is
        # unread, and so is an attribute only stored from outside.
        (_COUNTER, "", (), ["m.py::C.tick", "m.py::C.hits"]),
        (_COUNTER, "c.tick()\nc.hits = 3\n", (), ["m.py::C.hits"]),
        (_COUNTER, "c.tick()\nprint(c.hits)\n", (), []),
        # A property read in another src file is read.
        (_SIZE, "", (), ["m.py::C.size"]),
        ({"m.py": _SIZE, "u.py": "def f(cs):\n    return sum(c.size for c in cs)\n"}, "", (), []),
        # A constant read only through a deleted registry is unread.
        ("A = 1\nREGISTRY = {'a': A}\n", "", (), ["m.py::REGISTRY"]),
        ("A = 1\n", "", (), ["m.py::A"]),
        ("A = 1\n", "import m\nm.A\n", (), []),
        ("A = 1\n", "getattr(mod, 'A')\n", (), []),
    ],
)
def test_unread_members_and_constants(src, other, seams, expected):
    files = src if isinstance(src, dict) else {"m.py": src}
    trees = {key: ast.parse(text) for key, text in files.items()}
    assert _unread_members(trees, [ast.parse(other)], set(seams)) == expected


def test_constants_are_names_bound_at_module_level():
    """Tuple and annotated targets bind constants; a subscript store
    mutates an existing binding and names nothing new; private names and
    function locals are exempt."""
    tree = ast.parse(
        "A, B = 1, 2\nC: int = 3\n_D = 4\nREG['k'] = 5\ndef f():\n    E = 6\n"
    )
    assert _constants(tree) == ["A", "B", "C"]


def test_seams_cover_the_members_kept_for_the_tracer():
    """The paged-cache and page-table entry points that only the e2e
    tracer wraps stay alive through ``SEAMS``."""
    kept = {"write_rows", "dequant_seq", "append_token", "fork_sequence", "ensure_exclusive"}
    assert kept <= _seam_names()


def test_setters_are_keywords_and_string_dict_keys():
    tree = ast.parse("f(a=1, **extra)\nd = {'b': 2, 3: 4, name: 5}\nc = 6\n")
    assert _set_names(tree) == {"a", "b"}


def _reader_paths() -> list:
    return [p for d in READERS for p in (ROOT / d).rglob("*.py")]


def test_every_public_src_symbol_has_a_non_test_reader():
    src_trees = {path: ast.parse(path.read_text()) for path in sorted(SRC.rglob("*.py"))}
    read = set().union(
        *map(_loads, src_trees.values()),
        *(_loads(ast.parse(path.read_text())) for path in _reader_paths()),
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


def test_every_public_member_has_a_non_test_reader():
    src_trees = {
        str(path.relative_to(SRC)): ast.parse(path.read_text())
        for path in sorted(SRC.rglob("*.py"))
    }
    others = [ast.parse(path.read_text()) for path in _reader_paths()]
    unread = _unread_members(src_trees, others, _seam_names())
    assert not unread, (
        f"{len(unread)} public src/ members and constants are read only by tests; "
        "give each a product reader, move it into its test, or delete it:\n  "
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
