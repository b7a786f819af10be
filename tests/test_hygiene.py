"""Source hygiene checks that need only the standard library."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "bohrlab"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def _private_definitions(source: str) -> set[str]:
    """Top-level private names (``_x``, not dunders) that a module binds
    with ``def``, ``class`` or an assignment."""
    names = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, ast.Assign):
            names += [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target,
                                                            ast.Name):
            names.append(node.target.id)
    return {n for n in names if n.startswith("_") and not n.startswith("__")}


def _references(source: str) -> set[str]:
    """Names a module reads, as a name, an attribute or an import."""
    refs = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            refs.add(node.id)
        elif isinstance(node, ast.Attribute):
            refs.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            refs.update(alias.name for alias in node.names)
    return refs


def _unreferenced_private_names(sources: dict[str, str]) -> list[str]:
    """``module: name`` for each top-level private name that no module of
    ``sources`` (file name -> source) reads."""
    refs = set().union(*map(_references, sources.values()))
    return sorted("%s: %s" % (module, name)
                  for module, source in sources.items()
                  for name in _private_definitions(source)
                  if name not in refs)


def _unused_imports(source: str) -> list[str]:
    """Names bound by a top-level import that the module never reads.

    ``__init__.py`` is left out: its imports are the package's re-exports.
    """
    tree = ast.parse(source)
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound[name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return ["line %d: %s" % (line, name)
            for name, line in sorted(bound.items(), key=lambda kv: kv[1])
            if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_top_level_imports(path):
    assert _unused_imports(path.read_text(encoding="utf-8")) == []


def test_unused_import_is_found():
    source = ("from functools import cached_property, lru_cache\n"
              "import numpy as np\n\n"
              "@lru_cache\ndef f():\n    return np.pi\n")
    assert _unused_imports(source) == ["line 1: cached_property"]


def test_every_private_name_is_referenced():
    sources = {p.name: p.read_text(encoding="utf-8")
               for p in SRC.glob("*.py")}
    assert _unreferenced_private_names(sources) == []


def test_unreferenced_private_name_is_found():
    sources = {"a.py": ("_LIMIT = 3\n\ndef _mul(x):\n    return x\n\n"
                        "def _pow(x):\n    return x * _LIMIT\n"),
               "b.py": "from .a import _pow\n\nY = _pow(2)\n"}
    assert _unreferenced_private_names(sources) == ["a.py: _mul"]


def _runner_problems(source: str) -> list[str]:
    """Top-level ``run_*`` functions of a sweeps source that are not values
    of its ``SUITES`` dict or whose parameters are not ``(seed, trials)``.
    ``run_suite``, the dispatcher over ``SUITES``, is left out."""
    tree = ast.parse(source)
    suites = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "SUITES"
                for t in node.targets) and isinstance(node.value, ast.Dict):
            suites |= {v.id for v in node.value.values
                       if isinstance(v, ast.Name)}
    problems = []
    for node in tree.body:
        if not isinstance(node, ast.FunctionDef) or \
                not node.name.startswith("run_") or node.name == "run_suite":
            continue
        if node.name not in suites:
            problems.append("%s: not in SUITES" % node.name)
        a = node.args
        params = [p.arg for p in a.posonlyargs + a.args + a.kwonlyargs]
        if params != ["seed", "trials"] or a.vararg or a.kwarg:
            problems.append("%s: parameters %s" % (node.name, params))
    return problems


def test_every_runner_is_a_suite_taking_seed_and_trials():
    assert _runner_problems((SRC / "sweeps.py").read_text(
        encoding="utf-8")) == []


def test_runner_problems_are_found():
    source = ("def run_a(seed=7, trials=5):\n    pass\n\n"
              "def run_b(seed=7, trials=5, order=8):\n    pass\n\n"
              "def run_c(seed=7, trials=5):\n    pass\n\n"
              "def run_suite(name, seed=7, trials=None):\n    pass\n\n"
              "SUITES = {'a': run_a, 'b': run_b}\n")
    assert _runner_problems(source) == ["run_b: parameters "
                                        "['seed', 'trials', 'order']",
                                        "run_c: not in SUITES"]


def _is_name(node, name: str) -> bool:
    """``node`` is ``name`` or ``module.name``."""
    return (isinstance(node, ast.Name) and node.id == name
            or isinstance(node, ast.Attribute) and node.attr == name)


def _namedtuple_calls(tree) -> list[ast.Call]:
    """Every ``namedtuple("X", "a b")`` call whose type name and field
    string (or list of field names) are literals."""
    return [node for node in ast.walk(tree)
            if isinstance(node, ast.Call) and _is_name(node.func, "namedtuple")
            and len(node.args) >= 2 and isinstance(node.args[0], ast.Constant)
            and isinstance(node.args[1], (ast.Constant, ast.List, ast.Tuple))]


def _record_fields(source: str) -> list[tuple[str, str]]:
    """(class, field) for each field of a record type: the annotated fields
    of a top-level class decorated with ``@dataclass`` or ``@dataclass(...)``
    or derived from ``NamedTuple``, the attributes that a top-level class's
    ``__init__`` sets on ``self``, and the fields of each
    ``namedtuple("X", "a b")`` call, under its type name X."""
    tree = ast.parse(source)
    fields = []
    for node in tree.body:
        if not isinstance(node, ast.ClassDef):
            continue
        if any(_is_name(getattr(d, "func", d), "dataclass")
               for d in node.decorator_list) or any(
                _is_name(b, "NamedTuple") for b in node.bases):
            fields += [(node.name, stmt.target.id) for stmt in node.body
                       if isinstance(stmt, ast.AnnAssign)
                       and isinstance(stmt.target, ast.Name)]
        fields += [(node.name, target.attr) for stmt in node.body
                   if isinstance(stmt, ast.FunctionDef)
                   and stmt.name == "__init__"
                   for target in ast.walk(stmt)
                   if isinstance(target, ast.Attribute)
                   and isinstance(target.ctx, ast.Store)
                   and isinstance(target.value, ast.Name)
                   and target.value.id == "self"]
    for call in _namedtuple_calls(tree):
        names = call.args[1]
        names = (names.value.replace(",", " ").split()
                 if isinstance(names, ast.Constant)
                 else [e.value for e in names.elts])
        fields += [(call.args[0].value, name) for name in names]
    return fields


def _field_reads(source: str) -> set[str]:
    """Attribute names a source loads, and its string constants other than
    the arguments of a ``namedtuple`` call."""
    tree = ast.parse(source)
    declared = {id(node) for call in _namedtuple_calls(tree)
                for arg in call.args for node in ast.walk(arg)}
    reads = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            reads.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) \
                and id(node) not in declared:
            reads.add(node.value)
    return reads


def _unread_record_fields(defining: dict[str, str],
                          readers: list[str]) -> list[str]:
    """``module: Class.field`` for each record field of ``defining``
    (file name -> source) that no source of ``readers`` loads as an
    attribute or names in a string constant."""
    reads = set().union(*map(_field_reads, readers))
    return sorted("%s: %s.%s" % (module, cls, name)
                  for module, source in defining.items()
                  for cls, name in _record_fields(source)
                  if name not in reads)


def test_every_dataclass_field_is_read():
    """Every field of a record type of ``src/`` (a ``NamedTuple``, a
    ``namedtuple`` base or a plain class) has a reader, and there are
    fields to check."""
    defining = {p.name: p.read_text(encoding="utf-8")
                for p in SRC.glob("*.py")}
    readers = [p.read_text(encoding="utf-8")
               for folder in (SRC, ROOT / "tests", ROOT / "benchmarks")
               for p in folder.glob("*.py")]
    assert [f for source in defining.values() for f in _record_fields(source)]
    assert _unread_record_fields(defining, readers) == []


def test_unread_dataclass_field_is_found():
    defining = {"a.py": ("from collections import namedtuple\n"
                         "from dataclasses import dataclass\n"
                         "import typing\n\n"
                         "@dataclass(frozen=True)\nclass R:\n"
                         "    seen: int\n    keyed: int\n    unread: int\n\n"
                         "@dataclass\nclass S:\n    bare: int\n\n"
                         "class T:\n    plain: int\n\n"
                         "class U(typing.NamedTuple):\n"
                         "    seen: int\n    spare: int\n\n"
                         "class V(namedtuple('V', 'seen, lone')):\n"
                         "    __slots__ = ()\n\n"
                         "W = namedtuple('W', ['solo'])\n\n"
                         "class X:\n    def __init__(self):\n"
                         "        self.seen, self.kept = 1, 2\n")}
    readers = [defining["a.py"],
               "def f(r):\n    r.unread = 1\n    return r.seen, r['keyed']\n"]
    assert _unread_record_fields(defining, readers) == [
        "a.py: R.unread", "a.py: S.bare", "a.py: U.spare", "a.py: V.lone",
        "a.py: W.solo", "a.py: X.kept"]


def _dataclass_imports(source: str) -> list[str]:
    """``line N`` for each import of ``dataclasses``: its decorator
    generates and ``exec``s each class's methods when the module loads,
    which every fresh CLI process pays for."""
    return ["line %d" % node.lineno for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Import) and any(
                alias.name.split(".")[0] == "dataclasses"
                for alias in node.names)
            or isinstance(node, ast.ImportFrom) and not node.level
            and (node.module or "").split(".")[0] == "dataclasses"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda p: p.name)
def test_no_module_imports_dataclasses(path):
    assert _dataclass_imports(path.read_text(encoding="utf-8")) == []


def test_dataclass_imports_are_found():
    source = ("import dataclasses\nimport dataclasses_json, os\n"
              "from .dataclasses import box\n"
              "from dataclasses import dataclass, field\n\n"
              "def f():\n    import os, dataclasses as dc\n"
              "    return dc\n")
    assert _dataclass_imports(source) == ["line 1", "line 4", "line 7"]


def _public_api(source: str) -> list[tuple[str, str, bool]]:
    """Public top-level functions and classes of a module, as ``name``, and
    the public methods and properties of its top-level classes, as
    ``Class.name``; names starting with ``_`` are left out.  The flag is
    true for a method that is not a property."""
    api = []
    for node in ast.parse(source).body:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            continue
        if not node.name.startswith("_"):
            api.append((node.name, node.name, False))
        if isinstance(node, ast.ClassDef):
            api += [("%s.%s" % (node.name, stmt.name), stmt.name,
                     not any(isinstance(d, ast.Name) and d.id == "property"
                             for d in stmt.decorator_list))
                    for stmt in node.body
                    if isinstance(stmt, ast.FunctionDef)
                    and not stmt.name.startswith("_")]
    return api


def _calls(source: str) -> set[str]:
    """Attribute names a source calls, as in ``x.name(...)``."""
    return {node.func.attr for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)}


def _reexports(init_source: str) -> set[str]:
    """Names a package ``__init__.py`` imports from its own modules."""
    return {alias.asname or alias.name
            for node in ast.parse(init_source).body
            if isinstance(node, ast.ImportFrom) and node.level
            for alias in node.names}


def _unread_public_api(defining: dict[str, str], readers: list[str],
                       exported: set[str]) -> list[str]:
    """``module: name`` for each public definition of ``defining`` (file
    name -> source) whose name no source of ``readers`` reads as a name,
    an attribute or a ``from`` import.  A method counts as read only where
    a reader calls it, so a same-named attribute such as ``spec.series``
    does not keep a method ``series`` alive.  Top-level names in
    ``exported`` are exempt; methods are not."""
    refs = set().union(*map(_references, readers))
    calls = set().union(*map(_calls, readers))
    return sorted("%s: %s" % (module, qualified)
                  for module, source in defining.items()
                  for qualified, name, method in _public_api(source)
                  if name not in (calls if method else refs)
                  and not (qualified == name and name in exported))


def test_every_public_name_has_a_program_reader():
    """Tests do not count as readers: API that only a test calls is dead
    to the program.  ``benchmarks/`` counts, as it drives the package."""
    defining = {p.name: p.read_text(encoding="utf-8") for p in MODULES}
    readers = list(defining.values()) + [
        p.read_text(encoding="utf-8")
        for p in (ROOT / "benchmarks").glob("*.py")]
    exported = _reexports((SRC / "__init__.py").read_text(encoding="utf-8"))
    assert _unread_public_api(defining, readers, exported) == []


def test_unread_public_api_is_found():
    defining = {"a.py": ("def used():\n"
                         "    return Box().size, Box().scale(2).series\n\n"
                         "def exported():\n    pass\n\n"
                         "def orphan():\n    pass\n\n"
                         "class Box:\n"
                         "    def __len__(self):\n        return 0\n\n"
                         "    @property\n    def size(self):\n"
                         "        return self._hidden()\n\n"
                         "    @property\n    def area(self):\n"
                         "        return 0\n\n"
                         "    def _hidden(self):\n        return 0\n\n"
                         "    def exported(self):\n        return 0\n\n"
                         "    def scale(self, k):\n        return self\n\n"
                         "    def series(self):\n        return 0\n\n"
                         "class _Private:\n"
                         "    def grow(self):\n        pass\n")}
    readers = [defining["a.py"], "from a import used\n\nused()\n"]
    exported = _reexports("from .a import Box, exported\n"
                          "from numpy import orphan\n")
    assert exported == {"Box", "exported"}
    assert _unread_public_api(defining, readers, exported) == [
        "a.py: Box.area", "a.py: Box.exported", "a.py: Box.series",
        "a.py: _Private.grow", "a.py: orphan"]


#: numpy names that form a product of series, or (``polynomial``) load a
#: module of them.  Every truncated product in ``src/`` is
#: ``series._truncmul`` or a Toeplitz product inside ``series``.
_FOREIGN_PRODUCTS = {"convolve", "polymul", "polynomial"}


def _foreign_products(source: str) -> list[str]:
    """``line N: name`` for each ``convolve``, ``polymul`` or
    ``polynomial`` that a source reads as an attribute (``np.convolve``)
    or imports from numpy (``from numpy import polymul``,
    ``import numpy.polynomial``)."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute):
            names = [node.attr]
        elif isinstance(node, ast.Import):
            names = [part for alias in node.names
                     if alias.name.split(".")[0] == "numpy"
                     for part in alias.name.split(".")]
        elif isinstance(node, ast.ImportFrom) and not node.level and \
                (node.module or "").split(".")[0] == "numpy":
            names = node.module.split(".") + [a.name for a in node.names]
        else:
            continue
        found += ["line %d: %s" % (node.lineno, name)
                  for name in sorted(_FOREIGN_PRODUCTS.intersection(names))]
    return found


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda p: p.name)
def test_every_product_is_the_package_kernel(path):
    assert _foreign_products(path.read_text(encoding="utf-8")) == []


def test_foreign_products_are_found():
    source = ("import numpy as np\nimport numpy.polynomial.polynomial\n"
              "from numpy import polymul\nfrom numpy.polynomial import P\n"
              "from .series import _truncmul\n\n"
              "def f(a, b):\n    return np.convolve(a, b), _truncmul(a, b, 3)"
              "\n")
    assert _foreign_products(source) == [
        "line 2: polynomial", "line 3: polymul", "line 4: polynomial",
        "line 8: convolve"]
