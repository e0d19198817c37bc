"""Package hygiene, by an AST walk over every module of the package.

* Every module-level import is referenced.
* Every function and method is read somewhere in the package: src/ holds
  the pipeline, and a helper only tests call lives in tests/.
* Every optional parameter is passed by some call in the package: one
  that only tests set is a module constant instead.
* No parameter has a default that every call in the package passes,
  whatever the default's value: such a default selects a path or a value
  that only tests take.
* Every parameter is read by some definition of its function's name: an
  interface parameter one implementation reads is kept, one that none
  reads is not passed.
* No field of a dataclass or NamedTuple has a default that every
  construction in the package passes: such a default serves tests alone.
* Every field of a dataclass or NamedTuple is read somewhere in the
  package: state that nothing reads is not stored.
* No class defines to_dict: a record the package writes out is the dict
  it is written as, not a class that spells each field a second time.
* Every module-level name bound by assignment is read somewhere in the
  package: a constant nothing reads is left over from removed code.
"""

import ast
import pathlib
import textwrap
from collections import Counter

import pytest

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "flatsections"

# Names the guards below would flag, each kept for a reader outside the
# package; test_every_kept_name_is_still_needed fails once one is not flagged.
# core_bytes: the benchmark reads it (the manifest digest it compares);
# load_family and load_matrix: the dump reader for users
UNCALLED_KEPT = ("core_bytes", "load_family", "load_matrix")

# main(argv): the console script, which leaves argv to sys.argv
UNPASSED_KEPT = ("main(argv)",)

# Frame.dropped: the benchmark reads it
UNREAD_KEPT = ("dropped",)

# SupNormEstimate: the benchmark's tracer reads its attributes
TO_DICT_KEPT = ("SupNormEstimate",)


def unused_imports(source: str) -> list:
    """Names bound by the module-level imports of source that no Name node
    of the module reads (an attribute access a.b reads the name a)."""
    tree = ast.parse(source)
    bound = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound += [(a.asname or a.name).split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [a.asname or a.name for a in node.names]
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(set(bound) - read)


def _reads(node) -> Counter:
    """Names read under node: loaded Name ids and attribute names."""
    out = Counter()
    for n in ast.walk(node):
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
            out[n.id] += 1
        elif isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load):
            out[n.attr] += 1
    return out


def _functions(tree):
    """(qualified name, def node, is a method) for every def of the tree."""
    found = []

    def visit(node, prefix, in_class):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, prefix + child.name + ".", True)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found.append((prefix + child.name, child, in_class))
                visit(child, prefix + child.name + ".", False)
            else:
                visit(child, prefix, in_class)

    visit(tree, "", False)
    return found


def _parse(sources: dict) -> dict:
    return {name: ast.parse(text) for name, text in sources.items()}


def uncalled_functions(sources: dict) -> list:
    """module:qualname of every function or method of sources (module name
    -> text) whose name nothing reads outside its own body.  Dunders count
    as read: Python calls them."""
    trees = _parse(sources)
    reads = sum((_reads(tree) for tree in trees.values()), Counter())
    out = []
    for module, tree in trees.items():
        for qual, node, _ in _functions(tree):
            name = node.name
            if name.startswith("__") and name.endswith("__"):
                continue
            if reads[name] - _reads(node)[name] <= 0:
                out.append("%s:%s" % (module, qual))
    return sorted(out)


def _takes_self(node, is_method) -> bool:
    """Whether the def's first parameter is a method's self or cls."""
    return is_method and not any(isinstance(d, ast.Name) and d.id == "staticmethod"
                                 for d in node.decorator_list)


def _optional_parameters(node, is_method):
    """(name, positional index or None) of each parameter with a default;
    a method's index counts from its first argument after self or cls."""
    args = node.args
    positional = args.posonlyargs + args.args
    shift = 1 if _takes_self(node, is_method) else 0
    first = len(positional) - len(args.defaults)
    out = [(a.arg, i - shift) for i, a in enumerate(positional) if i >= first]
    out += [(a.arg, None) for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
    return out


def _passes(call, param, index) -> bool:
    """Whether call passes param, by keyword or at positional index; a call
    with *args or **kwargs passes every parameter."""
    keywords = {kw.arg for kw in call.keywords}
    return (any(isinstance(a, ast.Starred) for a in call.args) or None in keywords
            or param in keywords or (index is not None and len(call.args) > index))


def _calls(trees: dict) -> dict:
    """Every call of the trees, keyed by the name it calls (the attribute
    name of a call a.f(...))."""
    calls = {}
    for tree in trees.values():
        for n in ast.walk(tree):
            if isinstance(n, ast.Call):
                name = n.func.id if isinstance(n.func, ast.Name) else getattr(n.func, "attr", None)
                calls.setdefault(name, []).append(n)
    return calls


def unpassed_parameters(sources: dict) -> list:
    """module:qualname(param) of every optional parameter of sources that no
    call by the function's name passes."""
    trees = _parse(sources)
    calls = _calls(trees)
    out = []
    for module, tree in trees.items():
        for qual, node, is_method in _functions(tree):
            for param, index in _optional_parameters(node, is_method):
                if not any(_passes(c, param, index) for c in calls.get(node.name, [])):
                    out.append("%s:%s(%s)" % (module, qual, param))
    return sorted(out)


def passed_defaults(sources: dict) -> list:
    """module:qualname(param) of every parameter of sources with a default,
    whatever its value, that every call by the function's name passes; a
    function no call names is unpassed_parameters' to report."""
    trees = _parse(sources)
    calls = _calls(trees)
    out = []
    for module, tree in trees.items():
        for qual, node, is_method in _functions(tree):
            mine = calls.get(node.name, [])
            for param, index in _optional_parameters(node, is_method):
                if mine and all(_passes(c, param, index) for c in mine):
                    out.append("%s:%s(%s)" % (module, qual, param))
    return sorted(out)


def _parameters(node, is_method) -> list:
    """Every parameter name of the def node, without a method's self or cls."""
    args = node.args
    names = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
    names += [a.arg for a in (args.vararg, args.kwarg) if a is not None]
    return names[1:] if _takes_self(node, is_method) else names


def unread_parameters(sources: dict) -> list:
    """module:qualname(param) of every parameter of sources that no
    definition of the same name reads, so a parameter of an interface
    (a method several classes define) passes once one of them reads it."""
    trees = _parse(sources)
    defs = [(module, qual, node, is_method) for module, tree in trees.items()
            for qual, node, is_method in _functions(tree)]
    read = {}
    for _, _, node, _ in defs:
        read.setdefault(node.name, set()).update(
            n.id for n in ast.walk(node)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load))
    return sorted("%s:%s(%s)" % (module, qual, param)
                  for module, qual, node, is_method in defs
                  for param in _parameters(node, is_method)
                  if param not in read[node.name])


def _is_record(node) -> bool:
    """Whether the class node is a @dataclass or a NamedTuple subclass."""
    def name(n):
        n = n.func if isinstance(n, ast.Call) else n
        return n.id if isinstance(n, ast.Name) else getattr(n, "attr", None)

    return (any(name(d) == "dataclass" for d in node.decorator_list)
            or any(name(b) == "NamedTuple" for b in node.bases))


def unread_fields(sources: dict) -> list:
    """module:Class.field of every field of a dataclass or NamedTuple of
    sources whose name no module reads, as an attribute load x.field or
    as a string constant (the name getattr(x, "field") or a tuple of field
    names spells).

    The match is by name alone, so a field that shares its name with an
    attribute read elsewhere counts as read.  That hid GramMatrix.m and
    GramMatrix.k behind every other .m and .k, the kind field of the
    chart regions behind LatticeSpec.kind, and ThetaSolution.m, .lattice
    and .extrapolated behind every other .m, cfg.lattice and the
    "extrapolated" key of the constants rows; those were found and removed
    by hand.
    """
    trees = _parse(sources)
    read = set()
    for tree in trees.values():
        for n in ast.walk(tree):
            if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load):
                read.add(n.attr)
            elif isinstance(n, ast.Constant) and isinstance(n.value, str):
                read.add(n.value)
    out = []
    for module, tree in trees.items():
        for cls in ast.walk(tree):
            if not (isinstance(cls, ast.ClassDef) and _is_record(cls)):
                continue
            for stmt in cls.body:
                if (isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)
                        and stmt.target.id not in read):
                    out.append("%s:%s.%s" % (module, cls.name, stmt.target.id))
    return sorted(out)


def _has_default(stmt) -> bool:
    """Whether the field statement gives a default: = value, or
    field(default=...) or field(default_factory=...)."""
    value = stmt.value
    if value is None:
        return False
    if isinstance(value, ast.Call) and getattr(value.func, "id",
                                               getattr(value.func, "attr", None)) == "field":
        return any(kw.arg in ("default", "default_factory") for kw in value.keywords)
    return True


def passed_field_defaults(sources: dict) -> list:
    """module:Class.field of every defaulted field of a dataclass or
    NamedTuple of sources that every call by the class's name passes; a
    class no call names is left out."""
    trees = _parse(sources)
    calls = _calls(trees)
    out = []
    for module, tree in trees.items():
        for cls in ast.walk(tree):
            if not (isinstance(cls, ast.ClassDef) and _is_record(cls)):
                continue
            mine = calls.get(cls.name, [])
            fields = [stmt for stmt in cls.body
                      if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)]
            for index, stmt in enumerate(fields):
                if (_has_default(stmt) and mine
                        and all(_passes(c, stmt.target.id, index) for c in mine)):
                    out.append("%s:%s.%s" % (module, cls.name, stmt.target.id))
    return sorted(out)


def to_dict_classes(sources: dict) -> list:
    """module:Class of every class of sources that defines a to_dict method."""
    out = []
    for module, tree in _parse(sources).items():
        for cls in ast.walk(tree):
            if isinstance(cls, ast.ClassDef) and any(
                    isinstance(stmt, ast.FunctionDef) and stmt.name == "to_dict"
                    for stmt in cls.body):
                out.append("%s:%s" % (module, cls.name))
    return sorted(out)


def unread_constants(sources: dict) -> list:
    """module:NAME of every name bound by a module-level assignment of
    sources (NAME = ..., NAME: T = ..., or a name unpacked on the left)
    that no module reads, as a name or as an attribute module.NAME."""
    trees = _parse(sources)
    reads = sum((_reads(tree) for tree in trees.values()), Counter())
    out = []
    for module, tree in trees.items():
        for stmt in tree.body:
            targets = (stmt.targets if isinstance(stmt, ast.Assign)
                       else [stmt.target] if isinstance(stmt, ast.AnnAssign) else [])
            out += ["%s:%s" % (module, n.id) for target in targets for n in ast.walk(target)
                    if isinstance(n, ast.Name) and not reads[n.id]]
    return sorted(out)


def _package_sources() -> dict:
    return {p.stem: p.read_text(encoding="utf-8") for p in sorted(PACKAGE.glob("*.py"))}


def _kept(entry: str, names) -> bool:
    return entry.split(":", 1)[1].split("(")[0].split(".")[-1] in names


def test_detects_an_unused_import():
    source = "import math\nimport os.path\nfrom json import dumps, loads\nprint(os.sep, loads)\n"
    assert unused_imports(source) == ["dumps", "math"]


def test_detects_an_uncalled_function():
    a = textwrap.dedent("""
        def used():
            return 1

        def lonely(n):
            return lonely(n - 1)

        class C:
            def __len__(self):
                return 0

            def read(self):
                return used()

            def unread(self):
                pass
        """)
    b = "from a import C\nprint(C().read())\n"
    assert uncalled_functions({"a": a, "b": b}) == ["a:C.unread", "a:lonely"]


def test_detects_an_unpassed_parameter():
    a = textwrap.dedent("""
        def f(x, y=1, *, z=2, w=3):
            return x

        class C:
            def g(self, p=0, q=1):
                return p

        def h(u=0):
            return u
        """)
    b = "from a import C, f, h\nf(1, w=4)\nC().g(5)\nargs = ()\nh(*args)\n"
    assert unpassed_parameters({"a": a, "b": b}) == ["a:C.g(q)", "a:f(y)", "a:f(z)"]


def test_detects_a_default_every_call_passes():
    a = textwrap.dedent("""
        def f(x, y=None, z=None, *, w=None, v=0, u=1.5):
            return x

        class C:
            def g(self, p=2, q=None):
                return p

        def lonely(t=None):
            return t
        """)
    b = ("from a import C, f\nf(1, 2, w=3, v=1)\nf(1, None, None, w=4, v=0)\n"
         "C().g(5)\nC().g(*[6])\n")
    assert passed_defaults({"a": a, "b": b}) == ["a:C.g(p)", "a:f(v)", "a:f(w)", "a:f(y)"]


def test_detects_an_unread_field():
    a = textwrap.dedent("""
        import dataclasses
        from dataclasses import dataclass
        from typing import NamedTuple

        @dataclass(frozen=True)
        class Point:
            x: float
            y: float
            label: str = ""

        @dataclasses.dataclass
        class Box:
            lo: float
            hi: float

        class Pair(NamedTuple):
            first: int
            second: int

        class Plain:
            ignored: int = 0
        """)
    b = textwrap.dedent("""
        from a import Box, Pair, Point
        p = Point(1.0, 2.0)
        print(p.x, getattr(p, "label"), Box(0.0, 1.0).hi, Pair(1, 2)[0])
        """)
    assert unread_fields({"a": a, "b": b}) == [
        "a:Box.lo", "a:Pair.first", "a:Pair.second", "a:Point.y"]


def test_detects_an_unread_parameter():
    a = textwrap.dedent("""
        class Cube:
            def contains(self, chart, v, lifts):
                return v

        class Cell:
            def contains(self, chart, v, lifts):
                return lifts

            @staticmethod
            def scale(x, unused):
                return x

        def outer(a, b, *rest, **options):
            def inner():
                return a + len(rest)
            return inner()
        """)
    assert unread_parameters({"a": a}) == [
        "a:Cell.contains(chart)", "a:Cell.scale(unused)", "a:Cube.contains(chart)",
        "a:outer(b)", "a:outer(options)"]


def test_detects_a_field_default_every_construction_passes():
    a = textwrap.dedent("""
        from dataclasses import dataclass, field
        from typing import NamedTuple

        @dataclass(frozen=True)
        class Spec:
            kind: str
            gamma: float = 1.0
            charts: tuple = ()
            work: dict = field(default_factory=dict, compare=False)
            count: int = field(compare=False)
            label: str = ""

        class Pair(NamedTuple):
            first: int
            second: int = 0

        @dataclass
        class Unbuilt:
            size: int = 0
        """)
    b = textwrap.dedent("""
        from a import Pair, Spec
        Spec("cubic", 1.1, charts=(), work={}, count=0)
        Spec(kind="hex", gamma=1.2, charts=(1,), work={}, count=1, label="x")
        Pair(1, 2)
        Pair(*[3, 4])
        """)
    assert passed_field_defaults({"a": a, "b": b}) == [
        "a:Pair.second", "a:Spec.charts", "a:Spec.gamma", "a:Spec.work"]


def test_detects_a_to_dict_class():
    a = textwrap.dedent("""
        class Record:
            def to_dict(self):
                return {}

        class Plain:
            def as_dict(self):
                return {}

            class Inner:
                def to_dict(self):
                    return {}

        def to_dict():
            return {}
        """)
    assert to_dict_classes({"a": a}) == ["a:Inner", "a:Record"]


def test_detects_an_unread_constant():
    a = textwrap.dedent("""
        import math

        LIMIT = 4
        SCALE: float = 2.0
        UNUSED = 8
        LEFT, RIGHT = 1, 2
        _CACHE = {}
        TAU = 2 * math.pi

        def f(x):
            local = x * SCALE
            return local
        """)
    b = "import a\nprint(a.LIMIT, a.f(a.RIGHT), a._CACHE.get(1))\n"
    assert unread_constants({"a": a, "b": b}) == ["a:LEFT", "a:TAU", "a:UNUSED"]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_module_imports_are_referenced(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_every_function_has_a_caller_in_the_package():
    found = uncalled_functions(_package_sources())
    assert [e for e in found if not _kept(e, UNCALLED_KEPT)] == []


def test_every_optional_parameter_is_passed_in_the_package():
    found = unpassed_parameters(_package_sources())
    assert [e for e in found
            if not _kept(e, UNCALLED_KEPT)
            and e.split(":", 1)[1] not in UNPASSED_KEPT] == []


def test_no_default_is_left_to_tests():
    assert passed_defaults(_package_sources()) == []


def test_every_field_is_read_in_the_package():
    found = unread_fields(_package_sources())
    assert [e for e in found if not _kept(e, UNREAD_KEPT)] == []


def test_every_parameter_is_read():
    assert unread_parameters(_package_sources()) == []


def test_no_field_default_is_left_to_tests():
    assert passed_field_defaults(_package_sources()) == []


def test_no_class_spells_its_fields_twice():
    found = to_dict_classes(_package_sources())
    assert [e for e in found if not _kept(e, TO_DICT_KEPT)] == []


def test_every_module_constant_is_read_in_the_package():
    assert unread_constants(_package_sources()) == []


def test_every_kept_name_is_still_needed():
    sources = _package_sources()
    uncalled, unread = uncalled_functions(sources), unread_fields(sources)
    unpassed = [e.split(":", 1)[1] for e in unpassed_parameters(sources)]
    assert [n for n in UNCALLED_KEPT if not any(_kept(e, (n,)) for e in uncalled)] == []
    assert [n for n in UNPASSED_KEPT if n not in unpassed] == []
    assert [n for n in UNREAD_KEPT if not any(_kept(e, (n,)) for e in unread)] == []
    to_dict = to_dict_classes(sources)
    assert [n for n in TO_DICT_KEPT if not any(_kept(e, (n,)) for e in to_dict)] == []
