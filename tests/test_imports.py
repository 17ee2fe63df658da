"""Every name a module imports is read somewhere in that module, and
every top-level function and class of the package is read somewhere.

No linter ships with the project, so these are the checks for unused
imports and dead definitions.  `__init__.py` is left out of the import
check: its imports are the package's exports.
"""

import ast
import sys
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "compsuper"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def _unused_imports(source):
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.setdefault(name, node.lineno)
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return sorted((line, name) for name, line in imported.items() if name not in read)


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_every_import_is_read(path):
    assert _unused_imports(path.read_text()) == []


def test_the_check_sees_an_unused_import():
    assert _unused_imports("import os\nfrom a import b, c as d\nprint(b)\n") == [
        (1, "os"), (2, "d")]


def _non_stdlib_imports(source):
    """(line, module) for each absolute import, at any depth, whose
    top-level package is not in the standard library.  Relative imports
    are the package's own modules."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names = [node.module]
        else:
            continue
        out += [(node.lineno, name) for name in names
                if name.split(".")[0] not in sys.stdlib_module_names]
    return sorted(out)


def test_src_imports_only_the_standard_library():
    """The package installs with no runtime dependency."""
    found = [(p.name, *hit) for p in sorted(SRC.glob("*.py"))
             for hit in _non_stdlib_imports(p.read_text())]
    assert found == []


def test_the_check_sees_a_non_stdlib_import():
    source = ("import os, sympy.core\nfrom fractions import Fraction\n"
              "from . import linalg\nfrom .fields import GF\n\n\n"
              "def solve():\n    import sympy\n    from numpy import linalg\n")
    assert _non_stdlib_imports(source) == [(1, "sympy.core"), (8, "sympy"), (9, "numpy")]


DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _asserts(source):
    """The line of each `assert` statement in source.  Python drops them
    under -O, so they cannot validate anything (ROADMAP aim 3)."""
    return [node.lineno for node in ast.walk(ast.parse(source)) if isinstance(node, ast.Assert)]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_src_holds_no_assert(path):
    assert _asserts(path.read_text()) == []


def test_the_check_sees_an_assert():
    source = "def f(x):\n    if x:\n        assert x > 0, 'positive'\n    return x\n"
    assert _asserts(source) == [3]
    assert _asserts("x = 'assert x'\n") == []


def _names_read(node, attributes_only=False):
    """Names loaded, attributes taken and names imported under `node`,
    each with the number of times it is read; with `attributes_only`,
    the attributes taken alone."""
    out = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Attribute):
            out[sub.attr] += 1
        elif attributes_only:
            continue
        elif isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            out[sub.id] += 1
        elif isinstance(sub, ast.ImportFrom):
            out.update(alias.name for alias in sub.names)
    return out


def _definitions(tree):
    """The top-level defs and classes of a module, then the methods of
    every class in it."""
    yield from (node for node in tree.body if isinstance(node, DEFINITIONS))
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    yield item


def _unread_definitions(modules, readers=()):
    """(module, name) for each top-level def or class, and each method, of
    `modules` (label -> source) that is read nowhere in `modules` or
    `readers` (more sources) except inside its own definition.  A read
    of a top-level name is a name loaded, an attribute taken or a name
    imported; a method is read only where an attribute of its name is
    taken, so a local variable of the same name does not keep it alive.
    Dunder names are exempt; a method is reported as Class.method."""
    defined = []
    read, attributes = Counter(), Counter()
    for label, source in [*modules.items(), *((None, text) for text in readers)]:
        tree = ast.parse(source)
        read.update(_names_read(tree))
        attributes.update(_names_read(tree, attributes_only=True))
        if label is None:
            continue
        owners = {id(item): node.name for node in ast.walk(tree)
                  if isinstance(node, ast.ClassDef) for item in node.body}
        for node in _definitions(tree):
            if not (node.name.startswith("__") and node.name.endswith("__")):
                owner = owners.get(id(node))
                inside = _names_read(node, attributes_only=owner is not None)[node.name]
                shown = node.name if owner is None else f"{owner}.{node.name}"
                defined.append((label, shown, node.name, owner is not None, inside))
    return sorted((label, shown) for label, shown, name, method, inside in defined
                  if (attributes if method else read)[name] <= inside)


# Methods that a library calls, so that no source of the project need
# name them, each with its caller.
HOOKS = {
    "_Parser.error": "argparse, on every usage error",
}


def test_every_definition_is_read():
    """Reads count from the package (its export list included), the
    benchmark and the demos; the tests alone do not keep a name alive."""
    modules = {p.name: p.read_text() for p in sorted(SRC.glob("*.py"))}
    readers = [p.read_text() for d in ("bench", "demos") for p in sorted((ROOT / d).glob("*.py"))]
    assert [d for d in _unread_definitions(modules, readers) if d[1] not in HOOKS] == []


def test_the_check_sees_an_unread_definition():
    modules = {
        "m.py": "def used():\n    pass\n\n\ndef shown():\n    pass\n\n\n"
                "def loop():\n    return loop()\n\n\nclass __Meta__:\n    pass\n",
        "n.py": "from m import used\n",
    }
    assert _unread_definitions(modules, ["import m\nm.shown()\n"]) == [("m.py", "loop")]


def test_the_check_sees_an_unread_method():
    modules = {
        "m.py": "class C:\n    def __init__(self):\n        self.run()\n\n"
                "    def run(self):\n        return 1\n\n"
                "    def again(self):\n        return self.again()\n\n"
                "    def alone(self):\n        pass\n\n"
                "    def local(self):\n        pass\n\n\n"
                "class D:\n    def shown(self):\n        pass\n\n\n"
                "def f():\n    local = 1\n    return local\n",
    }
    assert _unread_definitions(modules, ["import m\nm.C()\nm.D().shown()\nm.f()\n"]) == [
        ("m.py", "C.again"), ("m.py", "C.alone"), ("m.py", "C.local")]


# Exported names that only the tests read, each with the reason it stays
# public; every other export must have a reader outside the tests.
TEST_ONLY_EXPORTS = {
    "induce": "builds the induced gradings ^alpha Gamma whose Weyl-group orbits are the "
              "isomorphism classes (ROADMAP item 5)",
}


def _exports(init_source):
    return sorted(alias.asname or alias.name for node in ast.parse(init_source).body
                  if isinstance(node, ast.ImportFrom) for alias in node.names)


def _defined_by(node):
    if isinstance(node, DEFINITIONS):
        return {node.name}
    if isinstance(node, ast.Assign):
        return {t.id for t in node.targets if isinstance(t, ast.Name)}
    return set()


def _unread_exports(exports, modules, readers=()):
    """The names of `exports` read nowhere in `modules` (label -> source,
    the package without its `__init__.py`) except inside their own
    top-level definition, nor in `readers` (more sources)."""
    read = set()
    for source in modules.values():
        for node in ast.parse(source).body:
            read.update(_names_read(node).keys() - _defined_by(node))
    for source in readers:
        read.update(_names_read(ast.parse(source)))
    return [name for name in exports if name not in read]


def test_every_export_has_a_reader_outside_the_tests():
    """The check above counts the export list as a read, so a public name
    that only its own tests call passes it; this one does not."""
    modules = {p.name: p.read_text() for p in MODULES}
    readers = [p.read_text() for d in ("bench", "demos") for p in sorted((ROOT / d).glob("*.py"))]
    exports = _exports((SRC / "__init__.py").read_text())
    assert sorted(TEST_ONLY_EXPORTS) == _unread_exports(exports, modules, readers)


def test_the_check_sees_an_export_read_only_by_itself():
    modules = {
        "m.py": "def used():\n    pass\n\n\ndef alone():\n    return alone()\n\n\n"
                "TABLE = {}\n",
        "n.py": "from m import used\n",
    }
    init = "from .m import used, alone, TABLE\nfrom .n import shown\n"
    assert _unread_exports(_exports(init), modules, ["import pkg\npkg.shown()\n"]) == [
        "TABLE", "alone"]


# Options that no call outside the tests passes, each with the reason it
# stays; every other option must be passed by some call in the package,
# the benchmark or the demos.
TEST_ONLY_OPTIONS = {
    "find_graded_map.isometry": "test_proven_none_is_not_an_artifact_of_isometry_pruning "
                                "cross-checks proven-none verdicts without isometry pruning",
}


def _options(tree):
    """(callee, shown, option, position) for each parameter with a
    default of each top-level function and class method in `tree`.  The
    callee is the name a call uses: the class name for a constructor.
    `position` is the option's index among the positional arguments of
    such a call (not counting self or cls), or None when it is keyword
    only.  Shown is function.option or Class.method.option."""
    defs = [(None, node) for node in tree.body if isinstance(node, ast.FunctionDef)]
    defs += [(node.name, item) for node in tree.body if isinstance(node, ast.ClassDef)
             for item in node.body if isinstance(item, ast.FunctionDef)]
    for owner, node in defs:
        args = node.args
        positional = args.posonlyargs + args.args
        if owner is not None and not any(
                isinstance(d, ast.Name) and d.id == "staticmethod" for d in node.decorator_list):
            positional = positional[1:]
        callee = owner if node.name == "__init__" else node.name
        shown = node.name if owner is None else f"{owner}.{node.name}"
        first = len(positional) - len(args.defaults)
        for i, arg in enumerate(positional[first:], first):
            yield callee, f"{shown}.{arg.arg}", arg.arg, i
        for arg, default in zip(args.kwonlyargs, args.kw_defaults):
            if default is not None:
                yield callee, f"{shown}.{arg.arg}", arg.arg, None


def _unpassed_options(modules, readers=()):
    """The options of `modules` (sources) that no call in `modules` or
    `readers` passes, by position or by keyword.  A call is matched to a
    definition by the name it calls (a bare name or an attribute); a
    starred argument passes every positional option, and a `**` argument
    every option."""
    passed = set()  # (callee, option name | position | "*" | "**")
    for source in [*modules, *readers]:
        for call in ast.walk(ast.parse(source)):
            if not isinstance(call, ast.Call):
                continue
            func = call.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            passed.update((name, i) for i in range(len(call.args)))
            passed.update((name, kw.arg or "**") for kw in call.keywords)
            if any(isinstance(a, ast.Starred) for a in call.args):
                passed.add((name, "*"))
    options = [opt for source in modules for opt in _options(ast.parse(source))]
    return sorted(shown for callee, shown, option, position in options
                  if not passed & {(callee, option), (callee, "**")}
                  and (position is None or not passed & {(callee, position), (callee, "*")}))


def test_every_option_is_passed_outside_the_tests():
    """An option that only the tests set is a code path that no user of
    the package, the benchmark or the demos can reach."""
    modules = [p.read_text() for p in sorted(SRC.glob("*.py"))]
    readers = [p.read_text() for d in ("bench", "demos") for p in sorted((ROOT / d).glob("*.py"))]
    assert _unpassed_options(modules, readers) == sorted(TEST_ONLY_OPTIONS)


def test_the_check_sees_an_option_nobody_passes():
    module = ("def f(x, y=1, *, z=2):\n    pass\n\n\n"
              "def g(a=0, b=0):\n    pass\n\n\n"
              "class C:\n    def __init__(self, n=3):\n        pass\n\n"
              "    def run(self, m=4):\n        pass\n\n"
              "    @staticmethod\n    def make(k=5, j=6):\n        pass\n\n\n"
              "def h(p=0):\n    pass\n")
    callers = "f(1, 2)\ng(**{})\nC(5)\nC().run()\nC.make(1)\nh(*[])\nf(0, z=1)\n"
    assert _unpassed_options([module], [callers]) == ["C.make.j", "C.run.m"]
    assert _unpassed_options([module], ["f(1)\n"]) == [
        "C.__init__.n", "C.make.j", "C.make.k", "C.run.m", "f.y", "f.z", "g.a", "g.b", "h.p"]
