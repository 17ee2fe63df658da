"""Every name a module imports is read somewhere in that module, and
every top-level function and class of the package is read somewhere.

No linter ships with the project, so these are the checks for unused
imports and dead definitions.  `__init__.py` is left out of the import
check: its imports are the package's exports.
"""

import ast
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


DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _names_read(node):
    """Names loaded, attributes taken and names imported under `node`."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
        elif isinstance(sub, ast.ImportFrom):
            out.update(alias.name for alias in sub.names)
    return out


def _unread_definitions(modules, readers=()):
    """(module, name) for each top-level def or class of `modules` (label ->
    source) that is read nowhere in `modules` or `readers` (more sources)
    except inside its own definition.  Dunder names are exempt."""
    defined = []
    read = set()
    for label, source in [*modules.items(), *((None, text) for text in readers)]:
        for node in ast.parse(source).body:
            names = _names_read(node)
            if label is not None and isinstance(node, DEFINITIONS):
                names.discard(node.name)
                if not (node.name.startswith("__") and node.name.endswith("__")):
                    defined.append((label, node.name))
            read |= names
    return sorted(d for d in defined if d[1] not in read)


def test_every_definition_is_read():
    """Reads count from the package (its export list included), the
    benchmark and the demos; the tests alone do not keep a name alive."""
    modules = {p.name: p.read_text() for p in sorted(SRC.glob("*.py"))}
    readers = [p.read_text() for d in ("bench", "demos") for p in sorted((ROOT / d).glob("*.py"))]
    assert _unread_definitions(modules, readers) == []


def test_the_check_sees_an_unread_definition():
    modules = {
        "m.py": "def used():\n    pass\n\n\ndef shown():\n    pass\n\n\n"
                "def loop():\n    return loop()\n\n\nclass __Meta__:\n    pass\n",
        "n.py": "from m import used\n",
    }
    assert _unread_definitions(modules, ["import m\nm.shown()\n"]) == [("m.py", "loop")]


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
            read |= _names_read(node) - _defined_by(node)
    for source in readers:
        read |= _names_read(ast.parse(source))
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
