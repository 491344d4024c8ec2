"""Code with no caller is deleted: every module-level private name of the
package (one that starts with a single underscore) must be read somewhere
in the package besides its own definition, every public module-level
function or class must be named somewhere in the repository, every public
method of a package class must be read somewhere in the repository, and
every name a module imports must be read in that module."""

import ast
from pathlib import Path

import lcoalg

PACKAGE = Path(lcoalg.__file__).parent
REPO_ROOTS = tuple(PACKAGE.parents[1] / d for d in ("src", "tests", "perfbench"))


def _private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def _defined(tree: ast.Module):
    """The private names a module binds at its top level."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            targets = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            nodes = node.targets if isinstance(node, ast.Assign) else [node.target]
            targets = [n.id for t in nodes for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        yield from filter(_private, targets)


def _reads(tree: ast.Module):
    """Every name a module reads, as a bare name or as an attribute."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr


def _imports(tree: ast.Module):
    """(module, name) of every private name imported from a package module."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module:
            for alias in node.names:
                if _private(alias.name):
                    yield node.module, alias.name


def unread_private_names(package: Path = PACKAGE):
    """(module, name) of each module-level private name that no code of the
    package reads: not its own module, nor a module that imports it."""
    trees = {
        path.stem: ast.parse(path.read_text(encoding="utf-8"))
        for path in sorted(package.glob("*.py"))
    }
    reads = {module: set(_reads(tree)) for module, tree in trees.items()}
    importers = {}
    for module, tree in trees.items():
        for source, name in _imports(tree):
            importers.setdefault((source, name), []).append(module)
    return [
        (module, name)
        for module, tree in trees.items()
        for name in _defined(tree)
        if not any(name in reads[m] for m in [module, *importers.get((module, name), [])])
    ]


def _parsed(roots, skip=None):
    """The syntax tree of every Python file under ``roots`` but ``skip``."""
    for root in roots:
        for path in sorted(root.rglob("*.py")):
            if path != skip:
                yield ast.parse(path.read_text(encoding="utf-8"))


def _strings(tree: ast.Module):
    return (node.value for node in ast.walk(tree)
            if isinstance(node, ast.Constant) and isinstance(node.value, str))


def unnamed_public_definitions(package: Path = PACKAGE, roots=REPO_ROOTS):
    """(module, name) of each public module-level function or class of the
    package that no file under ``roots`` names, that is, reads as a bare
    name or an attribute or holds as a string (the benchmark's tracer finds
    what it wraps by name).  An import alone is not a use, and the package's
    ``__init__.py`` is not read, so a name listed there is not a use."""
    named = set()
    for tree in _parsed(roots, skip=package / "__init__.py"):
        named.update(_reads(tree))
        named.update(_strings(tree))
    return [
        (path.stem, node.name)
        for path in sorted(package.glob("*.py"))
        for node in ast.parse(path.read_text(encoding="utf-8")).body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and not node.name.startswith("_") and node.name not in named
    ]


def unread_public_methods(package: Path = PACKAGE, roots=REPO_ROOTS):
    """(class, method) of each public method of a module-level package class
    that no file under ``roots`` reads as an attribute or holds as a string
    equal to its name (the benchmark's tracer reads ``is_rational`` by
    name).  A bare name is not a read, so a variable that happens to share a
    method's name does not keep the method."""
    read = set()
    for tree in _parsed(roots):
        read.update(node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute))
        read.update(_strings(tree))
    return [
        (cls.name, node.name)
        for path in sorted(package.glob("*.py"))
        for cls in ast.parse(path.read_text(encoding="utf-8")).body
        if isinstance(cls, ast.ClassDef)
        for node in cls.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and not node.name.startswith("_") and node.name not in read
    ]


def _imported(tree: ast.Module):
    """Each name a module imports, less ``__future__`` features."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                yield (alias.asname or alias.name).split(".")[0]


def unused_imports(package: Path = PACKAGE):
    """(module, name) of each import that its module never reads.  The
    package's ``__init__.py`` is no exception: a name is imported from the
    module that defines it, not re-exported."""
    unused = []
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        reads = set(_reads(tree))
        unused += [(path.stem, name) for name in _imported(tree) if name not in reads]
    return unused


def test_every_private_name_has_a_reader():
    assert unread_private_names() == []


def test_an_unread_private_name_is_found(tmp_path):
    (tmp_path / "a.py").write_text(
        "from .b import _used_elsewhere\n_read = 1\n_unread = _read\n"
        "def _dead():\n    pass\nx = _used_elsewhere\n", encoding="utf-8")
    (tmp_path / "b.py").write_text(
        "_used_elsewhere = 2\n_imported_only = 3\nclass _Gone:\n    pass\n",
        encoding="utf-8")
    (tmp_path / "c.py").write_text("from .b import _imported_only\n", encoding="utf-8")
    assert sorted(unread_private_names(tmp_path)) == [
        ("a", "_dead"), ("a", "_unread"), ("b", "_Gone"), ("b", "_imported_only"),
    ]


def test_every_import_is_read():
    assert unused_imports() == []


def test_an_unused_import_is_found(tmp_path):
    (tmp_path / "__init__.py").write_text("from .a import x\n", encoding="utf-8")
    (tmp_path / "a.py").write_text(
        "from __future__ import annotations\nimport os.path\n"
        "from typing import (\n    Dict,\n    List,\n)\n"
        "from .b import kept  # noqa: F401\nfrom .b import y as z\n"
        "x: Dict = {}\n", encoding="utf-8")
    assert unused_imports(tmp_path) == [
        ("__init__", "x"), ("a", "os"), ("a", "List"), ("a", "kept"), ("a", "z")]


def test_every_public_definition_is_named():
    assert unnamed_public_definitions() == []


def test_an_unnamed_public_definition_is_found(tmp_path):
    package, tests = tmp_path / "src" / "pkg", tmp_path / "tests"
    package.mkdir(parents=True)
    tests.mkdir()
    (package / "__init__.py").write_text(
        "from .a import exported\n__all__ = ['exported']\n", encoding="utf-8")
    (package / "a.py").write_text(
        "def called():\n    pass\ndef exported():\n    pass\nclass Gone:\n    pass\n"
        "def by_string():\n    pass\ndef imported():\n    pass\n"
        "def _private():\n    pass\n", encoding="utf-8")
    (tests / "t.py").write_text(
        "from pkg.a import called, imported\ncalled()\nLAYERS = ['by_string']\n",
        encoding="utf-8")
    assert unnamed_public_definitions(package, (tmp_path / "src", tests)) == [
        ("a", "exported"), ("a", "Gone"), ("a", "imported"),
    ]


def test_every_public_method_is_read():
    assert unread_public_methods() == []


def test_an_unread_public_method_is_found(tmp_path):
    package, tests = tmp_path / "src" / "pkg", tmp_path / "tests"
    package.mkdir(parents=True)
    tests.mkdir()
    (package / "a.py").write_text(
        "class Kept:\n    def called(self):\n        pass\n"
        "    def by_string(self):\n        pass\n"
        "    def bare_only(self):\n        pass\n"
        "    def unread(self):\n        pass\n"
        "    def _private(self):\n        pass\n"
        "    def __repr__(self):\n        pass\n"
        "def function():\n    pass\n", encoding="utf-8")
    (tests / "t.py").write_text(
        "from pkg.a import Kept\nKept().called()\nbare_only = 1\n"
        "getattr(Kept(), 'by_string')()\n", encoding="utf-8")
    assert unread_public_methods(package, (tmp_path / "src", tests)) == [
        ("Kept", "bare_only"), ("Kept", "unread"),
    ]
