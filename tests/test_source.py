"""The program's source: every imported name is read, but for perfbench's hooks,
and every top-level definition is read or exported; every name the tests import is read."""

import ast
from pathlib import Path
from types import ModuleType

import brickeval

# perfbench wraps these names in the modules that import them, so they stay
# imported without being read there.
WRAPPED_BY_PERFBENCH = {
    ("cli", "sample_metrics"),
    ("dataset", "analyze_with_occupancy"),
    ("metrics", "analyze_with_occupancy"),
    ("metrics", "reward_shape"),
    ("rewards", "analyze_with_occupancy"),
}
PACKAGE = Path(brickeval.__file__).parent
TESTS = Path(__file__).parent


def read_names(tree: ast.AST) -> set[str]:
    """The names a module reads."""
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}


def unread_imports(source: str) -> set[str]:
    """The names a module binds by import and never reads."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            imported.update(alias.asname or alias.name.partition(".")[0] for alias in node.names)
    return imported - read_names(tree)


def unread_definitions(sources: dict[str, str], exported: set[str]) -> set[tuple[str, str]]:
    """(module, name) of each top-level function or class of the modules but
    __init__ and __main__ that no module reads and the package does not export."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    read = set().union(*map(read_names, trees.values()))
    return {
        (module, node.name)
        for module, tree in trees.items()
        if module not in ("__init__", "__main__")
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and node.name not in read and node.name not in exported
    }


def test_every_import_is_read_but_perfbench_hooks():
    unread = {
        (path.stem, name)
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "__init__.py"
        for name in unread_imports(path.read_text(encoding="utf-8"))
    }
    assert unread == WRAPPED_BY_PERFBENCH


def test_every_test_import_is_read():
    unread = {(path.stem, name) for path in sorted(TESTS.glob("*.py"))
              for name in unread_imports(path.read_text(encoding="utf-8"))}
    assert unread == set()


def test_no_module_is_exported():
    assert [name for name in brickeval.__all__ if isinstance(getattr(brickeval, name), ModuleType)] == []


def test_every_definition_is_read_or_exported():
    sources = {path.stem: path.read_text(encoding="utf-8") for path in PACKAGE.glob("*.py")}
    assert unread_definitions(sources, set(brickeval.__all__)) == set()
