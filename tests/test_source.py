"""The program's source: every imported name is read, but for perfbench's hooks."""

import ast
from pathlib import Path

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


def unread_imports(source: str) -> set[str]:
    """The names a module binds by import and never reads."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            imported.update(alias.asname or alias.name.partition(".")[0] for alias in node.names)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return imported - read


def test_every_import_is_read_but_perfbench_hooks():
    package = Path(brickeval.__file__).parent
    unread = {
        (path.stem, name)
        for path in sorted(package.glob("*.py"))
        if path.name != "__init__.py"
        for name in unread_imports(path.read_text(encoding="utf-8"))
    }
    assert unread == WRAPPED_BY_PERFBENCH
