"""Source hygiene checks over the package and its tests."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def unused_imports(path: Path) -> list:
    """Module-level imports of one file that nothing in it references."""
    tree = ast.parse(path.read_text())
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [f"{path.relative_to(ROOT)}:{line}: {name}"
            for name, line in bound.items() if name not in used]


def test_no_unused_module_level_imports():
    files = sorted((ROOT / "src" / "mcenhance").glob("*.py")) + sorted((ROOT / "tests").glob("*.py"))
    assert [hit for path in files for hit in unused_imports(path)] == []
