import ast
from graphlib import TopologicalSorter
from pathlib import Path

SOURCE = Path(__file__).resolve().parent.parent / "src" / "fracmax"
TREES = {path.stem: ast.parse(path.read_text(), str(path)) for path in sorted(SOURCE.glob("*.py"))}


def package_imports(node) -> set[str]:
    """The package modules an import statement reads: `from .x import ...`, `from . import x`, `import fracmax.x`."""
    if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").split(".")[0] == "fracmax"):
        parts = (node.module or "").split(".")[0 if node.level else 1 :]
        if parts and parts[0]:
            return {parts[0]}
        return {alias.name if alias.name in TREES else "__init__" for alias in node.names}
    if isinstance(node, ast.Import):
        names = [alias.name.split(".") for alias in node.names if alias.name.split(".")[0] == "fracmax"]
        return {parts[1] if len(parts) > 1 else "__init__" for parts in names}
    return set()


def test_no_function_body_imports_from_the_package():
    local = [
        f"{name}.{fn.name}:{node.lineno}"
        for name, tree in TREES.items()
        for fn in ast.walk(tree)
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
        for node in ast.walk(fn)
        if package_imports(node)
    ]
    assert local == []


def test_package_imports_form_no_cycle():
    graph = {name: set().union(*map(package_imports, ast.walk(tree))) for name, tree in TREES.items()}
    TopologicalSorter(graph).prepare()  # raises CycleError, naming the cycle
