"""The ``beliefplan`` modules import each other without a cycle.

Every import of a ``beliefplan`` module counts, at the top of a module or
inside a function body, since a cycle broken only by a deferred import is
still two modules that each need the other.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "beliefplan"


def _imported_modules(tree: ast.Module) -> set[str]:
    """The ``beliefplan`` submodules a module imports anywhere in its body."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module:
            if node.module == "beliefplan":
                found |= {alias.name for alias in node.names}
            elif node.module.startswith("beliefplan."):
                found.add(node.module.split(".")[1])
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("beliefplan."):
                    found.add(alias.name.split(".")[1])
    return found


def import_graph() -> dict[str, set[str]]:
    modules = {path.stem: path for path in PACKAGE.glob("*.py")}
    return {
        name: _imported_modules(ast.parse(path.read_text())) & set(modules)
        for name, path in modules.items()
    }


def find_cycle(graph: dict[str, set[str]]) -> list[str] | None:
    """One import cycle as a closed path of module names, or None."""
    done: set[str] = set()

    def visit(node: str, path: list[str]) -> list[str] | None:
        if node in path:
            return path[path.index(node):] + [node]
        if node in done:
            return None
        for nxt in sorted(graph[node]):
            cycle = visit(nxt, path + [node])
            if cycle:
                return cycle
        done.add(node)
        return None

    for start in sorted(graph):
        cycle = visit(start, [])
        if cycle:
            return cycle
    return None


def test_imports_form_a_dag():
    cycle = find_cycle(import_graph())
    assert cycle is None, f"import cycle: {' -> '.join(cycle)}"


def test_cycle_finder_sees_deferred_imports():
    tree = ast.parse("def f():\n    from beliefplan.b import x\n")
    graph = {"a": _imported_modules(tree), "b": {"a"}}
    assert find_cycle(graph) == ["a", "b", "a"]
