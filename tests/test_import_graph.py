"""The ``beliefplan`` modules import each other without a cycle, no
module's private names but the allowed ones, and nothing outside the
standard library but numpy.

Every import of a ``beliefplan`` module counts, at the top of a module or
inside a function body, since a cycle broken only by a deferred import is
still two modules that each need the other.
"""

import ast
import sys
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


def _top_level_imports(tree: ast.Module) -> set[str]:
    """The top-level package of every absolute import anywhere in a module."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 0:
            found.add(node.module.split(".")[0])
        elif isinstance(node, ast.Import):
            found |= {alias.name.split(".")[0] for alias in node.names}
    return found


def test_numpy_is_the_only_dependency():
    # ctypes is standard library, but a door into numpy's internals
    allowed = (set(sys.stdlib_module_names) - {"ctypes"}) | {"numpy", "beliefplan"}
    for path in sorted(PACKAGE.glob("*.py")):
        outside = _top_level_imports(ast.parse(path.read_text())) - allowed
        assert not outside, f"{path.name} imports {sorted(outside)}"


# Underscore names one ``beliefplan`` module may import from another, as
# (importer, "module.name"), each with the reason it crosses the boundary.
PRIVATE_IMPORTS_ALLOWED: dict[tuple[str, str], str] = {}


def private_imports() -> set[tuple[str, str]]:
    """(importer, "module.name") of every underscore name a ``beliefplan``
    module imports from another, anywhere in its body."""
    found = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("beliefplan."):
                source = node.module.split(".")[1]
                found |= {
                    (path.stem, f"{source}.{alias.name}")
                    for alias in node.names
                    if alias.name.startswith("_")
                }
    return found


def test_no_private_names_cross_modules():
    crossing = sorted(private_imports() - set(PRIVATE_IMPORTS_ALLOWED))
    assert crossing == [], f"private names imported across modules: {crossing}"


def test_private_allowlist_names_only_imports():
    # an allowed import that went away should leave the list
    assert sorted(set(PRIVATE_IMPORTS_ALLOWED) - private_imports()) == []


def _unused_imports(tree: ast.Module) -> list[str]:
    """Names a module's top-level imports bind that the module never loads;
    ``from __future__`` imports bind nothing."""
    bound = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound += [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [alias.asname or alias.name for alias in node.names]
    loaded = {
        node.id for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    return [name for name in bound if name not in loaded]


def test_every_import_is_used():
    assert _unused_imports(ast.parse("import itertools\nimport math\nmath.pi\n")) == ["itertools"]
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue  # its imports are re-exports
        unused = _unused_imports(ast.parse(path.read_text()))
        assert unused == [], f"{path.name} imports {unused} and never uses them"
