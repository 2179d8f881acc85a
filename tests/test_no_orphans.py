"""Every definition in ``src/beliefplan`` has a caller in ``src/``.

A top-level function or class, or a non-dunder method, counts as used when
its name is loaded (as a plain name or an attribute) somewhere in the
package outside its own definition, or when ``beliefplan.__all__`` exports
it.  Matching is by name only, so the check can miss an orphan that shares
its name with something used; it never flags code that is called.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "beliefplan"

# Definitions with no caller in the package that stay on purpose, each with
# the gate or reference test that calls it.
ALLOWED = {
    "planner.astar": "test_planner_matches_breadth_first_oracle plans with it",
    "planner.parse_goal": "the same gate writes its four-move goal as text",
    "planner.random_instance": "the same gate draws its instances from it",
    "planner.apply": "the same gate's breadth-first oracle steps through it",
    "planner.heuristic_unsat": "the reference search and the admissibility tests score with it",
    "mrf.map_assignment": "test_bp_matches_enumeration_on_trees reads the MAP assignment with it",
    "mrf.energy": "the same gate scores that assignment with it",
    "scene.NoiseConfig.residual_for": "the reference perception loop in the scene tests uses it",
}


def _definitions(module: str, tree: ast.Module):
    """(qualified name, bare name, first line, last line) of each checked definition."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield f"{module}.{node.name}", node.name, node.lineno, node.end_lineno
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not (
                    item.name.startswith("__") and item.name.endswith("__")
                ):
                    yield (
                        f"{module}.{node.name}.{item.name}",
                        item.name,
                        item.lineno,
                        item.end_lineno,
                    )


def _references(tree: ast.Module):
    """(name, line) of every name or attribute the module loads."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            yield node.attr, node.lineno


def _exported(tree: ast.Module) -> set[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return set(ast.literal_eval(node.value))
    return set()


def find_orphans() -> list[str]:
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}
    refs = {module: list(_references(tree)) for module, tree in trees.items()}
    exported = _exported(trees["__init__"])
    orphans = []
    for module, tree in trees.items():
        for qualname, name, first, last in _definitions(module, tree):
            if name in exported:
                continue
            used = any(
                ref == name and not (other == module and first <= line <= last)
                for other, module_refs in refs.items()
                for ref, line in module_refs
            )
            if not used:
                orphans.append(qualname)
    return orphans


def test_every_definition_has_a_caller():
    orphans = [name for name in find_orphans() if name not in ALLOWED]
    assert orphans == [], f"no caller in src/: {orphans}"


def test_allowlist_names_only_orphans():
    # an allowed name that gained a caller should leave the list
    assert sorted(set(ALLOWED) - set(find_orphans())) == []
