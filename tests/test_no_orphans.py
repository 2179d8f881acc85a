"""Every definition in ``src/beliefplan`` has a caller in ``src/``, every
defaulted parameter a caller that passes another value, and every record
field a reader.

A definition counts as used by a load somewhere in the package outside
its own body: a top-level function or class when its name is loaded (as a
plain name or an attribute), a property when it is loaded as an attribute,
and any other non-dunder method only when it is called (``x.m(...)``) or
loaded off its class (``Cls.m``).  An export in ``beliefplan.__all__`` is
not a use.  Matching is by name only, so the check can miss an orphan that
shares its name with something used; it never flags code that is called.
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
    "mrf.map_assignment": "test_bp_matches_enumeration_on_trees reads the MAP assignment with it",
    "mrf.energy": "the same gate scores that assignment with it",
    "core.predicate_uncertainty": "the harness tests' decay oracle and the scene tests use it",
}


def _definitions(module: str, tree: ast.Module):
    """(qualified name, the references that use it, first line, last line)
    of each checked definition; references are keys of :func:`_references`."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            uses = {("name", node.name), ("attribute", node.name)}
            yield f"{module}.{node.name}", uses, node.lineno, node.end_lineno
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not (
                    item.name.startswith("__") and item.name.endswith("__")
                ):
                    if any(isinstance(d, ast.Name) and d.id == "property"
                           for d in item.decorator_list):
                        uses = {("attribute", item.name)}
                    else:
                        uses = {("call", item.name), ("off", node.name, item.name)}
                    yield (
                        f"{module}.{node.name}.{item.name}",
                        uses,
                        item.lineno,
                        item.end_lineno,
                    )


def _references(tree: ast.Module):
    """(key, line) of every load in the module: ``("name", n)`` for a plain
    name, ``("attribute", a)`` for an attribute, ``("off", n, a)`` for an
    attribute of a plain name, and ``("call", a)`` for a call of an attribute."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield ("name", node.id), node.lineno
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            yield ("attribute", node.attr), node.lineno
            if isinstance(node.value, ast.Name):
                yield ("off", node.value.id, node.attr), node.lineno
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            yield ("call", node.func.attr), node.lineno


def _trees() -> dict[str, ast.Module]:
    return {path.stem: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}


def _records(tree: ast.Module):
    """(class node, field nodes in order) of each top-level dataclass and NamedTuple."""
    for node in tree.body:
        if not isinstance(node, ast.ClassDef):
            continue
        decorators = [d.func if isinstance(d, ast.Call) else d for d in node.decorator_list]
        if any(isinstance(d, ast.Name) and d.id == "dataclass" for d in decorators) or any(
            isinstance(b, ast.Name) and b.id == "NamedTuple" for b in node.bases
        ):
            yield node, [
                item for item in node.body
                if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)
            ]


def _methods(cls: ast.ClassDef) -> dict[str, ast.FunctionDef]:
    return {item.name: item for item in cls.body if isinstance(item, ast.FunctionDef)}


def find_orphans() -> list[str]:
    trees = _trees()
    refs = {module: list(_references(tree)) for module, tree in trees.items()}
    orphans = []
    for module, tree in trees.items():
        for qualname, uses, first, last in _definitions(module, tree):
            used = any(
                ref in uses and not (other == module and first <= line <= last)
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


# ---------------------------------------------------------------------------
# defaulted parameters

# Defaulted parameters that no call in src/ varies but that stay on purpose,
# each with the test or gate that passes another value.
UNVARIED_ALLOWED = {
    "cli.main.argv": "the CLI tests pass their argument lists",
    "planner.convergence_bound.eps_cal": "gate 1 checks the calibration slack",
    "harness.wilson_ci.z": "gate 11 passes the z of its hand computation",
}


def _functions(module: str, tree: ast.Module):
    """(qualified name, the name its callers use, function node, whether the
    first parameter is bound) of every top-level function and method."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            yield f"{module}.{node.name}", node.name, node, False
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    static = any(
                        isinstance(d, ast.Name) and d.id == "staticmethod"
                        for d in item.decorator_list
                    )
                    called_as = node.name if item.name == "__init__" else item.name
                    yield f"{module}.{node.name}.{item.name}", called_as, item, not static


def _defaulted(fn: ast.FunctionDef):
    """(name, position or None for keyword-only, default node) of each defaulted parameter."""
    positional = fn.args.posonlyargs + fn.args.args
    first = len(positional) - len(fn.args.defaults)
    for k, (arg, default) in enumerate(zip(positional[first:], fn.args.defaults)):
        yield arg.arg, first + k, default
    for arg, default in zip(fn.args.kwonlyargs, fn.args.kw_defaults):
        if default is not None:
            yield arg.arg, None, default


def _calls(tree: ast.Module):
    """(called name, call node, enclosing function node or None) of every call."""

    def walk(node, enclosing):
        for child in ast.iter_child_nodes(node):
            inner = child if isinstance(child, (ast.FunctionDef, ast.Lambda)) else enclosing
            if isinstance(child, ast.Call):
                func = child.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if name is not None:
                    yield name, child, enclosing
            yield from walk(child, inner)

    yield from walk(tree, None)


def _passed(call: ast.Call, name: str, position, bound: bool):
    """The expression a call passes for a parameter: None when it passes
    nothing, ``...`` when a starred argument hides what it passes."""
    for kw in call.keywords:
        if kw.arg == name:
            return kw.value
    if any(kw.arg is None for kw in call.keywords):
        return ...
    if position is None:
        return None
    at = position - 1 if bound else position
    for k, arg in enumerate(call.args[: at + 1]):
        if isinstance(arg, ast.Starred):
            return ...
        if k == at:
            return arg
    return None


def find_unvaried() -> list[str]:
    """Defaulted parameters that no call in src/, matched by name, passes a
    value other than the default.

    The defaulted fields of a record without its own ``__init__`` count as
    parameters of its constructor, and a ``replace(x, field=...)`` call
    counts as passing that field.  Passing the default expression itself
    counts as not varying it, and so does forwarding a parameter of the
    caller that is itself unvaried with the same default.  A starred
    argument counts as varying what it may hide.
    """
    trees = _trees()
    params = {}  # (function node, parameter name) -> qualified name
    default_of = {}  # qualified name -> dump of its default
    # (qualified name, parameter, default, [(called name, position, bound) of each way to pass it])
    entries = []
    for module, tree in trees.items():
        for qualname, called_as, fn, bound in _functions(module, tree):
            for name, position, default in _defaulted(fn):
                qualified = f"{qualname}.{name}"
                params[(fn, name)] = qualified
                default_of[qualified] = ast.dump(default)
                entries.append((qualified, name, default, [(called_as, position, bound)]))
        for cls, fields in _records(tree):
            if "__init__" in _methods(cls):
                continue  # its own __init__ is checked above
            for position, field in enumerate(fields):
                if field.value is not None:
                    name = field.target.id
                    sites = [(cls.name, position, False), ("replace", None, False)]
                    entries.append((f"{module}.{cls.name}.{name}", name, field.value, sites))
    calls = {}
    for tree in trees.values():
        for called, call, enclosing in _calls(tree):
            calls.setdefault(called, []).append((call, enclosing))
    unvaried = {entry[0] for entry in entries}

    def is_default(expr, enclosing, default) -> bool:
        if expr is ...:
            return False
        if expr is None or ast.dump(expr) == ast.dump(default):
            return True
        if not isinstance(expr, ast.Name) or enclosing is None:
            return False
        forwarded = params.get((enclosing, expr.id))
        return forwarded in unvaried and default_of[forwarded] == ast.dump(default)

    changed = True
    while changed:  # forwarding makes one parameter's verdict depend on another's
        changed = False
        for qualname, name, default, sites in entries:
            if qualname in unvaried and not all(
                is_default(_passed(call, name, position, bound), enclosing, default)
                for called_as, position, bound in sites
                for call, enclosing in calls.get(called_as, ())
            ):
                unvaried.discard(qualname)
                changed = True
    return sorted(unvaried)


def test_every_defaulted_parameter_is_varied():
    unvaried = [name for name in find_unvaried() if name not in UNVARIED_ALLOWED]
    assert unvaried == [], f"no call in src/ passes another value: {unvaried}"


def test_unvaried_allowlist_names_only_unvaried_parameters():
    # an allowed parameter that gained a varying caller should leave the list
    assert sorted(set(UNVARIED_ALLOWED) - set(find_unvaried())) == []


# ---------------------------------------------------------------------------
# record fields

_ROUND_TRACE = "ROADMAP item 4 plans to export each record as one line of a round trace"

# Record fields that nothing in src/ reads but that stay on purpose, each with
# the test or planned export that reads it.
UNREAD_ALLOWED = {
    "planner.IterationRecord.index": "test_planner reads it; " + _ROUND_TRACE,
    "planner.IterationRecord.state_uncertainty": "test_planner reads it; " + _ROUND_TRACE,
    "planner.IterationRecord.n_certain_true": _ROUND_TRACE,
    "planner.IterationRecord.n_certain_false": _ROUND_TRACE,
    "planner.IterationRecord.n_uncertain": _ROUND_TRACE,
    "planner.IterationRecord.action_kind": "test_planner reads it; " + _ROUND_TRACE,
    "planner.IterationRecord.action_target": _ROUND_TRACE,
    "planner.IterationRecord.plan_length": _ROUND_TRACE,
    "planner.PlanningEpisode.cap_hits": (
        "test_cap_hit_gives_the_round_up reads it; ROADMAP item 4 plans to export it"
    ),
}


def find_unread() -> list[str]:
    """Fields of records in src/ that no attribute load in src/, matched by
    name, reads.

    Loads inside the record's own ``__init__`` or ``__post_init__`` do not
    count: checking a value on construction is not a use of it.
    """
    trees = _trees()
    loads = [
        (module, node.attr, node.lineno)
        for module, tree in trees.items()
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    ]
    unread = []
    for module, tree in trees.items():
        for cls, fields in _records(tree):
            methods = _methods(cls)
            checks = [
                (methods[m].lineno, methods[m].end_lineno)
                for m in ("__init__", "__post_init__") if m in methods
            ]
            for field in fields:
                name = field.target.id
                if not any(
                    attr == name
                    and not (other == module and any(a <= line <= b for a, b in checks))
                    for other, attr, line in loads
                ):
                    unread.append(f"{module}.{cls.name}.{name}")
    return unread


def test_every_record_field_is_read():
    unread = [name for name in find_unread() if name not in UNREAD_ALLOWED]
    assert unread == [], f"nothing in src/ reads: {unread}"


def test_unread_allowlist_names_only_unread_fields():
    # an allowed field that gained a reader should leave the list
    assert sorted(set(UNREAD_ALLOWED) - set(find_unread())) == []
