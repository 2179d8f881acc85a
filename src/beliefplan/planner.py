"""Optimal blocks-world planning on top of probabilistic predicate beliefs.

The symbolic layer is classic STRIPS: ground atoms over on / ontable /
clear / holding / handempty, a fixed action schema set (pick from table,
unstack, place, putdown, plus per-object information actions with no
physical effect), and A* with an admissible goal-counting heuristic, so
returned plans are guaranteed shortest.

The belief layer decides when planning is safe: predicates classified
certain-true become the symbolic state, and while goal-relevant predicates
remain uncertain the closed loop spends bounded information-gathering
actions to sharpen perception before committing to a plan.
"""

from __future__ import annotations

import heapq
import itertools
import math
import re
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from beliefplan.core import (
    GroundPredicate,
    ProbabilisticState,
    Relation,
    classify,
    fuse_observation,
    parse_predicate,
    state_uncertainty_independent,
)
from beliefplan.mrf import CapacityError, build_mrf, loopy_bp, refined_state

MAX_EXPANSIONS = 10**6

Atom = tuple[str, ...]


def on(a: str, b: str) -> Atom:
    return ("on", a, b)


def ontable(x: str) -> Atom:
    return ("ontable", x)


def clear(x: str) -> Atom:
    return ("clear", x)


def holding(x: str) -> Atom:
    return ("holding", x)


def handempty() -> Atom:
    return ("handempty",)


def _check_atoms(atoms: frozenset[Atom]) -> None:
    held = [a[1] for a in atoms if a[0] == "holding"]
    if len(held) > 1:
        raise ValueError(f"hand cannot hold {len(held)} objects")
    if bool(held) == (handempty() in atoms):
        raise ValueError("exactly one of holding(x) / handempty must hold")
    placed: dict[str, str] = {}
    occupied: dict[str, str] = {}
    for a in atoms:
        if a[0] == "on":
            upper, lower = a[1], a[2]
            if upper == lower:
                raise ValueError(f"object {upper} cannot rest on itself")
            if upper in placed:
                raise ValueError(f"object {upper} rests on two supports")
            placed[upper] = lower
            if lower in occupied:
                raise ValueError(f"object {lower} supports two objects")
            occupied[lower] = upper
        elif a[0] == "ontable":
            if a[1] in placed:
                raise ValueError(f"object {a[1]} is both on the table and stacked")
            placed[a[1]] = "<table>"
    for a in atoms:
        if a[0] == "clear" and a[1] in occupied:
            raise ValueError(f"object {a[1]} cannot be clear while {occupied[a[1]]} rests on it")
        if a[0] == "holding" and a[1] in placed:
            raise ValueError(f"held object {a[1]} cannot also be placed")
    for upper in placed:
        node, seen = upper, set()
        while node in placed:
            if node in seen:
                raise ValueError("support atoms form a cycle")
            seen.add(node)
            node = placed[node]


@dataclass(frozen=True)
class SymbolicWorldState:
    """Immutable set of ground STRIPS atoms with structural validation."""

    atoms: frozenset[Atom]

    def __post_init__(self):
        object.__setattr__(self, "atoms", frozenset(self.atoms))
        _check_atoms(self.atoms)

    def holds(self, atom: Atom) -> bool:
        return atom in self.atoms

    def objects(self) -> frozenset[str]:
        return frozenset(arg for a in self.atoms for arg in a[1:])

    @classmethod
    def from_stacks(cls, stacks: Sequence[Sequence[str]]) -> "SymbolicWorldState":
        """Build a hand-empty state from stacks listed bottom-first."""
        atoms: set[Atom] = {handempty()}
        for stack in stacks:
            atoms.add(ontable(stack[0]))
            for lower, upper in zip(stack, stack[1:]):
                atoms.add(on(upper, lower))
            atoms.add(clear(stack[-1]))
        return cls(frozenset(atoms))


@dataclass(frozen=True)
class GroundedAction:
    name: str
    args: tuple[str, ...]
    preconditions: frozenset[Atom]
    add: frozenset[Atom]
    delete: frozenset[Atom]
    belief_effect: str | None = None  # info actions sharpen perception, move nothing

    def __post_init__(self):
        if self.belief_effect is not None and (self.add or self.delete):
            raise ValueError("information actions must not change the symbolic state")

    def __str__(self):
        return f"{self.name}({', '.join(self.args)})"


INFO_ACTION_NAMES = ("look_closer", "push_obstacle")


def ground_domain(objects: Iterable[str]) -> tuple[GroundedAction, ...]:
    """All grounded actions for this object set, sorted by (name, args)."""
    objs = sorted(set(objects))
    actions: list[GroundedAction] = []
    for x in objs:
        actions.append(
            GroundedAction(
                "pick", (x,),
                frozenset({clear(x), ontable(x), handempty()}),
                frozenset({holding(x)}),
                frozenset({clear(x), ontable(x), handempty()}),
            )
        )
        actions.append(
            GroundedAction(
                "putdown", (x,),
                frozenset({holding(x)}),
                frozenset({ontable(x), clear(x), handempty()}),
                frozenset({holding(x)}),
            )
        )
        for kind in INFO_ACTION_NAMES:
            actions.append(
                GroundedAction(kind, (x,), frozenset(), frozenset(), frozenset(), kind)
            )
        for y in objs:
            if x == y:
                continue
            actions.append(
                GroundedAction(
                    "pick", (x, y),
                    frozenset({clear(x), on(x, y), handempty()}),
                    frozenset({holding(x), clear(y)}),
                    frozenset({clear(x), on(x, y), handempty()}),
                )
            )
            actions.append(
                GroundedAction(
                    "place", (x, y),
                    frozenset({holding(x), clear(y)}),
                    frozenset({on(x, y), clear(x), handempty()}),
                    frozenset({holding(x), clear(y)}),
                )
            )
    return tuple(sorted(actions, key=lambda a: (a.name, a.args)))


def apply(state: SymbolicWorldState, action: GroundedAction) -> SymbolicWorldState:
    """Successor state; raises if a precondition is unsatisfied."""
    missing = action.preconditions - state.atoms
    if missing:
        raise ValueError(
            f"cannot apply {action}: missing {sorted(missing)}"
        )
    return SymbolicWorldState((state.atoms - action.delete) | action.add)


# ---------------------------------------------------------------------------
# goals


_GOAL_SPLIT = re.compile(r"\s*&\s*")


@dataclass(frozen=True)
class Goal:
    """Conjunction of On / Clear targets, validated for joint consistency."""

    predicates: frozenset[GroundPredicate]

    def __post_init__(self):
        object.__setattr__(self, "predicates", frozenset(self.predicates))
        if not self.predicates:
            raise ValueError("goal must name at least one predicate")
        placed: dict[str, str] = {}
        clear_objs = set()
        for pred in self.predicates:
            if pred.relation is Relation.ON:
                upper, lower = pred.args
                if upper in placed and placed[upper] != lower:
                    raise ValueError(f"goal places {upper} on two supports")
                placed[upper] = lower
            elif pred.relation is Relation.CLEAR:
                clear_objs.add(pred.args[0])
            else:
                raise ValueError(f"goals may only name On or Clear, got {pred}")
        for upper, lower in placed.items():
            if lower in clear_objs:
                raise ValueError(f"goal wants {lower} clear but also {upper} on it")
        for start in placed:
            node, seen = start, set()
            while node in placed:
                if node in seen:
                    raise ValueError("goal stacking is cyclic")
                seen.add(node)
                node = placed[node]

    def atoms(self) -> frozenset[Atom]:
        out: set[Atom] = set()
        for pred in self.predicates:
            if pred.relation is Relation.ON:
                out.add(on(*pred.args))
            else:
                out.add(clear(pred.args[0]))
        return frozenset(out)

    def objects(self) -> frozenset[str]:
        return frozenset(arg for p in self.predicates for arg in p.args)

    def __str__(self):
        return " & ".join(sorted(str(p) for p in self.predicates))


def parse_goal(text: str) -> Goal:
    """Parse a conjunction like ``On(a,b) & On(b,c)``."""
    parts = [p for p in _GOAL_SPLIT.split(text.strip()) if p]
    if not parts:
        raise ValueError("empty goal expression")
    return Goal(frozenset(parse_predicate(p) for p in parts))


# ---------------------------------------------------------------------------
# search


def heuristic_unsat(atoms: frozenset[Atom], goal_atoms: frozenset[Atom]) -> int:
    """Admissible goal-count heuristic.

    Counts unsatisfied goal atoms, except Clear targets that arrive for
    free with an unsatisfied On target (placing x onto y yields clear(x)
    in the same move), so no action can pay off two counted atoms at once.
    """
    unsat = goal_atoms - atoms
    pending_uppers = {a[1] for a in unsat if a[0] == "on"}
    h = 0
    for a in unsat:
        if a[0] == "clear" and a[1] in pending_uppers:
            continue
        h += 1
    return h


def _search(
    init_atoms: frozenset[Atom],
    goal_atoms: frozenset[Atom],
    actions: Sequence[GroundedAction],
    max_expansions: int,
) -> tuple[list[GroundedAction] | None, int]:
    """A* over atom sets; returns (optimal plan or None, expansion count)."""
    moves = [a for a in actions if a.belief_effect is None]
    h0 = heuristic_unsat(init_atoms, goal_atoms)
    counter = itertools.count()
    frontier: list[tuple[int, int, int, frozenset[Atom]]] = [
        (h0, next(counter), 0, init_atoms)
    ]
    best_g: dict[frozenset[Atom], int] = {init_atoms: 0}
    parent: dict[frozenset[Atom], tuple[frozenset[Atom], GroundedAction]] = {}
    expansions = 0
    while frontier:
        f, _, g, atoms = heapq.heappop(frontier)
        if g > best_g.get(atoms, g):
            continue  # superseded entry
        if goal_atoms <= atoms:
            plan: list[GroundedAction] = []
            node = atoms
            while node in parent:
                node, action = parent[node]
                plan.append(action)
            plan.reverse()
            return plan, expansions
        expansions += 1
        if expansions > max_expansions:
            raise CapacityError(f"search capped at {max_expansions} expansions")
        for action in moves:
            if not action.preconditions <= atoms:
                continue
            succ = (atoms - action.delete) | action.add
            ng = g + 1
            if ng < best_g.get(succ, ng + 1):
                best_g[succ] = ng
                parent[succ] = (atoms, action)
                heapq.heappush(
                    frontier, (ng + heuristic_unsat(succ, goal_atoms), next(counter), ng, succ)
                )
    return None, expansions


def astar(
    init: SymbolicWorldState,
    goal: Goal,
    objects: Iterable[str] | None = None,
    max_expansions: int = MAX_EXPANSIONS,
) -> list[GroundedAction] | None:
    """Shortest manipulation plan from init to goal, or None if unreachable.

    Unit action costs; ties broken deterministically by expansion order
    with successors generated in sorted action order.  Raises
    CapacityError past the expansion cap.
    """
    if objects is None:
        objects = init.objects() | goal.objects()
    plan, _ = _search(init.atoms, goal.atoms(), ground_domain(objects), max_expansions)
    return plan


# ---------------------------------------------------------------------------
# information value and convergence arithmetic


def ig_value(state_uncertainty: float, info_gain: float, cost: float) -> bool:
    """True when expected uncertainty reduction justifies the action cost."""
    if not (0.0 <= state_uncertainty <= 1.0):
        raise ValueError(f"state uncertainty must lie in [0, 1], got {state_uncertainty}")
    if info_gain < 0 or cost < 0:
        raise ValueError("info gain and cost must be non-negative")
    return state_uncertainty * info_gain > cost


def convergence_bound(
    tau_plan: float, alpha: float, u0: float, eps_cal: float = 0.0
) -> int:
    """Smallest k with u0 * (1 - alpha)^k < (1 - tau_plan) + eps_cal.

    The closed form ceil(ln(target / u0) / ln(1 - alpha)) is corrected for
    exact boundary hits (the inequality is strict) and float rounding, so
    the result always matches the literal definition.
    """
    if not (0.0 <= u0 <= 1.0):
        raise ValueError(f"initial uncertainty must lie in [0, 1], got {u0}")
    if not (0.0 < alpha < 1.0):
        raise ValueError(f"reduction rate must lie in (0, 1), got {alpha}")
    if not (0.0 < tau_plan < 1.0):
        raise ValueError(f"planning threshold must lie in (0, 1), got {tau_plan}")
    if eps_cal < 0:
        raise ValueError(f"calibration slack must be non-negative, got {eps_cal}")
    target = (1.0 - tau_plan) + eps_cal
    if u0 < target:
        return 0
    if u0 == 0.0:
        return 0
    k = max(0, math.ceil(math.log(target / u0) / math.log(1.0 - alpha)))
    while u0 * (1.0 - alpha) ** k >= target:
        k += 1
    while k > 0 and u0 * (1.0 - alpha) ** (k - 1) < target:
        k -= 1
    return k


# ---------------------------------------------------------------------------
# closed-loop planning

LOOK_CLOSER = "look_closer"
PUSH_OBSTACLE = "push_obstacle"


@dataclass(frozen=True)
class InfoAction:
    kind: str
    target: str


@dataclass(frozen=True)
class PlannerOptions:
    refine_with_mrf: bool = False
    info_enabled: bool = True
    info_cost: float = 0.1


def choose_info_action(
    uncertain: Iterable[GroundPredicate],
    goal: Goal,
    state_uncertainty: float,
    occluded: frozenset[str] | set[str],
    gains: Mapping[str, float],
    cost: float = 0.1,
) -> InfoAction | None:
    """Pick the information action for the most goal-critical object.

    The target is the object appearing in the most goal-relevant uncertain
    predicates (lexicographic tie-break); occluded targets get
    push_obstacle, others look_closer.  Returns None when nothing is
    goal-critical or the value-of-information gate rejects the action.
    """
    goal_objs = goal.objects()
    counts: dict[str, int] = {}
    for pred in uncertain:
        if not set(pred.args) & goal_objs:
            continue
        for obj in pred.args:
            counts[obj] = counts.get(obj, 0) + 1
    if not counts:
        return None
    target = min(counts, key=lambda o: (-counts[o], o))
    kind = PUSH_OBSTACLE if target in occluded else LOOK_CLOSER
    gain = gains[kind]
    if not ig_value(state_uncertainty, gain, cost):
        return None
    return InfoAction(kind, target)


def world_state_from_beliefs(
    belief: ProbabilisticState,
    certain_true: Iterable[GroundPredicate],
    objects: Iterable[str],
) -> SymbolicWorldState:
    """Project certain-true On beliefs onto a consistent symbolic state.

    On predicates are admitted in decreasing confidence order, skipping
    any that would stack an object twice, load a support twice, or close a
    cycle.  Objects without an admitted support sit on the table; clear
    and handempty atoms follow structurally.
    """
    ons = sorted(
        (p for p in certain_true if p.relation is Relation.ON),
        key=lambda p: (-belief.confidence(p), p.sort_key()),
    )
    lower_of: dict[str, str] = {}
    occupied: set[str] = set()
    for pred in ons:
        upper, lower = pred.args
        if upper in lower_of or lower in occupied:
            continue
        node = lower
        while node in lower_of:
            node = lower_of[node]
        if node == upper:
            continue  # would close a support cycle
        lower_of[upper] = lower
        occupied.add(lower)
    atoms: set[Atom] = {handempty()}
    for x in sorted(set(objects)):
        if x in lower_of:
            atoms.add(on(x, lower_of[x]))
        else:
            atoms.add(ontable(x))
        if x not in occupied:
            atoms.add(clear(x))
    return SymbolicWorldState(frozenset(atoms))


@dataclass(frozen=True)
class IterationRecord:
    index: int
    state_uncertainty: float
    n_certain_true: int
    n_certain_false: int
    n_uncertain: int
    action_kind: str  # look_closer / push_obstacle / plan / give_up
    action_target: str | None
    plan_length: int | None


@dataclass
class PlanningEpisode:
    goal: Goal
    tau_plan: float
    max_retries: int
    iterations: list[IterationRecord]
    success: bool
    info_action_count: int
    plan: list[GroundedAction] | None
    expansions: int
    modeled_time_ms: float

    def uncertainty_trace(self) -> list[float]:
        return [r.state_uncertainty for r in self.iterations]

    def to_rows(self, episode_id: int) -> list[tuple[int, int, float, str]]:
        """Flat (episode_id, step, U, action_kind) records for export."""
        return [
            (episode_id, r.index, r.state_uncertainty, r.action_kind)
            for r in self.iterations
        ]

    def summary(self) -> dict:
        return {
            "goal": str(self.goal),
            "tau_plan": self.tau_plan,
            "success": self.success,
            "rounds": len(self.iterations),
            "info_actions": self.info_action_count,
            "plan_length": len(self.plan) if self.plan is not None else None,
            "expansions": self.expansions,
            "modeled_time_ms": self.modeled_time_ms,
        }


def _modeled_time_ms(observes: int, infos: int, expansions: int, plan_length: int) -> float:
    # fixed per-operation costs keep exported timings reproducible
    return 2.0 + 1.5 * observes + 4.0 * infos + 0.02 * expansions + 0.5 * plan_length


def plan_under_uncertainty(
    env,
    goal: Goal,
    tau_plan: float = 0.7,
    max_retries: int = 3,
    options: PlannerOptions = PlannerOptions(),
) -> PlanningEpisode:
    """Closed perception-plan-act loop with bounded information gathering.

    Each round observes (fusing into the running belief), classifies, and
    either spends an information action on the most goal-critical
    uncertain object (never on the last round) or commits: the
    certain-true predicates become a symbolic state, A* plans, and the
    plan executes once against the environment's ground truth.  The
    episode succeeds iff execution reaches the goal.
    """
    if max_retries < 1:
        raise ValueError(f"max_retries must be at least 1, got {max_retries}")
    belief: ProbabilisticState | None = None
    records: list[IterationRecord] = []
    info_count = 0
    expansions_total = 0
    final_plan: list[GroundedAction] | None = None
    success = False
    objects = env.object_ids()
    goal_objs = goal.objects()

    for round_idx in range(max_retries):
        obs = env.observe()
        if options.refine_with_mrf:
            obs = refined_state(obs, loopy_bp(build_mrf(obs)))
        belief = obs if belief is None else fuse_observation(belief, obs)
        u_state = state_uncertainty_independent(belief)
        part = classify(belief, tau_plan)
        sizes = (len(part.certain_true), len(part.certain_false), len(part.uncertain))

        critical = [p for p in part.uncertain if set(p.args) & goal_objs]
        if options.info_enabled and critical and round_idx < max_retries - 1:
            gains = {LOOK_CLOSER: env.cfg.look_gain, PUSH_OBSTACLE: env.cfg.push_gain}
            action = choose_info_action(
                part.uncertain, goal, u_state, env.occluded_ids(), gains, options.info_cost
            )
            if action is not None:
                env.apply_info(action.kind, action.target)
                info_count += 1
                records.append(
                    IterationRecord(round_idx, u_state, *sizes, action.kind, action.target, None)
                )
                continue

        world = world_state_from_beliefs(belief, part.certain_true, objects)
        plan, expansions = _search(
            world.atoms, goal.atoms(), ground_domain(objects), MAX_EXPANSIONS
        )
        expansions_total += expansions
        if plan is None:
            records.append(IterationRecord(round_idx, u_state, *sizes, "give_up", None, None))
            continue
        success = env.execute(plan, goal.predicates)
        final_plan = plan
        records.append(IterationRecord(round_idx, u_state, *sizes, "plan", None, len(plan)))
        break

    return PlanningEpisode(
        goal=goal,
        tau_plan=tau_plan,
        max_retries=max_retries,
        iterations=records,
        success=success,
        info_action_count=info_count,
        plan=final_plan,
        expansions=expansions_total,
        modeled_time_ms=_modeled_time_ms(
            len(records), info_count, expansions_total,
            len(final_plan) if final_plan else 0,
        ),
    )


# ---------------------------------------------------------------------------
# benchmark instances


def random_instance(
    rng: np.random.Generator, n_blocks: int
) -> tuple[SymbolicWorldState, Goal]:
    """Seeded solvable blocks-world instance for benchmarking.

    Start and goal are independent random stackings of the same blocks;
    any consistent rearrangement is reachable, so every instance is
    solvable.  Goals list the On atoms of multi-block goal stacks and
    occasionally a Clear target for a stack top.
    """
    if n_blocks < 2:
        raise ValueError(f"need at least 2 blocks, got {n_blocks}")
    blocks = [chr(ord("a") + i) for i in range(n_blocks)]

    def random_stacks() -> list[list[str]]:
        order = list(rng.permutation(blocks))
        stacks: list[list[str]] = [[order[0]]]
        for b in order[1:]:
            if rng.uniform() < 0.4:
                stacks.append([b])
            else:
                stacks[int(rng.integers(len(stacks)))].append(b)
        return stacks

    start = SymbolicWorldState.from_stacks(random_stacks())
    goal_preds: set[GroundPredicate] = set()
    goal_stacks = random_stacks()
    for stack in goal_stacks:
        for lower, upper in zip(stack, stack[1:]):
            goal_preds.add(GroundPredicate(Relation.ON, (upper, lower)))
    tall = [s for s in goal_stacks if len(s) >= 2]
    if tall and rng.uniform() < 0.3:
        stack = tall[int(rng.integers(len(tall)))]
        goal_preds.add(GroundPredicate(Relation.CLEAR, (stack[-1],)))
    if not goal_preds:
        a, b = sorted(rng.choice(blocks, size=2, replace=False))
        goal_preds.add(GroundPredicate(Relation.ON, (a, b)))
    return start, Goal(frozenset(goal_preds))
