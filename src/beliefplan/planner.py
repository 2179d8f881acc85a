"""Optimal blocks-world planning on top of probabilistic predicate beliefs.

The symbolic layer is classic STRIPS: ground atoms over on / ontable /
clear / holding / handempty, a fixed set of move schemas (pick from table,
unstack, place, putdown), and A* with the admissible must-move heuristic
of Slaney and Thiébaux, which counts the blocks that must be picked and
placed, buried ones included, so returned plans are guaranteed shortest.
The search runs over integer bitmasks with one bit per atom, on tables
compiled once per object set, and generates successors from the state's
structure (the clear blocks when the hand is empty, the places for the
held block otherwise) instead of testing every grounded move; it returns
the plan and expansion count that a scan of all moves in sorted order
would.

The belief layer decides when planning is safe: predicates classified
certain-true become the symbolic state, and while goal-relevant predicates
remain uncertain the closed loop spends bounded information-gathering
actions to sharpen perception before committing to a plan.  Those are
belief actions taken by the loop, not STRIPS moves: they change what is
perceived, never the symbolic state.  Their two kinds are named here, and
both sharpen by the perception channel's one gain.  Certain-true On
beliefs enter the symbolic state only as far as the core stacking rule
admits them.  This module imports nothing from the scene simulator; the
simulator executes plans with this module's actions.  It models no time
either: an episode carries its counts (rounds, info actions, expansions,
plan), from which the harness models the episode's time.
"""

from __future__ import annotations

import functools
import heapq
import itertools
import math
import re
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, NamedTuple, Sequence

import numpy as np

from beliefplan.core import (
    GroundPredicate,
    ProbabilisticState,
    Relation,
    classify,
    fuse_observation,
    parse_predicate,
    reduction_law,
    state_uncertainty_independent,
    support_map,
)
from beliefplan.mrf import CapacityError, refined_state

MAX_EXPANSIONS = 10**6

# the two information-gathering action kinds
LOOK_CLOSER = "look_closer"
PUSH_OBSTACLE = "push_obstacle"

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


def support_atoms(lower_of: Mapping[str, str], objects: Iterable[str]) -> frozenset[Atom]:
    """Hand-empty atoms of a support structure given as ``upper -> lower``
    links: on or ontable for each object, clear where nothing rests on it."""
    occupied = set(lower_of.values())
    atoms: set[Atom] = {handempty()}
    for x in set(objects):
        atoms.add(on(x, lower_of[x]) if x in lower_of else ontable(x))
        if x not in occupied:
            atoms.add(clear(x))
    return frozenset(atoms)


def _check_atoms(atoms: frozenset[Atom]) -> None:
    held = [a[1] for a in atoms if a[0] == "holding"]
    if len(held) > 1:
        raise ValueError(f"hand cannot hold {len(held)} objects")
    if bool(held) == (handempty() in atoms):
        raise ValueError("exactly one of holding(x) / handempty must hold")
    lower_of = support_map(a[1:] for a in atoms if a[0] == "on")
    upper_of = {lower: upper for upper, lower in lower_of.items()}
    for a in atoms:
        if a[0] == "ontable" and a[1] in lower_of:
            raise ValueError(f"object {a[1]} is both on the table and stacked")
        if a[0] == "clear" and a[1] in upper_of:
            raise ValueError(f"object {a[1]} cannot be clear while {upper_of[a[1]]} rests on it")
        if a[0] == "holding" and (a[1] in lower_of or ontable(a[1]) in atoms):
            raise ValueError(f"held object {a[1]} cannot also be placed")


@dataclass(frozen=True)
class SymbolicWorldState:
    """Immutable set of ground STRIPS atoms with structural validation."""

    atoms: frozenset[Atom]

    def __post_init__(self):
        object.__setattr__(self, "atoms", frozenset(self.atoms))
        _check_atoms(self.atoms)

    def objects(self) -> frozenset[str]:
        return frozenset(arg for a in self.atoms for arg in a[1:])

    @classmethod
    def from_stacks(cls, stacks: Sequence[Sequence[str]]) -> "SymbolicWorldState":
        """Build a hand-empty state from stacks listed bottom-first."""
        objects = [x for stack in stacks for x in stack]
        if len(set(objects)) != len(objects):
            raise ValueError(f"stacks list an object twice: {stacks}")
        pairs = [(upper, lower) for stack in stacks for lower, upper in zip(stack, stack[1:])]
        return cls(support_atoms(support_map(pairs), objects))


@dataclass(frozen=True)
class GroundedAction:
    name: str
    args: tuple[str, ...]
    preconditions: frozenset[Atom]
    add: frozenset[Atom]
    delete: frozenset[Atom]

    def __str__(self):
        return f"{self.name}({', '.join(self.args)})"


def ground_domain(objects: Iterable[str]) -> tuple[GroundedAction, ...]:
    """All grounded moves for this object set, sorted by (name, args):
    pick(x) from the table, pick(x, y) off y, place(x, y) and putdown(x)."""
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
        for pred in self.predicates:
            if pred.relation not in (Relation.ON, Relation.CLEAR):
                raise ValueError(f"goals may only name On or Clear, got {pred}")
        ons = sorted(p.args for p in self.predicates if p.relation is Relation.ON)
        for upper, lower in support_map(ons).items():
            if GroundPredicate(Relation.CLEAR, (lower,)) in self.predicates:
                raise ValueError(f"goal wants {lower} clear but also {upper} on it")

    def atoms(self) -> frozenset[Atom]:
        """The STRIPS atoms the goal names: on(a, b) for each On(a, b) and
        clear(x) for each Clear(x).  The planner searches for them and
        execution checks them."""
        return frozenset(
            on(*p.args) if p.relation is Relation.ON else clear(p.args[0]) for p in self.predicates
        )

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


def _must_move_rules(goal_atoms: Sequence[Atom]):
    """The goal's side of :func:`_compile_heuristic`: ``displaced(x, y)``,
    whether a block x resting on y (None for the table) must move by the
    first two rules, plus the blocks the goal names and wants clear."""
    goal_lower = {a[1]: a[2] for a in goal_atoms if a[0] == "on"}
    goal_upper = {a[2]: a[1] for a in goal_atoms if a[0] == "on"}
    want_clear = {a[1] for a in goal_atoms if a[0] == "clear"}
    named = {x for a in goal_atoms for x in a[1:]}

    def displaced(x: str, y: str | None) -> bool:
        if goal_lower.get(x, y) != y:
            return True  # the goal puts x on another support
        return y is not None and (y in want_clear or goal_upper.get(y, x) != x)

    return displaced, named, want_clear


class _Domain(NamedTuple):
    """Bitmask search tables for one sorted object tuple.

    Moves are ``(action, keep, add)``: the successor of ``s`` is
    ``s & keep | add``, with ``keep`` the complement of the delete mask.
    """

    objects: tuple[str, ...]
    bit: dict[Atom, int]  # atom -> its single-bit mask
    handempty: int
    holding: int  # union of every holding(x) bit
    # per block in sorted order: (clear(x) bit, support mask, support bit -> pick move)
    picks: tuple[tuple[int, int, dict[int, tuple]], ...]
    # holding(x) bit -> ((clear(y) bit, place(x, y) move) in y order..., (0, putdown(x) move))
    holds: dict[int, tuple[tuple[int, tuple], ...]]
    # support bit of block x -> (x's bit in a mask of blocks, mask of every on(z, x) bit)
    climb: dict[int, tuple[int, int]]

    def mask(self, atoms: Iterable[Atom]) -> int:
        """The bitmask of atoms that all have a bit here."""
        return sum(map(self.bit.__getitem__, atoms))


@functools.lru_cache(maxsize=64)
def _compile_domain(objects: tuple[str, ...]) -> _Domain:
    """Search tables for a sorted, duplicate-free object tuple.

    Every atom a grounded move touches gets one bit.  The support mask of
    block x covers ontable(x) and each on(x, y); its pick table maps the
    one support bit a valid state can hold to the matching pick move, and
    its climb table the block and what can rest on it, for the heuristic.
    """
    moves = {(a.name, a.args): a for a in ground_domain(objects)}
    atoms = {handempty()}
    for a in moves.values():
        atoms |= a.preconditions | a.add | a.delete
    bit = {atom: 1 << i for i, atom in enumerate(sorted(atoms))}

    def move(key):
        action = moves[key]
        return (
            action,
            ~sum(bit[atom] for atom in action.delete),
            sum(bit[atom] for atom in action.add),
        )

    picks = []
    holds = {}
    climb = {}
    for i, x in enumerate(objects):
        others = [y for y in objects if y != x]
        support = {bit[ontable(x)]: move(("pick", (x,)))}
        support.update({bit[on(x, y)]: move(("pick", (x, y))) for y in others})
        picks.append((bit[clear(x)], sum(support), support))
        places = [(bit[clear(y)], move(("place", (x, y)))) for y in others]
        holds[bit[holding(x)]] = (*places, (0, move(("putdown", (x,)))))
        onto = sum(bit[on(z, x)] for z in others)
        climb.update((b, (1 << i, onto)) for b in support)
    return _Domain(objects, bit, bit[handempty()], sum(holds), tuple(picks), holds, climb)


@functools.lru_cache(maxsize=64)
def _compile_heuristic(objects: tuple[str, ...], goal: int) -> Callable[[int], int]:
    """The admissible must-move heuristic (Slaney and Thiébaux, "Blocks
    World revisited", AIJ 125, 2001) over the bitmasks of one sorted object
    tuple, towards the goal atoms whose bits ``goal`` sets.

    A placed block must move if the goal puts it on another support, if it
    rests on a block the goal wants clear or wants another block on, or if
    it rests on a block that must move.  Each such block costs a pick and a
    place; a held block the goal names costs its place.  The goal does not
    ask for an empty hand, so one block may end held: a block the goal does
    not name, lifted off a wanted-clear block that stays, saves its place,
    and the bound takes 1 off when such a block exists.  A block with no
    support atom cannot be picked and never counts.  Here that is one mask
    of the support bits that make a block move by the first two rules, then
    a walk up the stacks for the third.
    """
    domain = _compile_domain(objects)
    bit, climb = domain.bit, domain.climb
    displaced, named, want_clear = _must_move_rules([a for a, b in bit.items() if goal & b])
    move = sum(bit[ontable(x)] for x in objects if displaced(x, None))
    move += sum(bit[on(x, y)] for x in objects for y in objects if x != y and displaced(x, y))
    held_named = sum(bit[holding(x)] for x in named)
    # (on(x, y) bit, y's block bit) for each unnamed x on a wanted-clear y
    ends_held = tuple(
        (bit[on(x, y)], 1 << j)
        for j, y in enumerate(objects) if y in want_clear
        for x in objects if x != y and x not in named
    )

    def heuristic(s: int) -> int:
        moving = 0  # a bit per block that must move
        pending = s & move
        while pending:
            low = pending & -pending
            pending ^= low
            block, onto = climb[low]
            while not moving & block:  # mark it and every block resting on it
                moving |= block
                up = s & onto
                if not up:
                    break
                block, onto = climb[up]
        h = 2 * moving.bit_count() + bool(s & held_named)
        for on_bit, lower in ends_held:
            if s & on_bit and not moving & lower:
                return h - 1
        return h

    return heuristic


def _search(start: int, goal: int, domain: _Domain) -> tuple[list[GroundedAction] | None, int]:
    """A* from the atom bitmask ``start`` to any state holding every bit of
    ``goal``, both masks of ``domain``; returns (optimal plan or None,
    expansion count), or raises CapacityError past ``MAX_EXPANSIONS``
    expansions.

    Successors come from structure rather than a scan of
    every move: with the hand empty, each clear block in sorted order has
    at most one applicable pick, found from its single support bit;
    holding x, the successors are place(x, y) for each clear y in y order,
    then putdown(x).  Since
    every validated state has exactly one of holding / handempty and at
    most one support per block, and every move keeps both properties,
    this is exactly the applicable moves in sorted (name, args) order.
    The must-move heuristic is admissible but not consistent, so a state
    reached again on a smaller g is pushed again, which keeps plans
    optimal.  Frontier entries are ``(f, -g, push order, state)``: f ties
    go toward larger g, then push order, which skips most of a plateau
    of equal f on the way to the goal.
    """
    cap = MAX_EXPANSIONS
    heuristic = _compile_heuristic(domain.objects, goal)

    handempty_bit, holding_mask, picks, holds = (
        domain.handempty, domain.holding, domain.picks, domain.holds
    )
    counter = itertools.count()
    frontier: list[tuple[int, int, int, int]] = [(heuristic(start), 0, next(counter), start)]
    best_g: dict[int, int] = {start: 0}
    parent: dict[int, tuple[int, GroundedAction]] = {}
    expansions = 0
    while frontier:
        _, neg_g, _, s = heapq.heappop(frontier)
        g = -neg_g
        if g > best_g.get(s, g):
            continue  # superseded entry
        if (s & goal) == goal:
            plan: list[GroundedAction] = []
            while s in parent:
                s, action = parent[s]
                plan.append(action)
            plan.reverse()
            return plan, expansions
        expansions += 1
        if expansions > cap:
            raise CapacityError(f"search capped at {cap} expansions")
        if s & handempty_bit:
            moves = [
                table[s & support]
                for clear_bit, support, table in picks
                if s & clear_bit and (s & support) in table
            ]
        else:
            moves = [m for need, m in holds.get(s & holding_mask, ()) if (s & need) == need]
        ng = g + 1
        for action, keep, add in moves:
            succ = (s & keep) | add
            if ng < best_g.get(succ, ng + 1):
                best_g[succ] = ng
                parent[succ] = (s, action)
                heapq.heappush(frontier, (ng + heuristic(succ), -ng, next(counter), succ))
    return None, expansions


def astar(init: SymbolicWorldState, goal: Goal) -> list[GroundedAction] | None:
    """Shortest manipulation plan from init to goal, or None if unreachable.

    A* over atom bitmasks with unit action costs, guided by the must-move
    heuristic of :func:`_compile_heuristic`; f ties broken toward larger
    g, then push order (Asai and Fukunaga, "Tie-breaking strategies for
    cost-optimal best first search", JAIR 58, 2017), with successors
    generated in sorted (name, args) action order, read off the state's
    structure (see ``_search`` for why that is exactly the applicable
    moves).  Raises CapacityError past ``MAX_EXPANSIONS`` expansions.
    """
    domain = _compile_domain(tuple(sorted(init.objects() | goal.objects())))
    plan, _ = _search(domain.mask(init.atoms), domain.mask(goal.atoms()), domain)
    return plan


# The searches of the current run, each made once: (objects, start mask,
# goal mask, cap) -> (plan or None, expansions, whether the cap stopped it).
# Keys are plain ints and tuples, which hold less memory than atom sets.
_searches: dict[tuple[tuple[str, ...], int, int, int], tuple[tuple | None, int, bool]] = {}


def forget_searches() -> None:
    """Empty the search store that :func:`plan_under_uncertainty` reads;
    ``harness.run`` calls it as each run starts."""
    _searches.clear()


# ---------------------------------------------------------------------------
# convergence arithmetic


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
    if not (0.0 < alpha < 1.0) or 1.0 - alpha == 1.0:  # then ln(1 - alpha) is 0.0
        raise ValueError(f"reduction rate must lie in (0, 1) with 1 - alpha < 1, got {alpha}")
    if not (0.0 < tau_plan < 1.0):
        raise ValueError(f"planning threshold must lie in (0, 1), got {tau_plan}")
    if eps_cal < 0:
        raise ValueError(f"calibration slack must be non-negative, got {eps_cal}")
    target = (1.0 - tau_plan) + eps_cal
    if u0 < target:  # target > 0, so this covers u0 == 0
        return 0
    k = max(0, math.ceil(math.log(target / u0) / math.log(1.0 - alpha)))
    while reduction_law(u0, alpha, k) >= target:
        k += 1
    while k > 0 and reduction_law(u0, alpha, k - 1) < target:
        k -= 1
    return k


# ---------------------------------------------------------------------------
# closed-loop planning


@dataclass(frozen=True)
class InfoAction:
    kind: str
    target: str


@dataclass(frozen=True)
class PlannerOptions:
    """``refine_with_mrf`` replaces each observation's confidences with
    their exact marginals under the dependency MRF
    (:func:`~beliefplan.mrf.refined_state`) before fusion; off by default.
    ``info_enabled`` lets rounds before the last spend an information action."""

    refine_with_mrf: bool = False
    info_enabled: bool = True


def choose_info_action(
    belief: ProbabilisticState,
    uncertain: np.ndarray,
    goal: Goal,
    occluded: frozenset[str] | set[str],
) -> InfoAction | None:
    """Pick the information action for the most goal-critical object.

    ``uncertain`` masks the belief's index.  The target is the object
    appearing in the most goal-relevant uncertain predicates (lexicographic
    tie-break); occluded targets get push_obstacle, others look_closer.
    Returns None when nothing is goal-critical.
    """
    preds, goal_objs = belief.scored.preds, goal.objects()
    counts: dict[str, int] = {}
    for k in np.flatnonzero(uncertain).tolist():
        args = preds[k].args
        if goal_objs.isdisjoint(args):
            continue
        for obj in args:
            counts[obj] = counts.get(obj, 0) + 1
    if not counts:
        return None
    target = min(counts, key=lambda o: (-counts[o], o))
    return InfoAction(PUSH_OBSTACLE if target in occluded else LOOK_CLOSER, target)


def world_state_from_beliefs(
    belief: ProbabilisticState,
    certain_true: np.ndarray,
    objects: Iterable[str],
) -> SymbolicWorldState:
    """Project certain-true On beliefs onto a consistent symbolic state.

    ``certain_true`` masks the belief's index.  On predicates are admitted
    in decreasing confidence order, ties in index order, skipping any that
    :func:`~beliefplan.core.support_map` rejects next to those already
    admitted.  Objects without an admitted support sit on the table; clear
    and handempty atoms follow structurally.
    """
    preds, p = belief.scored.preds, belief.confidences
    on = belief.scored.by_relation[Relation.ON]
    # stable, so ties stay in index order
    ons = sorted(on[certain_true[on]].tolist(), key=lambda k: -p[k])
    lower_of: dict[str, str] = {}
    for k in ons:
        try:
            lower_of = support_map([*lower_of.items(), preds[k].args])
        except ValueError:
            pass  # conflicts with a more confident support
    return SymbolicWorldState(support_atoms(lower_of, objects))


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
    iterations: list[IterationRecord]
    success: bool
    info_action_count: int
    plan: list[GroundedAction] | None
    expansions: int  # summed over its searches, a served search counting its stored ones
    cap_hits: int  # searches stopped at MAX_EXPANSIONS, served ones too; not exported
    first_belief: ProbabilisticState  # the belief formed in round 0


def plan_under_uncertainty(
    env,
    goal: Goal,
    tau_plan: float = 0.7,
    max_retries: int = 3,
    options: PlannerOptions = PlannerOptions(),
    first_belief: ProbabilisticState | None = None,
) -> PlanningEpisode:
    """Closed perception-plan-act loop with bounded information gathering.

    Each round observes (fusing into the running belief), classifies, and
    either spends an information action on the most goal-critical
    uncertain object (never on the last round) or commits: the
    certain-true predicates become a symbolic state, A* plans, and the
    plan executes once against the environment's ground truth.  The
    episode succeeds iff execution reaches the goal.  A search that finds
    no plan, or stops at ``MAX_EXPANSIONS`` (a cap hit, whose expansions
    still count), gives the round up and the loop goes on.  A goal that
    names an object the environment does not have raises ValueError.

    Each distinct search (objects, start, goal and cap) runs once until
    :func:`forget_searches`; a repeat is served from the store, and still
    counts its stored expansions and cap hit, so the episode's counts, and
    the modeled time and summaries the harness derives from them, are the
    same as if it had searched again.

    ``first_belief``, when given, is round 0's belief, used in place of
    that round's observation and its MRF refinement.  Precondition, not
    checked: ``env`` is fresh, and ``first_belief`` is the round-0 belief
    (``PlanningEpisode.first_belief``) of an episode on a fresh environment
    with the same scene, seed and noise, run with the same options but for
    ``info_enabled``, which acts only after round 0's belief is formed.
    It is then the belief ``env`` would form itself, bit for bit.
    """
    if max_retries < 1:
        raise ValueError(f"max_retries must be at least 1, got {max_retries}")
    objects = env.object_ids()
    missing = goal.objects() - set(objects)
    if missing:
        raise ValueError(f"goal names objects not in the scene: {sorted(missing)}")
    belief = first_belief
    records: list[IterationRecord] = []
    info_count = 0
    expansions_total = 0
    cap_hits = 0
    final_plan: list[GroundedAction] | None = None
    success = False
    domain = _compile_domain(tuple(sorted(set(objects))))
    goal_atoms = goal.atoms()
    goal_mask = domain.mask(goal_atoms)

    for round_idx in range(max_retries):
        if round_idx or belief is None:
            obs = env.observe()
            if options.refine_with_mrf:
                obs = refined_state(obs)
            if belief is None:
                belief = first_belief = obs
            else:
                belief = fuse_observation(belief, obs)
        u_state = state_uncertainty_independent(belief)
        part = classify(belief, tau_plan)
        sizes = [int(m.sum()) for m in (part.certain_true, part.certain_false, part.uncertain)]

        if options.info_enabled and round_idx < max_retries - 1:
            action = choose_info_action(belief, part.uncertain, goal, env.occluded_ids())
            if action is not None:
                env.apply_info(action.kind, action.target)
                info_count += 1
                records.append(
                    IterationRecord(round_idx, u_state, *sizes, action.kind, action.target, None)
                )
                continue

        world = world_state_from_beliefs(belief, part.certain_true, objects)
        start = domain.mask(world.atoms)
        key = (domain.objects, start, goal_mask, MAX_EXPANSIONS)
        searched = _searches.get(key)
        if searched is None:
            try:
                plan, expansions = _search(start, goal_mask, domain)
                searched = (None if plan is None else tuple(plan), expansions, False)
            except CapacityError:
                searched = (None, MAX_EXPANSIONS, True)
            _searches[key] = searched
        plan, expansions, capped = searched
        cap_hits += capped
        expansions_total += expansions
        if plan is None:
            records.append(IterationRecord(round_idx, u_state, *sizes, "give_up", None, None))
            continue
        success = env.execute(plan, goal_atoms)
        final_plan = list(plan)
        records.append(IterationRecord(round_idx, u_state, *sizes, "plan", None, len(plan)))
        break

    return PlanningEpisode(
        iterations=records,
        success=success,
        info_action_count=info_count,
        plan=final_plan,
        expansions=expansions_total,
        cap_hits=cap_hits,
        first_belief=first_belief,
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
