"""Planner tests against an independent breadth-first oracle.

Worked arithmetic used below: with u0 = 0.5, rate 0.3, threshold 0.7 the
target band is 0.3 and the decay sequence runs 0.5, 0.35, 0.245, so the
bound is 2.  With threshold 0.5 and rate 0.5 starting exactly at the 0.5
target, the strict inequality forces one step (0.25 < 0.5), not zero.
"""

import functools
import heapq
import itertools
from collections import deque

import numpy as np
import pytest

from beliefplan import planner
from beliefplan.core import (
    GroundPredicate,
    ProbabilisticState,
    Relation,
    classify,
    fuse_observation,
    parse_predicate,
    support_map,
)
from beliefplan.harness import default_goal
from beliefplan.mrf import CapacityError
from beliefplan.planner import (
    Goal,
    InfoAction,
    PlannerOptions,
    SymbolicWorldState,
    apply,
    astar,
    choose_info_action,
    clear,
    convergence_bound,
    ground_domain,
    handempty,
    holding,
    on,
    ontable,
    parse_goal,
    plan_under_uncertainty,
    random_instance,
    support_atoms,
    world_state_from_beliefs,
)
from beliefplan.scene import NoiseConfig, PlanningEnvironment, generate_scene


def bfs_optimal_length(init: SymbolicWorldState, goal: Goal) -> int | None:
    """Exhaustive shortest-path oracle, independent of the A* machinery."""
    objects = sorted(init.objects() | goal.objects())
    actions = ground_domain(objects)
    goal_atoms = goal.atoms()
    start = init.atoms
    if goal_atoms <= start:
        return 0
    dist = {start: 0}
    queue = deque([start])
    while queue:
        s = queue.popleft()
        for a in actions:
            if a.preconditions <= s:
                ns = (s - a.delete) | a.add
                if ns not in dist:
                    dist[ns] = dist[s] + 1
                    if goal_atoms <= ns:
                        return dist[ns]
                    queue.append(ns)
    return None


def run_plan(state: SymbolicWorldState, plan) -> SymbolicWorldState:
    for action in plan:
        state = apply(state, action)
    return state


def goal_distances(init: SymbolicWorldState, goal: Goal) -> dict:
    """Breadth-first distance to the goal from every state reachable from
    init (None where no goal state is reachable), over the explicit graph."""
    actions = ground_domain(sorted(init.objects() | goal.objects()))
    goal_atoms = goal.atoms()
    sources = {init.atoms: []}  # state -> the states one move before it
    queue = deque([init.atoms])
    while queue:
        s = queue.popleft()
        for a in actions:
            if a.preconditions <= s:
                ns = (s - a.delete) | a.add
                if ns not in sources:
                    sources[ns] = []
                    queue.append(ns)
                sources[ns].append(s)
    dist = {s: 0 for s in sources if goal_atoms <= s}
    queue = deque(dist)
    while queue:
        s = queue.popleft()
        for before in sources[s]:
            if before not in dist:
                dist[before] = dist[s] + 1
                queue.append(before)
    return {s: dist.get(s) for s in sources}


def partial_starts():
    """(state, goal, objects) with one atom dropped from a valid start: an
    unsupported block, a block that is not clear, or a missing On link."""
    rng = np.random.default_rng(5)
    for _ in range(12):
        start, goal = random_instance(rng, int(rng.integers(3, 6)))
        objects = start.objects() | goal.objects()
        for atom in sorted(start.atoms):
            try:
                partial = SymbolicWorldState(start.atoms - {atom})
            except ValueError:
                continue
            yield partial, goal, objects


def held_starts():
    """(state, goal, objects) after the first pick a valid start allows."""
    rng = np.random.default_rng(8)
    for _ in range(20):
        start, goal = random_instance(rng, int(rng.integers(3, 6)))
        objects = sorted(start.objects())
        pick = next(
            a for a in ground_domain(objects)
            if a.name == "pick" and a.preconditions <= start.atoms
        )
        yield apply(start, pick), goal, objects


def must_move_heuristic(atoms, goal_atoms):
    """The must-move heuristic over atom sets (Slaney and Thiébaux, AIJ 125,
    2001), written out on its own as the oracle that the planner's bitmask
    form is checked against.

    A placed block must move if the goal puts it on another support, if it
    rests on a block the goal wants clear or wants another block on, or if
    it rests on a block that must move; each costs a pick and a place.  A
    held block the goal names costs its place.  A block the goal does not
    name, resting on a wanted-clear block that stays, may end the plan
    held, saving one place.  A block with no support atom never counts.
    """
    goal_lower = {a[1]: a[2] for a in goal_atoms if a[0] == "on"}
    goal_upper = {a[2]: a[1] for a in goal_atoms if a[0] == "on"}
    want_clear = {a[1] for a in goal_atoms if a[0] == "clear"}
    named = {x for a in goal_atoms for x in a[1:]}
    lower_of = {a[1]: a[2] for a in atoms if a[0] == "on"}
    placed = lower_of.keys() | {a[1] for a in atoms if a[0] == "ontable"}

    @functools.cache
    def must_move(x):
        if x not in placed:
            return False
        y = lower_of.get(x)  # None on the table
        if goal_lower.get(x, y) != y:
            return True
        if y is None:
            return False
        return y in want_clear or goal_upper.get(y, x) != x or must_move(y)

    h = 2 * sum(map(must_move, placed))
    h += any(a[0] == "holding" and a[1] in named for a in atoms)
    if any(x not in named and y in want_clear and not must_move(y) for x, y in lower_of.items()):
        h -= 1
    return h


def _reference_search(init_atoms, goal_atoms, actions, max_expansions, popped=None):
    """A* over frozenset atom states, scanning every move for each expansion.

    The straightforward form of the planner's search, with the same
    ``(f, -g, push order, state)`` frontier entries, kept as the reference
    that the bitmask search must match in plan and expansion count.  Each
    state it pops is appended to ``popped`` when given.
    """
    h0 = must_move_heuristic(init_atoms, goal_atoms)
    counter = itertools.count()
    frontier = [(h0, 0, next(counter), init_atoms)]
    best_g = {init_atoms: 0}
    parent = {}
    expansions = 0
    while frontier:
        f, neg_g, _, atoms = heapq.heappop(frontier)
        g = -neg_g
        if popped is not None:
            popped.append(atoms)
        if g > best_g.get(atoms, g):
            continue  # superseded entry
        if goal_atoms <= atoms:
            plan = []
            node = atoms
            while node in parent:
                node, action = parent[node]
                plan.append(action)
            plan.reverse()
            return plan, expansions
        expansions += 1
        if expansions > max_expansions:
            raise CapacityError(f"search capped at {max_expansions} expansions")
        for action in actions:
            if not action.preconditions <= atoms:
                continue
            succ = (atoms - action.delete) | action.add
            ng = g + 1
            if ng < best_g.get(succ, ng + 1):
                best_g[succ] = ng
                parent[succ] = (atoms, action)
                heapq.heappush(
                    frontier, (ng + must_move_heuristic(succ, goal_atoms), -ng, next(counter), succ)
                )
    return None, expansions


class TestWorldState:
    def test_from_stacks(self):
        state = SymbolicWorldState.from_stacks([["a", "b"], ["c"]])
        assert state.atoms == frozenset(
            {ontable("a"), on("b", "a"), clear("b"), ontable("c"), clear("c"), handempty()}
        )

    @pytest.mark.parametrize(
        "stacks",
        [[["a"], ["a", "b"]], [["a", "b"], ["b"]], [["a", "b"], ["a", "c"]], [["a"], ["a"]]],
    )
    def test_from_stacks_rejects_an_object_listed_twice(self, stacks):
        with pytest.raises(ValueError):
            SymbolicWorldState.from_stacks(stacks)

    def test_double_support_rejected(self):
        with pytest.raises(ValueError):
            SymbolicWorldState(
                frozenset({on("a", "b"), on("a", "c"), ontable("b"), ontable("c"), handempty()})
            )

    def test_holding_plus_handempty_rejected(self):
        with pytest.raises(ValueError):
            SymbolicWorldState(frozenset({holding("a"), handempty()}))

    def test_neither_holding_nor_handempty_rejected(self):
        with pytest.raises(ValueError):
            SymbolicWorldState(frozenset({ontable("a"), clear("a")}))

    def test_cycle_rejected(self):
        with pytest.raises(ValueError):
            SymbolicWorldState(frozenset({on("a", "b"), on("b", "a"), handempty()}))

    def test_clear_under_load_rejected(self):
        with pytest.raises(ValueError):
            SymbolicWorldState(
                frozenset({ontable("a"), on("b", "a"), clear("a"), clear("b"), handempty()})
            )


class TestDomain:
    def test_action_count(self):
        # per object: pick from table, putdown; per ordered pair: unstack, place
        actions = ground_domain(["a", "b", "c"])
        assert len(actions) == 3 * 2 + 6 * 2

    def test_sorted_and_deterministic(self):
        actions = ground_domain(["b", "a"])
        keys = [(a.name, a.args) for a in actions]
        assert keys == sorted(keys)
        assert actions == ground_domain(["a", "b"])


class TestApply:
    def test_pick_then_place(self):
        state = SymbolicWorldState.from_stacks([["a"], ["b"]])
        actions = {(a.name, a.args): a for a in ground_domain(["a", "b"])}
        mid = apply(state, actions[("pick", ("b",))])
        assert mid.atoms == frozenset({ontable("a"), clear("a"), holding("b")})
        end = apply(mid, actions[("place", ("b", "a"))])
        assert end.atoms == frozenset(
            {ontable("a"), on("b", "a"), clear("b"), handempty()}
        )

    def test_unmet_precondition_raises(self):
        state = SymbolicWorldState.from_stacks([["a", "b"]])
        actions = {(a.name, a.args): a for a in ground_domain(["a", "b"])}
        with pytest.raises(ValueError, match="cannot apply"):
            apply(state, actions[("pick", ("a",))])  # a is under b


class TestGoal:
    def test_parse_round_trip(self):
        goal = parse_goal("On(a,b) & On(b,c)")
        assert goal.predicates == frozenset(
            {parse_predicate("On(a,b)"), parse_predicate("On(b,c)")}
        )
        assert str(goal) == "On(a,b) & On(b,c)"

    def test_goal_objects(self):
        assert parse_goal("On(a,b) & Clear(c)").objects() == frozenset({"a", "b", "c"})

    def test_inconsistent_goals_rejected(self):
        with pytest.raises(ValueError):
            parse_goal("On(a,b) & Clear(b)")
        with pytest.raises(ValueError):
            parse_goal("On(a,b) & On(b,a)")
        with pytest.raises(ValueError):
            parse_goal("On(a,b) & On(a,c)")
        with pytest.raises(ValueError):
            parse_goal("CloseTo(a,b)")
        with pytest.raises(ValueError):
            parse_goal("")

    def test_two_objects_on_one_rejected(self):
        # no state satisfies it, so A* would search the whole reachable space
        with pytest.raises(ValueError, match="supports two objects"):
            parse_goal("On(a,c) & On(b,c)")


class TestHeuristic:
    def test_counts_blocks_that_must_move(self):
        # a: the goal puts it on b; x: rests on b, which the goal wants a on;
        # y: rests on x, which must move.  Each costs a pick and a place.
        start = SymbolicWorldState.from_stacks([["b", "x", "y"], ["a"]])
        goal = parse_goal("On(a,b)")
        assert must_move_heuristic(start.atoms, goal.atoms()) == 6
        assert bfs_optimal_length(start, goal) == 6

    def test_last_lifted_block_may_stay_held(self):
        # the goal asks for no empty hand: lifting x off y ends the plan
        for stacks, text, h in (
            ([["y", "x"]], "Clear(y)", 1),
            ([["w", "y", "x"]], "Clear(w)", 3),
        ):
            start = SymbolicWorldState.from_stacks(stacks)
            goal = parse_goal(text)
            assert must_move_heuristic(start.atoms, goal.atoms()) == h
            assert bfs_optimal_length(start, goal) == h

    def test_held_block_costs_its_place_only_when_named(self):
        start = SymbolicWorldState.from_stacks([["c", "b"], ["a"]])
        held = apply(start, next(a for a in ground_domain(["a", "b", "c"]) if str(a) == "pick(a)"))
        assert must_move_heuristic(held.atoms, parse_goal("On(b,c)").atoms()) == 0
        assert must_move_heuristic(held.atoms, parse_goal("On(a,b)").atoms()) == 1

    def test_unsupported_block_never_counts(self):
        start = SymbolicWorldState.from_stacks([["a"], ["b"]])
        partial = SymbolicWorldState(start.atoms - {ontable("a")})
        assert must_move_heuristic(partial.atoms, parse_goal("On(a,b)").atoms()) == 0

    def test_admissible_along_optimal_plans(self):
        # h <= the breadth-first distance at the start and at every state the
        # returned plan passes through, held-block states included
        rng = np.random.default_rng(17)
        with_clear = 0
        for _ in range(40):
            start, goal = random_instance(rng, int(rng.integers(3, 6)))
            with_clear += any(p.relation is Relation.CLEAR for p in goal.predicates)
            plan = astar(start, goal)
            state = start
            for action in [None, *plan]:
                if action is not None:
                    state = apply(state, action)
                h = must_move_heuristic(state.atoms, goal.atoms())
                assert h <= bfs_optimal_length(state, goal)
        assert with_clear >= 5

    def test_admissible_on_random_instances(self):
        # h <= the breadth-first distance on every state reachable from the
        # start, held-block states included; a third of the goals get a
        # Clear target on a block that no goal On stacks onto
        rng = np.random.default_rng(42)
        checked = with_clear = 0
        for _ in range(60):
            start, goal = random_instance(rng, int(rng.integers(3, 6)))
            lowers = {p.args[1] for p in goal.predicates if p.relation is Relation.ON}
            free = sorted(start.objects() - lowers)
            if free and rng.uniform() < 0.35:
                target = GroundPredicate(Relation.CLEAR, (free[int(rng.integers(len(free)))],))
                goal = Goal(goal.predicates | {target})
            with_clear += any(p.relation is Relation.CLEAR for p in goal.predicates)
            for atoms, d in goal_distances(start, goal).items():
                assert d is not None  # every instance is solvable from every state
                assert must_move_heuristic(atoms, goal.atoms()) <= d
                checked += 1
        assert with_clear >= 20 and checked > 10_000

    def test_admissible_from_held_and_partial_starts(self):
        checked = 0
        for start, goal, _ in itertools.chain(held_starts(), partial_starts()):
            for atoms, d in goal_distances(start, goal).items():
                if d is not None:
                    assert must_move_heuristic(atoms, goal.atoms()) <= d
                    checked += 1
        assert checked > 5_000

    def test_zero_exactly_at_goal_on_hand_empty_states(self):
        rng = np.random.default_rng(43)
        for _ in range(30):
            start, goal = random_instance(rng, int(rng.integers(3, 6)))
            for atoms in goal_distances(start, goal):
                if handempty() in atoms:
                    h = must_move_heuristic(atoms, goal.atoms())
                    assert (h == 0) == (goal.atoms() <= atoms)


class TestAstar:
    def test_simple_stack_needs_four_steps(self):
        start = SymbolicWorldState.from_stacks([["a"], ["b"], ["c"]])
        goal = parse_goal("On(a,b) & On(b,c)")
        plan = astar(start, goal)
        assert plan is not None and len(plan) == 4
        final = run_plan(start, plan)
        assert goal.atoms() <= final.atoms

    def test_already_satisfied_goal_gives_empty_plan(self):
        start = SymbolicWorldState.from_stacks([["c", "b", "a"]])
        assert astar(start, parse_goal("On(a,b) & On(b,c)")) == []

    def test_deterministic(self):
        start = SymbolicWorldState.from_stacks([["a", "b"], ["c", "d"]])
        goal = parse_goal("On(d,a) & On(b,c)")
        assert astar(start, goal) == astar(start, goal)

    def test_matches_bfs_on_random_instances(self):
        rng = np.random.default_rng(7)
        for _ in range(60):
            start, goal = random_instance(rng, int(rng.integers(3, 6)))
            plan = astar(start, goal)
            assert plan is not None
            assert len(plan) == bfs_optimal_length(start, goal)
            assert goal.atoms() <= run_plan(start, plan).atoms

    def test_expansion_cap(self, monkeypatch):
        monkeypatch.setattr(planner, "MAX_EXPANSIONS", 2)
        start = SymbolicWorldState.from_stacks([["a"], ["b"], ["c"], ["d"]])
        goal = parse_goal("On(a,b) & On(b,c) & On(c,d)")
        with pytest.raises(CapacityError):
            astar(start, goal)


# The first observations that the search tests plan from, written out:
# generate_scene(n, 0.4, seed) perceived at flip 0.15 and sd 1.0 with
# perception seed = scene seed, classified at tau 0.7 and projected by
# world_state_from_beliefs, for seeds 0-4 at seven objects and 0-39 at
# eight.  Each world is its stacks, bottom-first, object o<k> written as
# the digit k; each goal is default_goal's, the same at every seed.
SEVEN_OBJECT_WORLDS = (
    "0 1 2 3 4 5 6", "0 12 3 45 6", "012 5 634", "1 204 356", "10 2 3 4 5 6",
)
EIGHT_OBJECT_WORLDS = (
    "1 27 304 5 6", "0 167 25 43", "3 41206 57", "4 51230 6 7", "0537 1 24 6", "0 2 54 631 7",
    "056 1 2 3 4 7", "13 5024 6 7", "0 14 2 3 5 6 7", "1256 3 40 7", "012 436 5 7", "5 601 7234",
    "2 3 401 5 6 7", "0 123 4 56 7", "013 2 4 5 6 7", "16 2 34 507", "0 1 2 3 5 647",
    "04 1 56 723", "145 20 37 6", "2 3 4016 5 7", "04 312 5 67", "1 32045 6 7", "4 513 602 7",
    "0 137 2 4 5 6", "05 2 3 417 6", "0 12 37 4 5 6", "12403 5 6 7", "1 27 40356",
    "0 17 2 3 4 5 6", "0 1342 5 6 7", "15 23407 6", "1 206 3 45 7", "1 205 3 4 6 7",
    "17 2 3 4 50 6", "01 27 43 5 6", "04 1 2 3 5 6 7", "0 156 27 3 4", "0 127 3 4 5 6",
    "05 16 2 3 4 7", "0 1 2 3 4 5 6 7",
)
DEFAULT_GOAL = "On(o0,o1) & On(o1,o2)"


class TestSearchMatchesReference:
    """The bitmask search returns the reference's plan and expansion count."""

    def assert_same(self, init, goal_atoms, objects=None, cap=planner.MAX_EXPANSIONS):
        """Run both searches at expansion cap ``cap`` (the bitmask search's
        through ``MAX_EXPANSIONS``), assert equal outcomes and the same
        heuristic value in both forms on every state the reference pops;
        return the reference's outcome."""
        if objects is None:
            objects = init.objects() | {x for a in goal_atoms for x in a[1:]}
        objects = tuple(sorted(set(objects)))
        popped = []
        outcomes = []
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(planner, "MAX_EXPANSIONS", cap)
            for search in (
                functools.partial(
                    _reference_search, actions=ground_domain(objects), max_expansions=cap,
                    popped=popped,
                ),
                functools.partial(planner._search, domain=planner._compile_domain(objects)),
            ):
                try:
                    outcomes.append(search(init.atoms, goal_atoms))
                except CapacityError:
                    outcomes.append("capped")
        assert outcomes[1] == outcomes[0]
        bit = planner._compile_domain(objects).bit
        heuristic = planner._compile_heuristic(objects, goal_atoms)
        for atoms in popped:
            assert heuristic(sum(bit[a] for a in atoms)) == must_move_heuristic(atoms, goal_atoms)
        return outcomes[0]

    def test_random_instances(self):
        rng = np.random.default_rng(2024)
        for n_blocks in [2, 3, 4, 5, 6] * 18 + [7] * 4:
            start, goal = random_instance(rng, n_blocks)
            plan, _ = self.assert_same(start, goal.atoms())
            assert plan is not None

    def test_partial_states(self):
        checked = 0
        for partial, goal, objects in partial_starts():
            self.assert_same(partial, goal.atoms(), objects)
            checked += 1
        assert checked > 50

    def test_held_block_start(self):
        for held, goal, objects in held_starts():
            assert any(a[0] == "holding" for a in held.atoms)
            self.assert_same(held, goal.atoms(), objects)

    def test_clear_targets(self):
        start = SymbolicWorldState.from_stacks([["a", "b", "c"], ["d"]])
        for text in (
            "Clear(a)",
            "Clear(a) & Clear(b)",
            "On(c,d) & Clear(b)",
            "On(a,d) & Clear(a)",
            "On(b,d) & On(a,b) & Clear(a) & Clear(c)",
        ):
            self.assert_same(start, parse_goal(text).atoms())

    @staticmethod
    def projected_worlds(n_objects, seeds):
        """(projected start, objects, default goal) of noisy first
        observations of n-object scenes."""
        cfg = NoiseConfig(base_flip_rate=0.15, logit_noise_sd=1.0)
        for seed in seeds:
            scene = generate_scene(n_objects, stack_bias=0.4, seed=seed)
            env = PlanningEnvironment(scene, cfg, seed)
            belief = env.observe()
            world = world_state_from_beliefs(
                belief, classify(belief, 0.7).certain_true, env.object_ids()
            )
            yield world, tuple(sorted(env.object_ids())), default_goal(scene)

    @staticmethod
    def literal_worlds(texts):
        """(start, objects, goal) of worlds written as in ``SEVEN_OBJECT_WORLDS``."""
        for text in texts:
            stacks = [[f"o{k}" for k in stack] for stack in text.split()]
            objects = tuple(sorted(x for stack in stacks for x in stack))
            yield SymbolicWorldState.from_stacks(stacks), objects, parse_goal(DEFAULT_GOAL)

    def test_perception_still_projects_to_the_literal_worlds(self):
        # moves only when the perception stream moves: re-pin it with the digests
        for n, texts in ((7, SEVEN_OBJECT_WORLDS), (8, EIGHT_OBJECT_WORLDS)):
            projected = list(self.projected_worlds(n, range(len(texts))))
            assert projected == list(self.literal_worlds(texts))

    @staticmethod
    def search_outcomes(worlds):
        """(plan length, expansions) of the bitmask search on each world."""
        for world, objects, goal in worlds:
            plan, expansions = planner._search(
                world.atoms, goal.atoms(), planner._compile_domain(objects)
            )
            yield len(plan), expansions

    def test_projected_seven_object_scenes(self):
        for world, objects, goal in self.literal_worlds(SEVEN_OBJECT_WORLDS):
            self.assert_same(world, goal.atoms(), objects)

    def test_seven_object_search_effort(self):
        # 157 expansions over these searches with the must-move heuristic
        # alone, 47 with f ties broken toward larger g (goal counting took
        # 1,831); a weaker heuristic or tie order fails here
        total = sum(e for _, e in self.search_outcomes(self.literal_worlds(SEVEN_OBJECT_WORLDS)))
        assert total <= 50

    def test_eight_object_plans_keep_their_length(self):
        # the summed length is the optimum, 322 before and after the tie
        # order changed; the worst search takes 68 expansions (1,423 with
        # f ties broken by push order alone)
        lengths, expansions = zip(*self.search_outcomes(self.literal_worlds(EIGHT_OBJECT_WORLDS)))
        assert sum(lengths) == 322
        assert max(expansions) <= 70

    def test_capacity_error_at_the_same_cap(self):
        # this search takes 5 expansions: every cap below that stops it
        start = SymbolicWorldState.from_stacks([["a"], ["b"], ["c"]])
        goal = parse_goal("On(a,b) & On(b,c)")
        outcomes = [self.assert_same(start, goal.atoms(), cap=cap) for cap in range(6)]
        assert outcomes[:5] == ["capped"] * 5
        assert outcomes[5] != "capped" and outcomes[5][1] == 5


class TestConvergenceBound:
    # argument order: threshold, reduction rate, starting uncertainty, slack

    def test_worked_example(self):
        assert convergence_bound(0.7, 0.3, 0.5) == 2

    def test_worked_example_with_slack(self):
        assert convergence_bound(0.7, 0.3, 0.5, 0.073) == 1

    def test_already_converged(self):
        assert convergence_bound(0.7, 0.3, 0.2, 0.073) == 0
        assert convergence_bound(0.7, 0.3, 0.0) == 0

    def test_strict_boundary_needs_a_step(self):
        # u0 equals the target exactly; the strict inequality costs one step
        assert convergence_bound(0.5, 0.5, 0.5) == 1

    def test_calibration_slack_loosens(self):
        base = convergence_bound(0.7, 0.3, 0.9)
        assert convergence_bound(0.7, 0.3, 0.9, eps_cal=0.1) <= base

    def test_matches_brute_force(self):
        rng = np.random.default_rng(3)
        for _ in range(500):
            u0 = float(rng.uniform(0, 1))
            alpha = float(rng.uniform(0.05, 0.95))
            tau = float(rng.uniform(0.5, 0.95))
            eps = float(rng.choice([0.0, 0.01, 0.05]))
            target = (1 - tau) + eps
            k = 0
            while u0 * (1 - alpha) ** k >= target:
                k += 1
            assert convergence_bound(tau, alpha, u0, eps) == k

    def test_validation(self):
        with pytest.raises(ValueError):
            convergence_bound(0.7, 0.3, 1.2)
        with pytest.raises(ValueError):
            convergence_bound(0.7, 0.0, 0.5)
        with pytest.raises(ValueError):
            convergence_bound(1.0, 0.3, 0.5)

    @pytest.mark.parametrize("alpha", [1e-17, 2.0**-54])
    def test_alpha_that_shrinks_nothing_raises(self, alpha):
        # 1 - alpha rounds to 1.0, so ln(1 - alpha) is 0.0 and no k reaches the target
        assert 1.0 - alpha == 1.0
        with pytest.raises(ValueError, match="reduction rate"):
            convergence_bound(0.7, alpha, 0.5)


def masked(confs, chosen):
    """A belief over ``confs`` (text -> confidence) and the mask over its
    index that selects the predicates written in ``chosen``."""
    belief = ProbabilisticState({parse_predicate(k): v for k, v in confs.items()})
    picked = {parse_predicate(t) for t in chosen}
    return belief, np.array([p in picked for p in belief])


def uncertain(*texts, certain=()):
    """A belief at 0.5 over ``texts`` and at 0.9 over ``certain``, and the
    mask of the uncertain ones."""
    return masked({**{t: 0.5 for t in texts}, **{t: 0.9 for t in certain}}, texts)


class TestChooseInfoAction:
    def test_occluded_target_gets_push(self):
        action = choose_info_action(
            *uncertain("On(a,b)"), parse_goal("On(a,b)"), frozenset({"a"})
        )
        assert action == InfoAction("push_obstacle", "a")

    def test_visible_target_gets_look(self):
        action = choose_info_action(
            *uncertain("On(a,b)"), parse_goal("On(a,b)"), frozenset()
        )
        assert action == InfoAction("look_closer", "a")

    def test_most_frequent_object_wins(self):
        action = choose_info_action(
            *uncertain("On(b,a)", "On(b,c)", "Clear(c)"),
            parse_goal("On(b,a) & Clear(c)"),
            frozenset(),
        )
        assert action is not None and action.target == "b"

    def test_nothing_goal_critical(self):
        action = choose_info_action(
            *uncertain("On(x,y)"), parse_goal("On(a,b)"), frozenset()
        )
        assert action is None

    def test_only_masked_predicates_count(self):
        # c appears in more predicates, but only a's are uncertain
        action = choose_info_action(
            *uncertain("On(a,b)", certain=("On(c,a)", "Clear(c)", "CloseTo(b,c)", "LeftOf(c,b)")),
            parse_goal("On(a,b) & On(c,a)"),
            frozenset(),
        )
        assert action == InfoAction("look_closer", "a")


class TestWorldFromBeliefs:
    def test_simple_projection(self):
        belief, certain_true = masked({"On(a,b)": 0.9, "On(b,c)": 0.1}, ["On(a,b)"])
        world = world_state_from_beliefs(belief, certain_true, ["a", "b", "c"])
        assert world.atoms == frozenset(
            {on("a", "b"), ontable("b"), ontable("c"), clear("a"), clear("c"), handempty()}
        )

    def test_conflicting_supports_resolved_by_confidence(self):
        belief, certain_true = masked({"On(a,b)": 0.95, "On(a,c)": 0.9}, ["On(a,b)", "On(a,c)"])
        world = world_state_from_beliefs(belief, certain_true, ["a", "b", "c"])
        assert on("a", "b") in world.atoms
        assert on("a", "c") not in world.atoms
        assert ontable("c") in world.atoms

    def test_cycle_dropped(self):
        belief, certain_true = masked({"On(a,b)": 0.95, "On(b,a)": 0.9}, ["On(a,b)", "On(b,a)"])
        world = world_state_from_beliefs(belief, certain_true, ["a", "b"])
        assert on("a", "b") in world.atoms
        assert ontable("b") in world.atoms

    def test_tied_supports_resolved_in_index_order(self):
        # On(a,b) sorts before On(a,c) and On(c,b), so it wins both conflicts
        belief, certain_true = masked(
            {"On(c,b)": 0.9, "On(a,c)": 0.9, "On(a,b)": 0.9}, ["On(c,b)", "On(a,c)", "On(a,b)"]
        )
        world = world_state_from_beliefs(belief, certain_true, ["a", "b", "c"])
        assert world.atoms == frozenset(
            {on("a", "b"), ontable("b"), ontable("c"), clear("a"), clear("c"), handempty()}
        )


# ---------------------------------------------------------------------------
# projection and targeting against the set-based bodies they replaced


def _reference_partition(belief, tau_plan):
    """The certain-true and uncertain predicate sets of a belief at tau_plan."""
    true = {p for p, v in belief.items() if v > tau_plan}
    uncertain = {p for p, v in belief.items() if not v > tau_plan and not v + tau_plan < 1.0}
    return true, uncertain


def _reference_choose_info_action(uncertain, goal, occluded):
    goal_objs = goal.objects()
    counts = {}
    for pred in uncertain:
        if not set(pred.args) & goal_objs:
            continue
        for obj in pred.args:
            counts[obj] = counts.get(obj, 0) + 1
    if not counts:
        return None
    target = min(counts, key=lambda o: (-counts[o], o))
    return InfoAction("push_obstacle" if target in occluded else "look_closer", target)


def _reference_world_state_from_beliefs(belief, certain_true, objects):
    conf = dict(belief.items())
    ons = sorted(
        (p for p in certain_true if p.relation is Relation.ON),
        key=lambda p: (-conf[p], p.sort_key()),
    )
    lower_of = {}
    for pred in ons:
        try:
            lower_of = support_map([*lower_of.items(), pred.args])
        except ValueError:
            pass
    return SymbolicWorldState(support_atoms(lower_of, objects))


class TestBeliefLayerMatchesReference:
    CHANNELS = {
        "noisy": NoiseConfig(base_flip_rate=0.15, logit_noise_sd=1.0),
        "loud": NoiseConfig(base_flip_rate=0.3, logit_noise_sd=3.0),
        "flip-only": NoiseConfig(base_flip_rate=0.15),
        "noiseless": NoiseConfig(),
    }
    TAUS = (0.5, 0.6, 0.7, 0.8, 0.9)

    @staticmethod
    def beliefs(n_objects, cfg):
        """(environment, belief) pairs: each scene's first observation, that
        observation fused with one after a push, and confidences drawn from
        six levels over the same index, which tie and conflict."""
        rng = np.random.default_rng(n_objects)
        for seed in range(6):
            env = PlanningEnvironment(generate_scene(n_objects, 0.6, seed), cfg, seed)
            first = env.observe()
            env.apply_info("push_obstacle", f"o{seed % n_objects}")
            yield env, first
            yield env, fuse_observation(first, env.observe())
            levels = rng.choice([0.0, 0.2, 0.5, 0.8, 0.95, 1.0], size=len(first))
            yield env, first.with_confidences(levels)

    @pytest.mark.parametrize("channel", sorted(CHANNELS))
    @pytest.mark.parametrize("n_objects", [4, 7, 10])
    def test_projection_and_targeting(self, n_objects, channel):
        tied = 0
        for env, belief in self.beliefs(n_objects, self.CHANNELS[channel]):
            top, below = f"o{n_objects - 1}", f"o{n_objects - 2}"
            goals = (default_goal(env.scene), parse_goal(f"On({top},{below}) & Clear({top})"))
            objects, occluded = env.object_ids(), env.occluded_ids()
            for tau in self.TAUS:
                part = classify(belief, tau)
                true, uncertain = _reference_partition(belief, tau)
                assert world_state_from_beliefs(
                    belief, part.certain_true, objects
                ) == _reference_world_state_from_beliefs(belief, true, objects)
                for goal in goals:
                    assert choose_info_action(
                        belief, part.uncertain, goal, occluded
                    ) == _reference_choose_info_action(uncertain, goal, occluded)
                ons = [v for p, v in belief.items() if p in true and p.relation is Relation.ON]
                tied += len(ons) > len(set(ons))
        assert tied > 0  # equal confidences among certain-true Ons reach the sort


class TestClosedLoop:
    def test_noiseless_episode_plans_immediately(self):
        scene = generate_scene(3, stack_bias=0.0, seed=4)
        env = PlanningEnvironment(scene, NoiseConfig(), seed=0)
        goal = parse_goal("On(o0,o1) & On(o1,o2)")
        episode = plan_under_uncertainty(env, goal, tau_plan=0.7, max_retries=3)
        assert episode.success
        assert episode.info_action_count == 0
        assert len(episode.iterations) == 1
        assert episode.plan is not None and len(episode.plan) == 4

    def test_single_round_budget_never_gathers_info(self):
        failures = 0
        cfg = NoiseConfig(base_flip_rate=0.45, logit_noise_sd=3.0)
        for seed in range(30):
            scene = generate_scene(3, stack_bias=1.0, seed=seed)
            env = PlanningEnvironment(scene, cfg, seed=seed)
            episode = plan_under_uncertainty(
                env, parse_goal("On(o0,o1)"), tau_plan=0.7, max_retries=1
            )
            assert len(episode.iterations) == 1
            assert episode.info_action_count == 0
            failures += not episode.success
        assert failures > 0  # near-coin perception must sometimes mislead execution

    def test_round_budget_bounds_info_actions(self):
        cfg = NoiseConfig(base_flip_rate=0.2, logit_noise_sd=1.5)
        for seed in range(10):
            scene = generate_scene(4, stack_bias=0.5, seed=seed)
            env = PlanningEnvironment(scene, cfg, seed=seed)
            episode = plan_under_uncertainty(
                env, parse_goal("On(o0,o1)"), tau_plan=0.7, max_retries=3
            )
            assert len(episode.iterations) <= 3
            assert episode.info_action_count <= 2

    def test_uncertainty_trace_never_increases(self):
        cfg = NoiseConfig(base_flip_rate=0.15, logit_noise_sd=1.0)
        for seed in range(10):
            scene = generate_scene(4, stack_bias=0.5, seed=seed)
            env = PlanningEnvironment(scene, cfg, seed=seed)
            episode = plan_under_uncertainty(
                env, parse_goal("On(o0,o1)"), tau_plan=0.7, max_retries=4
            )
            trace = [r.state_uncertainty for r in episode.iterations]
            for earlier, later in zip(trace, trace[1:]):
                assert later <= earlier + 1e-12

    def test_mrf_refinement_option_runs(self):
        scene = generate_scene(3, stack_bias=0.6, seed=2)
        env = PlanningEnvironment(scene, NoiseConfig(base_flip_rate=0.1, logit_noise_sd=0.8), seed=1)
        episode = plan_under_uncertainty(
            env,
            parse_goal("On(o1,o0)"),
            max_retries=2,
            options=PlannerOptions(refine_with_mrf=True),
        )
        assert len(episode.iterations) >= 1

    @pytest.mark.parametrize("seed", [0, 5, 11, 2**31 + 7])
    @pytest.mark.parametrize("info_enabled", [True, False])
    @pytest.mark.parametrize("refine", [False, True])
    def test_given_first_belief_matches_observing(self, monkeypatch, refine, info_enabled, seed):
        scene = generate_scene(5, stack_bias=0.5, seed=seed)
        noise = NoiseConfig(base_flip_rate=0.15, logit_noise_sd=1.0)
        goal = default_goal(scene)
        options = PlannerOptions(refine_with_mrf=refine, info_enabled=info_enabled)
        # round 0 as the other policy's episode on a fresh environment formed it
        other = PlannerOptions(refine_with_mrf=refine, info_enabled=not info_enabled)
        first = plan_under_uncertainty(
            PlanningEnvironment(scene, noise, seed), goal, options=other
        ).first_belief
        observed = plan_under_uncertainty(PlanningEnvironment(scene, noise, seed), goal, options=options)
        observes = []
        observe = PlanningEnvironment.observe

        def counted(env):
            observes.append(env)
            return observe(env)

        monkeypatch.setattr(PlanningEnvironment, "observe", counted)
        given = plan_under_uncertainty(
            PlanningEnvironment(scene, noise, seed), goal, options=options, first_belief=first
        )
        assert observed.first_belief == first and given.first_belief is first
        assert given.iterations == observed.iterations
        assert given.plan == observed.plan
        assert (given.expansions, given.success, given.info_action_count, given.cap_hits) == (
            observed.expansions, observed.success, observed.info_action_count, observed.cap_hits
        )
        assert len(observes) == len(given.iterations) - 1  # round 0 observes nothing

    def test_rows_schema(self):
        scene = generate_scene(3, stack_bias=0.0, seed=4)
        env = PlanningEnvironment(scene, NoiseConfig(), seed=0)
        episode = plan_under_uncertainty(env, parse_goal("On(o0,o1)"))
        (record,) = episode.iterations
        assert (record.index, record.action_kind) == (0, "plan")
        assert 0.0 <= record.state_uncertainty <= 1.0

    def test_cap_hit_gives_the_round_up(self, monkeypatch):
        monkeypatch.setattr(planner, "MAX_EXPANSIONS", 1)
        scene = generate_scene(3, stack_bias=0.0, seed=4)
        env = PlanningEnvironment(scene, NoiseConfig(), seed=0)
        episode = plan_under_uncertainty(
            env, parse_goal("On(o0,o1) & On(o1,o2)"), tau_plan=0.7, max_retries=3
        )
        assert [r.action_kind for r in episode.iterations] == ["give_up"] * 3
        assert not episode.success and episode.plan is None
        assert episode.cap_hits == 3
        assert episode.expansions == 3  # the cap, once per capped search

    def test_goal_naming_unknown_object_rejected(self):
        scene = generate_scene(3, seed=0)
        env = PlanningEnvironment(scene, NoiseConfig(), seed=0)
        with pytest.raises(ValueError, match=r"not in the scene: \['o7'\]"):
            plan_under_uncertainty(env, parse_goal("On(o0,o7)"))

    def test_invalid_budget_rejected(self):
        scene = generate_scene(3, seed=0)
        env = PlanningEnvironment(scene, NoiseConfig(), seed=0)
        with pytest.raises(ValueError):
            plan_under_uncertainty(env, parse_goal("On(o0,o1)"), max_retries=0)


class TestRandomInstance:
    def test_deterministic_under_seed(self):
        a = random_instance(np.random.default_rng(9), 5)
        b = random_instance(np.random.default_rng(9), 5)
        assert a == b

    def test_always_solvable(self):
        rng = np.random.default_rng(11)
        for _ in range(40):
            start, goal = random_instance(rng, int(rng.integers(3, 7)))
            assert bfs_optimal_length(start, goal) is not None
