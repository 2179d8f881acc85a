"""Dependency-MRF behavior: construction rules, energies, exact marginals,
loopy belief propagation, conditional uncertainty, MAP readout, and the
planner's refinement, which must equal enumeration.

The reference oracles here are a deliberately naive dict-based enumeration
(`brute_force`) kept separate from the library's vectorized enumeration, and
a per-message loop version of belief propagation (`_reference_loopy_bp`)
that the library's edge-array version must match bit for bit.
"""

import itertools
import math

import numpy as np
import pytest

import beliefplan.mrf
from beliefplan.core import GroundPredicate, ProbabilisticState, Relation, parse_predicate
from beliefplan.mrf import (
    CUTSET_CAP,
    CapacityError,
    HARD_WEIGHT,
    Edge,
    PredicateMrf,
    build_mrf,
    conditional_uncertainty,
    correlation_edge,
    energy,
    enumerate_beliefs,
    implication_edge,
    loopy_bp,
    map_assignment,
    mutex_edge,
    refined_state,
    unary_potentials,
)
from beliefplan.scene import NoiseConfig, generate_scene, perceive


def P(text):
    return parse_predicate(text)


def make_state(conf_by_text):
    return ProbabilisticState({P(t): v for t, v in conf_by_text.items()})


def edge_kind(e):
    """The structural rule an edge's table encodes."""
    if e.table[1][1] == HARD_WEIGHT:
        return "mutual_exclusion"
    if HARD_WEIGHT in (e.table[1][0], e.table[0][1]):
        return "implication"
    return "correlation"


def antecedent(e):
    """The endpoint an implication edge penalizes as true with the other false."""
    return e.i if e.table[1][0] == HARD_WEIGHT else e.j


def brute_force(mrf):
    """Dict-based exhaustive marginals: independent check on the library path."""
    n = mrf.n_nodes
    weights = {}
    for bits in itertools.product((0, 1), repeat=n):
        e = sum(mrf.unary[i][b] for i, b in enumerate(bits))
        for edge in mrf.edges:
            e += edge.table[bits[edge.i]][bits[edge.j]]
        weights[bits] = math.exp(-e)
    z = sum(weights.values())
    marg = np.zeros((n, 2))
    for bits, w in weights.items():
        for i, b in enumerate(bits):
            marg[i][b] += w / z
    return marg


def random_tree_mrf(rng, n_lo=2, n_hi=9):
    """Random tree-structured MRF over synthetic On predicates."""
    n = int(rng.integers(n_lo, n_hi + 1))
    nodes = tuple(
        GroundPredicate(P("On(a,b)").relation, (f"x{i}", f"y{i}")) for i in range(n)
    )
    unary = np.array([unary_potentials(float(rng.uniform(0.05, 0.95))) for _ in nodes])
    edges = []
    for j in range(1, n):
        i = int(rng.integers(0, j))
        kind = rng.choice(["mutex", "imp", "corr"])
        if kind == "mutex":
            edges.append(Edge(i, j, ((0, 0), (0, 20.0))))
        elif kind == "imp":
            ant = i if rng.uniform() < 0.5 else j
            tbl = [[0.0, 0.0], [0.0, 0.0]]
            if ant == i:
                tbl[1][0] = 20.0
            else:
                tbl[0][1] = 20.0
            edges.append(Edge(i, j, (tuple(tbl[0]), tuple(tbl[1]))))
        else:
            rho = float(rng.uniform(0.1, 0.9)) * (1 if rng.uniform() < 0.5 else -1)
            edges.append(Edge(i, j, ((-rho, rho), (rho, -rho))))
    return PredicateMrf(nodes, unary, tuple(edges))


def _lse(values):
    m = float(np.max(values))
    return m + float(np.log(np.sum(np.exp(values - m))))


def _reference_loopy_bp(mrf, max_iters=200):
    """Loopy BP as one Python loop over a dict of directed messages.

    Same flooding schedule, damping, tolerance, normalization and summation
    order as :func:`loopy_bp`; returns (node, max-node marginals, converged,
    iterations).
    """
    damping, tol = 0.5, 1e-8
    n = mrf.n_nodes
    log_unary = -mrf.unary
    tables = {(e.i, e.j): -e.table_array() for e in mrf.edges}
    msgs, max_msgs = {}, {}
    inbound = [[] for _ in range(n)]
    for e in mrf.edges:
        for s, t in ((e.i, e.j), (e.j, e.i)):
            msgs[(s, t)] = np.full(2, -math.log(2.0))
            max_msgs[(s, t)] = np.full(2, -math.log(2.0))
            inbound[t].append(s)

    def oriented_table(s, t):
        return tables[(s, t)] if (s, t) in tables else tables[(t, s)].T

    converged = False
    iterations = 0
    for sweep in range(max_iters):
        iterations = sweep + 1
        new_msgs, new_max = {}, {}
        delta = 0.0
        for (s, t), old in msgs.items():
            pre = log_unary[s].copy()
            pre_max = log_unary[s].copy()
            for k in inbound[s]:
                if k != t:
                    pre += msgs[(k, s)]
                    pre_max += max_msgs[(k, s)]
            log_phi = oriented_table(s, t)
            raw = np.array([_lse(pre + log_phi[:, xt]) for xt in (0, 1)], dtype=float)
            raw -= _lse(raw)
            nxt = damping * old + (1.0 - damping) * raw
            nxt -= _lse(nxt)
            new_msgs[(s, t)] = nxt

            raw_m = np.max(pre_max[:, None] + log_phi, axis=0)
            raw_m -= _lse(raw_m)
            old_m = max_msgs[(s, t)]
            nxt_m = damping * old_m + (1.0 - damping) * raw_m
            nxt_m -= _lse(nxt_m)
            new_max[(s, t)] = nxt_m

            delta = max(
                delta, float(np.max(np.abs(nxt - old))), float(np.max(np.abs(nxt_m - old_m)))
            )
        msgs, max_msgs = new_msgs, new_max
        if delta < tol:
            converged = True
            break
    if not mrf.edges:
        converged = True
        iterations = max(iterations, 1)

    def node_beliefs(messages):
        out = np.empty((n, 2), dtype=float)
        for i in range(n):
            b = log_unary[i].copy()
            for k in inbound[i]:
                b += messages[(k, i)]
            b -= _lse(b)
            out[i] = np.exp(b)
        return out

    return node_beliefs(msgs), node_beliefs(max_msgs), converged, iterations


def rule_edges(nodes):
    """The two structural rules applied to every node pair directly:
    (i, j, table) for each edge, sorted by endpoints."""
    out = []
    for i, j in itertools.combinations(range(len(nodes)), 2):
        for ant, other in ((i, j), (j, i)):
            p, q = nodes[ant], nodes[other]
            if p.relation is not Relation.ON:
                continue
            a, b = p.args
            if q == GroundPredicate(Relation.CLEAR, (b,)):
                out.append((i, j, ((0.0, 0.0), (0.0, HARD_WEIGHT))))
            elif q == GroundPredicate(Relation.TOUCHING, (a, b)):
                # antecedent true with consequent false is the penalized cell
                if ant == i:
                    out.append((i, j, ((0.0, 0.0), (HARD_WEIGHT, 0.0))))
                else:
                    out.append((i, j, ((0.0, HARD_WEIGHT), (0.0, 0.0))))
    return sorted(out)


def assert_matches_reference(mrf, max_iters=200):
    """Run both BPs with ``max_iters`` sweeps at most (the library's through
    ``BP_MAX_ITERS``) and assert bit-equal results; return the library's."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(beliefplan.mrf, "BP_MAX_ITERS", max_iters)
        bp = loopy_bp(mrf)
    node, max_node, converged, iterations = _reference_loopy_bp(mrf, max_iters)
    assert np.array_equal(bp.node_marginals, node)
    assert np.array_equal(bp.max_node_marginals, max_node)
    assert bp.converged == converged
    assert bp.iterations == iterations
    return bp


def random_correlation_mrf(rng, n):
    """Random spanning tree plus chords of signed correlation edges."""
    nodes = tuple(GroundPredicate(P("Clear(a)").relation, (f"n{k}",)) for k in range(n))
    unary = np.array([unary_potentials(float(rng.uniform(0.05, 0.95))) for _ in nodes])
    pairs = {(int(rng.integers(0, j)), j) for j in range(1, n)}
    for _ in range(int(rng.integers(0, n + 1)) if n >= 2 else 0):
        a, b = sorted(int(x) for x in rng.choice(n, size=2, replace=False))
        pairs.add((a, b))
    edges = tuple(
        correlation_edge(i, j, float(rng.uniform(-0.9, 0.9))) for i, j in sorted(pairs)
    )
    return PredicateMrf(nodes, unary, edges)


class TestBuildRules:
    def test_both_edge_kinds_appear(self):
        state = make_state(
            {"On(a,b)": 0.8, "Clear(b)": 0.3, "Touching(a,b)": 0.7, "On(b,c)": 0.6}
        )
        mrf = build_mrf(state)
        kinds = sorted(edge_kind(e) for e in mrf.edges)
        assert kinds == ["implication", "mutual_exclusion"]

    def test_mutex_pairs_on_with_clear_of_base(self):
        state = make_state({"On(a,b)": 0.8, "Clear(b)": 0.3, "Clear(a)": 0.9})
        mrf = build_mrf(state)
        assert len(mrf.edges) == 1
        e = mrf.edges[0]
        assert edge_kind(e) == "mutual_exclusion"
        pair = {str(mrf.nodes[e.i]), str(mrf.nodes[e.j])}
        assert pair == {"On(a,b)", "Clear(b)"}
        # both-true is the only penalized cell
        assert e.table[1][1] == 20.0
        assert e.table[0][0] == e.table[0][1] == e.table[1][0] == 0.0

    def test_implication_direction_recorded(self):
        state = make_state({"On(a,b)": 0.9, "Touching(a,b)": 0.2})
        mrf = build_mrf(state)
        (e,) = mrf.edges
        assert edge_kind(e) == "implication"
        # penalty sits on antecedent-true, consequent-false
        assert str(mrf.nodes[antecedent(e)]) == "On(a,b)"
        cons = e.j if antecedent(e) == e.i else e.i
        assert str(mrf.nodes[cons]) == "Touching(a,b)"
        assert sorted(v for row in e.table for v in row) == [0.0, 0.0, 0.0, 20.0]

    def test_no_edge_joins_two_on_nodes(self):
        # chained supports On(a,b), On(b,c) and a support cycle stay unlinked
        state = make_state({"On(a,b)": 0.7, "On(b,c)": 0.6, "On(c,d)": 0.5, "On(c,a)": 0.4})
        assert build_mrf(state).edges == ()
        scene = generate_scene(5, 0.5, 0)
        state = perceive(scene, NoiseConfig(base_flip_rate=0.15, logit_noise_sd=1.0), 100)
        mrf = build_mrf(state)
        assert mrf.edges
        for e in mrf.edges:
            relations = {mrf.nodes[e.i].relation, mrf.nodes[e.j].relation}
            assert relations in ({Relation.ON, Relation.CLEAR}, {Relation.ON, Relation.TOUCHING})

    def test_deterministic_and_complete(self):
        state = make_state(
            {"On(a,b)": 0.8, "Clear(b)": 0.3, "Touching(a,b)": 0.7, "On(b,c)": 0.6}
        )
        mrf = build_mrf(state)
        assert build_mrf(state).edges == mrf.edges
        assert mrf.n_nodes == 4 and len(mrf.edges) == 2
        by_kind = {edge_kind(e): e for e in mrf.edges}
        assert set(by_kind) == {"implication", "mutual_exclusion"}
        assert str(mrf.nodes[antecedent(by_kind["implication"])]) == "On(a,b)"

    def test_two_cycle_of_on_predicates_not_linked(self):
        # On(a,b) with On(b,a) shares both objects, not a support chain
        state = make_state({"On(a,b)": 0.7, "On(b,a)": 0.6})
        assert build_mrf(state).edges == ()

    def test_independent_predicates_give_empty_edge_set(self):
        state = make_state({"LeftOf(a,b)": 0.5, "CloseTo(c,d)": 0.5})
        assert build_mrf(state).edges == ()

    def test_edge_parameters_checked(self):
        assert antecedent(implication_edge(2, 5, 5)) == 5
        with pytest.raises(ValueError):
            implication_edge(2, 5, 3)
        for rho in (-1.0, 1.0):
            with pytest.raises(ValueError):
                correlation_edge(2, 5, rho)

    def test_unary_energies_clamped_logs(self):
        state = make_state({"On(a,b)": 1.0})
        mrf = build_mrf(state)
        assert mrf.unary[0, 1] == pytest.approx(-math.log(1 - 1e-6), abs=1e-15)
        assert mrf.unary[0, 0] == pytest.approx(-math.log(1e-6), abs=1e-9)


    def test_edges_follow_the_node_tuple(self):
        # same objects, different predicate sets: a cache keyed by the object
        # set would hand the partial states the full state's edges
        full = {
            "On(a,b)": 0.8, "On(b,c)": 0.6, "On(c,a)": 0.3, "On(b,a)": 0.4,
            "Clear(a)": 0.2, "Clear(b)": 0.3, "Clear(c)": 0.7,
            "Touching(a,b)": 0.7, "Touching(b,c)": 0.6, "Touching(a,c)": 0.5,
            "LeftOf(a,c)": 0.5,
        }
        partial = [
            {k: v for k, v in full.items() if k not in drop}
            for drop in (
                {"Clear(b)"},
                {"Touching(a,b)", "Touching(a,c)"},
                {"Clear(a)", "Clear(b)", "Clear(c)", "Touching(b,c)"},
                {"On(b,c)"},
            )
        ]
        for conf in [full, *partial, full]:
            mrf = build_mrf(make_state(conf))
            assert [(e.i, e.j, e.table) for e in mrf.edges] == rule_edges(mrf.nodes)

    def test_unary_fresh_on_each_call(self):
        state = make_state({"On(a,b)": 0.8, "Clear(b)": 0.3})
        first, second = build_mrf(state), build_mrf(state)
        assert not np.shares_memory(first.unary, second.unary)
        first.unary[:] = 0.0
        assert np.array_equal(build_mrf(state).unary, second.unary)
        assert second.unary[1, 1] == -math.log(0.8)


class TestEnergy:
    def test_hand_computed_two_node_case(self):
        state = make_state({"On(a,b)": 0.8, "Clear(b)": 0.4})
        mrf = build_mrf(state)
        # nodes sorted: Clear(b)=0, On(a,b)=1
        e_tt = -math.log(0.4) - math.log(0.8) + 20.0
        e_ft = -math.log(0.6) - math.log(0.8)
        assert energy(mrf, [True, True]) == pytest.approx(e_tt, abs=1e-12)
        assert energy(mrf, (False, True)) == pytest.approx(e_ft, abs=1e-12)

    def test_partial_assignment_rejected(self):
        mrf = build_mrf(make_state({"On(a,b)": 0.8, "Clear(b)": 0.4}))
        with pytest.raises(ValueError):
            energy(mrf, [True])


class TestEnumeration:
    def test_single_node(self):
        mrf = build_mrf(make_state({"On(a,b)": 0.8}))
        beliefs = enumerate_beliefs(mrf)
        np.testing.assert_allclose(beliefs.node_marginals[0], [0.2, 0.8], atol=1e-9)

    def test_mutex_pair_hand_value(self):
        mrf = build_mrf(make_state({"On(a,b)": 0.9, "Clear(b)": 0.9}))
        beliefs = enumerate_beliefs(mrf)
        # weights: ff 0.01, ft 0.09, tf 0.09, tt 0.81 e^-20 (negligible)
        np.testing.assert_allclose(
            beliefs.node_marginals[:, 1], [0.09 / 0.19, 0.09 / 0.19], atol=1e-6
        )

    def test_matches_naive_oracle(self):
        rng = np.random.default_rng(101)
        for _ in range(20):
            mrf = random_tree_mrf(rng, n_lo=2, n_hi=7)
            lib = enumerate_beliefs(mrf)
            np.testing.assert_allclose(lib.node_marginals, brute_force(mrf), atol=1e-10)

    def test_capacity_cap(self):
        nodes = tuple(
            GroundPredicate(P("Clear(a)").relation, (f"o{i}",)) for i in range(21)
        )
        mrf = PredicateMrf(nodes, np.zeros((21, 2)), ())
        with pytest.raises(CapacityError):
            enumerate_beliefs(mrf)


class TestLoopyBp:
    def test_single_node_converges_immediately(self):
        mrf = build_mrf(make_state({"On(a,b)": 0.8}))
        beliefs = loopy_bp(mrf)
        assert beliefs.converged
        assert beliefs.iterations == 1
        np.testing.assert_allclose(beliefs.node_marginals[0], [0.2, 0.8], atol=1e-9)

    def test_exact_on_trees(self):
        rng = np.random.default_rng(107)
        for _ in range(30):
            mrf = random_tree_mrf(rng)
            bp = loopy_bp(mrf)
            exact = enumerate_beliefs(mrf)
            assert bp.converged
            np.testing.assert_allclose(
                bp.node_marginals, exact.node_marginals, atol=1e-6
            )

    def test_marginals_normalized(self):
        rng = np.random.default_rng(109)
        for _ in range(10):
            mrf = random_tree_mrf(rng)
            bp = loopy_bp(mrf)
            np.testing.assert_allclose(bp.node_marginals.sum(axis=1), 1.0, atol=1e-9)

    def test_implication_starves_forbidden_cell(self):
        mrf = build_mrf(make_state({"On(a,b)": 0.9, "Touching(a,b)": 0.1}))
        beliefs = loopy_bp(mrf)
        (e,) = mrf.edges
        p_on = beliefs.node_marginals[antecedent(e), 1]
        p_touching = beliefs.node_marginals[e.i + e.j - antecedent(e), 1]
        # P(On) - P(Touching) is at most the forbidden cell's mass P(On, not Touching);
        # without the edge it would be 0.9 - 0.1
        assert p_on < p_touching + 1e-6

    def test_loopy_graph_close_to_enumeration(self):
        # a 3-cycle of correlation edges over the support cycle a-b-c-a
        state = make_state({"On(a,b)": 0.75, "On(b,c)": 0.65, "On(c,a)": 0.55})
        base = build_mrf(state)
        edges = tuple(correlation_edge(i, j, 0.5) for i, j in ((0, 1), (0, 2), (1, 2)))
        mrf = PredicateMrf(base.nodes, base.unary, edges)
        bp = loopy_bp(mrf)
        exact = enumerate_beliefs(mrf)
        assert bp.converged
        np.testing.assert_allclose(
            bp.node_marginals, exact.node_marginals, atol=0.05
        )

    def test_hard_edge_cycle_stays_stable(self):
        # five-cycle through two exclusion edges, two correlations and an
        # implication: BP is approximate here, but must converge and keep
        # marginals in range
        state = make_state(
            {"On(a,b)": 0.8, "On(x,b)": 0.6, "On(b,z)": 0.7, "Clear(b)": 0.4, "Touching(b,z)": 0.3}
        )
        base = build_mrf(state)
        k = {str(p): i for i, p in enumerate(base.nodes)}

        def pair(p, q):
            return sorted((k[p], k[q]))

        edges = sorted(
            [
                mutex_edge(*pair("On(a,b)", "Clear(b)")),
                mutex_edge(*pair("On(x,b)", "Clear(b)")),
                correlation_edge(*pair("On(a,b)", "On(b,z)"), 0.5),
                implication_edge(*pair("On(b,z)", "Touching(b,z)"), k["On(b,z)"]),
                correlation_edge(*pair("Touching(b,z)", "On(x,b)"), 0.5),
            ],
            key=lambda e: (e.i, e.j),
        )
        mrf = PredicateMrf(base.nodes, base.unary, tuple(edges))
        assert all(len(adj) == 2 for adj in mrf.neighbors())
        bp = loopy_bp(mrf)
        assert bp.converged
        assert np.all(bp.node_marginals >= 0) and np.all(bp.node_marginals <= 1)


class TestLoopyBpMatchesReference:
    """The edge-array BP rounds every value as the per-message loop does."""

    @pytest.mark.parametrize("n_objects,seed", [(3, 0), (3, 1), (4, 0), (4, 1), (5, 0), (6, 0)])
    def test_perceived_scene_graphs(self, n_objects, seed):
        scene = generate_scene(n_objects, 0.5, seed)
        state = perceive(scene, NoiseConfig(base_flip_rate=0.15, logit_noise_sd=1.0), seed + 100)
        mrf = build_mrf(state)
        assert {edge_kind(e) for e in mrf.edges} == {"implication", "mutual_exclusion"}
        assert_matches_reference(mrf)

    def test_random_correlation_graphs(self):
        rng = np.random.default_rng(211)
        for n in [1, 1, 2, 3, 5, 8, 12]:
            assert_matches_reference(random_correlation_mrf(rng, n))

    def test_edgeless_graphs(self):
        rng = np.random.default_rng(223)
        for n in (1, 4):
            mrf = PredicateMrf(
                tuple(GroundPredicate(P("Clear(a)").relation, (f"n{k}",)) for k in range(n)),
                rng.uniform(0.0, 5.0, size=(n, 2)),
                (),
            )
            bp = assert_matches_reference(mrf)
            assert bp.converged and bp.iterations == 1

    def test_not_converged(self):
        rng = np.random.default_rng(227)
        mrf = random_correlation_mrf(rng, 10)
        bp = assert_matches_reference(mrf, max_iters=3)
        assert not bp.converged and bp.iterations == 3
        scene = generate_scene(5, 0.6, 4)
        state = perceive(scene, NoiseConfig(base_flip_rate=0.15, logit_noise_sd=1.0), 9)
        bp = assert_matches_reference(build_mrf(state), max_iters=7)
        assert not bp.converged and bp.iterations == 7


    def test_seven_object_scene(self):
        # the sweep-large size: wider gathers than the 3-6 object cases
        scene = generate_scene(7, 0.5, 3)
        state = perceive(scene, NoiseConfig(base_flip_rate=0.15, logit_noise_sd=1.0), 103)
        mrf = build_mrf(state)
        assert mrf.n_nodes == 133
        # Clear(b) excludes On(x,b) for each of the 6 other objects; at 6
        # objects the widest node has 5 neighbours
        assert max(map(len, mrf.neighbors())) == 6
        assert_matches_reference(mrf)

    def test_isolated_node_next_to_edges(self):
        state = make_state(
            {"On(a,b)": 0.8, "Clear(b)": 0.3, "Touching(a,b)": 0.6, "LeftOf(c,d)": 0.7}
        )
        mrf = build_mrf(state)
        isolated = [k for k, adj in enumerate(mrf.neighbors()) if not adj]
        assert [str(mrf.nodes[k]) for k in isolated] == ["LeftOf(c,d)"]
        bp = assert_matches_reference(mrf)
        np.testing.assert_allclose(bp.node_marginals[isolated[0]], [0.3, 0.7], atol=1e-12)

    def test_shared_node_tuple_different_unaries(self):
        scene = generate_scene(4, 0.5, 2)
        cfg = NoiseConfig(base_flip_rate=0.15, logit_noise_sd=1.0)
        first, second = (build_mrf(perceive(scene, cfg, seed)) for seed in (11, 12))
        assert first.nodes == second.nodes and first.edges == second.edges
        assert not np.array_equal(first.unary, second.unary)
        for order in ((first, second), (second, first)):
            for mrf in order:
                assert_matches_reference(mrf)


class TestMapAssignment:
    def test_argmax_with_false_ties(self):
        beliefs = enumerate_beliefs(build_mrf(make_state({"On(a,b)": 0.8, "Clear(c)": 0.2})))
        assert map_assignment(beliefs) == (False, True)  # sorted: Clear(c), On(a,b)
        even = PredicateMrf(
            (P("On(a,b)"),), np.array([unary_potentials(0.5)]), ()
        )
        assert map_assignment(enumerate_beliefs(even)) == (False,)

    def test_map_energy_never_above_raw_argmax_on_trees(self):
        rng = np.random.default_rng(127)
        for _ in range(50):
            mrf = random_tree_mrf(rng)
            bp = loopy_bp(mrf)
            refined = map_assignment(bp)
            raw = tuple(bool(u[1] < u[0]) for u in mrf.unary)  # lower energy side
            assert energy(mrf, refined) <= energy(mrf, raw) + 1e-9


class TestConditionalUncertainty:
    def test_single_node_values(self):
        even = build_mrf(make_state({"On(a,b)": 0.5}))
        h = conditional_uncertainty(even)
        assert h == pytest.approx(math.log(2.0), abs=1e-12)
        sure = build_mrf(make_state({"On(a,b)": 1.0}))
        assert conditional_uncertainty(sure) < 1e-4

    def test_hard_exclusion_tightens_below_marginal_entropy(self):
        mrf = build_mrf(make_state({"On(a,b)": 0.5, "Clear(b)": 0.5}))
        beliefs = enumerate_beliefs(mrf)
        marginal_sum = sum(
            -(b[0] * math.log(b[0]) + b[1] * math.log(b[1]))
            for b in beliefs.node_marginals
        )
        u_dep = conditional_uncertainty(mrf)
        assert u_dep < marginal_sum - 1e-6

    def test_tightening_over_random_graphs(self):
        rng = np.random.default_rng(131)
        for _ in range(30):
            mrf = random_tree_mrf(rng, n_lo=2, n_hi=8)
            beliefs = enumerate_beliefs(mrf)
            marginal_sum = sum(
                -sum(v * math.log(v) for v in b if v > 0)
                for b in beliefs.node_marginals
            )
            u_dep = conditional_uncertainty(mrf)
            assert u_dep <= marginal_sum + 1e-9
            assert u_dep >= -1e-12

    def test_edgeless_graph_equals_marginal_entropy_sum(self):
        mrf = build_mrf(make_state({"On(a,b)": 0.3, "LeftOf(c,d)": 0.9}))
        assert mrf.edges == ()
        beliefs = enumerate_beliefs(mrf)
        expected = sum(
            -sum(v * math.log(v) for v in b) for b in beliefs.node_marginals
        )
        assert conditional_uncertainty(mrf) == pytest.approx(expected, abs=1e-9)

    def test_capacity_cap(self):
        nodes = tuple(GroundPredicate(P("Clear(a)").relation, (f"o{i:02d}",)) for i in range(21))
        mrf = PredicateMrf(nodes, np.zeros((21, 2)), ())
        with pytest.raises(CapacityError):
            conditional_uncertainty(mrf)


class TestRefinedState:
    def test_confidences_replaced_by_marginals(self):
        state = make_state({"On(a,b)": 0.9, "Clear(b)": 0.9})
        out = refined_state(state)
        # hard exclusion drags both catastrophically-conflicting confidences down
        for _, p in out.items():
            assert p == pytest.approx(0.09 / 0.19, abs=1e-6)


THREE_OBJECTS = (
    [f"Clear({a})" for a in "abc"]
    + [f"On({a},{b})" for a in "abc" for b in "abc" if a != b]
    + [f"Touching({a},{b})" for a, b in itertools.combinations("abc", 2)]
)


def random_confidences(rng, texts):
    """Uniform confidences with the clamp's edge cases 0, 1 and 0.5 mixed in."""
    values = rng.uniform(0.0, 1.0, size=len(texts))
    values[rng.uniform(size=len(texts)) < 0.15] = 0.0
    values[rng.uniform(size=len(texts)) < 0.15] = 1.0
    values[rng.uniform(size=len(texts)) < 0.1] = 0.5
    return make_state(dict(zip(texts, values.tolist())))


def assert_exact(state):
    """refined_state against enumeration over every node of build_mrf's graph."""
    want = enumerate_beliefs(build_mrf(state)).node_marginals[:, 1]
    np.testing.assert_allclose(refined_state(state).confidences, want, rtol=0.0, atol=1e-12)


class TestRefinedStateIsExact:
    """Conditioning on the Clear nodes gives the enumerated marginals."""

    def test_full_three_object_graph(self):
        rng = np.random.default_rng(301)
        assert build_mrf(make_state(dict.fromkeys(THREE_OBJECTS, 0.5))).n_nodes == 12
        for _ in range(40):
            assert_exact(random_confidences(rng, THREE_OBJECTS))

    @pytest.mark.parametrize(
        "drop",
        [
            {"Clear(b)"},
            {"Clear(a)", "Clear(b)", "Clear(c)"},
            {"Touching(a,b)"},
            {"Touching(a,b)", "Touching(a,c)", "Touching(b,c)"},
            {"On(b,a)", "Clear(c)"},
            {"On(a,b)", "On(b,a)"},
            {"On(a,b)", "On(b,a)", "On(a,c)", "On(c,a)", "On(b,c)"},
        ],
        ids=lambda d: "-".join(sorted(d)),
    )
    def test_partial_states(self, drop):
        rng = np.random.default_rng(307)
        texts = [t for t in THREE_OBJECTS if t not in drop]
        for _ in range(20):
            assert_exact(random_confidences(rng, texts))

    def test_lone_on(self):
        for p in (0.0, 0.3, 0.5, 1.0):
            assert_exact(make_state({"On(a,b)": p}))

    def test_lone_on_with_its_clear_or_touching(self):
        rng = np.random.default_rng(311)
        for texts in (["On(a,b)", "Clear(b)"], ["On(a,b)", "Touching(a,b)"],
                      ["On(a,b)", "Clear(a)", "Touching(a,b)"]):
            for _ in range(10):
                assert_exact(random_confidences(rng, texts))

    def test_states_with_left_of_and_close_to(self):
        rng = np.random.default_rng(313)
        two = ["Clear(a)", "Clear(b)", "On(a,b)", "On(b,a)", "Touching(a,b)",
               "LeftOf(a,b)", "LeftOf(b,a)", "CloseTo(a,b)"]
        three = [t for t in THREE_OBJECTS if t not in {"On(c,a)", "On(c,b)"}]
        three += ["LeftOf(a,c)", "LeftOf(c,b)", "CloseTo(a,b)", "CloseTo(b,c)"]
        for texts in (two, three, ["LeftOf(a,b)", "CloseTo(c,d)"]):
            for _ in range(15):
                assert_exact(random_confidences(rng, texts))

    def test_isolated_nodes_keep_their_normalized_clamped_confidence(self):
        state = make_state({"On(a,b)": 0.8, "Clear(b)": 0.3, "LeftOf(c,d)": 0.7,
                            "CloseTo(c,d)": 1.0, "Touching(c,d)": 0.0})
        got = dict(refined_state(state).items())
        bp = loopy_bp(build_mrf(state)).node_marginals[:, 1]
        for k, pred in enumerate(state):
            if pred.relation is not Relation.ON and pred != P("Clear(b)"):
                assert got[pred] == pytest.approx(bp[k], abs=1e-15)
        assert got[P("LeftOf(c,d)")] == pytest.approx(0.7, abs=1e-15)
        assert got[P("CloseTo(c,d)")] == pytest.approx(1.0 - 1e-6, abs=1e-15)

    @pytest.mark.parametrize("n_objects", range(3, 11))
    def test_close_to_loopy_bp_on_perceived_scenes(self, n_objects):
        # loopy BP is the approximation here: over 40 scenes at each size it was
        # within 2e-6 of these marginals, but 2.1e-5 on one 9-object scene
        cfg = NoiseConfig(base_flip_rate=0.15, logit_noise_sd=1.0)
        for seed in range(5):
            state = perceive(generate_scene(n_objects, 0.5, seed), cfg, seed + 100)
            bp = loopy_bp(build_mrf(state))
            assert bp.converged
            np.testing.assert_allclose(
                refined_state(state).confidences, bp.node_marginals[:, 1], rtol=0.0, atol=5e-5
            )

    @pytest.mark.parametrize("n_objects,seed", [(3, 1), (4, 2), (6, 3), (10, 4)])
    def test_renaming_the_objects_permutes_the_marginals(self, n_objects, seed):
        # generate_scene stacks o_k only on an earlier object: a rule that read
        # the id order would tell the renamed scene's stacks apart
        cfg = NoiseConfig(base_flip_rate=0.15, logit_noise_sd=1.0)
        state = perceive(generate_scene(n_objects, 0.8, seed), cfg, seed + 7)
        order = np.random.default_rng(seed).permutation(n_objects)
        name = {f"o{k}": f"o{int(order[k])}" for k in range(n_objects)}

        def renamed(pred):
            return GroundPredicate(pred.relation, tuple(name[a] for a in pred.args))

        moved = ProbabilisticState({renamed(pred): p for pred, p in state.items()})
        want = dict(refined_state(state).items())
        got = dict(refined_state(moved).items())
        assert set(got) == {renamed(pred) for pred in want}
        for pred, p in want.items():
            assert got[renamed(pred)] == pytest.approx(p, abs=1e-12)

    def test_clear_cutset_capped(self):
        assert CUTSET_CAP >= 10  # generate_scene's largest scene
        for m in (CUTSET_CAP, CUTSET_CAP + 1):
            ids = [f"o{k:02d}" for k in range(m)]
            conf = {f"Clear({b})": 0.5 for b in ids}
            conf.update({f"On({ids[(k + 1) % m]},{b})": 0.5 for k, b in enumerate(ids)})
            state = make_state(conf)
            if m > CUTSET_CAP:
                with pytest.raises(CapacityError):
                    refined_state(state)
            else:
                assert len(refined_state(state)) == 2 * m
