"""Core belief-state behavior: uncertainty measures, classification, fusion.

Expected values below are frozen from hand evaluation of the definitions:
u(p) = 1 - max(p, 1-p); U = 1 - prod(1 - u_i); U_k = U_0 (1-alpha)^k.
"""

import math
import os
import pickle
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import beliefplan
from beliefplan.core import (
    GroundPredicate,
    ProbabilisticState,
    Relation,
    classify,
    fuse_observation,
    has_support_cycle,
    next_residual,
    parse_predicate,
    predicate_index,
    predicate_uncertainty,
    reduction_law,
    shrink_uncertainty,
    state_uncertainty_independent,
    support_map,
)


def P(text):
    return parse_predicate(text)


def make_state(conf_by_text):
    return ProbabilisticState({P(t): v for t, v in conf_by_text.items()})


def members(state, mask):
    """The predicates of ``state`` that a mask over its index selects."""
    return {p for p, m in zip(state, mask) if m}


class TestGroundPredicate:
    def test_symmetric_relations_canonicalize(self):
        assert GroundPredicate(Relation.CLOSE_TO, ("b", "a")) == P("CloseTo(a,b)")
        assert GroundPredicate(Relation.TOUCHING, ("z", "k")).args == ("k", "z")

    def test_directional_relations_keep_order(self):
        assert P("On(b,a)").args == ("b", "a")
        assert P("LeftOf(b,a)") != P("LeftOf(a,b)")

    def test_arity_enforced(self):
        with pytest.raises(ValueError):
            GroundPredicate(Relation.CLEAR, ("a", "b"))
        with pytest.raises(ValueError):
            GroundPredicate(Relation.ON, ("a",))

    def test_duplicate_args_rejected(self):
        with pytest.raises(ValueError):
            GroundPredicate(Relation.ON, ("a", "a"))

    def test_parse_round_trip(self):
        for text in ["On(a,b)", "Clear(c)", "LeftOf(x,y)", "CloseTo(a,b)"]:
            assert str(P(text)) == text

    def test_parse_rejects_garbage(self):
        for bad in ["Above(a,b)", "On(a", "On", "", "On(a,b,c)"]:
            with pytest.raises(ValueError):
                parse_predicate(bad)

    def test_sort_key_is_the_one_order(self):
        # no generated <, which would raise between two relations anyway
        preds = [P("On(b,c)"), P("On(a,b)")]
        with pytest.raises(TypeError):
            sorted(preds)
        assert sorted(preds, key=GroundPredicate.sort_key) == preds[::-1]

    def test_pickled_in_another_process_hashes_here(self):
        # str hashes differ between processes, so a hash pickled with the
        # predicate would miss its dict entry here
        src = str(Path(beliefplan.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONHASHSEED="1")
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        script = (
            "import pickle, sys; from beliefplan.core import parse_predicate; "
            "sys.stdout.buffer.write(pickle.dumps(parse_predicate('On(o1,o0)')))"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, timeout=60
        )
        assert proc.returncode == 0, proc.stderr
        loaded = pickle.loads(proc.stdout)
        assert loaded == P("On(o1,o0)")
        assert hash(loaded) == hash(P("On(o1,o0)"))
        assert {P("On(o1,o0)"): 7}[loaded] == 7

    def test_canonical_symmetric_predicate_survives_pickling(self):
        pred = GroundPredicate(Relation.CLOSE_TO, ("b", "a"))
        loaded = pickle.loads(pickle.dumps(pred))
        assert loaded == pred and loaded.args == ("a", "b")
        assert hash(loaded) == hash(pred)


class TestSupportCycle:
    def test_chains_ending_anywhere_are_acyclic(self):
        assert not has_support_cycle({})
        assert not has_support_cycle({"a": "b", "b": "c", "d": "c"})
        assert not has_support_cycle({"a": "<table>", "b": "a"})

    def test_cycles_found_behind_a_tail(self):
        assert has_support_cycle({"a": "a"})
        assert has_support_cycle({"a": "b", "b": "a"})
        assert has_support_cycle({"t": "a", "a": "b", "b": "c", "c": "a"})


class TestSupportMap:
    def test_valid_chain(self):
        pairs = [("a", "b"), ("b", "c"), ("d", "e")]
        assert support_map(pairs) == {"a": "b", "b": "c", "d": "e"}
        assert support_map([]) == {}

    def test_object_on_itself_rejected(self):
        with pytest.raises(ValueError, match="a cannot rest on itself"):
            support_map([("a", "a")])

    def test_object_on_two_supports_rejected(self):
        with pytest.raises(ValueError, match="a rests on two supports"):
            support_map([("a", "b"), ("a", "c")])

    def test_support_carrying_two_objects_rejected(self):
        with pytest.raises(ValueError, match="c supports two objects"):
            support_map([("a", "c"), ("b", "c")])

    def test_cycle_rejected(self):
        with pytest.raises(ValueError, match="cycle"):
            support_map([("a", "b"), ("b", "c"), ("c", "a")])


class TestPredicateUncertainty:
    def test_frozen_values(self):
        # u(0.8) = 1 - 0.8 = 0.2; u(0.5) = 0.5; endpoints are exact zeros
        assert predicate_uncertainty(0.8) == pytest.approx(0.2, abs=1e-12)
        assert predicate_uncertainty(0.5) == 0.5
        assert predicate_uncertainty(0.0) == 0.0
        assert predicate_uncertainty(1.0) == 0.0

    def test_symmetry(self):
        rng = np.random.default_rng(7)
        for p in rng.uniform(0, 1, size=200):
            assert predicate_uncertainty(p) == pytest.approx(
                predicate_uncertainty(1.0 - p), abs=1e-12
            )

    def test_domain_checked(self):
        for bad in [-0.1, 1.1, float("nan")]:
            with pytest.raises(ValueError):
                predicate_uncertainty(bad)


class TestStateUncertainty:
    def test_two_predicate_example(self):
        # u = {0.2, 0.15} -> U = 1 - 0.8 * 0.85 = 0.32
        s = make_state({"On(a,b)": 0.8, "Clear(b)": 0.15})
        assert state_uncertainty_independent(s) == pytest.approx(0.32, abs=1e-12)

    def test_empty_state_is_certain(self):
        assert state_uncertainty_independent(ProbabilisticState({})) == 0.0

    def test_single_maximal_predicate(self):
        s = make_state({"On(a,b)": 0.5})
        assert state_uncertainty_independent(s) == pytest.approx(0.5, abs=1e-12)

    def test_monotone_in_added_predicates(self):
        rng = np.random.default_rng(11)
        objs = [f"o{i}" for i in range(6)]
        for _ in range(50):
            n = int(rng.integers(1, 8))
            conf = {}
            while len(conf) < n:
                a, b = rng.choice(objs, size=2, replace=False)
                conf[GroundPredicate(Relation.ON, (a, b))] = float(rng.uniform())
                conf[GroundPredicate(Relation.CLEAR, (a,))] = float(rng.uniform())
            preds = list(conf)
            u_prev = -1.0
            for k in range(1, len(preds) + 1):
                s = ProbabilisticState({p: conf[p] for p in preds[:k]})
                u_now = state_uncertainty_independent(s)
                assert u_now >= u_prev - 1e-12
                u_prev = u_now

    def test_bounded_in_unit_interval(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            n = int(rng.integers(0, 10))
            s = ProbabilisticState(
                {
                    GroundPredicate(Relation.ON, (f"a{i}", f"b{i}")): float(rng.uniform())
                    for i in range(n)
                }
            )
            u = state_uncertainty_independent(s)
            assert 0.0 <= u <= 1.0


class TestClassify:
    def test_three_way_split_at_07(self):
        s = make_state({"On(a,b)": 0.9, "Clear(b)": 0.2, "LeftOf(a,c)": 0.6})
        part = classify(s, 0.7)
        assert members(s, part.certain_true) == {P("On(a,b)")}
        assert members(s, part.certain_false) == {P("Clear(b)")}
        assert members(s, part.uncertain) == {P("LeftOf(a,c)")}

    def test_boundary_values_stay_uncertain(self):
        s = make_state({"On(a,b)": 0.7, "Clear(b)": 0.3})
        part = classify(s, 0.7)
        assert members(s, part.certain_true) == set()
        assert members(s, part.certain_false) == set()
        assert members(s, part.uncertain) == {P("On(a,b)"), P("Clear(b)")}

    def test_partition_property(self):
        rng = np.random.default_rng(17)
        for _ in range(100):
            n = int(rng.integers(0, 12))
            s = ProbabilisticState(
                {
                    GroundPredicate(Relation.ON, (f"a{i}", f"b{i}")): float(rng.uniform())
                    for i in range(n)
                }
            )
            tau = float(rng.uniform(0.05, 0.95))
            part = classify(s, tau)
            masks = (part.certain_true, part.certain_false, part.uncertain)
            buckets = [members(s, m) for m in masks]
            assert all(m.shape == (n,) and m.dtype == bool for m in masks)
            assert sum(len(b) for b in buckets) == n
            union = set().union(*buckets)
            assert union == set(s)

    def test_tau_domain_checked(self):
        s = make_state({"On(a,b)": 0.5})
        for bad in [0.0, 1.0, -0.2, 1.7]:
            with pytest.raises(ValueError):
                classify(s, bad)


class TestReductionLaw:
    def test_three_steps(self):
        # 0.5 * 0.7^3 = 0.17150
        assert reduction_law(0.5, 0.3, 3) == pytest.approx(0.1715, abs=1e-12)

    def test_zero_steps_identity(self):
        assert reduction_law(0.42, 0.9, 0) == 0.42

    def test_semigroup(self):
        rng = np.random.default_rng(19)
        for _ in range(100):
            u0 = float(rng.uniform())
            alpha = float(rng.uniform(0, 0.99))
            k = int(rng.integers(0, 6))
            m = int(rng.integers(0, 6))
            two_stage = reduction_law(reduction_law(u0, alpha, k), alpha, m)
            assert two_stage == pytest.approx(reduction_law(u0, alpha, k + m), abs=1e-12)

    def test_domain_checked(self):
        with pytest.raises(ValueError):
            reduction_law(1.2, 0.3, 1)
        with pytest.raises(ValueError):
            reduction_law(0.5, 1.0, 1)
        with pytest.raises(ValueError):
            reduction_law(0.5, 0.3, -1)


def _spread_state():
    """Confidences across [0, 1], the two ends, 0.5 and both sides of it included."""
    rng = np.random.default_rng(12)
    confs = [*rng.uniform(0.0, 1.0, 200).tolist(), 0.0, 1.0, 0.5, 0.5 - 2**-54, 1e-13, 0.999]
    preds = tuple(GroundPredicate(Relation.CLEAR, (f"o{k:03d}",)) for k in range(len(confs)))
    return ProbabilisticState.from_arrays(predicate_index(preds), confs)


class TestShrinkUncertainty:
    def test_reduction_is_multiplicative(self):
        before = _spread_state()
        once = shrink_uncertainty(before, next_residual(1.0, 0.3))
        twice = shrink_uncertainty(before, next_residual(next_residual(1.0, 0.3), 0.3))
        at_once, at_twice = dict(once.items()), dict(twice.items())
        for pred, p0 in before.items():
            u0 = predicate_uncertainty(p0)
            u1 = predicate_uncertainty(at_once[pred])
            u2 = predicate_uncertainty(at_twice[pred])
            if u0 > 1e-12:
                assert u1 / u0 == pytest.approx(0.7, abs=1e-9)
                assert u2 / u0 == pytest.approx(0.49, abs=1e-9)
            # direction preserved, 0.5 on the true side
            for shrunk in (at_once, at_twice):
                assert (shrunk[pred] >= 0.5) == (p0 >= 0.5)

    def test_residual_of_one_keeps_the_confidences(self):
        before = _spread_state()
        kept = shrink_uncertainty(before, 1.0)
        assert list(kept) == list(before)
        assert np.array([p for _, p in kept.items()]).tobytes() == np.array(
            [p for _, p in before.items()]
        ).tobytes()

    def test_residual_of_zero_makes_every_call_certain(self):
        assert {p for _, p in shrink_uncertainty(_spread_state(), 0.0).items()} == {0.0, 1.0}

    @pytest.mark.parametrize("r", [-0.1, 1.5, float("nan")])
    def test_residual_out_of_range_rejected(self, r):
        with pytest.raises(ValueError, match="r must lie in"):
            shrink_uncertainty(_spread_state(), r)

    def test_residual_saturates_at_the_least_positive_float(self):
        r = 1.0
        for _ in range(400):
            r = next_residual(r, 0.9)
        assert r == math.ulp(0.0)
        assert next_residual(0.5, 0.0) == 0.5


class TestFusion:
    def test_more_extreme_side_wins(self):
        prior = make_state({"On(a,b)": 0.6})
        obs = make_state({"On(a,b)": 0.9})
        fused = fuse_observation(prior, obs)
        assert dict(fused.items()) == {P("On(a,b)"): 0.9}
        # and the other way round: a sharper prior survives a vaguer look
        fused2 = fuse_observation(make_state({"On(a,b)": 0.95}), obs)
        assert dict(fused2.items()) == {P("On(a,b)"): 0.95}

    def test_tie_keeps_observation(self):
        prior = make_state({"On(a,b)": 0.2})
        obs = make_state({"On(a,b)": 0.8})
        assert dict(fuse_observation(prior, obs).items()) == {P("On(a,b)"): 0.8}

    def test_different_predicate_sets_rejected(self):
        prior = make_state({"On(a,b)": 0.6, "Clear(c)": 0.4})
        obs = make_state({"On(a,b)": 0.7, "LeftOf(a,c)": 0.1})
        with pytest.raises(ValueError, match="same predicates"):
            fuse_observation(prior, obs)

    def test_fused_uncertainty_never_exceeds_either_side(self):
        rng = np.random.default_rng(23)
        preds = [
            GroundPredicate(Relation.ON, ("a", "b")),
            GroundPredicate(Relation.CLEAR, ("b",)),
            GroundPredicate(Relation.CLOSE_TO, ("a", "c")),
        ]
        for _ in range(200):
            prior = ProbabilisticState({p: float(rng.uniform()) for p in preds})
            obs = ProbabilisticState({p: float(rng.uniform()) for p in preds})
            fused = fuse_observation(prior, obs)
            conf_f, conf_prior, conf_obs = (dict(s.items()) for s in (fused, prior, obs))
            for p in obs:
                u_f = predicate_uncertainty(conf_f[p])
                u_lo = min(
                    predicate_uncertainty(conf_prior[p]),
                    predicate_uncertainty(conf_obs[p]),
                )
                assert u_f == pytest.approx(u_lo, abs=1e-12)

    def test_fusion_never_raises_state_uncertainty_on_shared_support(self):
        rng = np.random.default_rng(29)
        preds = [GroundPredicate(Relation.ON, (f"a{i}", f"b{i}")) for i in range(5)]
        for _ in range(100):
            prior = ProbabilisticState({p: float(rng.uniform()) for p in preds})
            obs = ProbabilisticState({p: float(rng.uniform()) for p in preds})
            fused = fuse_observation(prior, obs)
            assert (
                state_uncertainty_independent(fused)
                <= state_uncertainty_independent(prior) + 1e-12
            )


class TestPredicateIndex:
    def test_order_and_positions(self):
        index = predicate_index([P("On(b,a)"), P("Clear(c)"), P("Touching(b,a)"), P("On(b,a)")])
        assert index.ids == ("a", "b", "c")
        assert [str(p) for p in index.preds] == ["Clear(c)", "On(b,a)", "Touching(a,b)"]
        assert index.first.tolist() == [2, 1, 0] and index.last.tolist() == [2, 0, 1]
        assert index.slot == {
            (Relation.CLEAR, 2, 2): 0, (Relation.ON, 1, 0): 1, (Relation.TOUCHING, 0, 1): 2
        }
        assert {rel: at.tolist() for rel, at in index.by_relation.items()} == {
            Relation.ON: [1], Relation.LEFT_OF: [], Relation.CLOSE_TO: [],
            Relation.TOUCHING: [2], Relation.CLEAR: [0],
        }

    def test_arrays_are_read_only(self):
        # every state over an index shares its arrays, so none may change them
        state = make_state({"On(a,b)": 0.9, "Clear(b)": 0.3, "Touching(a,b)": 0.5})
        index = state.scored
        arrays = [index.first, index.last, *index.by_relation.values()]
        assert len(arrays) == 2 + len(Relation)
        for arr in arrays:
            assert not arr.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                arr[...] = 0
        assert index.first.tolist() == [1, 0, 0] and index.last.tolist() == [1, 1, 1]

    def test_derived_states_share_the_index(self):
        state = make_state({"On(a,b)": 0.9, "Clear(b)": 0.3})
        assert state.scored.preds == tuple(state)
        obs = state.with_confidences([0.1, 0.6])
        assert obs.scored is state.scored
        assert fuse_observation(state, obs).scored is state.scored
        assert shrink_uncertainty(state, 0.5).scored is state.scored

    def test_states_built_apart_fuse_over_equal_predicates(self):
        state = make_state({"On(a,b)": 0.9, "Clear(b)": 0.3})
        twin = make_state({"Clear(b)": 0.5, "On(a,b)": 0.5})
        assert twin.scored is not state.scored
        fused = fuse_observation(twin, state)
        assert fused == state and fused.scored is state.scored


class TestStateValidation:
    def test_confidence_domain_enforced(self):
        with pytest.raises(ValueError):
            make_state({"On(a,b)": 1.5})
        with pytest.raises(ValueError):
            make_state({"On(a,b)": -0.01})
        with pytest.raises(ValueError):
            make_state({"On(a,b)": math.nan})

    def test_deterministic_iteration_order(self):
        s = make_state({"On(b,c)": 0.5, "Clear(a)": 0.5, "On(a,b)": 0.5})
        assert [str(p) for p in s] == ["Clear(a)", "On(a,b)", "On(b,c)"]


# ---------------------------------------------------------------------------
# vector belief operations against the dict loops they replaced


def _reference_uncertainty(conf):
    prod = 1.0
    for pred in sorted(conf, key=GroundPredicate.sort_key):
        prod *= 1.0 - predicate_uncertainty(conf[pred])
    return 1.0 - prod


def _reference_classify(conf, tau_plan):
    t, f, u = [], [], []
    for pred in sorted(conf, key=GroundPredicate.sort_key):
        p = conf[pred]
        if p > tau_plan:
            t.append(pred)
        elif p + tau_plan < 1.0:
            f.append(pred)
        else:
            u.append(pred)
    return frozenset(t), frozenset(f), frozenset(u)


def _reference_fuse(prior_conf, obs_conf):
    conf = dict(prior_conf)
    for pred in sorted(obs_conf, key=GroundPredicate.sort_key):
        p_obs = obs_conf[pred]
        p_prior = conf[pred]
        u_prior = predicate_uncertainty(p_prior)
        u_obs = predicate_uncertainty(p_obs)
        conf[pred] = p_prior if u_prior < u_obs else p_obs
    return conf


_POOL = sorted(
    {GroundPredicate(Relation.CLEAR, (x,)) for x in "abcde"}
    | {
        GroundPredicate(rel, (x, y))
        for rel in Relation
        if rel is not Relation.CLEAR
        for x in "abcde"
        for y in "abcde"
        if x != y
    },
    key=GroundPredicate.sort_key,
)


def _random_conf(rng, k):
    """k predicates from the pool with confidences, exact 0/0.5/1 included."""
    picks = rng.choice(len(_POOL), size=k, replace=False)
    values = rng.uniform(size=k)
    values[rng.uniform(size=k) < 0.2] = rng.choice([0.0, 0.5, 1.0, 0.3, 0.7])
    return {_POOL[int(i)]: float(v) for i, v in zip(picks, values)}


def _bits(state):
    return np.array([p for _, p in state.items()]).tobytes()


class TestBeliefOpsMatchReference:
    def test_fuse_chain_from_one_predicate_tuple(self):
        rng = np.random.default_rng(43)
        preds = tuple(_POOL)
        index = predicate_index(preds)
        belief = ProbabilisticState.from_arrays(index, rng.uniform(size=len(preds)))
        conf = dict(belief.items())
        for _ in range(5):
            obs = belief.with_confidences(rng.uniform(size=len(preds)))
            belief = fuse_observation(belief, obs)
            conf = _reference_fuse(conf, dict(obs.items()))
            assert belief == ProbabilisticState(conf)
            assert _bits(belief) == _bits(ProbabilisticState(conf))

    def test_classify_at_the_boundaries(self):
        rng = np.random.default_rng(47)
        taus = [0.5, 0.6, 0.7, 0.73, 0.8, 0.9, 0.99, float(rng.uniform(0.5, 1.0))]
        for tau in taus:
            edges = [1.0 - tau, tau]
            values = [v for e in edges for v in (np.nextafter(e, 0.0), e, np.nextafter(e, 1.0))]
            values += [0.0, 0.5, 1.0]
            conf = {_POOL[k]: float(v) for k, v in enumerate(values)}
            state = ProbabilisticState(conf)
            part = classify(state, tau)
            assert tuple(
                frozenset(members(state, m))
                for m in (part.certain_true, part.certain_false, part.uncertain)
            ) == _reference_classify(conf, tau)
        # p + tau == 1 exactly stays uncertain, though 1 - tau rounds above p
        p, tau = 0.3, 0.7
        assert p + tau == 1.0 and p < 1.0 - tau
        state = make_state({"On(a,b)": p})
        assert members(state, classify(state, tau).uncertain) == {P("On(a,b)")}

    def test_classify_random_states(self):
        rng = np.random.default_rng(53)
        for _ in range(100):
            conf = _random_conf(rng, int(rng.integers(0, 60)))
            tau = float(rng.uniform(0.01, 0.99))
            state = ProbabilisticState(conf)
            part = classify(state, tau)
            assert tuple(
                frozenset(members(state, m))
                for m in (part.certain_true, part.certain_false, part.uncertain)
            ) == _reference_classify(conf, tau)

    def test_state_uncertainty_on_long_states(self):
        # near-certain confidences keep the product near 1, where 1 - prod is
        # exact and a product taken in another order shows in the last bits
        rng = np.random.default_rng(59)
        for n in (0, 1, 2, 17, 280, 3000):
            preds = [GroundPredicate(Relation.ON, (f"a{k}", "b")) for k in range(n)]
            u = rng.uniform(0.0, 1e-4, size=n)
            values = np.where(rng.uniform(size=n) < 0.5, u, 1.0 - u)
            conf = {p: float(v) for p, v in zip(preds, values)}
            got = state_uncertainty_independent(ProbabilisticState(conf))
            assert got == _reference_uncertainty(conf)
            assert type(got) is float

    @pytest.mark.parametrize("bad", [math.nan, 1.5, -0.01, math.inf, -math.inf])
    def test_bad_confidences_raise_the_same_error(self, bad):
        preds = (P("Clear(a)"), P("On(a,b)"))
        index = predicate_index(preds)
        message = r"confidence must lie in \[0, 1\]"
        with pytest.raises(ValueError, match=message):
            ProbabilisticState({preds[0]: 0.5, preds[1]: bad})
        with pytest.raises(ValueError, match=message):
            ProbabilisticState.from_arrays(index, [0.5, bad])
        state = ProbabilisticState.from_arrays(index, [0.5, 0.5])
        with pytest.raises(ValueError, match=message):
            state.with_confidences([bad, 0.5])
        with pytest.raises(ValueError, match="must match the predicates"):
            state.with_confidences([0.5, 0.5, 0.5])

    def test_state_is_read_only(self):
        state = make_state({"On(a,b)": 0.25, "Clear(b)": 0.5})
        with pytest.raises(ValueError):
            state.confidences[0] = 1
        assert state.items() == [(P("Clear(b)"), 0.5), (P("On(a,b)"), 0.25)]
        assert all(type(p) is float for _, p in state.items())
