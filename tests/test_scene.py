"""Scene simulator tests."""

import json
import math
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from beliefplan.calibration import reliability_report
from beliefplan.core import (
    GroundPredicate,
    Relation,
    classify,
    parse_predicate,
    predicate_uncertainty,
)
from beliefplan.planner import (
    Goal,
    GroundedAction,
    PlannerOptions,
    ground_domain,
    plan_under_uncertainty,
    support_atoms,
)
from beliefplan import scene as scene_module
from beliefplan.scene import (
    CLOSE_DIST,
    CONTACT_EPS,
    NoiseConfig,
    PlanningEnvironment,
    Scene,
    SceneObject,
    _box_edges,
    _edges_iou,
    _noise_draws,
    _predicate_index,
    _scene_facts,
    _sharpen,
    _surface_gap,
    apply_info_action,
    candidate_predicates,
    generate_scene,
    occluded_objects,
    perceive,
    perceive_with_labels,
    scene_to_json,
)

ON = Relation.ON
CLEAR = Relation.CLEAR
TOUCHING = Relation.TOUCHING
LEFT_OF = Relation.LEFT_OF
CLOSE_TO = Relation.CLOSE_TO


def small_stacked_scene():
    """Three objects: o1 sits on o0, o2 alone 0.3 m to the right."""
    o0 = SceneObject("o0", (0.0, 0.0, 0.03), (0.08, 0.06, 0.08))
    o1 = SceneObject("o1", (0.0, 0.0, 0.09), (0.08, 0.06, 0.08))
    o2 = SceneObject("o2", (0.3, 0.0, 0.03), (0.08, 0.06, 0.08))
    return Scene((o0, o1, o2), (("o1", "o0"),), seed=7)


def ground_truth_state(scene: Scene) -> frozenset[GroundPredicate]:
    """The predicates that actually hold, from support pairs and geometry."""
    by_id = scene.object_map()
    has_upper = {lower for _, lower in scene.support}
    truths: set[GroundPredicate] = set()

    ids = scene.object_ids()
    for a in ids:
        if a not in has_upper:
            truths.add(GroundPredicate(Relation.CLEAR, (a,)))
    for upper, lower in scene.support:
        truths.add(GroundPredicate(Relation.ON, (upper, lower)))
    for i, a in enumerate(ids):
        for b in ids[i + 1 :]:
            oa, ob = by_id[a], by_id[b]
            if _surface_gap(oa, ob) < CONTACT_EPS:
                truths.add(GroundPredicate(Relation.TOUCHING, (a, b)))
            dxy = math.hypot(
                oa.position[0] - ob.position[0], oa.position[1] - ob.position[1]
            )
            if dxy < CLOSE_DIST:
                truths.add(GroundPredicate(Relation.CLOSE_TO, (a, b)))
    for a in ids:
        for b in ids:
            if a == b:
                continue
            oa, ob = by_id[a], by_id[b]
            if oa.position[0] + oa.size[0] / 2 < ob.position[0] - ob.size[0] / 2:
                truths.add(GroundPredicate(Relation.LEFT_OF, (a, b)))
    return frozenset(truths)


class TestGeneration:
    def test_deterministic_for_same_inputs(self):
        assert generate_scene(5, 0.4, seed=11) == generate_scene(5, 0.4, seed=11)

    def test_different_seeds_differ(self):
        assert generate_scene(5, 0.4, seed=1) != generate_scene(5, 0.4, seed=2)

    def test_object_count_and_ids(self):
        scene = generate_scene(7, seed=3)
        assert scene.object_ids() == tuple(f"o{k}" for k in range(7))

    def test_zero_bias_never_stacks(self):
        for seed in range(30):
            scene = generate_scene(4, stack_bias=0.0, seed=seed)
            assert scene.support == ()
            truths = ground_truth_state(scene)
            for oid in scene.object_ids():
                assert GroundPredicate(CLEAR, (oid,)) in truths

    def test_full_bias_always_stacks(self):
        for seed in range(100):
            assert len(generate_scene(3, stack_bias=1.0, seed=seed).support) >= 1

    def test_bounds_rejected(self):
        with pytest.raises(ValueError):
            generate_scene(2)
        with pytest.raises(ValueError):
            generate_scene(11)
        with pytest.raises(ValueError):
            generate_scene(5, stack_bias=1.5)
        with pytest.raises(ValueError):
            generate_scene(5, seed=-1)

    def test_supported_objects_sit_higher(self):
        for seed in range(20):
            scene = generate_scene(6, stack_bias=0.8, seed=seed)
            by_id = scene.object_map()
            for upper, lower in scene.support:
                assert by_id[upper].position[2] > by_id[lower].position[2]

    def test_table_objects_keep_distance(self):
        for seed in range(20):
            scene = generate_scene(8, stack_bias=0.0, seed=seed)
            for i, a in enumerate(scene.objects):
                for b in scene.objects[i + 1 :]:
                    dxy = math.hypot(
                        a.position[0] - b.position[0], a.position[1] - b.position[1]
                    )
                    assert dxy >= 0.12 - 1e-9


class TestGroundTruth:
    def test_candidate_predicate_count(self):
        # n objects: n Clear + n(n-1) On + n(n-1) LeftOf + C(n,2) each symmetric
        preds = candidate_predicates(["a", "b", "c"])
        assert len(preds) == 3 + 6 + 6 + 3 + 3
        assert list(preds) == sorted(preds, key=GroundPredicate.sort_key)

    def test_stacked_scene_truths(self):
        truths = ground_truth_state(small_stacked_scene())
        assert parse_predicate("On(o1,o0)") in truths
        assert parse_predicate("On(o0,o1)") not in truths
        assert parse_predicate("Touching(o0,o1)") in truths
        assert parse_predicate("Clear(o0)") not in truths
        assert parse_predicate("Clear(o1)") in truths
        assert parse_predicate("Clear(o2)") in truths
        assert parse_predicate("CloseTo(o0,o1)") in truths
        assert parse_predicate("CloseTo(o1,o2)") not in truths
        assert parse_predicate("LeftOf(o0,o2)") in truths
        assert parse_predicate("LeftOf(o2,o0)") not in truths

    def test_on_implies_touching_and_not_clear(self):
        for seed in range(25):
            scene = generate_scene(6, stack_bias=0.7, seed=seed)
            truths = ground_truth_state(scene)
            for pred in truths:
                if pred.relation is ON:
                    a, b = pred.args
                    assert GroundPredicate(TOUCHING, (a, b)) in truths
                    assert GroundPredicate(CLEAR, (b,)) not in truths

    def test_left_of_antisymmetric(self):
        for seed in range(25):
            truths = ground_truth_state(generate_scene(6, seed=seed))
            for pred in truths:
                if pred.relation is LEFT_OF:
                    a, b = pred.args
                    assert GroundPredicate(LEFT_OF, (b, a)) not in truths


def _vector_truths(scene):
    """The predicates that the scene's truth vector marks true."""
    index, truth, _ = _scene_facts(scene)
    assert set(truth.tolist()) <= {0.0, 1.0}
    return {pred for pred, t in zip(index.preds, truth) if t == 1.0}


def _pair(b_position, size=(0.08, 0.06, 0.08)):
    """Two boxes of one size, o0 at the origin and o1 at ``b_position``,
    with no support pair."""
    objects = (SceneObject("o0", (0.0, 0.0, 0.0), size), SceneObject("o1", b_position, size))
    return Scene(objects, ())


class TestTruthVector:
    @pytest.mark.parametrize("n", range(3, 11))
    def test_matches_the_oracle_on_generated_scenes(self, n):
        seen = set()
        for bias in (0.0, 0.4, 1.0):
            for seed in range(25):
                scene = generate_scene(n, stack_bias=bias, seed=seed)
                truths = ground_truth_state(scene)
                assert _vector_truths(scene) == truths
                candidates = candidate_predicates(scene.object_ids())
                seen |= {(p.relation, p in truths) for p in candidates}
        assert seen == {(rel, t) for rel in Relation for t in (False, True)}

    def test_surface_gap_of_exactly_contact_eps_is_not_touching(self):
        # extents of 2**-9 along the tested axis make gap + half-extent sum exact
        edge = 2.0**-9
        delta = CONTACT_EPS + edge
        assert delta - edge == CONTACT_EPS
        for axis, extent in ((0, 0), (1, 2), (2, 1)):  # position axis, size index
            size = [0.08, 0.06, 0.08]
            size[extent] = edge
            for offset, touching in ((delta, False), (math.nextafter(delta, 0.0), True)):
                position = [0.0, 0.0, 0.0]
                position[axis] = offset
                scene = _pair(tuple(position), tuple(size))
                assert _vector_truths(scene) == ground_truth_state(scene)
                assert (parse_predicate("Touching(o0,o1)") in _vector_truths(scene)) == touching

    def test_centre_distance_of_exactly_close_dist_is_not_close(self):
        for axis in (0, 1):
            for offset, close in ((CLOSE_DIST, False), (math.nextafter(CLOSE_DIST, 0.0), True)):
                position = [0.0, 0.0, 0.0]
                position[axis] = offset
                scene = _pair(tuple(position))
                assert _vector_truths(scene) == ground_truth_state(scene)
                assert (parse_predicate("CloseTo(o0,o1)") in _vector_truths(scene)) == close

    def test_faces_that_exactly_meet_are_not_left_of(self):
        # o0 spans [-0.08, 0.0] along x; o1 starts at 0.0, then one ulp later
        for x, left_of in ((0.04, False), (math.nextafter(0.04, 1.0), True)):
            scene = Scene(
                (
                    SceneObject("o0", (-0.04, 0.0, 0.03), (0.08, 0.06, 0.08)),
                    SceneObject("o1", (x, 0.0, 0.03), (0.08, 0.06, 0.08)),
                ),
                (),
            )
            truths = _vector_truths(scene)
            assert truths == ground_truth_state(scene)
            assert (parse_predicate("LeftOf(o0,o1)") in truths) == left_of
            assert parse_predicate("LeftOf(o1,o0)") not in truths

    @pytest.mark.parametrize("n", range(3, 11))
    def test_position_keys_cover_each_candidate_once(self, n):
        ids = tuple(f"o{k}" for k in range(n))
        index = _predicate_index(ids)
        assert sorted(index.slot.values()) == list(range(len(index.preds)))
        for k, pred in enumerate(index.preds):
            key = (pred.relation, ids.index(pred.args[0]), ids.index(pred.args[-1]))
            assert index.slot[key] == k

    def test_vector_is_read_only(self):
        _, truth, _ = _scene_facts(small_stacked_scene())
        with pytest.raises(ValueError):
            truth[0] = 1.0


def iou_2d(box_a, box_b):
    """IoU of two center-size pixel boxes, as the occlusion test takes it."""
    return _edges_iou(_box_edges(box_a), _box_edges(box_b))


class TestOcclusion:
    def test_lower_of_stack_occluded(self):
        assert occluded_objects(small_stacked_scene()) == frozenset({"o0"})

    def test_spread_scene_unoccluded(self):
        for seed in range(10):
            assert occluded_objects(generate_scene(5, stack_bias=0.0, seed=seed)) == frozenset()

    def test_iou_identical_boxes(self):
        assert iou_2d((10, 10, 4, 4), (10, 10, 4, 4)) == pytest.approx(1.0)

    def test_iou_disjoint(self):
        assert iou_2d((0, 0, 4, 4), (10, 10, 4, 4)) == 0.0

    def test_iou_half_overlap(self):
        # 4x4 boxes offset by 2 in x: inter 2*4=8, union 32-8=24
        assert iou_2d((0, 0, 4, 4), (2, 0, 4, 4)) == pytest.approx(8 / 24)

    def test_occlusion_doubles_logit_noise(self):
        scene = small_stacked_scene()
        eta = 0.1
        base = NoiseConfig(base_flip_rate=eta, logit_noise_sd=0.8)
        cleared = NoiseConfig(base_flip_rate=eta, logit_noise_sd=0.8, cleared=("o0",))
        p_occ = perceive(scene, base, seed=5)
        p_clr = perceive(scene, cleared, seed=5)
        truths = ground_truth_state(scene)
        logit = lambda p: math.log(p / (1 - p))
        for pred in p_occ:
            t = 1.0 if pred in truths else 0.0
            l_t = logit(t * (1 - eta) + (1 - t) * eta)
            if "o0" in pred.args:
                assert logit(p_occ.confidence(pred)) - l_t == pytest.approx(
                    2 * (logit(p_clr.confidence(pred)) - l_t), abs=1e-9
                )
            else:
                assert p_occ.confidence(pred) == p_clr.confidence(pred)


class TestPerceive:
    def test_noiseless_equals_truth_exactly(self):
        scene = small_stacked_scene()
        state = perceive(scene, NoiseConfig(), seed=0)
        truths = ground_truth_state(scene)
        for pred, p in state.items():
            assert p == (1.0 if pred in truths else 0.0)

    def test_deterministic_per_seed(self):
        scene = generate_scene(4, seed=2)
        cfg = NoiseConfig(base_flip_rate=0.1, logit_noise_sd=1.0)
        assert perceive(scene, cfg, seed=9) == perceive(scene, cfg, seed=9)
        assert perceive(scene, cfg, seed=9) != perceive(scene, cfg, seed=10)

    def test_focus_leaves_other_predicates_frozen(self):
        scene = generate_scene(4, seed=2)
        cfg = NoiseConfig(base_flip_rate=0.1, logit_noise_sd=1.0)
        before = perceive(scene, cfg, seed=9)
        after = perceive(scene, apply_info_action(cfg, "look_closer", "o1"), seed=9)
        changed = 0
        for pred in before:
            if "o1" in pred.args:
                changed += before.confidence(pred) != after.confidence(pred)
            else:
                assert before.confidence(pred) == after.confidence(pred)
        assert changed > 0

    def test_flip_rate_soft_truth(self):
        # sd = 0: confidence is exactly the smoothed truth
        scene = small_stacked_scene()
        state = perceive(scene, NoiseConfig(base_flip_rate=0.2), seed=0)
        truths = ground_truth_state(scene)
        for pred, p in state.items():
            assert p == pytest.approx(0.8 if pred in truths else 0.2, abs=1e-12)

    def test_miscalibration_sharpens(self):
        scene = small_stacked_scene()
        plain = NoiseConfig(base_flip_rate=0.2, logit_noise_sd=0.5)
        sharp = NoiseConfig(base_flip_rate=0.2, logit_noise_sd=0.5, miscal_gamma=2.0)
        p1 = perceive(scene, plain, seed=3)
        p2 = perceive(scene, sharp, seed=3)
        for pred in p1:
            a, b = p1.confidence(pred), p2.confidence(pred)
            # gamma > 1 pushes confidences away from 1/2, same side
            if a > 0.5:
                assert b > a
            elif a < 0.5:
                assert b < a
            else:
                assert b == pytest.approx(0.5)

    @pytest.mark.parametrize("p", [0.5, 0.5001, 0.6])
    def test_sharpening_survives_underflow(self, p):
        # at gamma 2000 both p**gamma and (1 - p)**gamma underflow to 0.0
        gamma = 2000.0
        assert p**gamma + (1.0 - p) ** gamma == 0.0
        assert _sharpen(p, gamma) == pytest.approx(1.0 / (1.0 + ((1.0 - p) / p) ** gamma))

    @pytest.mark.parametrize("gamma", [1060.0, 1070.0, 1074.0, 1075.0])
    def test_sharpening_with_a_subnormal_sum(self, gamma):
        # p**gamma + (1 - p)**gamma is subnormal here, and at 1074 and 1075
        # one of the two powers underflows on its own
        p = 0.5001
        assert p**gamma + (1.0 - p) ** gamma < 2.0**-1022
        x = gamma * (math.log(p) - math.log1p(-p))
        assert abs(_sharpen(p, gamma) - 1.0 / (1.0 + math.exp(-x))) <= 1e-12

    def test_labels_match_confidence_stream(self):
        scene = generate_scene(4, seed=6)
        cfg = NoiseConfig(base_flip_rate=0.15, logit_noise_sd=1.0)
        state1, labels = perceive_with_labels(scene, cfg, seed=4)
        state2 = perceive(scene, cfg, seed=4)
        assert state1 == state2
        assert labels.shape == (len(state1),)
        assert set(labels.tolist()) <= {0, 1}

    def test_calibrated_by_construction(self):
        confs, labels = [], []
        cfg = NoiseConfig(base_flip_rate=0.15, logit_noise_sd=1.0)
        for seed in range(100):
            scene = generate_scene(5, seed=seed)
            state, labs = perceive_with_labels(scene, cfg, seed=seed + 1000)
            confs += [p for _, p in state.items()]
            labels += labs.tolist()
        assert len(confs) > 5000
        assert reliability_report(confs, labels).ece <= 0.03

    def test_sharpening_hurts_calibration(self):
        plain = NoiseConfig(base_flip_rate=0.15, logit_noise_sd=1.0)
        sharp = NoiseConfig(base_flip_rate=0.15, logit_noise_sd=1.0, miscal_gamma=2.0)
        worse = 0
        for trial in range(10):
            pooled1, pooled2, pooled_labels = [], [], []
            for k in range(20):
                seed = trial * 20 + k
                scene = generate_scene(5, seed=seed)
                s1, l1 = perceive_with_labels(scene, plain, seed=seed)
                s2, l2 = perceive_with_labels(scene, sharp, seed=seed)
                assert np.array_equal(l1, l2)  # label stream untouched by miscalibration
                pooled1 += [p for _, p in s1.items()]
                pooled2 += [p for _, p in s2.items()]
                pooled_labels += l1.tolist()
            e1 = reliability_report(pooled1, pooled_labels).ece
            e2 = reliability_report(pooled2, pooled_labels).ece
            worse += e2 > e1
        assert worse >= 9


class TestInfoActions:
    def test_zero_gain_is_identity(self):
        cfg = NoiseConfig(base_flip_rate=0.1, gain=0.0)
        assert apply_info_action(cfg, "look_closer", "o2") is cfg

    def test_gain_of_one_rejected(self):
        with pytest.raises(ValueError, match="gain must lie in"):
            NoiseConfig(gain=1.0)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            apply_info_action(NoiseConfig(), "teleport", "o1")

    def test_attention_saturates_above_zero(self):
        # at gain 0.9 the 324th look would multiply the residual to 0.0
        scene = small_stacked_scene()
        cfg = NoiseConfig(base_flip_rate=0.1, logit_noise_sd=0.8, gain=0.9)
        for _ in range(400):
            cfg = apply_info_action(cfg, "look_closer", "o1")
        assert cfg.focus == (("o1", math.ulp(0.0)),)
        state = perceive(scene, cfg, seed=3)
        for pred, p in state.items():
            if "o1" in pred.args:
                assert predicate_uncertainty(p) < 1e-11  # at the logit clip

    def test_push_clears_occlusion(self):
        cfg = apply_info_action(NoiseConfig(), "push_obstacle", "o0")
        assert cfg.cleared == ("o0",)
        env_scene = small_stacked_scene()
        assert "o0" not in (occluded_objects(env_scene) - set(cfg.cleared))

    def test_realistic_mode_mean_reduction_near_gain(self):
        # look gain 0.3 should shrink uncertainty by roughly that factor
        ratios = []
        cfg = NoiseConfig(base_flip_rate=0.1, logit_noise_sd=0.5)
        for seed in range(300):
            scene = generate_scene(3, stack_bias=0.0, seed=seed)
            before = perceive(scene, cfg, seed=seed)
            after = perceive(scene, apply_info_action(cfg, "look_closer", "o0"), seed=seed)
            for pred in before:
                if "o0" not in pred.args:
                    continue
                u0 = predicate_uncertainty(before.confidence(pred))
                if u0 > 1e-6:
                    ratios.append(predicate_uncertainty(after.confidence(pred)) / u0)
        assert len(ratios) > 1000
        assert 0.65 <= float(np.mean(ratios)) <= 0.75


class TestSerialization:
    def test_round_trip(self):
        scene = generate_scene(6, stack_bias=0.6, seed=21)
        doc = json.loads(scene_to_json(scene))
        assert (doc["seed"], doc["image_dims"]) == (scene.seed, [224, 224])
        assert [tuple(pair) for pair in doc["support"]] == list(scene.support)
        for o, rec in zip(scene.objects, doc["objects"], strict=True):
            assert rec["id"] == o.id
            # the exact floats, not rounded ones
            assert tuple(rec["position"]) == o.position
            assert tuple(rec["size"]) == o.size
            assert tuple(rec["bbox2d"]) == o.bbox2d


def _move(env, name, *args):
    """The planner's grounded move ``name(args)`` for the environment's objects."""
    (action,) = [a for a in ground_domain(env.object_ids()) if (a.name, a.args) == (name, args)]
    return action


class TestEnvironment:
    def test_execute_unstack_reaches_clear_goal(self):
        env = PlanningEnvironment(small_stacked_scene(), NoiseConfig(), seed=0)
        plan = [_move(env, "pick", "o1", "o0"), _move(env, "putdown", "o1")]
        assert env.execute(plan, [parse_predicate("Clear(o0)")])

    def test_execute_fails_on_bad_precondition(self):
        env = PlanningEnvironment(small_stacked_scene(), NoiseConfig(), seed=0)
        # o0 is under o1, so picking it must fail
        assert not env.execute([_move(env, "pick", "o0")], [])

    def test_observe_uses_frozen_seed(self):
        env = PlanningEnvironment(generate_scene(4, seed=1), NoiseConfig(logit_noise_sd=1.0), seed=5)
        assert env.observe() == env.observe()

    def test_apply_info_updates_config_and_log(self):
        env = PlanningEnvironment(small_stacked_scene(), NoiseConfig(), seed=0)
        assert env.occluded_ids() == frozenset({"o0"})
        env.apply_info("push_obstacle", "o0")
        assert env.occluded_ids() == frozenset()
        assert env.cfg == apply_info_action(NoiseConfig(), "push_obstacle", "o0")

    def test_noisy_episode_classification_sane(self):
        scene = generate_scene(4, stack_bias=0.5, seed=8)
        cfg = NoiseConfig(base_flip_rate=0.05, logit_noise_sd=0.4)
        part = classify(perceive(scene, cfg, seed=2), 0.7)
        truths = ground_truth_state(scene)
        # light noise: most certain-true calls are actually true
        right = sum(1 for p in part.certain_true if p in truths)
        assert right >= 0.9 * len(part.certain_true)


class TestSupportPairs:
    def _column(self, n):
        """n boxes stacked straight up, o0 at the bottom (no support pairs yet)."""
        return tuple(
            SceneObject(f"o{k}", (0.0, 0.0, 0.03 + 0.06 * k), (0.08, 0.06, 0.08))
            for k in range(n)
        )

    def test_chain_accepted(self):
        objs = self._column(3)
        scene = Scene(objs, (("o1", "o0"), ("o2", "o1")))
        assert scene.support == (("o1", "o0"), ("o2", "o1"))

    @pytest.mark.parametrize(
        "pairs",
        [
            (("o0", "o1"), ("o1", "o0")),
            (("o1", "o0"), ("o0", "o1")),
            (("o1", "o0"), ("o2", "o1"), ("o0", "o2")),
            (("o0", "o2"), ("o2", "o1"), ("o1", "o0")),
        ],
    )
    def test_cycles_rejected(self, pairs):
        with pytest.raises(ValueError):
            Scene(self._column(3), pairs)

    def test_two_objects_on_one_rejected(self):
        # o1 and o2 both rest on o0; z still rises along each pair
        with pytest.raises(ValueError, match="o0 supports two objects"):
            Scene(self._column(3), (("o1", "o0"), ("o2", "o0")))

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError, match="seed must be non-negative"):
            Scene(self._column(3), (("o1", "o0"),), seed=-1)


# ---------------------------------------------------------------------------
# perception against the per-predicate loop it replaced


def _reference_sigmoid(x):
    if x >= 0:
        return 1.0 / (1.0 + math.exp(-x))
    e = math.exp(x)
    return e / (1.0 + e)


def _reference_perceive_with_labels(scene, cfg, seed):
    """One generator per predicate and every fact recomputed, on every call."""
    truths = ground_truth_state(scene)
    occl = occluded_objects(scene) - set(cfg.cleared)
    conf, labels = {}, {}
    for k, pred in enumerate(candidate_predicates(scene.object_ids())):
        rng = np.random.default_rng([int(seed), scene.seed, k])
        g = float(rng.standard_normal())
        label_draw = float(rng.uniform())

        t = 1.0 if pred in truths else 0.0
        residual = min(dict(cfg.focus).get(a, 1.0) for a in pred.args)
        occ_mult = 2.0 if any(a in occl for a in pred.args) else 1.0
        eta = cfg.base_flip_rate * residual
        sd = cfg.logit_noise_sd * residual * occ_mult

        t_soft = t * (1.0 - eta) + (1.0 - t) * eta
        if sd == 0.0:
            p = t_soft
        else:
            ts = min(max(t_soft, 1e-12), 1.0 - 1e-12)
            p = _reference_sigmoid(math.log(ts / (1.0 - ts)) + sd * g)
        labels[pred] = 1 if label_draw < p else 0

        if cfg.miscal_gamma != 1.0:
            num = p**cfg.miscal_gamma
            p = num / (num + (1.0 - p) ** cfg.miscal_gamma)
        conf[pred] = min(max(p, 0.0), 1.0)
    return conf, labels


def _assert_same_observation(state, labels, ref_conf, ref_labels):
    assert list(state) == sorted(ref_conf, key=GroundPredicate.sort_key)
    got = np.array([p for _, p in state.items()])
    want = np.array([ref_conf[pred] for pred in state])
    assert got.tobytes() == want.tobytes()  # bit for bit, signed zeros included
    assert labels.dtype.kind == "i"
    assert labels.tolist() == [ref_labels[pred] for pred in state]


class TestPerceiveMatchesReference:
    CONFIGS = [
        NoiseConfig(),  # sd == 0 everywhere
        NoiseConfig(base_flip_rate=0.2),
        NoiseConfig(base_flip_rate=0.025, logit_noise_sd=1.5),
        NoiseConfig(base_flip_rate=0.15, logit_noise_sd=1.0, miscal_gamma=2.0),
        NoiseConfig(base_flip_rate=0.1, logit_noise_sd=0.8, miscal_gamma=0.6),
        NoiseConfig(base_flip_rate=0.05, logit_noise_sd=12.0),  # logits far past +-30
    ]

    @staticmethod
    def _attended(cfg, scene, rng):
        """cfg after a few random info actions, pushes on occluded objects included."""
        ids = scene.object_ids()
        occl = sorted(occluded_objects(scene))
        for _ in range(int(rng.integers(0, 5))):
            if occl and rng.uniform() < 0.5:
                cfg = apply_info_action(cfg, "push_obstacle", occl[int(rng.integers(len(occl)))])
            else:
                cfg = apply_info_action(cfg, "look_closer", ids[int(rng.integers(len(ids)))])
        return cfg

    @pytest.mark.parametrize("n", range(3, 11))
    def test_every_branch_bit_identical(self, n):
        rng = np.random.default_rng(n)
        for trial in range(6):
            scene = generate_scene(n, stack_bias=0.7, seed=100 * n + trial)
            for base in self.CONFIGS:
                cfg = self._attended(base, scene, rng)
                seed = int(rng.integers(0, 1000))
                state, labels = perceive_with_labels(scene, cfg, seed)
                _assert_same_observation(
                    state, labels, *_reference_perceive_with_labels(scene, cfg, seed)
                )

    def test_branches_are_reached(self):
        scene = small_stacked_scene()  # o0 sits under o1, so it starts occluded
        focus = apply_info_action(NoiseConfig(logit_noise_sd=1.0), "look_closer", "o2")
        cleared = apply_info_action(NoiseConfig(logit_noise_sd=1.0), "push_obstacle", "o0")
        assert dict(focus.focus).get("o2", 1.0) < 1.0 and dict(focus.focus).get("o0", 1.0) == 1.0
        assert cleared.cleared == ("o0",)
        for cfg in (focus, cleared, replace(focus, miscal_gamma=3.0), NoiseConfig()):
            state, labels = perceive_with_labels(scene, cfg, 4)
            _assert_same_observation(state, labels, *_reference_perceive_with_labels(scene, cfg, 4))

    def test_reobservation_after_info_actions(self):
        cfg = NoiseConfig(base_flip_rate=0.025, logit_noise_sd=1.5)
        for seed in range(12):
            scene = generate_scene(5, stack_bias=0.8, seed=seed)
            env = PlanningEnvironment(scene, cfg, seed + 50)
            occl = sorted(env.occluded_ids())
            steps = [("look_closer", "o1"), ("look_closer", "o1")]
            steps += [("push_obstacle", occl[0])] if occl else [("push_obstacle", "o2")]
            steps += [("look_closer", "o3")]
            for kind, target in [(None, None)] + steps:
                if kind is not None:
                    env.apply_info(kind, target)
                state = env.observe()
                _, labels = perceive_with_labels(scene, env.cfg, env.seed)
                _assert_same_observation(
                    state, labels, *_reference_perceive_with_labels(scene, env.cfg, env.seed)
                )
            if occl:
                assert occl[0] not in env.occluded_ids()

    def test_seeds_past_one_word(self):
        # both seeds take two or more 32-bit words of SeedSequence entropy
        scene = replace(small_stacked_scene(), seed=2**40 + 5)
        for cfg in self.CONFIGS:
            for seed in (2**32, 2**64 + 3):
                state, labels = perceive_with_labels(scene, cfg, seed)
                _assert_same_observation(
                    state, labels, *_reference_perceive_with_labels(scene, cfg, seed)
                )

    def test_hand_built_scenes_sharing_seed_zero_stay_apart(self):
        stacked = small_stacked_scene()
        stacked = Scene(stacked.objects, stacked.support)  # seed 0
        spread = Scene(
            tuple(
                SceneObject(f"o{k}", (x, 0.0, 0.03), (0.08, 0.06, 0.08))
                for k, x in enumerate((-0.3, 0.0, 0.3))
            ),
            (),
        )
        assert stacked.seed == spread.seed == 0
        assert stacked.object_ids() == spread.object_ids()
        for first, second in ((stacked, spread), (spread, stacked)):
            perceive(first, NoiseConfig(), 0)
            state = perceive(second, NoiseConfig(), 0)
            truths = ground_truth_state(second)
            assert {p for p, v in state.items() if v == 1.0} == truths
            env = PlanningEnvironment(second, NoiseConfig(), 0)
            assert env.occluded_ids() == occluded_objects(second)
        assert occluded_objects(stacked) == {"o0"} and occluded_objects(spread) == frozenset()


def _reference_noise_draws(seed, scene_seed, n):
    """One generator per predicate, as perception drew its noise before."""
    g, label_draw = np.empty(n), np.empty(n)
    for k in range(n):
        rng = np.random.default_rng([seed, scene_seed, k])
        g[k] = rng.standard_normal()
        label_draw[k] = rng.uniform()
    return g, label_draw


def _assert_same_draws(got, want):
    for a, b in zip(got, want):
        assert a.tobytes() == b.tobytes()


def _fresh_draws(keys):
    """``_noise_draws(keys)`` with the cache emptied first, so that every
    key is drawn anew."""
    scene_module._draws.clear()
    return _noise_draws(keys)


class TestNoiseDrawsMatchReference:
    SEEDS = (0, 2**32 - 1, 2**32, 2**64 + 3)

    # candidates at 3 and at 10 objects, then 27 and 370, which no object set
    # has: they count CloseTo and Touching both ways
    @pytest.mark.parametrize(
        "n", [len(candidate_predicates(f"o{k}" for k in range(m))) for m in (3, 10)] + [27, 370]
    )
    @pytest.mark.parametrize("seed", SEEDS)
    def test_every_predicate_bit_identical(self, seed, n):
        for scene_seed in self.SEEDS:
            (got,) = _fresh_draws([(seed, scene_seed, n)])
            _assert_same_draws(got, _reference_noise_draws(seed, scene_seed, n))

    @pytest.mark.parametrize(
        "keys",
        [
            [(3, 11, 52), (0, 2**64 + 3, 27), (2**300, 2**300 + 1, 27)],
            [(3, 11, 52), (4, 11, 27)],  # one n each
            [(3, 11, 27), (3, 2**32, 27)],  # one word count each
        ],
    )
    def test_one_request_mixing_n_or_word_counts_raises(self, keys):
        # a pass lays its keys out by one n and one word count
        _fresh_draws([(9, 4, 27)])
        with pytest.raises(ValueError):
            _noise_draws(keys)
        assert list(scene_module._draws) == [(9, 4, 27)]  # the cache stays

    def test_interleaved_calls_share_no_state(self):
        # uncached, so a repeated pair is drawn again after other pairs' draws
        for seed, scene_seed in [(3, 11), (2**32, 5), (3, 11), (0, 2**64 + 3), (2**32, 5)]:
            (got,) = _fresh_draws([(seed, scene_seed, 52)])
            _assert_same_draws(got, _reference_noise_draws(seed, scene_seed, 52))

    def test_outputs_read_only(self):
        for arr in _noise_draws([(9, 4, 27)])[0]:
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = 0.5


class TestNoiseDrawsThroughTheStateSetter(TestNoiseDrawsMatchReference):
    """The same draws when the ziggurat tables are refused, so that numpy
    draws every predicate from a state loaded by the setter."""

    @pytest.fixture(autouse=True)
    def _refuse_tables(self, monkeypatch):
        monkeypatch.setattr(scene_module, "_ziggurat_tables", lambda: None)
        scene_module._draws.clear()
        yield
        scene_module._draws.clear()


def test_seed_words_match_seed_sequence():
    # entropy shorter than, as long as and longer than the 4-word pool
    rng = np.random.default_rng(5)
    for n_entropy in (1, 2, 3, 4, 5, 21):
        entropy = rng.integers(0, 2**32, size=(n_entropy, 9), dtype=np.uint32)
        for n_words in (1, 2, 8, 9):
            want = [
                np.random.SeedSequence(column).generate_state(n_words, np.uint32)
                for column in entropy.T.tolist()
            ]
            got = scene_module._seed_words(entropy, n_words)
            assert got.dtype == np.uint32
            assert got.T.tobytes() == np.array(want).tobytes()


def test_the_cache_keeps_the_last_request_that_drew():
    keys = [(seed, 7, 27) for seed in range(73)]
    for key, draws in zip(keys, _fresh_draws(keys)):
        _assert_same_draws(draws, _reference_noise_draws(*key))
    assert list(scene_module._draws) == keys  # all 73 keys, whatever the size
    # a request whose keys are all cached draws nothing and keeps the cache
    cached = keys[40:] + keys[:3]
    for key, draws in zip(cached, _noise_draws(cached)):
        _assert_same_draws(draws, _reference_noise_draws(*key))
    assert list(scene_module._draws) == keys
    # the next request that draws replaces them with its own keys
    again = keys[:2] + [(73, 7, 27)]
    for key, draws in zip(again, _noise_draws(again)):
        _assert_same_draws(draws, _reference_noise_draws(*key))
    assert list(scene_module._draws) == again


def test_a_batch_at_ten_objects_is_one_pass(monkeypatch):
    # the largest request a harness batch makes: 32 units of 280 predicates
    widths = []
    seed_words = scene_module._seed_words

    def counted(entropy, n_words):
        widths.append(entropy.shape[1])
        return seed_words(entropy, n_words)

    monkeypatch.setattr(scene_module, "_seed_words", counted)
    n = len(candidate_predicates(f"o{k}" for k in range(10)))
    keys = [(seed, 3, n) for seed in range(32)]
    for key, draws in zip(keys, _fresh_draws(keys)):
        _assert_same_draws(draws, _reference_noise_draws(*key))
    assert n == 280 and widths == [32 * 280]


def test_ziggurat_tables_load_and_pass_their_check():
    # so that a silent fallback to drawing every predicate through the
    # state setter cannot go unnoticed
    tables = scene_module._ziggurat_tables.__wrapped__()
    assert tables is not None
    _, fast = scene_module._fast_normals(np.random.PCG64(7).random_raw(20000), tables)
    assert 0.98 < fast.mean() < 0.995  # numpy's ziggurat leaves its fast path ~1.5% of the time


def test_tables_that_fail_their_check_are_refused(monkeypatch):
    monkeypatch.setattr(scene_module, "_check_tables", lambda tables: False)
    assert scene_module._ziggurat_tables.__wrapped__() is None


def test_importing_the_scene_module_reads_no_table():
    # the tables are read on the first draw, so importing costs nothing more
    src = str(Path(scene_module.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    script = (
        "from beliefplan import scene; read = scene._ziggurat_tables.cache_info; "
        "before = read().currsize; scene._noise_draws([(1, 2, 3)]); print(before, read().currsize)"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["0", "1"]


# Draws off numpy's ziggurat fast path, found by a search over seed pairs:
# branch -> (perception seed, scene seed, predicate)
FAST_PATH_EXITS = {
    "wedge": (3, 0, 22),  # layer 86 with rabs >= ki[86]: the wedge test
    "tail": (0, 0, 2),  # layer 0 with rabs >= ki[0]: the tail beyond r
}


@pytest.mark.parametrize("branch", sorted(FAST_PATH_EXITS))
def test_draws_off_the_fast_path(branch):
    seed, scene_seed, k = FAST_PATH_EXITS[branch]
    words = np.array([[seed] * (k + 1), [scene_seed] * (k + 1), range(k + 1)], dtype=np.uint32)
    words = scene_module._seed_words(words, 8).astype(np.uint64)
    first = scene_module._first_outputs(words[0::2] | words[1::2] << 32)[0]
    _, fast = scene_module._fast_normals(first, scene_module._ziggurat_tables())
    assert not fast[k] and (int(first[k]) & 0xFF == 0) == (branch == "tail")
    (got,) = _fresh_draws([(seed, scene_seed, k + 1)])
    _assert_same_draws(got, _reference_noise_draws(seed, scene_seed, k + 1))


def test_seed_pairs_of_many_words():
    # two 2^300 seeds take 21 entropy words, past the 4-word pool
    (got,) = _fresh_draws([(2**300, 2**300 + 1, 27)])
    _assert_same_draws(got, _reference_noise_draws(2**300, 2**300 + 1, 27))


# ---------------------------------------------------------------------------
# plan execution against the hand-written blocks-world rules it replaced


def _reference_execute(scene, plan, goal_predicates):
    """The support-graph simulation with its own pick / place / putdown rules."""
    lower_of = dict(scene.support)  # upper -> lower
    held = None

    def uppers_on(x):
        return [u for u, l in lower_of.items() if l == x]

    for action in plan:
        name, args = action.name, tuple(action.args)
        if name == "pick":
            x = args[0]
            if held is not None or uppers_on(x):
                return False
            if len(args) == 1:
                if x in lower_of:
                    return False
                held = x
            else:
                if lower_of.get(x) != args[1]:
                    return False
                del lower_of[x]
                held = x
        elif name == "place":
            x, y = args
            if held != x or uppers_on(y) or y == x:
                return False
            lower_of[x] = y
            held = None
        elif name == "putdown":
            if held != args[0]:
                return False
            held = None
        else:
            return False

    for pred in goal_predicates:
        if pred.relation is ON:
            a, b = pred.args
            if lower_of.get(a) != b:
                return False
        elif pred.relation is CLEAR:
            (a,) = pred.args
            if a == held or uppers_on(a):
                return False
        else:
            return False
    return True


def _atom_predicate(atom):
    return GroundPredicate(ON if atom[0] == "on" else CLEAR, atom[1:])


class TestExecuteMatchesReference:
    @staticmethod
    def _random_run(rng, scene):
        """Up to 12 physical moves, each inapplicable where it is drawn with
        probability 0.15, and 0-3 On / Clear goals, half of them true at the
        end of an applicable run."""
        ids = scene.object_ids()
        moves = ground_domain(ids)
        atoms = support_atoms(dict(scene.support), ids)
        plan = []
        for _ in range(int(rng.integers(0, 13))):
            fits = [a for a in moves if a.preconditions <= atoms]
            pool = fits if rng.uniform() >= 0.15 else [a for a in moves if a not in fits]
            action = pool[int(rng.integers(len(pool)))]
            plan.append(action)
            atoms = (atoms - action.delete) | action.add
        facts = sorted(a for a in atoms if a[0] in ("on", "clear"))
        goals = []
        for _ in range(int(rng.integers(0, 4))):
            if rng.uniform() < 0.5:
                goals.append(_atom_predicate(facts[int(rng.integers(len(facts)))]))
            else:
                a, b = rng.choice(ids, size=2, replace=False)
                text = f"On({a},{b})" if rng.uniform() < 0.5 else f"Clear({a})"
                goals.append(parse_predicate(text))
        return plan, goals

    @pytest.mark.parametrize("n", range(3, 11))
    def test_random_move_sequences(self, n):
        rng = np.random.default_rng(1000 + n)
        verdicts = []
        for trial in range(300):
            scene = generate_scene(n, stack_bias=0.6, seed=10 * n + trial)
            env = PlanningEnvironment(scene, NoiseConfig(), 0)
            plan, goals = self._random_run(rng, scene)
            verdict = env.execute(plan, goals)
            assert verdict == _reference_execute(scene, plan, goals), (plan, goals)
            verdicts.append(verdict)
        assert 0.1 < np.mean(verdicts) < 0.9  # both verdicts are exercised

    def test_the_planners_own_plans(self):
        verdicts = []
        cfg = NoiseConfig(base_flip_rate=0.15, logit_noise_sd=1.0)

        class CheckedEnvironment(PlanningEnvironment):
            def execute(self, plan, goal_predicates):
                verdict = super().execute(plan, goal_predicates)
                assert verdict == _reference_execute(self.scene, plan, goal_predicates)
                assert all(type(a) is GroundedAction for a in plan)
                verdicts.append(verdict)
                return verdict

        for seed in range(60):
            scene = generate_scene(3 + seed % 5, stack_bias=0.6, seed=seed)
            ids = scene.object_ids()
            goal = Goal(frozenset({parse_predicate(f"On({ids[0]},{ids[1]})"),
                                   parse_predicate(f"On({ids[1]},{ids[2]})")}))
            for refine in (False, True):
                env = CheckedEnvironment(scene, cfg, seed)
                plan_under_uncertainty(
                    env, goal, options=PlannerOptions(refine_with_mrf=refine)
                )
        assert 0.1 < np.mean(verdicts) < 0.9
