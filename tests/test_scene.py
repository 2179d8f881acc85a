"""Scene simulator tests.

Hand-worked oracle for the edge-feature example used below: object i at
(0.1, 0, 0.05) with size (0.1, 0.1, 0.1) projects to bbox (134.4, 112,
22.4, 22.4) on a 224 x 224 frame; object j at (-0.1, 0.1, 0.1) with size
(0.2, 0.1, 0.1) projects to (89.6, 134.4, 44.8, 22.4).  Normalized
offsets are then dx = 0.2, dy = -0.1; the boxes do not overlap so the
IoU is 0.
"""

import math
from dataclasses import replace

import numpy as np
import pytest

from beliefplan.calibration import PredictionBatch, bin_predictions, ece
from beliefplan.core import (
    GroundPredicate,
    Relation,
    classify,
    parse_predicate,
    predicate_uncertainty,
)
from beliefplan.scene import (
    NoiseConfig,
    PlanningEnvironment,
    RelationThresholds,
    Scene,
    SceneObject,
    apply_info_action,
    apply_relation_thresholds,
    candidate_predicates,
    edge_features,
    generate_scene,
    grid_search_thresholds,
    ground_truth_confidences,
    ground_truth_state,
    iou_2d,
    occluded_objects,
    perceive,
    perceive_with_labels,
    scene_from_json,
    scene_to_json,
    spatial_validate_on,
)

ON = Relation.ON
CLEAR = Relation.CLEAR
TOUCHING = Relation.TOUCHING
LEFT_OF = Relation.LEFT_OF
CLOSE_TO = Relation.CLOSE_TO


def _box(x, y, w=0.08, d=0.08, dims=(224, 224)):
    sx = dims[0] / 1.0
    return ((x + 0.5) * sx, (y + 0.5) * sx, w * sx, d * sx)


def small_stacked_scene(dims=(224, 224)):
    """Three objects: o1 sits on o0, o2 alone 0.3 m to the right."""
    o0 = SceneObject("o0", (0.0, 0.0, 0.03), (0.08, 0.06, 0.08), _box(0.0, 0.0, 0.08, 0.08, dims))
    o1 = SceneObject("o1", (0.0, 0.0, 0.09), (0.08, 0.06, 0.08), _box(0.0, 0.0, 0.08, 0.08, dims))
    o2 = SceneObject("o2", (0.3, 0.0, 0.03), (0.08, 0.06, 0.08), _box(0.3, 0.0, 0.08, 0.08, dims))
    return Scene((o0, o1, o2), (("o1", "o0"),), dims, seed=7)


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

    def test_noiseless_confidences_match_truth(self):
        scene = small_stacked_scene()
        state = ground_truth_confidences(scene)
        truths = ground_truth_state(scene)
        for pred, p in state.items():
            assert p == (1.0 if pred in truths else 0.0)


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
        for pred in p_occ.predicates():
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
        for pred in before.predicates():
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
        for pred in p1.predicates():
            a, b = p1.confidence(pred), p2.confidence(pred)
            # gamma > 1 pushes confidences away from 1/2, same side
            if a > 0.5:
                assert b > a
            elif a < 0.5:
                assert b < a
            else:
                assert b == pytest.approx(0.5)

    def test_labels_match_confidence_stream(self):
        scene = generate_scene(4, seed=6)
        cfg = NoiseConfig(base_flip_rate=0.15, logit_noise_sd=1.0)
        state1, labels = perceive_with_labels(scene, cfg, seed=4)
        state2 = perceive(scene, cfg, seed=4)
        assert state1 == state2
        assert set(labels) == set(state1.predicates())
        assert all(y in (0, 1) for y in labels.values())

    def test_calibrated_by_construction(self):
        confs, labels = [], []
        cfg = NoiseConfig(base_flip_rate=0.15, logit_noise_sd=1.0)
        for seed in range(100):
            scene = generate_scene(5, seed=seed)
            state, labs = perceive_with_labels(scene, cfg, seed=seed + 1000)
            for pred, p in state.items():
                confs.append(p)
                labels.append(labs[pred])
        assert len(confs) > 5000
        assert ece(bin_predictions(PredictionBatch(confs, labels), 10)) <= 0.03

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
                assert l1 == l2  # label stream untouched by miscalibration
                for pred in s1.predicates():
                    pooled1.append(s1.confidence(pred))
                    pooled2.append(s2.confidence(pred))
                    pooled_labels.append(l1[pred])
            e1 = ece(bin_predictions(PredictionBatch(pooled1, pooled_labels), 10))
            e2 = ece(bin_predictions(PredictionBatch(pooled2, pooled_labels), 10))
            worse += e2 > e1
        assert worse >= 9


class TestInfoActions:
    def test_zero_gain_is_identity(self):
        cfg = NoiseConfig(base_flip_rate=0.1, look_gain=0.0)
        assert apply_info_action(cfg, "look_closer", "o2") is cfg

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            apply_info_action(NoiseConfig(), "teleport", "o1")

    def test_push_clears_occlusion(self):
        cfg = apply_info_action(NoiseConfig(), "push_obstacle", "o0")
        assert cfg.cleared == ("o0",)
        env_scene = small_stacked_scene()
        assert "o0" not in (occluded_objects(env_scene) - set(cfg.cleared))

    def test_exact_mode_reduction_is_multiplicative(self):
        scene = generate_scene(4, seed=12)
        cfg = NoiseConfig(base_flip_rate=0.1, logit_noise_sd=0.8, exact_reduction=True)
        before = perceive(scene, cfg, seed=3)
        once = perceive(scene, apply_info_action(cfg, "look_closer", "o0"), seed=3)
        twice = perceive(
            scene,
            apply_info_action(apply_info_action(cfg, "look_closer", "o0"), "look_closer", "o0"),
            seed=3,
        )
        for pred in before.predicates():
            u0 = predicate_uncertainty(before.confidence(pred))
            u1 = predicate_uncertainty(once.confidence(pred))
            u2 = predicate_uncertainty(twice.confidence(pred))
            if "o0" in pred.args and u0 > 1e-12:
                assert u1 / u0 == pytest.approx(0.7, abs=1e-9)
                assert u2 / u0 == pytest.approx(0.49, abs=1e-9)
                # direction preserved
                assert (before.confidence(pred) >= 0.5) == (once.confidence(pred) >= 0.5)
            elif "o0" not in pred.args:
                assert u1 == u0

    def test_realistic_mode_mean_reduction_near_gain(self):
        # look gain 0.3 should shrink uncertainty by roughly that factor
        ratios = []
        cfg = NoiseConfig(base_flip_rate=0.1, logit_noise_sd=0.5)
        for seed in range(300):
            scene = generate_scene(3, stack_bias=0.0, seed=seed)
            before = perceive(scene, cfg, seed=seed)
            after = perceive(scene, apply_info_action(cfg, "look_closer", "o0"), seed=seed)
            for pred in before.predicates():
                if "o0" not in pred.args:
                    continue
                u0 = predicate_uncertainty(before.confidence(pred))
                if u0 > 1e-6:
                    ratios.append(predicate_uncertainty(after.confidence(pred)) / u0)
        assert len(ratios) > 1000
        assert 0.65 <= float(np.mean(ratios)) <= 0.75


class TestSpatialValidation:
    def test_consistent_geometry_unchanged(self):
        positions = {"a": (0.0, 0.0, 0.10), "b": (0.01, 0.0, 0.04)}
        pred = parse_predicate("On(a,b)")
        assert spatial_validate_on(positions, pred, 0.8) == 0.8

    def test_one_violation_halves(self):
        # aligned in xy but a sits below b
        positions = {"a": (0.0, 0.0, 0.04), "b": (0.01, 0.0, 0.10)}
        pred = parse_predicate("On(a,b)")
        assert spatial_validate_on(positions, pred, 0.8) == pytest.approx(0.4)

    def test_two_violations_scale_tenth(self):
        positions = {"a": (0.5, 0.0, 0.04), "b": (0.0, 0.0, 0.10)}
        pred = parse_predicate("On(a,b)")
        assert spatial_validate_on(positions, pred, 0.8) == pytest.approx(0.08)

    def test_never_increases(self):
        rng = np.random.default_rng(5)
        pred = parse_predicate("On(a,b)")
        for _ in range(200):
            positions = {
                "a": tuple(rng.uniform(-0.3, 0.3, 3)),
                "b": tuple(rng.uniform(-0.3, 0.3, 3)),
            }
            positions = {k: (v[0], v[1], abs(v[2])) for k, v in positions.items()}
            p = float(rng.uniform())
            assert spatial_validate_on(positions, pred, p) <= p

    def test_wrong_relation_rejected(self):
        with pytest.raises(ValueError):
            spatial_validate_on({"a": (0, 0, 0), "b": (0, 0, 0.1)}, parse_predicate("Clear(a)"), 0.5)

    def test_missing_position_rejected(self):
        with pytest.raises(ValueError):
            spatial_validate_on({"a": (0, 0, 0.1)}, parse_predicate("On(a,b)"), 0.5)


class TestRelationThresholds:
    def test_defaults(self):
        t = RelationThresholds()
        assert t.on == 0.5
        assert t.left_of == t.close_to == t.touching == t.clear == 0.3

    def test_apply_uses_per_relation_cutoff(self):
        state_preds = {
            parse_predicate("On(a,b)"): 0.5,
            parse_predicate("On(b,c)"): 0.49,
            parse_predicate("CloseTo(a,b)"): 0.3,
            parse_predicate("CloseTo(a,c)"): 0.29,
        }
        from beliefplan.core import ProbabilisticState

        accepted = apply_relation_thresholds(ProbabilisticState(state_preds))
        assert parse_predicate("On(a,b)") in accepted  # inclusive at the cutoff
        assert parse_predicate("On(b,c)") not in accepted
        assert parse_predicate("CloseTo(a,b)") in accepted
        assert parse_predicate("CloseTo(a,c)") not in accepted

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            RelationThresholds(on=0.0)
        with pytest.raises(ValueError):
            RelationThresholds(clear=1.0)


class TestGridSearch:
    @staticmethod
    def _f1(confs, labels, tau):
        tp = sum(1 for c, y in zip(confs, labels) if c >= tau and y == 1)
        fp = sum(1 for c, y in zip(confs, labels) if c >= tau and y == 0)
        fn = sum(1 for c, y in zip(confs, labels) if c < tau and y == 1)
        if tp == 0:
            return 0.0
        prec, rec = tp / (tp + fp), tp / (tp + fn)
        return 2 * prec * rec / (prec + rec)

    def test_perfect_separation_prefers_smaller_tau(self):
        batches = {ON: ([0.2, 0.4, 0.6, 0.8], [0, 0, 1, 1])}
        result = grid_search_thresholds(batches)
        # F1 = 1 at both 0.5 and 0.6; ties resolve downward
        assert result.thresholds.on == 0.5
        assert result.f1[ON] == pytest.approx(1.0)
        assert result.skipped == frozenset()

    def test_matches_independent_scorer(self):
        rng = np.random.default_rng(17)
        confs = rng.uniform(size=400).tolist()
        labels = [1 if rng.uniform() < c else 0 for c in confs]
        result = grid_search_thresholds({CLOSE_TO: (confs, labels)})
        grid = [round(0.1 * k, 1) for k in range(1, 10)]
        scores = [self._f1(confs, labels, t) for t in grid]
        best = max(scores)
        expected_tau = grid[scores.index(best)]  # first index = smallest tau on ties
        assert result.thresholds.close_to == pytest.approx(expected_tau)
        assert result.f1[CLOSE_TO] == pytest.approx(best)

    def test_single_class_flagged_and_skipped(self):
        batches = {
            ON: ([0.9, 0.8, 0.7], [1, 1, 1]),
            CLEAR: ([0.2, 0.9], [0, 1]),
        }
        result = grid_search_thresholds(batches)
        assert result.skipped == frozenset({ON})
        assert result.thresholds.on == 0.5  # default kept
        assert CLEAR in result.f1

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            grid_search_thresholds({}, grid=())


class TestEdgeFeatures:
    def _objects(self, dims=(224, 224)):
        sx = dims[0] / 1.0
        sy = dims[1] / 1.0
        obj_i = SceneObject(
            "i", (0.1, 0.0, 0.05), (0.1, 0.1, 0.1),
            ((0.1 + 0.5) * sx, 0.5 * sy, 0.1 * sx, 0.1 * sy),
        )
        obj_j = SceneObject(
            "j", (-0.1, 0.1, 0.1), (0.2, 0.1, 0.1),
            ((-0.1 + 0.5) * sx, (0.1 + 0.5) * sy, 0.2 * sx, 0.1 * sy),
        )
        return obj_i, obj_j

    def test_hand_worked_example(self):
        obj_i, obj_j = self._objects()
        f = edge_features(obj_i, obj_j)
        expected = [
            0.2,
            -0.1,
            0.2,
            0.1,
            math.sqrt(0.05),
            0.1,
            0.1,
            0.2,
            0.1,
            math.log(0.5),
            0.0,
            0.2,
            -0.1,
            -0.05,
            math.sqrt(0.0525),
            0.0,
            math.sqrt(0.05) / (0.5 * (math.hypot(0.1, 0.1) + math.hypot(0.2, 0.1))),
            math.atan2(-0.1, 0.2) / math.pi,
        ]
        assert f.shape == (18,)
        np.testing.assert_allclose(f, expected, atol=1e-12)

    def test_identical_object_zeros(self):
        obj_i, _ = self._objects()
        f = edge_features(obj_i, obj_i)
        for k in (0, 1, 2, 3, 4, 9, 10, 11, 12, 13, 14, 16, 17):
            assert f[k] == 0.0
        assert f[15] == pytest.approx(1.0)

    def test_resolution_invariance(self):
        small = self._objects((224, 224))
        large = self._objects((448, 448))
        f_small = edge_features(*small, (224, 224))
        f_large = edge_features(*large, (448, 448))
        for k in (0, 1, 2, 3, 4, 9, 10, 15, 16, 17):
            assert f_small[k] == pytest.approx(f_large[k], abs=1e-12)

    def test_ratio_clipping(self):
        sx = 224.0
        tiny = SceneObject("t", (0, 0, 0.01), (0.001, 0.01, 0.001), (112, 112, 0.224, 0.224))
        big = SceneObject("b", (0.1, 0, 0.05), (0.3, 0.1, 0.3), (134.4, 112, 67.2, 67.2))
        f = edge_features(tiny, big)
        assert f[9] == pytest.approx(math.log(0.1))
        assert f[10] == pytest.approx(math.log(0.1))
        del sx

    def test_zero_size_box_rejected(self):
        obj_i, _ = self._objects()
        degenerate = SceneObject("z", (0, 0, 0.01), (0.01, 0.01, 0.01), (10, 10, 0.0, 5.0))
        with pytest.raises(ValueError):
            edge_features(obj_i, degenerate)


class TestSerialization:
    def test_round_trip(self):
        scene = generate_scene(6, stack_bias=0.6, seed=21)
        assert scene_from_json(scene_to_json(scene)) == scene

    def test_malformed_rejected(self):
        with pytest.raises(ValueError):
            scene_from_json("{not json")
        with pytest.raises(ValueError):
            scene_from_json("{}")


class TestEnvironment:
    def test_execute_unstack_reaches_clear_goal(self):
        env = PlanningEnvironment(small_stacked_scene(), NoiseConfig(), seed=0)

        class Act:
            def __init__(self, name, args):
                self.name, self.args = name, args

        plan = [Act("pick", ("o1", "o0")), Act("putdown", ("o1",))]
        assert env.execute(plan, [parse_predicate("Clear(o0)")])

    def test_execute_fails_on_bad_precondition(self):
        env = PlanningEnvironment(small_stacked_scene(), NoiseConfig(), seed=0)

        class Act:
            def __init__(self, name, args):
                self.name, self.args = name, args

        # o0 is under o1, so picking it must fail
        assert not env.execute([Act("pick", ("o0",))], [])

    def test_observe_uses_frozen_seed(self):
        env = PlanningEnvironment(generate_scene(4, seed=1), NoiseConfig(logit_noise_sd=1.0), seed=5)
        assert env.observe() == env.observe()

    def test_apply_info_updates_config_and_log(self):
        env = PlanningEnvironment(small_stacked_scene(), NoiseConfig(), seed=0)
        assert env.occluded_ids() == frozenset({"o0"})
        env.apply_info("push_obstacle", "o0")
        assert env.occluded_ids() == frozenset()
        assert env.info_actions == [("push_obstacle", "o0")]

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
            SceneObject(f"o{k}", (0.0, 0.0, 0.03 + 0.06 * k), (0.08, 0.06, 0.08), _box(0.0, 0.0))
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
        residual = min(cfg.residual_for(a) for a in pred.args)
        occ_mult = 2.0 if any(a in occl for a in pred.args) else 1.0
        if cfg.exact_reduction:
            eta = cfg.base_flip_rate
            sd = cfg.logit_noise_sd * occ_mult
        else:
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
        if cfg.exact_reduction and residual < 1.0:
            u = predicate_uncertainty(p) * residual
            p = 1.0 - u if p >= 0.5 else u
        conf[pred] = min(max(p, 0.0), 1.0)
    return conf, labels


def _assert_same_observation(state, labels, ref_conf, ref_labels):
    assert state.predicates() == sorted(ref_conf, key=GroundPredicate.sort_key)
    got = np.array([p for _, p in state.items()])
    want = np.array([ref_conf[pred] for pred in state.predicates()])
    assert got.tobytes() == want.tobytes()  # bit for bit, signed zeros included
    assert state.known == frozenset()
    assert labels == ref_labels
    assert all(type(v) is int for v in labels.values())


class TestPerceiveMatchesReference:
    CONFIGS = [
        NoiseConfig(),  # sd == 0 everywhere
        NoiseConfig(base_flip_rate=0.2),
        NoiseConfig(base_flip_rate=0.025, logit_noise_sd=1.5),
        NoiseConfig(base_flip_rate=0.15, logit_noise_sd=1.0, miscal_gamma=2.0),
        NoiseConfig(base_flip_rate=0.1, logit_noise_sd=0.8, miscal_gamma=0.6),
        NoiseConfig(base_flip_rate=0.05, logit_noise_sd=12.0),  # logits far past +-30
        NoiseConfig(base_flip_rate=0.05, logit_noise_sd=1.0, exact_reduction=True),
        NoiseConfig(base_flip_rate=0.1, exact_reduction=True, miscal_gamma=1.5),
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
        assert focus.residual_for("o2") < 1.0 and focus.residual_for("o0") == 1.0
        assert cleared.cleared == ("o0",)
        exact = replace(focus, exact_reduction=True)
        for cfg in (focus, cleared, exact, replace(exact, miscal_gamma=3.0), NoiseConfig()):
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

    def test_hand_built_scenes_sharing_seed_zero_stay_apart(self):
        stacked = small_stacked_scene()
        stacked = Scene(stacked.objects, stacked.support)  # seed 0
        spread = Scene(
            tuple(
                SceneObject(f"o{k}", (x, 0.0, 0.03), (0.08, 0.06, 0.08), _box(x, 0.0))
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
