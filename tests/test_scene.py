"""Scene simulator tests."""

import json
import math
import os
import subprocess
import sys
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

from beliefplan.calibration import reliability_report
from beliefplan.core import (
    GroundPredicate,
    Relation,
    classify,
    next_residual,
    parse_predicate,
    predicate_uncertainty,
)
from beliefplan.planner import (
    LOOK_CLOSER,
    Goal,
    GroundedAction,
    PlannerOptions,
    clear,
    ground_domain,
    on,
    plan_under_uncertainty,
    support_atoms,
)
from beliefplan import scene as scene_module
from beliefplan.scene import (
    CLOSE_DIST,
    CONTACT_EPS,
    OCCLUSION_IOU,
    NoiseConfig,
    PlanningEnvironment,
    Scene,
    SceneObject,
    _draw_pass,
    _predicate_index,
    _sharpen,
    _truth_pass,
    generate_scene,
    perceive,
    perceive_with_labels,
    predicate_count,
    prefetch_trials,
    scene_to_json,
    seed_sequence_words,
)
from beliefplan.harness import generate_scene_files

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


def _surface_gap(a: SceneObject, b: SceneObject) -> float:
    """Largest per-axis face separation of two axis-aligned boxes."""
    (ax, ay, az), (bx, by, bz) = a.position, b.position
    (aw, ah, ad), (bw, bh, bd) = a.size, b.size  # sizes are (x, z, y) extents
    return max(
        abs(ax - bx) - (aw + bw) / 2,
        abs(ay - by) - (ad + bd) / 2,
        abs(az - bz) - (ah + bh) / 2,
    )


def _box_edges(box):
    """A center-size pixel box's (left, right, bottom, top, area)."""
    x, y, w, h = box
    return x - w / 2, x + w / 2, y - h / 2, y + h / 2, w * h


def _edges_iou(a, b):
    """Intersection over union of two boxes given by :func:`_box_edges`."""
    ix = min(a[1], b[1]) - max(a[0], b[0])
    iy = min(a[3], b[3]) - max(a[2], b[2])
    if ix <= 0 or iy <= 0:
        return 0.0
    inter = ix * iy
    return inter / (a[4] + b[4] - inter)


def _reference_occluded(scene: Scene) -> frozenset[str]:
    """Objects hidden under another box in the top-down view, one pair at a time."""
    boxes = [(o.id, o.position[2], _box_edges(o.bbox2d)) for o in scene.objects]
    return frozenset(
        a_id
        for a_id, a_z, a in boxes
        if any(b_z > a_z and _edges_iou(a, b) > OCCLUSION_IOU for _, b_z, b in boxes)
    )


def _reference_scene_facts(scene: Scene) -> tuple[np.ndarray, frozenset[str]]:
    """A scene's truth vector over its predicate index and its occluded
    objects, as the per-scene loop over object pairs wrote them."""
    index = _predicate_index(scene.object_ids())
    at = {obj: k for k, obj in enumerate(index.ids)}
    by_id = scene.object_map()
    objs = [by_id[obj] for obj in index.ids]
    facts = [(ON, at[upper], at[lower]) for upper, lower in scene.support]
    has_upper = {at[lower] for _, lower in scene.support}
    left = [o.position[0] - o.size[0] / 2 for o in objs]
    right = [o.position[0] + o.size[0] / 2 for o in objs]
    for i, a in enumerate(objs):
        if i not in has_upper:
            facts.append((CLEAR, i, i))
        for j in range(i + 1, len(objs)):
            b = objs[j]
            if _surface_gap(a, b) < CONTACT_EPS:
                facts.append((TOUCHING, i, j))
            dxy = math.hypot(a.position[0] - b.position[0], a.position[1] - b.position[1])
            if dxy < CLOSE_DIST:
                facts.append((CLOSE_TO, i, j))
        facts += [(LEFT_OF, i, j) for j, lo in enumerate(left) if j != i and right[i] < lo]
    truth = np.zeros(len(index.preds))
    truth[[index.slot[key] for key in facts]] = 1.0
    return truth, _reference_occluded(scene)


def _assert_facts_match_reference(scenes):
    """One truth pass over ``scenes`` gives each scene the reference's truth
    bytes and occluded objects."""
    facts = _truth_pass(scenes)
    for scene in scenes:
        index, truth, occluded = facts[scene]
        want_truth, want_occluded = _reference_scene_facts(scene)
        assert index is _predicate_index(scene.object_ids())
        assert truth.tobytes() == want_truth.tobytes()
        assert occluded == want_occluded


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


def _reference_generate_scene(n_objects, stack_bias, seed):
    """generate_scene as written with ``Generator.uniform``."""
    rng = np.random.default_rng([int(seed), n_objects])
    objects, support, covered = [], [], set()
    for k in range(n_objects):
        oid = f"o{k}"
        w = float(rng.uniform(0.05, 0.09))
        h = float(rng.uniform(0.04, 0.08))
        d = float(rng.uniform(0.05, 0.09))
        tops = [o for o in objects if o.id not in covered]
        if k > 0 and tops and rng.uniform() < stack_bias:
            base = tops[int(rng.integers(len(tops)))]
            x = base.position[0] + float(rng.uniform(-0.005, 0.005))
            y = base.position[1] + float(rng.uniform(-0.005, 0.005))
            z = base.position[2] + base.size[1] / 2 + h / 2
            support.append((oid, base.id))
            covered.add(base.id)
        else:
            x = y = 0.0
            for _ in range(500):
                x = float(rng.uniform(-0.3, 0.3))
                y = float(rng.uniform(-0.3, 0.3))
                if all(
                    math.hypot(x - o.position[0], y - o.position[1]) >= 0.12 for o in objects
                ):
                    break
            z = h / 2
        objects.append(SceneObject(oid, (x, y, z), (w, h, d)))
    return Scene(tuple(objects), tuple(support), seed=int(seed))


@pytest.mark.parametrize("n_objects", range(3, 11))
def test_generated_scenes_match_the_uniform_form(n_objects):
    for stack_bias in (0.0, 0.35, 0.8, 1.0):
        for seed in range(150):
            want = _reference_generate_scene(n_objects, stack_bias, seed)
            assert generate_scene(n_objects, stack_bias, seed) == want


class TestGroundTruth:
    def test_candidate_predicate_count(self):
        # n objects: n Clear + n(n-1) On + n(n-1) LeftOf + C(n,2) each symmetric
        preds = _predicate_index(("a", "b", "c")).preds
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
    """The predicates that the scene's truth vector marks true, which must
    match the reference loop's vector byte for byte."""
    _assert_facts_match_reference([scene])
    ((index, truth, *_),) = prefetch_trials([(scene, 0)])
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
                candidates = _predicate_index(scene.object_ids()).preds
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
        # each relation's positions, ascending, partition the index; Clear's follow ids
        parts = index.by_relation
        every = np.concatenate(list(parts.values())).tolist()
        assert sorted(every) == list(range(len(index.preds)))
        for rel, at in parts.items():
            assert (np.diff(at) > 0).all()
            assert all(index.preds[k].relation is rel for k in at.tolist())
        assert [index.preds[k].args for k in parts[CLEAR].tolist()] == [(a,) for a in ids]

    def test_vector_is_read_only(self):
        ((_, truth, *_),) = prefetch_trials([(small_stacked_scene(), 0)])
        with pytest.raises(ValueError):
            truth[0] = 1.0


# Two center offsets at which math.hypot and np.hypot round to either side
# of CLOSE_DIST, found by a search around that circle: (dx, dy, close)
HYPOT_STRADDLES = (
    (0.1271838595713653, 0.07952525299885078, True),
    (0.09773931599446654, -0.11378499948997588, False),
)


class TestTruthPassMatchesReference:
    @pytest.mark.parametrize("n", range(3, 11))
    def test_generated_scenes_in_batches_of_32(self, n):
        for bias in (0.0, 0.35, 0.8):
            scenes = [generate_scene(n, stack_bias=bias, seed=seed) for seed in range(320)]
            for k in range(0, len(scenes), 32):
                _assert_facts_match_reference(scenes[k : k + 32])

    @pytest.mark.parametrize("size", [1, 7, 32])
    def test_batch_size_moves_no_byte(self, size):
        scenes = [generate_scene(5, stack_bias=0.6, seed=seed) for seed in range(64)]
        for k in range(0, len(scenes), size):
            _assert_facts_match_reference(scenes[k : k + size])

    def test_hand_built_scenes_sharing_seed_zero_in_one_batch(self):
        stacked = Scene(small_stacked_scene().objects, small_stacked_scene().support)
        spread = Scene(
            tuple(
                SceneObject(f"o{k}", (x, 0.0, 0.03), (0.08, 0.06, 0.08))
                for k, x in enumerate((-0.3, 0.0, 0.3))
            ),
            (),
        )
        assert stacked.seed == spread.seed == 0 and stacked.object_ids() == spread.object_ids()
        _assert_facts_match_reference([stacked, spread, stacked])
        worlds = prefetch_trials([(stacked, 0), (spread, 0)])
        (_, a, hidden_a, *_), (_, b, hidden_b, *_) = worlds
        assert a.tobytes() != b.tobytes() and hidden_a == {"o0"} and hidden_b == frozenset()

    @pytest.mark.parametrize("dx, dy, close", HYPOT_STRADDLES)
    def test_close_to_takes_math_hypot(self, dx, dy, close):
        assert (math.hypot(dx, dy) < CLOSE_DIST) == close
        assert (float(np.hypot(dx, dy)) < CLOSE_DIST) != close
        scene = _pair((dx, dy, 0.0))  # o0 at the origin, so the offset is exact
        assert (parse_predicate("CloseTo(o0,o1)") in _vector_truths(scene)) == close

    def test_facts_are_cached_until_a_request_computes(self, passes):
        truths, draws = passes
        scene_module._worlds.clear()
        batch = [(generate_scene(4, seed=seed), seed) for seed in range(5)]
        worlds = prefetch_trials(batch)
        assert prefetch_trials(batch[3:] + batch[:1]) == worlds[3:] + worlds[:1]  # cached
        assert len(truths) == len(draws) == 1 and list(scene_module._worlds) == batch
        other = (generate_scene(4, seed=99), 7)
        prefetch_trials(batch[:1] + [other])  # one trial missing: computed whole
        assert truths[1] == [batch[0][0], other[0]]
        assert draws[1] == [(0, 0, 40), (7, 99, 40)]
        assert list(scene_module._worlds) == batch[:1] + [other]


def iou_2d(box_a, box_b):
    """IoU of two center-size pixel boxes, as the occlusion test takes it."""
    return _edges_iou(_box_edges(box_a), _box_edges(box_b))


def occluded_objects(scene):
    """The scene's occluded objects, as the truth pass finds them."""
    return _truth_pass([scene])[scene][2]


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
        cfg = NoiseConfig(base_flip_rate=eta, logit_noise_sd=0.8)
        p_occ = perceive(scene, cfg, seed=5)
        p_clr = perceive(scene, cfg, seed=5, cleared={"o0"})
        truths = ground_truth_state(scene)
        logit = lambda p: math.log(p / (1 - p))
        conf_clr = dict(p_clr.items())
        for pred, occ in p_occ.items():
            t = 1.0 if pred in truths else 0.0
            l_t = logit(t * (1 - eta) + (1 - t) * eta)
            if "o0" in pred.args:
                assert logit(occ) - l_t == pytest.approx(
                    2 * (logit(conf_clr[pred]) - l_t), abs=1e-9
                )
            else:
                assert occ == conf_clr[pred]


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
        env = PlanningEnvironment(scene, NoiseConfig(base_flip_rate=0.1, logit_noise_sd=1.0), 9)
        before = env.observe()
        env.apply_info("look_closer", "o1")
        after = env.observe()
        changed = 0
        conf_after = dict(after.items())
        for pred, p in before.items():
            if "o1" in pred.args:
                changed += p != conf_after[pred]
            else:
                assert p == conf_after[pred]
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
        assert list(p1) == list(p2)
        for (_, a), (_, b) in zip(p1.items(), p2.items()):
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
        env = PlanningEnvironment(small_stacked_scene(), cfg, 0)
        env.apply_info("look_closer", "o2")
        env.apply_info("push_obstacle", "o0")
        assert env.residual == {} and env.cleared == set()
        assert env.occluded_ids() == frozenset({"o0"})

    def test_gain_of_one_rejected(self):
        with pytest.raises(ValueError, match="gain must lie in"):
            NoiseConfig(gain=1.0)

    def test_unknown_kind_rejected(self):
        env = PlanningEnvironment(small_stacked_scene(), NoiseConfig(), 0)
        with pytest.raises(ValueError):
            env.apply_info("teleport", "o1")

    @pytest.mark.parametrize("kind", ["look_closer", "push_obstacle"])
    def test_unknown_target_rejected(self, kind):
        env = PlanningEnvironment(small_stacked_scene(), NoiseConfig(), 0)
        with pytest.raises(ValueError, match="'zz'"):
            env.apply_info(kind, "zz")
        assert env.residual == {} and env.cleared == set()

    def test_attention_saturates_above_zero(self):
        # at gain 0.9 the 324th look would multiply the residual to 0.0
        cfg = NoiseConfig(base_flip_rate=0.1, logit_noise_sd=0.8, gain=0.9)
        env = PlanningEnvironment(small_stacked_scene(), cfg, seed=3)
        for _ in range(400):
            env.apply_info("look_closer", "o1")
        assert env.residual == {"o1": math.ulp(0.0)}
        for pred, p in env.observe().items():
            if "o1" in pred.args:
                assert predicate_uncertainty(p) < 1e-11  # at the logit clip

    def test_push_clears_occlusion(self):
        env = PlanningEnvironment(small_stacked_scene(), NoiseConfig(), 0)
        assert "o0" in env.occluded_ids()
        env.apply_info("push_obstacle", "o0")
        assert env.cleared == {"o0"}
        assert "o0" not in env.occluded_ids()

    @pytest.mark.parametrize(
        "attention", [({"zz": 0.5}, ()), ({"o1": 0.5}, {"zz"}), ({}, {"o0", "zz"})]
    )
    def test_attention_on_an_unknown_object_rejected(self, attention):
        scene = small_stacked_scene()
        with pytest.raises(ValueError, match="'zz'"):
            perceive_with_labels(scene, NoiseConfig(), 0, *attention)

    @pytest.mark.parametrize("bad", [0.0, 1.5, math.nan])
    def test_residual_outside_unit_interval_rejected(self, bad):
        scene = small_stacked_scene()
        with pytest.raises(ValueError, match="residual must lie in"):
            perceive_with_labels(scene, NoiseConfig(), 0, residual={"o1": 0.5, "o2": bad})

    def test_look_leaves_channel_config_alone(self):
        cfg = NoiseConfig(base_flip_rate=0.1, logit_noise_sd=0.8)
        env = PlanningEnvironment(small_stacked_scene(), cfg, 0)
        env.apply_info("look_closer", "o1")
        env.apply_info("push_obstacle", "o0")
        assert env.cfg is cfg

    def test_noise_config_holds_only_the_channel(self):
        names = [f.name for f in fields(NoiseConfig)]
        assert names == ["base_flip_rate", "logit_noise_sd", "miscal_gamma", "gain"]

    def test_realistic_mode_mean_reduction_near_gain(self):
        # look gain 0.3 should shrink uncertainty by roughly that factor
        ratios = []
        cfg = NoiseConfig(base_flip_rate=0.1, logit_noise_sd=0.5)
        for seed in range(300):
            env = PlanningEnvironment(generate_scene(3, stack_bias=0.0, seed=seed), cfg, seed)
            before = env.observe()
            env.apply_info("look_closer", "o0")
            after = env.observe()
            conf_after = dict(after.items())
            for pred, p in before.items():
                if "o0" not in pred.args:
                    continue
                u0 = predicate_uncertainty(p)
                if u0 > 1e-6:
                    ratios.append(predicate_uncertainty(conf_after[pred]) / u0)
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
        assert env.execute(plan, frozenset({clear("o0")}))

    def test_execute_fails_on_bad_precondition(self):
        env = PlanningEnvironment(small_stacked_scene(), NoiseConfig(), seed=0)
        # o0 is under o1, so picking it must fail
        assert not env.execute([_move(env, "pick", "o0")], [])

    def test_observe_uses_frozen_seed(self):
        env = PlanningEnvironment(generate_scene(4, seed=1), NoiseConfig(logit_noise_sd=1.0), seed=5)
        assert env.observe() == env.observe()

    def test_apply_info_updates_attention(self):
        env = PlanningEnvironment(small_stacked_scene(), NoiseConfig(), seed=0)
        assert env.occluded_ids() == frozenset({"o0"})
        env.apply_info("push_obstacle", "o0")
        assert env.occluded_ids() == frozenset()
        assert env.residual == {"o0": next_residual(1.0, NoiseConfig().gain)}
        assert env.cleared == {"o0"}

    def test_noisy_episode_classification_sane(self):
        scene = generate_scene(4, stack_bias=0.5, seed=8)
        cfg = NoiseConfig(base_flip_rate=0.05, logit_noise_sd=0.4)
        state = perceive(scene, cfg, seed=2)
        certain_true = {p for p, m in zip(state, classify(state, 0.7).certain_true) if m}
        truths = ground_truth_state(scene)
        # light noise: most certain-true calls are actually true
        right = sum(1 for p in certain_true if p in truths)
        assert right >= 0.9 * len(certain_true)


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


def _reference_perceive_with_labels(scene, cfg, seed, attention=({}, set())):
    """One generator per predicate and every fact recomputed, on every call;
    ``attention`` is a (residual dict, cleared set) pair."""
    residuals, cleared = attention
    truths = ground_truth_state(scene)
    occl = _reference_occluded(scene) - cleared
    conf, labels = {}, {}
    for k, pred in enumerate(_predicate_index(scene.object_ids()).preds):
        rng = np.random.default_rng([int(seed), scene.seed, k])
        g = float(rng.standard_normal())
        label_draw = float(rng.uniform())

        t = 1.0 if pred in truths else 0.0
        residual = min(residuals.get(a, 1.0) for a in pred.args)
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
        """The (residual dict, cleared set) attention after a few random info
        actions, pushes on occluded objects included."""
        env = PlanningEnvironment(scene, cfg, 0)
        ids = scene.object_ids()
        occl = sorted(_reference_occluded(scene))
        for _ in range(int(rng.integers(0, 5))):
            if occl and rng.uniform() < 0.5:
                env.apply_info("push_obstacle", occl[int(rng.integers(len(occl)))])
            else:
                env.apply_info("look_closer", ids[int(rng.integers(len(ids)))])
        return env.residual, env.cleared

    @pytest.mark.parametrize("n", range(3, 11))
    def test_every_branch_bit_identical(self, n):
        rng = np.random.default_rng(n)
        for trial in range(6):
            scene = generate_scene(n, stack_bias=0.7, seed=100 * n + trial)
            for cfg in self.CONFIGS:
                attention = self._attended(cfg, scene, rng)
                seed = int(rng.integers(0, 1000))
                state, labels = perceive_with_labels(scene, cfg, seed, *attention)
                _assert_same_observation(
                    state, labels, *_reference_perceive_with_labels(scene, cfg, seed, attention)
                )

    def test_branches_are_reached(self):
        scene = small_stacked_scene()  # o0 sits under o1, so it starts occluded
        base = NoiseConfig(logit_noise_sd=1.0)
        looked = PlanningEnvironment(scene, base, 4)
        looked.apply_info("look_closer", "o2")
        pushed = PlanningEnvironment(scene, base, 4)
        pushed.apply_info("push_obstacle", "o0")
        assert looked.residual.get("o2", 1.0) < 1.0 and looked.residual.get("o0", 1.0) == 1.0
        assert pushed.cleared == {"o0"}
        focus = (looked.residual, looked.cleared)
        for cfg, attention in (
            (base, focus),
            (base, (pushed.residual, pushed.cleared)),
            (replace(base, miscal_gamma=3.0), focus),
            (NoiseConfig(), ({}, set())),
        ):
            state, labels = perceive_with_labels(scene, cfg, 4, *attention)
            _assert_same_observation(
                state, labels, *_reference_perceive_with_labels(scene, cfg, 4, attention)
            )

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
                attention = (env.residual, env.cleared)
                _, labels = perceive_with_labels(scene, env.cfg, env.seed, *attention)
                _assert_same_observation(
                    state, labels,
                    *_reference_perceive_with_labels(scene, env.cfg, env.seed, attention),
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
            assert env.occluded_ids() == _reference_occluded(second)
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
    """The draws of each key, in order, from one draw pass: every key is
    drawn anew."""
    drawn = _draw_pass(keys)
    return [drawn[key] for key in keys]


class TestNoiseDrawsMatchReference:
    SEEDS = (0, 2**32 - 1, 2**32, 2**64 + 3)

    # candidates at 3 and at 10 objects, then 27 and 370, which no object set
    # has: they count CloseTo and Touching both ways
    @pytest.mark.parametrize(
        "n", [predicate_count(m) for m in (3, 10)] + [27, 370]
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
        with pytest.raises(ValueError, match="one draw pass"):
            _draw_pass(keys)

    def test_interleaved_calls_share_no_state(self):
        # uncached, so a repeated pair is drawn again after other pairs' draws
        for seed, scene_seed in [(3, 11), (2**32, 5), (3, 11), (0, 2**64 + 3), (2**32, 5)]:
            (got,) = _fresh_draws([(seed, scene_seed, 52)])
            _assert_same_draws(got, _reference_noise_draws(seed, scene_seed, 52))

    def test_outputs_read_only(self):
        for arr in _fresh_draws([(9, 4, 27)])[0]:
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = 0.5


class TestNoiseDrawsThroughTheStateSetter(TestNoiseDrawsMatchReference):
    """The same draws when the ziggurat tables are refused, so that numpy
    draws every predicate from a state loaded by the setter."""

    @pytest.fixture(autouse=True)
    def _refuse_tables(self, monkeypatch):
        monkeypatch.setattr(scene_module, "_ziggurat_tables", lambda: None)


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
    # the public door: one row per entropy, which take as many words each
    entropies = [(2**64 + 3, s, t) for s in range(3) for t in range(3)]
    want = [np.random.SeedSequence(e).generate_state(2, np.uint32) for e in entropies]
    assert seed_sequence_words(entropies, 2).tobytes() == np.array(want).tobytes()
    with pytest.raises(ValueError, match="as many 32-bit words"):
        seed_sequence_words([(1, 2), (1, 2**32)], 2)


def _assert_worlds_match_reference(trials, worlds):
    for (scene, seed), (index, truth, occluded, *draws) in zip(trials, worlds, strict=True):
        want_truth, want_occluded = _reference_scene_facts(scene)
        assert truth.tobytes() == want_truth.tobytes() and occluded == want_occluded
        _assert_same_draws(draws, _reference_noise_draws(seed, scene.seed, len(index.preds)))


def test_the_cache_keeps_the_last_request_that_computed():
    scene = generate_scene(3, seed=7)  # 27 predicates
    trials = [(scene, seed) for seed in range(73)]
    scene_module._worlds.clear()
    _assert_worlds_match_reference(trials, prefetch_trials(trials))
    assert list(scene_module._worlds) == trials  # all 73 trials, whatever the size
    # a request whose trials are all cached computes nothing and keeps the cache
    cached = trials[40:] + trials[:3]
    _assert_worlds_match_reference(cached, prefetch_trials(cached))
    assert list(scene_module._worlds) == trials
    # the next request that computes replaces them with its own trials
    again = trials[:2] + [(scene, 73)]
    _assert_worlds_match_reference(again, prefetch_trials(again))
    assert list(scene_module._worlds) == again


@pytest.fixture
def passes(monkeypatch):
    """The scenes of every truth pass and the keys of every draw pass."""
    truths, draws = [], []
    truth_pass, draw_pass = scene_module._truth_pass, scene_module._draw_pass

    def counted_truths(scenes):
        truths.append(list(scenes))
        return truth_pass(scenes)

    def counted_draws(keys):
        draws.append(list(keys))
        return draw_pass(keys)

    monkeypatch.setattr(scene_module, "_truth_pass", counted_truths)
    monkeypatch.setattr(scene_module, "_draw_pass", counted_draws)
    return truths, draws


def test_one_door_computes_a_trial_world_once(passes):
    truths, draws = passes
    batch = [(generate_scene(4, seed=seed), 100 + seed) for seed in range(8)]
    scene_module._worlds.clear()
    prefetch_trials(batch)
    assert len(truths) == len(draws) == 1
    # a cached trial computes nothing: its observations and occlusion set
    # read the batch's world
    scene, seed = batch[3]
    env = PlanningEnvironment(scene, NoiseConfig(logit_noise_sd=0.8), seed)
    env.observe()
    env.apply_info(LOOK_CLOSER, "o1")
    env.observe()
    assert env.occluded_ids() == _reference_occluded(scene)
    assert len(truths) == len(draws) == 1 and list(scene_module._worlds) == batch
    # a lone observation of a trial outside the batch is a request of one:
    # one truth pass and one draw pass, and the cache holds that trial alone
    lone = generate_scene(4, seed=50)
    perceive(lone, NoiseConfig(), 9)
    assert truths[1:] == [[lone]] and draws[1:] == [[(9, 50, 40)]]
    assert list(scene_module._worlds) == [(lone, 9)]


def test_a_batch_at_ten_objects_is_one_pass(monkeypatch):
    # the largest request a harness batch makes: 32 units of 280 predicates
    widths = []
    seed_words = scene_module._seed_words

    def counted(entropy, n_words):
        widths.append(entropy.shape[1])
        return seed_words(entropy, n_words)

    monkeypatch.setattr(scene_module, "_seed_words", counted)
    scene = generate_scene(10, seed=3)
    trials = [(scene, seed) for seed in range(32)]
    scene_module._worlds.clear()
    _assert_worlds_match_reference(trials, prefetch_trials(trials))
    assert predicate_count(10) == 280 and widths == [32 * 280]


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
        "before = read().currsize; scene._draw_pass([(1, 2, 3)]); print(before, read().currsize)"
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
    first = scene_module._first_outputs(*scene_module._seeded(words[0::2] | words[1::2] << 32))[0]
    _, fast = scene_module._fast_normals(first, scene_module._ziggurat_tables())
    assert not fast[k] and (int(first[k]) & 0xFF == 0) == (branch == "tail")
    (got,) = _fresh_draws([(seed, scene_seed, k + 1)])
    _assert_same_draws(got, _reference_noise_draws(seed, scene_seed, k + 1))


def test_seed_pairs_of_many_words():
    # two 2^300 seeds take 21 entropy words, past the 4-word pool
    (got,) = _fresh_draws([(2**300, 2**300 + 1, 27)])
    _assert_same_draws(got, _reference_noise_draws(2**300, 2**300 + 1, 27))


# PCG64 on Python ints, as numpy's pcg64.h states it, for words that reach
# the limb arithmetic's edges: 0, 1, the top bit, all ones, and the low
# limbs whose sums carry into the high limb
PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645
EDGE_WORDS = (0, 1, 2**63, 2**64 - 2, 2**64 - 1)
EDGE_COLUMNS = np.array(
    [(a, b, c, d) for a in EDGE_WORDS for b in EDGE_WORDS for c in EDGE_WORDS for d in EDGE_WORDS],
    dtype=np.uint64,
).T  # 625 columns of four words


def _int_step(state, inc):
    return (state * PCG64_MULT + inc) % 2**128


def _int_seeded(w0, w1, w2, w3):
    inc = (2 * (w2 << 64 | w3) + 1) % 2**128
    return _int_step(((w0 << 64 | w1) + inc) % 2**128, inc), inc


def _xsl_rr(state):
    hi, x = state >> 64, (state >> 64 ^ state) & (2**64 - 1)
    rot = hi >> 58
    return (x >> rot | x << (64 - rot)) & (2**64 - 1)


def _ints(limbs):
    lo, hi = limbs
    return [h << 64 | l for l, h in zip(lo.tolist(), hi.tolist())]


def test_step_matches_int_arithmetic():
    state, inc = EDGE_COLUMNS[:2], EDGE_COLUMNS[2:]
    want = [_int_step(s, i) for s, i in zip(_ints(state), _ints(inc))]
    assert _ints(scene_module._step(tuple(state), tuple(inc))) == want
    # the edges include low limbs whose sum carries into the high limb
    products = [s * PCG64_MULT % 2**128 for s in _ints(state)]
    assert any((p & (2**64 - 1)) + (i & (2**64 - 1)) >= 2**64 for p, i in zip(products, _ints(inc)))


def test_seeded_matches_int_arithmetic():
    state, inc = scene_module._seeded(EDGE_COLUMNS)
    want = [_int_seeded(*column) for column in EDGE_COLUMNS.T.tolist()]
    assert list(zip(_ints(state), _ints(inc))) == want


def test_first_outputs_match_int_arithmetic_and_numpy():
    got = scene_module._first_outputs(*scene_module._seeded(EDGE_COLUMNS))
    assert got.shape == (2, EDGE_COLUMNS.shape[1]) and got.dtype == np.uint64
    bitgen = np.random.PCG64()
    for column, outputs in zip(EDGE_COLUMNS.T.tolist(), got.T.tolist()):
        state, inc = _int_seeded(*column)
        first = _int_step(state, inc)
        assert outputs == [_xsl_rr(first), _xsl_rr(_int_step(first, inc))]
        bitgen.state = dict(
            bit_generator="PCG64", state={"state": state, "inc": inc}, has_uint32=0, uinteger=0
        )
        assert bitgen.random_raw(2).tolist() == outputs


# every public entry that takes a seed, called with a seed of -1
NEGATIVE_SEED_CALLS = {
    "generate_scene": lambda out: generate_scene(4, seed=-1),
    "Scene": lambda out: Scene(small_stacked_scene().objects, (), seed=-1),
    "perceive": lambda out: perceive(small_stacked_scene(), NoiseConfig(), -1),
    "perceive_with_labels": lambda out: perceive_with_labels(
        small_stacked_scene(), NoiseConfig(), -1
    ),
    "prefetch_trials": lambda out: prefetch_trials([(small_stacked_scene(), -1)]),
    "seed_sequence_words": lambda out: seed_sequence_words([(3, -1)], 2),
    "generate_scene_files": lambda out: generate_scene_files(2, 4, 0.4, -1, out),
}


@pytest.mark.parametrize("entry", sorted(NEGATIVE_SEED_CALLS))
def test_every_seeded_entry_rejects_a_negative_seed(entry, tmp_path):
    with pytest.raises(ValueError, match="seed must be non-negative"):
        NEGATIVE_SEED_CALLS[entry](tmp_path / "scenes")
    assert not (tmp_path / "scenes").exists()


def test_prefetch_rejects_a_batch_mixing_object_sets():
    # o0, o1, o2 beside o0, o1, o2, o3, and beside a, b, c: a pass lays out
    # one object set
    kept = small_stacked_scene()
    scene_module._worlds.clear()
    prefetch_trials([(kept, 9)])
    renamed = Scene(
        tuple(replace(o, id=new) for o, new in zip(kept.objects, "abc")),
        (("b", "a"),),
    )
    for other in (generate_scene(4, seed=1), renamed):
        with pytest.raises(ValueError, match="one object set"):
            prefetch_trials([(generate_scene(3, seed=1), 3), (other, 5)])
    # one word for seed 3, two for 2**32: a draw pass lays out one word count
    with pytest.raises(ValueError, match="as many words"):
        prefetch_trials([(generate_scene(3, seed=1), 3), (generate_scene(3, seed=2), 2**32)])
    with pytest.raises(ValueError, match="seed must be non-negative"):
        prefetch_trials([(generate_scene(3, seed=1), 3), (kept, -1)])
    assert list(scene_module._worlds) == [(kept, 9)]  # the cache stays


# ---------------------------------------------------------------------------
# a batch's unattended observations, formed with its worlds

BATCH_CONFIGS = [
    NoiseConfig(base_flip_rate=0.1, logit_noise_sd=0.8),
    NoiseConfig(base_flip_rate=0.1, logit_noise_sd=0.8, miscal_gamma=2.0),
    NoiseConfig(base_flip_rate=0.15),  # logit_noise_sd 0
    NoiseConfig(logit_noise_sd=1.0),  # flip 0
]


def _assert_same_pair(state, labels, want_state, want_labels):
    assert state.scored is want_state.scored
    assert state.confidences.tobytes() == want_state.confidences.tobytes()
    assert labels.dtype == want_labels.dtype and labels.tobytes() == want_labels.tobytes()


def _batch_of_one(scene, cfg, seed):
    """A trial's unattended observation from a request of one with no
    stored pair: its channel pass runs over that trial alone."""
    scene_module._worlds.clear()
    ((*_, (_, state, labels)),) = prefetch_trials([(scene, seed)], cfg)
    return state, labels


@pytest.mark.parametrize("n", range(3, 11))
def test_batched_observations_equal_a_batch_of_one(n):
    occluded = 0
    for bias in (0.0, 0.35, 0.8):
        trials = [(generate_scene(n, bias, 40 * n + k), 7 * k + int(100 * bias)) for k in range(12)]
        for cfg in BATCH_CONFIGS:
            scene_module._worlds.clear()
            worlds = prefetch_trials(trials, cfg)
            for (scene, seed), (*_, (noise, state, labels)) in zip(trials, worlds):
                assert noise == cfg
                _assert_same_pair(state, labels, *_batch_of_one(scene, cfg, seed))
                # a call with attention that changes nothing runs the channel on its own row
                unit = {scene.object_ids()[0]: 1.0}
                _assert_same_pair(state, labels, *perceive_with_labels(scene, cfg, seed, unit))
        occluded += sum(bool(hidden) for _, _, hidden, *_ in prefetch_trials(trials))
    assert occluded > 0  # scenes with occluded objects are covered


def test_batched_observations_match_the_reference():
    trials = [(generate_scene(5, 0.8, seed), seed + 3) for seed in range(6)]
    for cfg in BATCH_CONFIGS:
        scene_module._worlds.clear()
        for (scene, seed), (*_, (_, state, labels)) in zip(trials, prefetch_trials(trials, cfg)):
            _assert_same_observation(
                state, labels, *_reference_perceive_with_labels(scene, cfg, seed)
            )


@pytest.fixture
def channel_passes(monkeypatch, passes):
    """The truth passes, draw passes and channel passes (their row shapes)."""
    shapes = []
    channel = scene_module._channel

    def counted(cfg, truth, *rows):
        shapes.append(truth.shape)
        return channel(cfg, truth, *rows)

    monkeypatch.setattr(scene_module, "_channel", counted)
    return (*passes, shapes)


def test_the_channel_pass_runs_once_per_noise(channel_passes):
    truths, draws, channels = channel_passes
    a, b = BATCH_CONFIGS[:2]
    batch = [(generate_scene(4, seed=seed), 100 + seed) for seed in range(6)]
    scene_module._worlds.clear()
    first = prefetch_trials(batch, a)
    assert (len(truths), len(draws), channels) == (1, 1, [(6, 40)])
    # under other noise, only the channel pass runs, and the cache keeps its trials
    second = prefetch_trials(batch, b)
    assert (len(truths), len(draws), channels) == (1, 1, [(6, 40), (6, 40)])
    assert all(x[:5] == y[:5] and y[5][0] == b for x, y in zip(first, second))
    assert list(scene_module._worlds) == batch
    # a fully cached request under the same noise, or under none, computes nothing
    assert prefetch_trials(batch[2:], b) == second[2:]
    assert prefetch_trials(batch[:1]) == second[:1]
    scene, seed = batch[4]
    state, labels = perceive_with_labels(scene, b, seed)
    assert state is second[4][5][1] and labels is second[4][5][2]
    assert (len(truths), len(draws), len(channels)) == (1, 1, 2)
    # an observation with attention runs the channel on its own row
    perceive_with_labels(scene, b, seed, {"o1": 0.5})
    assert (len(truths), len(draws), channels[2:]) == (1, 1, [(40,)])


def test_a_refused_request_leaves_the_cache_as_it_was(channel_passes):
    batch = [(generate_scene(3, seed=seed), seed) for seed in range(4)]
    scene_module._worlds.clear()
    prefetch_trials(batch, BATCH_CONFIGS[0])
    kept = dict(scene_module._worlds)
    for request in (
        batch[:2] + [(generate_scene(4, seed=9), 1)],  # two object sets
        batch[:2] + [(generate_scene(3, seed=9), 2**32)],  # two seed word counts
        batch[:2] + [(generate_scene(3, seed=9), -1)],  # a negative seed
    ):
        for noise in (None, BATCH_CONFIGS[1]):
            with pytest.raises(ValueError):
                prefetch_trials(request, noise)
            assert scene_module._worlds == kept
            assert all(scene_module._worlds[k] is w for k, w in kept.items())
    assert len(channel_passes[2]) == 1


def test_observations_come_with_read_only_labels():
    scene = small_stacked_scene()
    cfg = NoiseConfig(base_flip_rate=0.1, logit_noise_sd=0.8)
    for attention in (({}, ()), ({"o1": 0.5}, ()), ({}, {"o0"})):
        state, labels = perceive_with_labels(scene, cfg, 3, *attention)
        with pytest.raises(ValueError, match="read-only"):
            labels[0] = 1 - labels[0]
        with pytest.raises(ValueError, match="read-only"):
            state.scored.first[0] = 0


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


def _predicate_atom(pred):
    return on(*pred.args) if pred.relation is ON else clear(*pred.args)


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
            verdict = env.execute(plan, frozenset(map(_predicate_atom, goals)))
            assert verdict == _reference_execute(scene, plan, goals), (plan, goals)
            verdicts.append(verdict)
        assert 0.1 < np.mean(verdicts) < 0.9  # both verdicts are exercised

    def test_the_planners_own_plans(self):
        verdicts = []
        cfg = NoiseConfig(base_flip_rate=0.15, logit_noise_sd=1.0)

        class CheckedEnvironment(PlanningEnvironment):
            def execute(self, plan, goal_atoms):
                verdict = super().execute(plan, goal_atoms)
                goal_predicates = [_atom_predicate(a) for a in goal_atoms]
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
