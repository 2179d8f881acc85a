"""Synthetic tabletop scenes and a tunable noisy perception oracle.

The simulator stands in for a learned scene-to-predicates translator: it
generates seeded tabletop scenes with optional stacking, derives the
ground-truth predicate set from geometry, and emits per-predicate
confidences through a configurable noise channel (label smoothing, logit
noise, miscalibration, occlusion).  Information-gathering actions sharpen
subsequent observations of a chosen object.  Everything is a pure function
of its inputs and seed.

Geometry conventions: positions are box centers in meters, sizes are
(w, h, d) = extents along (x, z-up, y); the camera is a fixed top-down
orthographic projection of the [-0.5, 0.5] square meter workspace onto a
224 x 224 pixel frame, so bbox2d = (cx, cy, bw, bh) in pixels.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from typing import Iterable, Mapping, Sequence

import numpy as np

from beliefplan.core import (
    GroundPredicate,
    ProbabilisticState,
    Relation,
    has_support_cycle,
    predicate_uncertainty,
)

DEFAULT_IMAGE_DIMS = (224, 224)
WORLD_HALF_EXTENT = 0.5  # meters; the projected workspace is [-0.5, 0.5]^2
CONTACT_EPS = 0.005  # surfaces closer than 5 mm count as touching
CLOSE_DIST = 0.15  # xy center distance below which CloseTo holds
OCCLUSION_IOU = 0.3
SUPPORT_MIN_DZ = 0.02  # spatial validation: supported center must sit this far above
SUPPORT_MAX_DXY = 0.15  # spatial validation: supported center must stay this close in xy

LOOK_CLOSER = "look_closer"
PUSH_OBSTACLE = "push_obstacle"
INFO_ACTION_KINDS = (LOOK_CLOSER, PUSH_OBSTACLE)

_TINY = 1e-12


@dataclass(frozen=True)
class SceneObject:
    id: str
    position: tuple[float, float, float]  # center (x, y, z), meters
    size: tuple[float, float, float]  # (w, h, d): x, z, y extents, meters
    bbox2d: tuple[float, float, float, float]  # (cx, cy, bw, bh), pixels

    def __post_init__(self):
        if any(s <= 0 for s in self.size):
            raise ValueError(f"object {self.id}: sizes must be strictly positive")
        if self.position[2] < 0:
            raise ValueError(f"object {self.id}: z must be non-negative")


@dataclass(frozen=True)
class Scene:
    objects: tuple[SceneObject, ...]
    support: tuple[tuple[str, str], ...]  # (upper, lower) pairs
    image_dims: tuple[int, int] = DEFAULT_IMAGE_DIMS
    seed: int = 0

    def __post_init__(self):
        by_id = {o.id: o for o in self.objects}
        if len(by_id) != len(self.objects):
            raise ValueError("duplicate object ids")
        lower_of = {}
        for upper, lower in self.support:
            if upper not in by_id or lower not in by_id:
                raise ValueError(f"support pair ({upper}, {lower}) names unknown objects")
            if upper in lower_of:
                raise ValueError(f"object {upper} supported twice")
            lower_of[upper] = lower
            if by_id[upper].position[2] <= by_id[lower].position[2]:
                raise ValueError(f"supported object {upper} must sit above {lower}")
        if has_support_cycle(lower_of):
            raise ValueError("support pairs form a cycle")

    def object_map(self) -> dict[str, SceneObject]:
        return {o.id: o for o in self.objects}

    def object_ids(self) -> tuple[str, ...]:
        return tuple(sorted(o.id for o in self.objects))


@dataclass(frozen=True)
class NoiseConfig:
    """Perception noise channel plus per-episode attention state.

    ``base_flip_rate`` smooths the binary truth toward its opposite,
    ``logit_noise_sd`` jitters the confidence in logit space, and
    ``miscal_gamma`` sharpens (>1) or softens (<1) the emitted confidence
    without touching the label stream, so gamma = 1 is calibrated by
    construction.  ``look_gain`` / ``push_gain`` set the multiplicative
    uncertainty reduction per info action kind; a gain of 0 makes the
    action a no-op.

    ``focus`` carries the accumulated per-object noise residual from info
    actions (1.0 = untouched); ``cleared`` lists objects whose occlusion
    penalty has been pushed away.  With ``exact_reduction`` the residual is
    applied directly to the emitted uncertainty instead of to the noise
    parameters, making repeated observation shrink uncertainty by exactly
    (1 - gain) per application.
    """

    base_flip_rate: float = 0.0
    logit_noise_sd: float = 0.0
    miscal_gamma: float = 1.0
    look_gain: float = 0.3
    push_gain: float = 0.3
    exact_reduction: bool = False
    focus: tuple[tuple[str, float], ...] = ()
    cleared: tuple[str, ...] = ()

    def __post_init__(self):
        if not (0.0 <= self.base_flip_rate < 0.5):
            raise ValueError(f"base_flip_rate must lie in [0, 0.5), got {self.base_flip_rate}")
        if self.logit_noise_sd < 0:
            raise ValueError(f"logit_noise_sd must be non-negative, got {self.logit_noise_sd}")
        if self.miscal_gamma <= 0:
            raise ValueError(f"miscal_gamma must be positive, got {self.miscal_gamma}")
        for name, g in (("look_gain", self.look_gain), ("push_gain", self.push_gain)):
            if not (0.0 <= g < 1.0):
                raise ValueError(f"{name} must lie in [0, 1), got {g}")
        for obj, r in self.focus:
            if not (0.0 < r <= 1.0):
                raise ValueError(f"focus residual for {obj} must lie in (0, 1], got {r}")

    def gain_for(self, kind: str) -> float:
        if kind == LOOK_CLOSER:
            return self.look_gain
        if kind == PUSH_OBSTACLE:
            return self.push_gain
        raise ValueError(f"unknown info action kind {kind!r}")

    def residual_for(self, obj: str) -> float:
        return dict(self.focus).get(obj, 1.0)


def apply_info_action(cfg: NoiseConfig, kind: str, target: str) -> NoiseConfig:
    """Attention update after an information-gathering action on ``target``.

    Re-perceiving with the returned config shrinks the uncertainty of
    predicates that mention the target multiplicatively by (1 - gain);
    push_obstacle additionally clears the target's occlusion penalty.  A
    zero gain returns the config unchanged.
    """
    gain = cfg.gain_for(kind)
    if gain == 0.0:
        return cfg
    residuals = dict(cfg.focus)
    residuals[target] = residuals.get(target, 1.0) * (1.0 - gain)
    focus = tuple(sorted(residuals.items()))
    cleared = cfg.cleared
    if kind == PUSH_OBSTACLE and target not in cleared:
        cleared = tuple(sorted((*cleared, target)))
    return replace(cfg, focus=focus, cleared=cleared)


# ---------------------------------------------------------------------------
# scene generation


def _project_bbox(
    x: float, y: float, w: float, d: float, image_dims: tuple[int, int]
) -> tuple[float, float, float, float]:
    w_img, h_img = image_dims
    scale_x = w_img / (2 * WORLD_HALF_EXTENT)
    scale_y = h_img / (2 * WORLD_HALF_EXTENT)
    return (
        (x + WORLD_HALF_EXTENT) * scale_x,
        (y + WORLD_HALF_EXTENT) * scale_y,
        w * scale_x,
        d * scale_y,
    )


def check_scene_shape(n_objects: int, stack_bias: float) -> None:
    """Raise ValueError unless :func:`generate_scene` accepts these."""
    if not (3 <= n_objects <= 10):
        raise ValueError(f"n_objects must lie in [3, 10], got {n_objects}")
    if not (0.0 <= stack_bias <= 1.0):
        raise ValueError(f"stack_bias must lie in [0, 1], got {stack_bias}")


def generate_scene(
    n_objects: int,
    stack_bias: float = 0.4,
    seed: int = 0,
    image_dims: tuple[int, int] = DEFAULT_IMAGE_DIMS,
) -> Scene:
    """Seeded tabletop scene with optional stacking.

    The first object always lands on the table; each later object stacks
    onto a randomly chosen current stack top with probability
    ``stack_bias``, otherwise it gets a non-overlapping table spot.
    Deterministic for fixed (n_objects, stack_bias, seed).
    """
    check_scene_shape(n_objects, stack_bias)
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")

    rng = np.random.default_rng([int(seed), n_objects])
    objects: list[SceneObject] = []
    support: list[tuple[str, str]] = []
    covered: set[str] = set()  # objects with something on top

    for k in range(n_objects):
        oid = f"o{k}"
        w = float(rng.uniform(0.05, 0.09))
        h = float(rng.uniform(0.04, 0.08))
        d = float(rng.uniform(0.05, 0.09))
        tops = [o for o in objects if o.id not in covered]
        stack = k > 0 and tops and rng.uniform() < stack_bias
        if stack:
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
                    math.hypot(x - o.position[0], y - o.position[1]) >= 0.12
                    for o in objects
                ):
                    break
            z = h / 2
        objects.append(
            SceneObject(oid, (x, y, z), (w, h, d), _project_bbox(x, y, w, d, image_dims))
        )

    return Scene(tuple(objects), tuple(support), image_dims, int(seed))


# ---------------------------------------------------------------------------
# ground truth


def candidate_predicates(object_ids: Iterable[str]) -> tuple[GroundPredicate, ...]:
    """Every predicate perception scores for this object set, sorted."""
    ids = sorted(object_ids)
    preds: set[GroundPredicate] = set()
    for a in ids:
        preds.add(GroundPredicate(Relation.CLEAR, (a,)))
        for b in ids:
            if a == b:
                continue
            preds.add(GroundPredicate(Relation.ON, (a, b)))
            preds.add(GroundPredicate(Relation.LEFT_OF, (a, b)))
            preds.add(GroundPredicate(Relation.CLOSE_TO, (a, b)))
            preds.add(GroundPredicate(Relation.TOUCHING, (a, b)))
    return tuple(sorted(preds, key=GroundPredicate.sort_key))


def _surface_gap(a: SceneObject, b: SceneObject) -> float:
    """Largest per-axis face separation of two axis-aligned boxes."""
    gaps = []
    for axis, (sa, sb) in zip(
        range(3),
        (
            (a.size[0], b.size[0]),  # x extents
            (a.size[2], b.size[2]),  # y extents (depth)
            (a.size[1], b.size[1]),  # z extents (height)
        ),
    ):
        delta = abs(a.position[axis] - b.position[axis])
        gaps.append(delta - (sa + sb) / 2)
    return max(gaps)


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


def ground_truth_confidences(scene: Scene) -> ProbabilisticState:
    """Noiseless belief state: confidence 1 for true predicates, 0 otherwise."""
    truths = ground_truth_state(scene)
    return ProbabilisticState(
        {p: (1.0 if p in truths else 0.0) for p in candidate_predicates(scene.object_ids())}
    )


def iou_2d(
    box_a: tuple[float, float, float, float], box_b: tuple[float, float, float, float]
) -> float:
    """Intersection over union of two center-size pixel boxes."""
    ax, ay, aw, ah = box_a
    bx, by, bw, bh = box_b
    ix = min(ax + aw / 2, bx + bw / 2) - max(ax - aw / 2, bx - bw / 2)
    iy = min(ay + ah / 2, by + bh / 2) - max(ay - ah / 2, by - bh / 2)
    if ix <= 0 or iy <= 0:
        return 0.0
    inter = ix * iy
    union = aw * ah + bw * bh - inter
    return inter / union


def occluded_objects(scene: Scene) -> frozenset[str]:
    """Objects hidden under another box in the top-down view."""
    occluded = set()
    for a in scene.objects:
        for b in scene.objects:
            if a.id == b.id:
                continue
            if b.position[2] > a.position[2] and iou_2d(a.bbox2d, b.bbox2d) > OCCLUSION_IOU:
                occluded.add(a.id)
                break
    return frozenset(occluded)


# ---------------------------------------------------------------------------
# perception oracle


def _sigmoid(x: float) -> float:
    if x >= 0:
        return 1.0 / (1.0 + math.exp(-x))
    e = math.exp(x)
    return e / (1.0 + e)


def perceive_with_labels(
    scene: Scene, cfg: NoiseConfig, seed: int
) -> tuple[ProbabilisticState, dict[GroundPredicate, int]]:
    """Noisy observation plus the calibrated label stream.

    For each candidate predicate with truth t: smooth t toward its opposite
    by the flip rate, jitter in logit space, then optionally miscalibrate.
    The label is sampled from the pre-miscalibration confidence, which is
    what makes the gamma = 1 stream calibrated by construction.

    The underlying noise draws depend only on (scene, seed, predicate), not
    on the config, so re-perceiving under a sharper attention state refines
    the same observation instead of rolling new dice.
    """
    if seed < 0:
        raise ValueError(f"perception seed must be non-negative, got {seed}")
    truths = ground_truth_state(scene)
    occl = occluded_objects(scene) - set(cfg.cleared)
    conf: dict[GroundPredicate, float] = {}
    labels: dict[GroundPredicate, int] = {}
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
            p = t_soft  # sigmoid(logit(x)) == x; skip the roundtrip
        else:
            ts = min(max(t_soft, _TINY), 1.0 - _TINY)
            p = _sigmoid(math.log(ts / (1.0 - ts)) + sd * g)
        labels[pred] = 1 if label_draw < p else 0

        if cfg.miscal_gamma != 1.0:
            num = p**cfg.miscal_gamma
            p = num / (num + (1.0 - p) ** cfg.miscal_gamma)
        if cfg.exact_reduction and residual < 1.0:
            u = predicate_uncertainty(p) * residual
            p = 1.0 - u if p >= 0.5 else u
        conf[pred] = min(max(p, 0.0), 1.0)
    return ProbabilisticState(conf), labels


def perceive(scene: Scene, cfg: NoiseConfig, seed: int) -> ProbabilisticState:
    """Noisy observation of every candidate predicate (see perceive_with_labels)."""
    state, _ = perceive_with_labels(scene, cfg, seed)
    return state


def spatial_validate_on(
    positions: Mapping[str, tuple[float, float, float]],
    pred: GroundPredicate,
    p: float,
) -> float:
    """Geometric cross-check of an On confidence against estimated positions.

    A genuine support needs the upper center clearly above the lower
    (dz > 0.02 m) and nearly aligned in the plane (dxy < 0.15 m).  One
    violated constraint halves the confidence; both violated scales it by
    0.1.  Never increases confidence.
    """
    if pred.relation is not Relation.ON:
        raise ValueError(f"spatial validation applies to On predicates, got {pred}")
    if not (0.0 <= p <= 1.0):
        raise ValueError(f"confidence must lie in [0, 1], got {p}")
    a, b = pred.args
    try:
        xa, ya, za = positions[a]
        xb, yb, zb = positions[b]
    except KeyError as e:
        raise ValueError(f"position estimate missing for object {e.args[0]!r}") from e
    violations = 0
    if not (za - zb > SUPPORT_MIN_DZ):
        violations += 1
    if not (math.hypot(xa - xb, ya - yb) < SUPPORT_MAX_DXY):
        violations += 1
    if violations == 0:
        return p
    return p * (0.5 if violations == 1 else 0.1)


# ---------------------------------------------------------------------------
# relation thresholds


@dataclass(frozen=True)
class RelationThresholds:
    """Per-relation binarization cutoffs for turning confidences into labels."""

    on: float = 0.5
    left_of: float = 0.3
    close_to: float = 0.3
    touching: float = 0.3
    clear: float = 0.3

    def __post_init__(self):
        for name, tau in self.as_dict().items():
            if not (0.0 < tau < 1.0):
                raise ValueError(f"threshold for {name} must lie in (0, 1), got {tau}")

    def as_dict(self) -> dict[Relation, float]:
        return {
            Relation.ON: self.on,
            Relation.LEFT_OF: self.left_of,
            Relation.CLOSE_TO: self.close_to,
            Relation.TOUCHING: self.touching,
            Relation.CLEAR: self.clear,
        }

    def for_relation(self, rel: Relation) -> float:
        return self.as_dict()[rel]


def apply_relation_thresholds(
    state: ProbabilisticState, thresholds: RelationThresholds = RelationThresholds()
) -> frozenset[GroundPredicate]:
    """Predicates whose confidence reaches their relation's cutoff (p >= tau)."""
    return frozenset(
        pred
        for pred, p in state.items()
        if p >= thresholds.for_relation(pred.relation)
    )


DEFAULT_THRESHOLD_GRID = tuple(round(0.1 * k, 1) for k in range(1, 10))


@dataclass(frozen=True)
class ThresholdSearch:
    thresholds: RelationThresholds
    f1: dict[Relation, float]
    skipped: frozenset[Relation]


def _f1_at(confidences: np.ndarray, labels: np.ndarray, tau: float) -> float:
    predicted = confidences >= tau
    tp = int(np.sum(predicted & (labels == 1)))
    fp = int(np.sum(predicted & (labels == 0)))
    fn = int(np.sum(~predicted & (labels == 1)))
    if tp == 0:
        return 0.0
    precision = tp / (tp + fp)
    recall = tp / (tp + fn)
    return 2 * precision * recall / (precision + recall)


def grid_search_thresholds(
    batches: Mapping[Relation, tuple[Sequence[float], Sequence[int]]],
    grid: Sequence[float] = DEFAULT_THRESHOLD_GRID,
) -> ThresholdSearch:
    """Pick each relation's cutoff by maximizing F1 over a grid.

    Ties resolve to the smaller threshold.  Relations whose batch contains
    a single class cannot be scored and keep their default cutoff, reported
    in ``skipped``.
    """
    if not grid:
        raise ValueError("threshold grid must be non-empty")
    chosen: dict[Relation, float] = {}
    f1_by_rel: dict[Relation, float] = {}
    skipped: set[Relation] = set()
    defaults = RelationThresholds()
    for rel, (confs, labels) in batches.items():
        confs = np.asarray(confs, dtype=float)
        labels = np.asarray(labels, dtype=int)
        if confs.size == 0 or len(set(labels.tolist())) < 2:
            skipped.add(rel)
            continue
        best_tau, best_f1 = None, -1.0
        for tau in grid:
            score = _f1_at(confs, labels, float(tau))
            if score > best_f1 + 1e-12:
                best_tau, best_f1 = float(tau), score
        chosen[rel] = best_tau
        f1_by_rel[rel] = best_f1
    field_by_rel = {
        Relation.ON: "on",
        Relation.LEFT_OF: "left_of",
        Relation.CLOSE_TO: "close_to",
        Relation.TOUCHING: "touching",
        Relation.CLEAR: "clear",
    }
    kwargs = {field_by_rel[rel]: tau for rel, tau in chosen.items()}
    thresholds = replace(defaults, **kwargs)
    return ThresholdSearch(thresholds, f1_by_rel, frozenset(skipped))


# ---------------------------------------------------------------------------
# edge features


def edge_features(
    obj_i: SceneObject,
    obj_j: SceneObject,
    image_dims: tuple[int, int] = DEFAULT_IMAGE_DIMS,
) -> np.ndarray:
    """18-dimensional geometric feature vector for an object pair.

    Layout (0-based): 0-4 normalized 2D offsets (dx, dy, |dx|, |dy|,
    distance); 5-8 normalized box sizes (w_i, h_i, w_j, h_j); 9-10 log size
    ratios clipped to [0.1, 10]; 11-14 raw 3D deltas and distance in
    meters; 15 box IoU; 16 center distance over mean box diagonal; 17
    offset angle atan2(dy, dx) / pi.
    """
    w_img, h_img = image_dims
    if w_img <= 0 or h_img <= 0:
        raise ValueError(f"image dims must be positive, got {image_dims}")
    cxi, cyi, bwi, bhi = obj_i.bbox2d
    cxj, cyj, bwj, bhj = obj_j.bbox2d
    if min(bwi, bhi, bwj, bhj) <= 0:
        raise ValueError("zero-size boxes have no edge features")

    dx = (cxi - cxj) / w_img
    dy = (cyi - cyj) / h_img
    dist2d = math.hypot(dx, dy)
    wi, hi = bwi / w_img, bhi / h_img
    wj, hj = bwj / w_img, bhj / h_img
    log_w_ratio = math.log(max(0.1, min(10.0, bwi / bwj)))
    log_h_ratio = math.log(max(0.1, min(10.0, bhi / bhj)))
    d3 = tuple(obj_i.position[k] - obj_j.position[k] for k in range(3))
    dist3d = math.sqrt(sum(v * v for v in d3))
    iou = iou_2d(obj_i.bbox2d, obj_j.bbox2d)
    diag_i = math.hypot(wi, hi)
    diag_j = math.hypot(wj, hj)
    d_norm = dist2d / (0.5 * (diag_i + diag_j))
    angle = math.atan2(dy, dx) / math.pi

    return np.array(
        [
            dx,
            dy,
            abs(dx),
            abs(dy),
            dist2d,
            wi,
            hi,
            wj,
            hj,
            log_w_ratio,
            log_h_ratio,
            d3[0],
            d3[1],
            d3[2],
            dist3d,
            iou,
            d_norm,
            angle,
        ],
        dtype=float,
    )


# ---------------------------------------------------------------------------
# scene files


def scene_to_json(scene: Scene) -> str:
    doc = {
        "seed": scene.seed,
        "image_dims": list(scene.image_dims),
        "objects": [
            {
                "id": o.id,
                "position": list(o.position),
                "size": list(o.size),
                "bbox2d": list(o.bbox2d),
            }
            for o in scene.objects
        ],
        "support": [list(pair) for pair in scene.support],
    }
    return json.dumps(doc, indent=2)


def scene_from_json(text: str) -> Scene:
    try:
        doc = json.loads(text)
        objects = tuple(
            SceneObject(
                o["id"], tuple(o["position"]), tuple(o["size"]), tuple(o["bbox2d"])
            )
            for o in doc["objects"]
        )
        support = tuple((u, l) for u, l in doc["support"])
        return Scene(objects, support, tuple(doc["image_dims"]), int(doc["seed"]))
    except (KeyError, TypeError, json.JSONDecodeError) as e:
        raise ValueError(f"malformed scene document: {e}") from e


# ---------------------------------------------------------------------------
# execution environment


class PlanningEnvironment:
    """One episode's view of a scene: observation, attention, execution.

    The perception seed is fixed for the episode, so repeated observation
    refines the same noise draws (via the attention state in the config)
    rather than resampling the world.  Plan execution simulates the support
    graph under ground truth, failing on the first action whose
    precondition does not actually hold.
    """

    def __init__(self, scene: Scene, cfg: NoiseConfig, seed: int):
        self.scene = scene
        self.cfg = cfg
        self.seed = int(seed)
        self.info_actions: list[tuple[str, str]] = []

    def object_ids(self) -> tuple[str, ...]:
        return self.scene.object_ids()

    def observe(self) -> ProbabilisticState:
        return perceive(self.scene, self.cfg, self.seed)

    def occluded_ids(self) -> frozenset[str]:
        return occluded_objects(self.scene) - set(self.cfg.cleared)

    def apply_info(self, kind: str, target: str) -> None:
        self.cfg = apply_info_action(self.cfg, kind, target)
        self.info_actions.append((kind, target))

    def execute(self, plan, goal_predicates: Iterable[GroundPredicate]) -> bool:
        """Run a manipulation plan against ground truth; True iff goal reached."""
        lower_of = dict(self.scene.support)  # upper -> lower
        held: str | None = None

        def uppers_on(x: str) -> list[str]:
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
            if pred.relation is Relation.ON:
                a, b = pred.args
                if lower_of.get(a) != b:
                    return False
            elif pred.relation is Relation.CLEAR:
                (a,) = pred.args
                if a == held or uppers_on(a):
                    return False
            else:
                return False
        return True
