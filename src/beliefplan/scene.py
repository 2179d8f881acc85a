"""Synthetic tabletop scenes and a tunable noisy perception oracle.

The simulator stands in for a learned scene-to-predicates translator: it
generates seeded tabletop scenes with optional stacking, writes each
scene's truth vector over its predicate index from support pairs and
geometry, and emits per-predicate confidences through a configurable
noise channel (label smoothing, logit noise, miscalibration, occlusion).
Information-gathering actions, of the planner's two kinds, sharpen
subsequent observations of a chosen object by the channel's one gain.
Support pairs obey the core stacking rule, and plans execute with the
planner's own STRIPS actions over the scene's true support atoms, so the
blocks-world rules live in one place.  Everything is a pure function of
its inputs and seed.

What does not change between observations is computed once: one sorted
predicate index per object set, each scene's truth vector and occlusion
set, and each (perception seed, scene seed) pair's noise draws, which an
episode's re-observations reuse.  The caches are bounded.  The draws are
the stream of one ``default_rng([seed, scene seed, k])`` per predicate k,
but the seeded PCG64 states of all k are derived in one vectorized pass
and loaded in turn into one PCG64 that draws them.  NEP 19 fixes the two
reimplemented steps, SeedSequence hashing and PCG64 seeding, across numpy
releases.  It does not fix the layout of PCG64's state struct, which the
states are written into through ``bitgen.ctypes``: that write is checked
against the ``bitgen.state`` setter on first use, and the setter loads the
states wherever the check fails.

Geometry conventions: positions are box centers in meters, sizes are
(w, h, d) = extents along (x, z-up, y); the camera is a fixed top-down
orthographic projection of the [-0.5, 0.5] square meter workspace onto a
224 x 224 pixel frame, so bbox2d = (cx, cy, bw, bh) in pixels.
"""

from __future__ import annotations

import ctypes
import functools
import json
import math
from dataclasses import dataclass, replace
from typing import Iterable

import numpy as np

from beliefplan.core import (
    GroundPredicate,
    ProbabilisticState,
    Relation,
    predicate_uncertainties,
    support_map,
)
from beliefplan.planner import LOOK_CLOSER, PUSH_OBSTACLE, predicate_atom, support_atoms

DEFAULT_IMAGE_DIMS = (224, 224)
WORLD_HALF_EXTENT = 0.5  # meters; the projected workspace is [-0.5, 0.5]^2
CONTACT_EPS = 0.005  # surfaces closer than 5 mm count as touching
CLOSE_DIST = 0.15  # xy center distance below which CloseTo holds
OCCLUSION_IOU = 0.3

_TINY = 1e-12


@dataclass(frozen=True)
class SceneObject:
    id: str
    position: tuple[float, float, float]  # center (x, y, z), meters
    size: tuple[float, float, float]  # (w, h, d): x, z, y extents, meters

    def __post_init__(self):
        if any(s <= 0 for s in self.size):
            raise ValueError(f"object {self.id}: sizes must be strictly positive")
        if self.position[2] < 0:
            raise ValueError(f"object {self.id}: z must be non-negative")

    @property
    def bbox2d(self) -> tuple[float, float, float, float]:
        """The top-down camera's box (cx, cy, bw, bh), in pixels."""
        x, y, _ = self.position
        w, _, d = self.size
        w_img, h_img = DEFAULT_IMAGE_DIMS
        scale_x = w_img / (2 * WORLD_HALF_EXTENT)
        scale_y = h_img / (2 * WORLD_HALF_EXTENT)
        return (
            (x + WORLD_HALF_EXTENT) * scale_x,
            (y + WORLD_HALF_EXTENT) * scale_y,
            w * scale_x,
            d * scale_y,
        )


@dataclass(frozen=True)
class Scene:
    objects: tuple[SceneObject, ...]
    support: tuple[tuple[str, str], ...]  # (upper, lower) pairs
    seed: int = 0

    def __post_init__(self):
        if self.seed < 0:
            raise ValueError(f"scene seed must be non-negative, got {self.seed}")
        by_id = {o.id: o for o in self.objects}
        if len(by_id) != len(self.objects):
            raise ValueError("duplicate object ids")
        for upper, lower in self.support:
            if upper not in by_id or lower not in by_id:
                raise ValueError(f"support pair ({upper}, {lower}) names unknown objects")
        for upper, lower in support_map(self.support).items():
            if by_id[upper].position[2] <= by_id[lower].position[2]:
                raise ValueError(f"supported object {upper} must sit above {lower}")

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
    construction.  ``gain`` sets the multiplicative uncertainty reduction
    of one info action, of either kind; a gain of 0 makes every info
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
    gain: float = 0.3
    exact_reduction: bool = False
    focus: tuple[tuple[str, float], ...] = ()
    cleared: tuple[str, ...] = ()

    def __post_init__(self):
        if not (0.0 <= self.base_flip_rate < 0.5):
            raise ValueError(f"base_flip_rate must lie in [0, 0.5), got {self.base_flip_rate}")
        if not (0.0 <= self.logit_noise_sd < math.inf):  # NaN fails both comparisons
            raise ValueError(f"logit_noise_sd must be finite and >= 0, got {self.logit_noise_sd}")
        if not (0.0 < self.miscal_gamma < math.inf):
            raise ValueError(f"miscal_gamma must be finite and positive, got {self.miscal_gamma}")
        if not (0.0 <= self.gain < 1.0):
            raise ValueError(f"gain must lie in [0, 1), got {self.gain}")
        for obj, r in self.focus:
            if not (0.0 < r <= 1.0):
                raise ValueError(f"focus residual for {obj} must lie in (0, 1], got {r}")

    def residual_for(self, obj: str) -> float:
        return dict(self.focus).get(obj, 1.0)


def apply_info_action(cfg: NoiseConfig, kind: str, target: str) -> NoiseConfig:
    """Attention update after an information-gathering action on ``target``.

    Re-perceiving with the returned config shrinks the uncertainty of
    predicates that mention the target multiplicatively by (1 - gain);
    push_obstacle additionally clears the target's occlusion penalty.  A
    zero gain returns the config unchanged.
    """
    if kind not in (LOOK_CLOSER, PUSH_OBSTACLE):
        raise ValueError(f"unknown info action kind {kind!r}")
    if cfg.gain == 0.0:
        return cfg
    residuals = dict(cfg.focus)
    residuals[target] = residuals.get(target, 1.0) * (1.0 - cfg.gain)
    focus = tuple(sorted(residuals.items()))
    cleared = cfg.cleared
    if kind == PUSH_OBSTACLE and target not in cleared:
        cleared = tuple(sorted((*cleared, target)))
    return replace(cfg, focus=focus, cleared=cleared)


# ---------------------------------------------------------------------------
# scene generation


def check_scene_shape(n_objects: int, stack_bias: float) -> None:
    """Raise ValueError unless :func:`generate_scene` accepts these."""
    if not (3 <= n_objects <= 10):
        raise ValueError(f"n_objects must lie in [3, 10], got {n_objects}")
    if not (0.0 <= stack_bias <= 1.0):
        raise ValueError(f"stack_bias must lie in [0, 1], got {stack_bias}")


def generate_scene(n_objects: int, stack_bias: float = 0.4, seed: int = 0) -> Scene:
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
        objects.append(SceneObject(oid, (x, y, z), (w, h, d)))

    return Scene(tuple(objects), tuple(support), seed=int(seed))


# ---------------------------------------------------------------------------
# ground truth


@dataclass(frozen=True, eq=False)
class _PredicateIndex:
    """The candidate predicates of one sorted object tuple, built once."""

    ids: tuple[str, ...]
    preds: tuple[GroundPredicate, ...]  # sorted by GroundPredicate.sort_key
    first: np.ndarray  # position in ids of each predicate's first argument
    last: np.ndarray  # ... and of its last one (the same for Clear)
    slot: dict[tuple[Relation, int, int], int]  # (relation, first, last) -> position


@functools.lru_cache(maxsize=64)
def _predicate_index(ids: tuple[str, ...]) -> _PredicateIndex:
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
    ordered = tuple(sorted(preds, key=GroundPredicate.sort_key))
    at = {obj: k for k, obj in enumerate(ids)}
    first = [at[p.args[0]] for p in ordered]
    last = [at[p.args[-1]] for p in ordered]
    return _PredicateIndex(
        ids,
        ordered,
        np.array(first, dtype=np.intp),
        np.array(last, dtype=np.intp),
        {(p.relation, i, j): k for k, (p, i, j) in enumerate(zip(ordered, first, last))},
    )


def candidate_predicates(object_ids: Iterable[str]) -> tuple[GroundPredicate, ...]:
    """Every predicate perception scores for this object set, sorted."""
    return _predicate_index(tuple(sorted(set(object_ids)))).preds


def _surface_gap(a: SceneObject, b: SceneObject) -> float:
    """Largest per-axis face separation of two axis-aligned boxes."""
    (ax, ay, az), (bx, by, bz) = a.position, b.position
    (aw, ah, ad), (bw, bh, bd) = a.size, b.size  # sizes are (x, z, y) extents
    return max(
        abs(ax - bx) - (aw + bw) / 2,
        abs(ay - by) - (ad + bd) / 2,
        abs(az - bz) - (ah + bh) / 2,
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
    boxes = [(o.id, o.position[2], o.bbox2d) for o in scene.objects]
    return frozenset(
        a_id
        for a_id, a_z, a_box in boxes
        if any(b_z > a_z and iou_2d(a_box, b_box) > OCCLUSION_IOU for _, b_z, b_box in boxes)
    )


@functools.lru_cache(maxsize=8)
def _scene_facts(scene: Scene) -> tuple[_PredicateIndex, np.ndarray, frozenset[str]]:
    """A scene's predicate index, its truth vector written over that index
    from support pairs and geometry, and its occluded objects.

    The truths are On for each support pair, Clear where nothing rests on
    an object, Touching where the surfaces lie under ``CONTACT_EPS`` apart,
    CloseTo where the xy centers lie under ``CLOSE_DIST`` apart, and LeftOf
    where one box ends before the other begins along x.  Each is written as
    1.0 at its (relation, first, last) position key in the index.  Keyed on
    the whole scene, not its seed: hand-built scenes share seeds.
    """
    index = _predicate_index(scene.object_ids())
    at = {obj: k for k, obj in enumerate(index.ids)}
    by_id = scene.object_map()
    objs = [by_id[obj] for obj in index.ids]
    facts = [(Relation.ON, at[upper], at[lower]) for upper, lower in scene.support]
    has_upper = {at[lower] for _, lower in scene.support}
    left = [o.position[0] - o.size[0] / 2 for o in objs]
    right = [o.position[0] + o.size[0] / 2 for o in objs]
    for i, a in enumerate(objs):
        if i not in has_upper:
            facts.append((Relation.CLEAR, i, i))
        for j in range(i + 1, len(objs)):
            b = objs[j]
            if _surface_gap(a, b) < CONTACT_EPS:
                facts.append((Relation.TOUCHING, i, j))
            dxy = math.hypot(a.position[0] - b.position[0], a.position[1] - b.position[1])
            if dxy < CLOSE_DIST:
                facts.append((Relation.CLOSE_TO, i, j))
        facts += [
            (Relation.LEFT_OF, i, j) for j, lo in enumerate(left) if j != i and right[i] < lo
        ]
    truth = np.zeros(len(index.preds))
    truth[[index.slot[key] for key in facts]] = 1.0
    truth.flags.writeable = False
    return index, truth, occluded_objects(scene)


# ---------------------------------------------------------------------------
# perception oracle


# numpy's SeedSequence hashing (numpy/random/bit_generator.pyx) and PCG64
# seeding (pcg64_srandom_r) constants
_SS_POOL_SIZE = 4
_SS_INIT_A, _SS_MULT_A = 0x43B0D7E5, 0x931E8875
_SS_INIT_B, _SS_MULT_B = 0x8B51F9DD, 0x58F38DED
_SS_MIX_L, _SS_MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_PCG64_MULT_HI, _PCG64_MULT_LO = np.uint64(0x2360ED051FC65DA4), np.uint64(0x4385DF649FCCF645)
_MASK32 = 0xFFFFFFFF


def _uint32_words(n: int) -> list[int]:
    """A non-negative int as SeedSequence reads it: little-endian 32-bit
    words, [0] for 0."""
    words = [n & _MASK32]
    n >>= 32
    while n:
        words.append(n & _MASK32)
        n >>= 32
    return words


@functools.cache
def _hash_consts(init: int, mult: int, count: int) -> tuple[np.ndarray, np.ndarray]:
    """The read-only (xor, multiply) constant columns of ``count`` successive
    hashes, built once per argument triple."""
    consts = [init]
    for _ in range(count):
        consts.append(consts[-1] * mult & _MASK32)
    col = np.array(consts, dtype=np.uint32)[:, None]
    col.flags.writeable = False
    return col[:-1], col[1:]


def _hashmix(values: np.ndarray, xor: np.ndarray, mul: np.ndarray) -> np.ndarray:
    """SeedSequence's hashmix, one hash per row of constants."""
    values = (values ^ xor) * mul
    return values ^ (values >> 16)


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    out = _SS_MIX_L * x - _SS_MIX_R * y
    return out ^ (out >> 16)


def _seed_words(seed: int, scene_seed: int, n: int) -> np.ndarray:
    """``SeedSequence([seed, scene_seed, k]).generate_state(4, np.uint64)``
    for every k < n, as a (4, n) uint64 array.

    The hash constants do not depend on the data, so each step of the
    mixing runs once over all k: a row of the pool, or of the entropy,
    holds that word for every k.
    """
    prefix = _uint32_words(seed) + _uint32_words(scene_seed)
    n_words = len(prefix) + 1
    entropy = np.zeros((max(n_words, _SS_POOL_SIZE), n), dtype=np.uint32)
    entropy[: len(prefix)] = np.array(prefix, dtype=np.uint32)[:, None]
    entropy[len(prefix)] = np.arange(n, dtype=np.uint32)

    xor, mul = _hash_consts(_SS_INIT_A, _SS_MULT_A, _SS_POOL_SIZE * max(n_words, _SS_POOL_SIZE))
    pool = _hashmix(entropy[:_SS_POOL_SIZE], xor[:_SS_POOL_SIZE], mul[:_SS_POOL_SIZE])
    at = _SS_POOL_SIZE
    for src in range(_SS_POOL_SIZE):  # every pool word into every other one
        dst = [d for d in range(_SS_POOL_SIZE) if d != src]
        step = slice(at, at + len(dst))
        pool[dst] = _mix(pool[dst], _hashmix(pool[src], xor[step], mul[step]))
        at += len(dst)
    for src in range(_SS_POOL_SIZE, n_words):  # entropy past the pool into every word
        step = slice(at, at + _SS_POOL_SIZE)
        pool = _mix(pool, _hashmix(entropy[src], xor[step], mul[step]))
        at += _SS_POOL_SIZE

    # eight 32-bit output words, cycling through the pool; pairs make uint64s
    out_consts = _hash_consts(_SS_INIT_B, _SS_MULT_B, 2 * _SS_POOL_SIZE)
    state = _hashmix(pool[[0, 1, 2, 3, 0, 1, 2, 3]], *out_consts).astype(np.uint64)
    return state[0::2] | (state[1::2] << np.uint64(32))


def _mulhi64(a: np.ndarray, b: np.uint64) -> np.ndarray:
    """The high 64 bits of each 128-bit product a * b, from 32-bit halves."""
    a_lo, a_hi = a & _MASK32, a >> 32
    b_lo, b_hi = b & _MASK32, b >> 32
    lo_lo, hi_lo, lo_hi = a_lo * b_lo, a_hi * b_lo, a_lo * b_hi
    mid = (lo_lo >> 32) + (hi_lo & _MASK32) + (lo_hi & _MASK32)
    return a_hi * b_hi + (hi_lo >> 32) + (lo_hi >> 32) + (mid >> 32)


def _seeded_states(words: np.ndarray) -> np.ndarray:
    """PCG64's seeded state and increment for each column of
    :func:`_seed_words`, as an (n, 4) uint64 array of rows (state low,
    state high, increment low, increment high).

    PCG64 reads the words as the 128-bit initstate w0:w1 and initseq
    w2:w3 (high:low), sets inc = initseq << 1 | 1 and steps twice from 0:
    state = (inc + initstate) * MULT + inc, mod 2**128.  Here that runs
    over all columns at once in 64-bit limbs, with carries.
    """
    s_hi, s_lo, q_hi, q_lo = words
    inc_lo = (q_lo << 1) | 1
    inc_hi = (q_hi << 1) | (q_lo >> 63)
    t_lo = s_lo + inc_lo
    t_hi = s_hi + inc_hi + (t_lo < inc_lo)
    # t * MULT mod 2**128: the cross terms only reach the high limb
    p_lo = t_lo * _PCG64_MULT_LO
    p_hi = _mulhi64(t_lo, _PCG64_MULT_LO) + t_lo * _PCG64_MULT_HI + t_hi * _PCG64_MULT_LO
    lo = p_lo + inc_lo
    hi = p_hi + inc_hi + (lo < inc_lo)
    return np.stack([lo, hi, inc_lo, inc_hi], axis=1)


def _state_words(bitgen: np.random.PCG64) -> ctypes.Array:
    """The four uint64 words of ``bitgen``'s 32-byte ``pcg64_random_t``,
    which ``bitgen.ctypes.state_address`` reaches through a pointer."""
    struct = ctypes.c_void_p.from_address(bitgen.ctypes.state_address).value
    return (ctypes.c_uint64 * 4).from_address(struct)


def _state_dict(row: list[int]) -> dict:
    """The ``bitgen.state`` value of one row of :func:`_seeded_states`."""
    s_lo, s_hi, i_lo, i_hi = row
    state = {"state": s_hi << 64 | s_lo, "inc": i_hi << 64 | i_lo}
    return {"bit_generator": "PCG64", "state": state, "has_uint32": 0, "uinteger": 0}


@functools.cache
def _direct_write_ok() -> bool:
    """Whether a row of :func:`_seeded_states` written to
    :func:`_state_words` loads PCG64 as the ``bitgen.state`` setter does.

    NEP 19 does not fix numpy's internal ``pcg64_state``, so the layout is
    checked on the running numpy, once per process on first use, and
    nothing is written before it reads as expected.  On a generator this
    check makes, the pointer at ``state_address`` must stay put while the
    setter loads a few seeded states, and the four words behind it must
    read back each row the setter loaded.  Only then is each row written
    directly into a second generator, whose next raw words must match
    those of a third loaded by the setter.
    """
    rows = _seeded_states(_seed_words(2**64 + 3, 2**32, 4)).tolist()
    probe = np.random.PCG64(0)
    pointer = ctypes.c_void_p.from_address(probe.ctypes.state_address)
    targets = set()
    for row in rows:
        probe.state = _state_dict(row)
        targets.add(pointer.value)
    if len(targets) != 1 or not pointer.value:  # moves with the state: not a pointer
        return False
    for row in rows:
        probe.state = _state_dict(row)
        if _state_words(probe)[:] != row:
            return False

    direct, setter = np.random.PCG64(0), np.random.PCG64(0)
    words = _state_words(direct)
    for row in rows:
        words[:] = row
        setter.state = _state_dict(row)
        if direct.random_raw(4).tolist() != setter.random_raw(4).tolist():
            return False
    return True


@functools.cache
def _draw_generator() -> tuple[np.random.PCG64, np.random.Generator]:
    """The one PCG64, and its Generator, that :func:`_noise_draws` loads
    every seeded state into; made once per process."""
    bitgen = np.random.PCG64(0)
    return bitgen, np.random.Generator(bitgen)


@functools.lru_cache(maxsize=8)
def _noise_draws(seed: int, scene_seed: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The (g, label_draw) pair of candidate predicates 0..n-1, each pair the
    first normal and uniform of ``default_rng([seed, scene_seed, k])``.

    Instead of building n generators, the n seeded PCG64 states are derived
    in one vectorized pass (:func:`_seed_words`, :func:`_seeded_states`),
    and each is loaded in turn into one PCG64 (:func:`_draw_generator`),
    which then draws with numpy's own ``standard_normal()`` and
    ``random()`` (the bits of ``uniform()``).  NEP 19 fixes the two reimplemented steps,
    SeedSequence hashing and PCG64 seeding, across numpy releases, so the
    stream is that of the n generators.  It does not fix the layout of
    PCG64's state struct, which the states are written into directly:
    :func:`_direct_write_ok` checks that write on first use, and where it
    fails the ``bitgen.state`` setter loads each state instead.  This
    generator only ever draws 64-bit words, so its buffered 32-bit half
    stays empty and each write, covering the 128-bit state and increment,
    leaves nothing of the previous one.  Seeds must be non-negative.
    """
    bitgen, rng = _draw_generator()
    words = _state_words(bitgen) if _direct_write_ok() else None
    g = np.empty(n)
    label_draw = np.empty(n)
    for k, row in enumerate(_seeded_states(_seed_words(seed, scene_seed, n)).tolist()):
        if words is None:
            bitgen.state = _state_dict(row)
        else:
            words[:] = row
        g[k] = rng.standard_normal()
        label_draw[k] = rng.random()
    g.flags.writeable = False
    label_draw.flags.writeable = False
    return g, label_draw


def _sharpen(p: float, gamma: float) -> float:
    num = p**gamma
    return num / (num + (1.0 - p) ** gamma)


def perceive_with_labels(
    scene: Scene, cfg: NoiseConfig, seed: int
) -> tuple[ProbabilisticState, np.ndarray]:
    """Noisy observation plus the calibrated label stream.

    The labels are a 0/1 int vector aligned with the state's predicates.

    For each candidate predicate with truth t: smooth t toward its opposite
    by the flip rate, jitter in logit space, then optionally miscalibrate.
    The label is sampled from the pre-miscalibration confidence, which is
    what makes the gamma = 1 stream calibrated by construction.

    The underlying noise draws depend only on (scene, seed, predicate), not
    on the config, so re-perceiving under a sharper attention state refines
    the same observation instead of rolling new dice.  They are drawn on
    the first observation and reused by the next ones (a bounded cache), as
    are the scene's truths and occlusion set.  Logs, exponentials and powers
    are taken one float at a time with ``math`` and ``**``, whose results
    numpy's vector forms do not always match bit for bit.
    """
    if seed < 0:
        raise ValueError(f"perception seed must be non-negative, got {seed}")
    index, truth, occluded = _scene_facts(scene)
    g, label_draw = _noise_draws(int(seed), scene.seed, len(index.preds))

    residual_of = dict(cfg.focus)
    per_obj = np.array([residual_of.get(obj, 1.0) for obj in index.ids])
    residual = np.minimum(per_obj[index.first], per_obj[index.last])
    hidden = np.array([obj in occluded and obj not in cfg.cleared for obj in index.ids])
    occ_mult = np.where(hidden[index.first] | hidden[index.last], 2.0, 1.0)
    if cfg.exact_reduction:
        eta = cfg.base_flip_rate
        sd = cfg.logit_noise_sd * occ_mult
    else:
        eta = cfg.base_flip_rate * residual
        sd = cfg.logit_noise_sd * residual * occ_mult

    p = truth * (1.0 - eta) + (1.0 - truth) * eta
    noisy = sd != 0.0  # elsewhere sigmoid(logit(p)) == p; skip the roundtrip
    if noisy.any():
        ts = np.clip(p[noisy], _TINY, 1.0 - _TINY)
        x = np.array([math.log(v) for v in (ts / (1.0 - ts)).tolist()]) + sd[noisy] * g[noisy]
        # sigmoid(x) from e = exp(-|x|), which cannot overflow
        e = np.array([math.exp(v) for v in (-np.abs(x)).tolist()])
        p[noisy] = np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))
    labels = (label_draw < p).astype(int)

    if cfg.miscal_gamma != 1.0:
        p = np.array([_sharpen(q, cfg.miscal_gamma) for q in p.tolist()])
    if cfg.exact_reduction:
        u = predicate_uncertainties(p) * residual
        p = np.where(residual < 1.0, np.where(p >= 0.5, 1.0 - u, u), p)
    p = np.clip(p, 0.0, 1.0)
    return ProbabilisticState.from_arrays(index.preds, p), labels


def perceive(scene: Scene, cfg: NoiseConfig, seed: int) -> ProbabilisticState:
    """Noisy observation of every candidate predicate (see perceive_with_labels)."""
    state, _ = perceive_with_labels(scene, cfg, seed)
    return state


# ---------------------------------------------------------------------------
# scene files


def scene_to_json(scene: Scene) -> str:
    doc = {
        "seed": scene.seed,
        "image_dims": list(DEFAULT_IMAGE_DIMS),
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


# ---------------------------------------------------------------------------
# execution environment


class PlanningEnvironment:
    """One episode's view of a scene: observation, attention, execution.

    The perception seed is fixed for the episode, so repeated observation
    refines the same noise draws (via the attention state in the config)
    rather than resampling the world.  Plan execution applies the
    planner's own grounded actions to the true support atoms, failing on
    the first action whose preconditions do not actually hold.
    """

    def __init__(self, scene: Scene, cfg: NoiseConfig, seed: int):
        self.scene = scene
        self.cfg = cfg
        self.seed = int(seed)

    def object_ids(self) -> tuple[str, ...]:
        return self.scene.object_ids()

    def observe(self) -> ProbabilisticState:
        return perceive(self.scene, self.cfg, self.seed)

    def occluded_ids(self) -> frozenset[str]:
        return _scene_facts(self.scene)[2] - set(self.cfg.cleared)

    def apply_info(self, kind: str, target: str) -> None:
        self.cfg = apply_info_action(self.cfg, kind, target)

    def execute(self, plan, goal_predicates: Iterable[GroundPredicate]) -> bool:
        """Run a plan of the planner's own actions against ground truth.

        The scene's support pairs become STRIPS atoms; each action fails the
        run unless its preconditions hold, then deletes and adds its atoms.
        True iff every goal predicate's atom holds at the end.
        """
        atoms = support_atoms(dict(self.scene.support), self.scene.object_ids())
        for action in plan:
            if not action.preconditions <= atoms:
                return False
            atoms = (atoms - action.delete) | action.add
        return all(predicate_atom(pred) in atoms for pred in goal_predicates)
