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
episode's re-observations reuse.  The draws are the first normal and
uniform of one ``default_rng([seed, scene seed, k])`` per predicate k,
made in one vectorized pass for one pair on its first observation, or
for every pair of a batch of trials that asks first (``prefetch_draws``).
The draws of the last request that drew stay cached; the other caches
are bounded.  A column-wise SeedSequence and PCG64's seeding and output,
which NEP 19 fixes across numpy releases, give each generator's first
two 64-bit words; numpy's ziggurat fast path and ``random()`` turn them
into the two draws.  numpy is entered through one door, the
``bitgen.state`` setter: the ziggurat tables are read through it and
checked against ``Generator.standard_normal`` on first use, and numpy
itself draws from the seeded state it loads for a draw off the fast path
(about 1.5%), or for every draw if the tables fail.

Geometry conventions: positions are box centers in meters, sizes are
(w, h, d) = extents along (x, z-up, y); the camera is a fixed top-down
orthographic projection of the [-0.5, 0.5] square meter workspace onto a
224 x 224 pixel frame, so bbox2d = (cx, cy, bw, bh) in pixels.
"""

from __future__ import annotations

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
    next_residual,
    support_map,
)
from beliefplan.planner import LOOK_CLOSER, PUSH_OBSTACLE, predicate_atom, support_atoms

DEFAULT_IMAGE_DIMS = (224, 224)
WORLD_HALF_EXTENT = 0.5  # meters; the projected workspace is [-0.5, 0.5]^2
CONTACT_EPS = 0.005  # surfaces closer than 5 mm count as touching
CLOSE_DIST = 0.15  # xy center distance below which CloseTo holds
OCCLUSION_IOU = 0.3
# the camera's pixels per meter along x and y: 224 / 1.0, exactly
_PIXELS_PER_M_X = DEFAULT_IMAGE_DIMS[0] / (2 * WORLD_HALF_EXTENT)
_PIXELS_PER_M_Y = DEFAULT_IMAGE_DIMS[1] / (2 * WORLD_HALF_EXTENT)

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
        return (
            (x + WORLD_HALF_EXTENT) * _PIXELS_PER_M_X,
            (y + WORLD_HALF_EXTENT) * _PIXELS_PER_M_Y,
            w * _PIXELS_PER_M_X,
            d * _PIXELS_PER_M_Y,
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
    actions (1.0 = untouched), which scales the flip rate and logit noise
    of every predicate that mentions the object; ``cleared`` lists objects
    whose occlusion penalty has been pushed away.
    """

    base_flip_rate: float = 0.0
    logit_noise_sd: float = 0.0
    miscal_gamma: float = 1.0
    gain: float = 0.3
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


def apply_info_action(cfg: NoiseConfig, kind: str, target: str) -> NoiseConfig:
    """Attention update after an information-gathering action on ``target``.

    The target's residual steps by :func:`core.next_residual`, so that
    re-perceiving shrinks the uncertainty of predicates that mention it by
    about (1 - gain); push_obstacle also clears the target's occlusion
    penalty.  A zero gain returns the config unchanged.
    """
    if kind not in (LOOK_CLOSER, PUSH_OBSTACLE):
        raise ValueError(f"unknown info action kind {kind!r}")
    if cfg.gain == 0.0:
        return cfg
    residuals = dict(cfg.focus)
    residuals[target] = next_residual(residuals.get(target, 1.0), cfg.gain)
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


def predicate_count(n_objects: int) -> int:
    """How many predicates perception scores in a generated ``n_objects`` scene."""
    return len(candidate_predicates(f"o{k}" for k in range(n_objects)))


def _surface_gap(a: SceneObject, b: SceneObject) -> float:
    """Largest per-axis face separation of two axis-aligned boxes."""
    (ax, ay, az), (bx, by, bz) = a.position, b.position
    (aw, ah, ad), (bw, bh, bd) = a.size, b.size  # sizes are (x, z, y) extents
    return max(
        abs(ax - bx) - (aw + bw) / 2,
        abs(ay - by) - (ad + bd) / 2,
        abs(az - bz) - (ah + bh) / 2,
    )


def _box_edges(box: tuple[float, float, float, float]) -> tuple[float, float, float, float, float]:
    """A center-size pixel box's (left, right, bottom, top, area)."""
    x, y, w, h = box
    return x - w / 2, x + w / 2, y - h / 2, y + h / 2, w * h


def _edges_iou(a: tuple[float, ...], b: tuple[float, ...]) -> float:
    """Intersection over union of two boxes given by :func:`_box_edges`."""
    ix = min(a[1], b[1]) - max(a[0], b[0])
    iy = min(a[3], b[3]) - max(a[2], b[2])
    if ix <= 0 or iy <= 0:
        return 0.0
    inter = ix * iy
    return inter / (a[4] + b[4] - inter)


def occluded_objects(scene: Scene) -> frozenset[str]:
    """Objects hidden under another box in the top-down view."""
    boxes = [(o.id, o.position[2], _box_edges(o.bbox2d)) for o in scene.objects]
    return frozenset(
        a_id
        for a_id, a_z, a in boxes
        if any(b_z > a_z and _edges_iou(a, b) > OCCLUSION_IOU for _, b_z, b in boxes)
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
# seeding and stepping (numpy/random/src/pcg64) constants
_SS_POOL_SIZE = 4
_SS_INIT_A, _SS_MULT_A = 0x43B0D7E5, 0x931E8875
_SS_INIT_B, _SS_MULT_B = 0x8B51F9DD, 0x58F38DED
_SS_MIX_L, _SS_MIX_R = 0xCA01F9DD, 0x4973F715
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_PCG64_MULT_INV = pow(_PCG64_MULT, -1, 1 << 128)
_MASK32 = 0xFFFFFFFF
_MASK52 = (1 << 52) - 1
_MASK64 = (1 << 64) - 1
_MASK128 = (1 << 128) - 1


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
def _hash_consts(init: int, mult: int, count: int) -> np.ndarray:
    """The ``count + 1`` successive constants of ``count`` hashes, as a
    read-only uint32 column: hash i xors with constant i and multiplies by
    constant i + 1.  Built once per argument triple."""
    consts = [init]
    for _ in range(count):
        consts.append(consts[-1] * mult & _MASK32)
    col = np.array(consts, dtype=np.uint32)[:, None]
    col.flags.writeable = False
    return col


def _hashmix(values: np.ndarray, xor: np.ndarray, mul: np.ndarray) -> np.ndarray:
    """SeedSequence's hashmix of uint32 arrays, one hash per row of constants."""
    values = (values ^ xor) * mul
    return values ^ (values >> 16)


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    out = _SS_MIX_L * x - _SS_MIX_R * y
    return out ^ (out >> 16)


def _seed_words(entropy: np.ndarray, n_words: int) -> np.ndarray:
    """``SeedSequence(entropy[:, i].tolist()).generate_state(n_words,
    np.uint32)`` for every column i of a (words, N) uint32 entropy array, as
    an (n_words, N) uint32 array.

    A column is one sequence's entropy, its ints' 32-bit words in order, so
    every column has as many words.  Each of SeedSequence's pool hashes and
    mixes runs once over the whole array, and the hash constants, which do
    not depend on the data, are built once per word count.
    """
    n_entropy, n_columns = entropy.shape
    col = _hash_consts(_SS_INIT_A, _SS_MULT_A, _SS_POOL_SIZE * max(n_entropy, _SS_POOL_SIZE))
    pool = np.zeros((_SS_POOL_SIZE, n_columns), dtype=np.uint32)  # short entropy pads with 0s
    pool[: min(n_entropy, _SS_POOL_SIZE)] = entropy[:_SS_POOL_SIZE]
    pool = _hashmix(pool, col[:_SS_POOL_SIZE], col[1 : _SS_POOL_SIZE + 1])
    at = _SS_POOL_SIZE
    for src in range(_SS_POOL_SIZE):  # every pool word into every other one, in order
        h = _hashmix(pool[src], col[at : at + 3], col[at + 1 : at + 4])
        pool[:src] = _mix(pool[:src], h[:src])
        pool[src + 1 :] = _mix(pool[src + 1 :], h[src:])
        at += 3
    for word in entropy[_SS_POOL_SIZE:]:  # entropy past the pool into every word
        pool = _mix(pool, _hashmix(word, col[at : at + 4], col[at + 1 : at + 5]))
        at += _SS_POOL_SIZE
    out = _hash_consts(_SS_INIT_B, _SS_MULT_B, n_words)  # output words cycle through the pool
    return _hashmix(pool[np.arange(n_words) % _SS_POOL_SIZE], out[:-1], out[1:])


def _limbs(values: list[int]) -> tuple[np.ndarray, np.ndarray]:
    """The (low, high) 64-bit limbs of 128-bit ints, as uint64 columns."""
    lo = np.array([v & _MASK64 for v in values], dtype=np.uint64)[:, None]
    hi = np.array([v >> 64 for v in values], dtype=np.uint64)[:, None]
    return lo, hi


# PCG64 seeds s0 = (S + inc) M + inc from initstate S and increment
# inc = 2 initseq + 1, and steps s -> s M + inc before each output, so output
# j draws on s_j = S M^(j+1) + inc (1 + M + ... + M^(j+1)), mod 2**128.  With
# sum_j the bracket, that is S M^(j+1) + initseq (2 sum_j) + sum_j: for
# j = 1, 2, _STEP_MULT holds the multipliers of S (first row) and initseq
# (second), and _STEP_ADD the sums.
_STEP_SUMS = [sum(_PCG64_MULT**i for i in range(j + 2)) & _MASK128 for j in (1, 2)]
_STEP_MULT = tuple(
    limb.reshape(2, 2, 1)
    for limb in _limbs(
        [_PCG64_MULT**2 & _MASK128, _PCG64_MULT**3 & _MASK128]
        + [2 * s & _MASK128 for s in _STEP_SUMS]
    )
)
_STEP_ADD = _limbs(_STEP_SUMS)


def _mulhi64(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The high 64 bits of each 128-bit product a * b, from 32-bit halves;
    no partial sum overflows 64 bits."""
    a_lo, a_hi = a & _MASK32, a >> 32
    b_lo, b_hi = b & _MASK32, b >> 32
    t = a_hi * b_lo + (a_lo * b_lo >> 32)
    u = a_lo * b_hi + (t & _MASK32)
    return a_hi * b_hi + (t >> 32) + (u >> 32)


def _first_outputs(words: np.ndarray) -> np.ndarray:
    """PCG64's first two 64-bit outputs for each column of
    :func:`_seed_words`, as a (2, n) uint64 array.

    PCG64 reads the words as the 128-bit initstate w0:w1 and initseq w2:w3
    (high:low).  Each of the two states is a sum of two 128-bit products
    and a constant (see ``_STEP_MULT``): the four products run as one
    broadcast pass over 64-bit limbs, the sums carry, and each output is
    the XSL-RR of its state.
    """
    lo, hi = words[1::2, None], words[0::2, None]  # rows: initstate, initseq
    m_lo, m_hi = _STEP_MULT
    # each product mod 2**128: the cross terms only reach the high limb
    p_lo = lo * m_lo
    p_hi = _mulhi64(lo, m_lo) + lo * m_hi + hi * m_lo
    s_lo = p_lo[0] + p_lo[1]
    s_hi = p_hi[0] + p_hi[1] + (s_lo < p_lo[1])
    a_lo, a_hi = _STEP_ADD
    s_lo += a_lo
    s_hi += a_hi + (s_lo < a_lo)
    # XSL-RR: the xor of the two halves, rotated right by the top six bits
    x = s_hi ^ s_lo
    rot = s_hi >> 58
    return (x >> rot) | (x << (-rot & 63))


def _fast_normals(
    r: np.ndarray, tables: tuple[np.ndarray, np.ndarray]
) -> tuple[np.ndarray, np.ndarray]:
    """numpy's ziggurat fast path on 64-bit words: the normal of each, and
    whether the fast path accepts it.

    A word's low 8 bits pick the layer and bit 8 the sign; the next 52
    bits are rabs, and x = +-rabs * wi[layer] is accepted iff rabs <
    ki[layer].  ``tables`` holds +-wi and ki over the nine low bits.
    """
    w, k = tables
    at = r & 0x1FF
    rabs = (r >> 9) & _MASK52
    return rabs * w[at], rabs < k[at]


def _least_refused(accepts, guess: int) -> int:
    """The least rabs below 2**52 that ``accepts`` refuses, 2**52 if none,
    for an ``accepts`` true exactly below it: a bisection, which starts
    from [guess - 1, guess + 1] where ``accepts`` brackets it there."""
    top = 1 << 52
    lo, hi = guess - 1, guess + 1  # accepted at lo, refused at hi
    if not (0 <= lo < top and accepts(lo)):
        lo = -1
    if not (0 <= hi < top and not accepts(hi)):
        hi = top
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if accepts(mid) else (lo, mid)
    return hi


def _check_tables(tables: tuple[np.ndarray, np.ndarray]) -> bool:
    """Whether 32 seeded ``Generator``s draw what ``tables`` predict from
    their raw words: one normal per word up to the first word off the fast
    path, and then, from that word, a ``random()`` of (word >> 11) * 2**-53."""
    for seed in range(32):
        raw = np.random.PCG64(seed).random_raw(129)
        x, fast = _fast_normals(raw[:-1], tables)
        stop = len(x) if fast.all() else int(fast.argmin())
        rng = np.random.Generator(np.random.PCG64(seed))
        if rng.standard_normal(stop).tobytes() != x[:stop].tobytes():
            return False
        if rng.random() != (int(raw[stop]) >> 11) * 2.0**-53:
            return False
    return True


@functools.cache
def _draw_generator() -> np.random.Generator:
    """The one Generator that :func:`_generator_at` sets, made on first use."""
    return np.random.Generator(np.random.PCG64(0))


def _generator_at(state: int, inc: int) -> np.random.Generator:
    """:func:`_draw_generator` with its PCG64 set to a 128-bit state and
    increment through the ``bitgen.state`` setter: its next output is the
    XSL-RR of ``state * M + inc``."""
    rng = _draw_generator()
    rng.bit_generator.state = dict(
        bit_generator="PCG64", state={"state": state, "inc": inc}, has_uint32=0, uinteger=0
    )
    return rng


@functools.cache
def _ziggurat_tables() -> tuple[np.ndarray, np.ndarray] | None:
    """numpy's ziggurat tables for ``standard_normal``, in the form
    :func:`_fast_normals` reads, or None where they fail
    :func:`_check_tables`.  Read once per process, on first use.

    They come through the ``bitgen.state`` setter (:func:`_generator_at`).
    At inc = s - w M and state (w - inc) M^-1 mod 2**128, a PCG64 outputs a
    chosen word w and then s = 2**63 (| 1 for an odd inc where w is even),
    since XSL-RR outputs a state with a high half of 0 as it is.  A
    ``standard_normal()`` from there draws w, then, off the fast path, a
    ``random()`` of 0.5 from s; the state it leaves shows how many words it
    took.  At rabs = 1 it returns wi[layer] if it takes at most those two
    (only w in layer 0, whose other exit is the tail).  ki[layer] is the
    least rabs whose draw takes more than w, searched from wi[layer - 1] /
    wi[layer] * 2**52 (layer -1 is 255): ki equals that or exceeds it by one
    in every layer but layer 1, where ki is 0.
    """

    def draw(word: int) -> tuple[float, int]:
        second = 1 << 63 | (~word & 1)
        inc = (second - word * _PCG64_MULT) & _MASK128
        rng = _generator_at((word - inc) * _PCG64_MULT_INV & _MASK128, inc)
        x = rng.standard_normal()
        return x, {word: 1, second: 2}.get(rng.bit_generator.state["state"]["state"], 3)

    wi = []
    for layer in range(256):
        x, taken = draw(layer | 1 << 9)
        if taken > (1 if layer == 0 else 2) or not x > 0.0:
            return None
        wi.append(x)
    guess = [int(wi[k - 1] / wi[k] * 2**52) for k in range(256)]
    ki = [_least_refused(lambda r: draw(k | r << 9)[1] == 1, guess[k]) for k in range(256)]
    tables = (np.array(wi + [-x for x in wi]), np.array(ki + ki, dtype=np.uint64))
    return tables if _check_tables(tables) else None


# The draws of the last request that drew: one observation's, or one
# batch's, which its units then read back.
_draws: dict[tuple[int, int, int], tuple[np.ndarray, np.ndarray]] = {}


def _draw_pass(keys: list[tuple[int, int, int]]) -> dict:
    """The draws of each (perception seed, scene seed, n) key from one pass,
    whose keys, one observation's or one batch's, share n and have seeds of
    as many 32-bit words in all (ValueError otherwise).  Key i's predicate k
    is entropy column i * n + k: its seed words, repeated, over k, tiled."""
    words = [_uint32_words(seed) + _uint32_words(scene_seed) for seed, scene_seed, _ in keys]
    if len({n for _, _, n in keys}) != 1 or len({len(w) for w in words}) != 1:
        raise ValueError("one draw pass needs keys of one n whose seeds take as many words")
    n = keys[0][2]
    total = len(keys) * n
    entropy = np.empty((len(words[0]) + 1, total), dtype=np.uint32)
    entropy[:-1] = np.repeat(np.array(words, dtype=np.uint32).T, n, axis=1)
    entropy[-1] = np.tile(np.arange(n), len(keys))
    words = _seed_words(entropy, 2 * _SS_POOL_SIZE).astype(np.uint64)
    words = words[0::2] | words[1::2] << 32  # pairs of 32-bit words, low first, make uint64s
    tables = _ziggurat_tables()
    if tables is None:
        g, label_draw = np.empty(total), np.empty(total)
        slow = range(total)
    else:
        r = _first_outputs(words)
        g, fast = _fast_normals(r[0], tables)
        label_draw = (r[1] >> 11) * 2.0**-53
        slow = np.flatnonzero(~fast).tolist()
    for k, (w0, w1, w2, w3) in zip(slow, words[:, slow].T.tolist()):
        inc = (w2 << 65 | w3 << 1 | 1) & _MASK128  # initstate w0:w1, initseq w2:w3
        rng = _generator_at(((w0 << 64 | w1) + inc) * _PCG64_MULT + inc & _MASK128, inc)
        g[k] = rng.standard_normal()
        label_draw[k] = rng.random()
    g.flags.writeable = False
    label_draw.flags.writeable = False
    return dict(zip(keys, zip(g.reshape(-1, n), label_draw.reshape(-1, n))))


def _noise_draws(keys: list[tuple[int, int, int]]) -> list[tuple[np.ndarray, np.ndarray]]:
    """The (g, label_draw) pair of each (perception seed, scene seed, n) key:
    for each candidate predicate k < n, the first normal and uniform of
    ``default_rng([perception seed, scene seed, k])``.

    Keys not in the cache are drawn together in one :func:`_draw_pass`.  A
    pass derives each generator's first two 64-bit outputs
    (:func:`_seed_words`, :func:`_first_outputs`); NEP 19 fixes what it
    reimplements, SeedSequence hashing and PCG64 seeding and output, across
    numpy releases.  The normal comes from the first output by numpy's
    ziggurat fast path (:func:`_fast_normals`), the uniform from the second
    as ``random()`` makes it.  numpy is entered through one door, the
    ``bitgen.state`` setter (:func:`_generator_at`): it reads the ziggurat
    tables, checked on first use (:func:`_ziggurat_tables`), and loads the
    seeded state from which numpy itself makes each draw off the fast path,
    or every draw if the tables fail.  A request that draws replaces the
    cache with its keys' draws, so later observations of one pair, and the
    units of the batch that asked first, draw nothing.  Seeds must be
    non-negative; the arrays are read-only.
    """
    missing = [key for key in dict.fromkeys(keys) if key not in _draws]
    if missing:
        drawn = {key: _draws[key] for key in keys if key in _draws} | _draw_pass(missing)
        _draws.clear()
        _draws.update(drawn)
    return [_draws[key] for key in keys]


def prefetch_draws(n_objects: int, trials: Iterable[tuple[int, int]]) -> None:
    """Draw in one pass the first observations of trials, each a (scene
    seed, perception seed) of a generated ``n_objects``-object scene, which
    then find their draws cached until the next request that draws."""
    n = predicate_count(n_objects)
    _noise_draws([(seed, scene_seed, n) for scene_seed, seed in trials])


def _sharpen(p: float, gamma: float) -> float:
    """p**gamma / (p**gamma + (1 - p)**gamma).  Where that sum is subnormal
    or 0.0, the same value as the sigmoid of gamma times p's log-odds."""
    num = p**gamma
    total = num + (1.0 - p) ** gamma
    if total >= 2.0**-1022:
        return num / total
    x = gamma * (math.log(p) - math.log1p(-p))
    e = math.exp(-abs(x))  # sigmoid(x) from e = exp(-|x|), which cannot overflow
    return 1.0 / (1.0 + e) if x >= 0 else e / (1.0 + e)


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
    the first observation, unless a batch of trials asked for them first,
    and reused by the next ones until another pair draws, as are the
    scene's truths and occlusion set (bounded caches).  Logs, exponentials
    and powers are taken one float at a time with ``math`` and ``**``,
    whose results numpy's vector forms do not always match bit for bit;
    the log once per distinct odds value.
    """
    if seed < 0:
        raise ValueError(f"perception seed must be non-negative, got {seed}")
    index, truth, occluded = _scene_facts(scene)
    g, label_draw = _noise_draws([(int(seed), scene.seed, len(index.preds))])[0]

    residual_of = dict(cfg.focus)
    per_obj = np.array([residual_of.get(obj, 1.0) for obj in index.ids])
    residual = np.minimum(per_obj[index.first], per_obj[index.last])
    hidden = np.array([obj in occluded and obj not in cfg.cleared for obj in index.ids])
    occ_mult = np.where(hidden[index.first] | hidden[index.last], 2.0, 1.0)
    eta = cfg.base_flip_rate * residual
    sd = cfg.logit_noise_sd * residual * occ_mult

    p = truth * (1.0 - eta) + (1.0 - truth) * eta
    noisy = sd != 0.0  # elsewhere sigmoid(logit(p)) == p; skip the roundtrip
    if noisy.any():
        ts = np.clip(p[noisy], _TINY, 1.0 - _TINY)
        odds = (ts / (1.0 - ts)).tolist()  # a few distinct values: one per residual level
        log_of = {v: math.log(v) for v in set(odds)}
        x = np.fromiter(map(log_of.__getitem__, odds), float, len(odds)) + sd[noisy] * g[noisy]
        # sigmoid(x) from e = exp(-|x|), which cannot overflow
        e = np.fromiter(map(math.exp, (-np.abs(x)).tolist()), float, len(x))
        p[noisy] = np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))
    labels = (label_draw < p).astype(int)

    if cfg.miscal_gamma != 1.0:
        p = np.array([_sharpen(q, cfg.miscal_gamma) for q in p.tolist()])
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
