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
predicate index per object set, and each trial's world, keyed on its
(scene, perception seed): the scene's truths and occlusion set and the
trial's noise draws, which an episode's re-observations reuse.  One
module cache keeps the worlds of the last request that computed any, and
one door, ``prefetch_trials``, fills it: a request with any trial missing
runs one vectorized pass over its scenes' (B, n) position and size arrays
and one draw pass over its noise keys, and replaces the cache; a request
whose trials are all cached computes nothing.  A harness batch is one
request, and an observation of a trial outside the last one is a request
of one.  Scenes are keyed whole, since hand-built scenes share seeds.
The draws are the first normal and uniform of one
``default_rng([seed, scene seed, k])`` per predicate k.  A column-wise
SeedSequence and PCG64's seeding, step and output, which NEP 19 fixes
across numpy releases, give each generator's first two 64-bit words;
numpy's ziggurat fast path and ``random()`` turn them into the two draws.
numpy is entered through one door, the ``bitgen.state`` setter: the
ziggurat tables are read through it and checked against
``Generator.standard_normal`` on first use, and numpy itself draws from
the same seeded state it loads for a draw off the fast path (about 1.5%),
or for every draw if the tables fail.

Geometry conventions: positions are box centers in meters, sizes are
(w, h, d) = extents along (x, z-up, y); the camera is a fixed top-down
orthographic projection of the [-0.5, 0.5] square meter workspace onto a
224 x 224 pixel frame, so bbox2d = (cx, cy, bw, bh) in pixels.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass
from typing import Collection, Mapping, Sequence

import numpy as np

from beliefplan.core import (
    GroundPredicate,
    PredicateIndex,
    ProbabilisticState,
    Relation,
    next_residual,
    predicate_index,
    support_map,
)
from beliefplan.planner import LOOK_CLOSER, PUSH_OBSTACLE, Atom, support_atoms

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
    """Perception noise channel, with no episode state.

    ``base_flip_rate`` smooths the binary truth toward its opposite,
    ``logit_noise_sd`` jitters the confidence in logit space, and
    ``miscal_gamma`` sharpens (>1) or softens (<1) the emitted confidence
    without touching the label stream, so gamma = 1 is calibrated by
    construction.  ``gain`` sets the multiplicative uncertainty reduction
    of one info action, of either kind; a gain of 0 makes every info
    action a no-op.
    """

    base_flip_rate: float = 0.0
    logit_noise_sd: float = 0.0
    miscal_gamma: float = 1.0
    gain: float = 0.3

    def __post_init__(self):
        if not (0.0 <= self.base_flip_rate < 0.5):
            raise ValueError(f"base_flip_rate must lie in [0, 0.5), got {self.base_flip_rate}")
        if not (0.0 <= self.logit_noise_sd < math.inf):  # NaN fails both comparisons
            raise ValueError(f"logit_noise_sd must be finite and >= 0, got {self.logit_noise_sd}")
        if not (0.0 < self.miscal_gamma < math.inf):
            raise ValueError(f"miscal_gamma must be finite and positive, got {self.miscal_gamma}")
        if not (0.0 <= self.gain < 1.0):
            raise ValueError(f"gain must lie in [0, 1), got {self.gain}")


# ---------------------------------------------------------------------------
# scene generation


def check_scene_shape(n_objects: int, stack_bias: float) -> None:
    """Raise ValueError unless :func:`generate_scene` accepts these."""
    if not (3 <= n_objects <= 10):
        raise ValueError(f"n_objects must lie in [3, 10], got {n_objects}")
    if not (0.0 <= stack_bias <= 1.0):
        raise ValueError(f"stack_bias must lie in [0, 1], got {stack_bias}")


def _uniform(rng: np.random.Generator, a: float, b: float) -> float:
    """``rng.uniform(a, b)``'s value, which numpy computes as a + (b - a) * random()."""
    return a + (b - a) * rng.random()


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
        w = _uniform(rng, 0.05, 0.09)
        h = _uniform(rng, 0.04, 0.08)
        d = _uniform(rng, 0.05, 0.09)
        tops = [o for o in objects if o.id not in covered]
        stack = k > 0 and tops and rng.random() < stack_bias
        if stack:
            base = tops[int(rng.integers(len(tops)))]
            x = base.position[0] + _uniform(rng, -0.005, 0.005)
            y = base.position[1] + _uniform(rng, -0.005, 0.005)
            z = base.position[2] + base.size[1] / 2 + h / 2
            support.append((oid, base.id))
            covered.add(base.id)
        else:
            x = y = 0.0
            for _ in range(500):
                x = _uniform(rng, -0.3, 0.3)
                y = _uniform(rng, -0.3, 0.3)
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


@functools.lru_cache(maxsize=64)
def _predicate_index(ids: tuple[str, ...]) -> PredicateIndex:
    """The index of the candidate predicates of one sorted object tuple."""
    binary = (Relation.ON, Relation.LEFT_OF, Relation.CLOSE_TO, Relation.TOUCHING)
    return predicate_index(
        [GroundPredicate(Relation.CLEAR, (a,)) for a in ids]
        + [GroundPredicate(rel, (a, b)) for a in ids for b in ids if a != b for rel in binary]
    )


def predicate_count(n_objects: int) -> int:
    """How many predicates perception scores in a generated ``n_objects`` scene."""
    return len(_predicate_index(tuple(sorted(f"o{k}" for k in range(n_objects)))).preds)


_SceneFacts = tuple[PredicateIndex, np.ndarray, frozenset[str]]


def _truth_pass(scenes: list[Scene]) -> dict[Scene, _SceneFacts]:
    """Each scene's predicate index, its truth vector written over that
    index from support pairs and geometry, and its occluded objects, from
    one pass over the (B, n) position and size arrays of scenes of one
    object set (ValueError otherwise).

    The truths are On for each support pair, Clear where nothing rests on
    an object, Touching where the largest per-axis face separation is under
    ``CONTACT_EPS``, CloseTo where the xy centers lie under ``CLOSE_DIST``
    apart, and LeftOf where one box ends before the other begins along x;
    each is 1.0 at its position in the index.  A relation's object pairs
    are the index's ``first`` and ``last`` at its ``by_relation``
    positions.  The Clear writes take ``by_relation[Relation.CLEAR][i]`` to
    be Clear(``ids[i]``), which holds because :func:`_predicate_index`
    gives every object a Clear.  An object is occluded where a higher box's
    top-down pixel box overlaps its own by an IoU above ``OCCLUSION_IOU``.
    The center distance is ``math.hypot``'s, one pair at a time:
    ``np.hypot`` differs from it in the last bit on about 0.6% of pairs.
    The truth vectors are read-only.
    """
    ids = scenes[0].object_ids()
    if any(scene.object_ids() != ids for scene in scenes):
        raise ValueError("one truth pass needs scenes of one object set")
    index = _predicate_index(ids)
    layout = {rel: (index.first[k], index.last[k], k) for rel, k in index.by_relation.items()}
    geo = np.array(
        [[(*o.position, *o.size) for o in map(scene.object_map().__getitem__, ids)]
         for scene in scenes],
        dtype=float,
    ).reshape(len(scenes), len(ids), 6)
    pos, ext = geo[..., :3], geo[..., [3, 5, 4]]  # sizes are (x, z, y) extents
    x, y, z, w, d = (geo[..., k] for k in (0, 1, 2, 3, 5))

    truth = np.zeros((len(scenes), len(index.preds)))
    i, j, touching = layout[Relation.TOUCHING]
    gap = (np.abs(pos[:, i] - pos[:, j]) - (ext[:, i] + ext[:, j]) / 2).max(axis=-1)
    truth[:, touching] = gap < CONTACT_EPS
    i, j, close = layout[Relation.CLOSE_TO]
    dx, dy = x[:, i] - x[:, j], y[:, i] - y[:, j]
    dxy = np.fromiter(map(math.hypot, dx.ravel().tolist(), dy.ravel().tolist()), float, dx.size)
    truth[:, close] = dxy.reshape(dx.shape) < CLOSE_DIST
    i, j, left_of = layout[Relation.LEFT_OF]
    truth[:, left_of] = (x + w / 2)[:, i] < (x - w / 2)[:, j]
    clear = layout[Relation.CLEAR][2]
    truth[:, clear] = 1.0
    at = {obj: k for k, obj in enumerate(ids)}
    for row, scene in zip(truth, scenes):
        for upper, lower in scene.support:
            row[index.slot[Relation.ON, at[upper], at[lower]]] = 1.0
            row[clear[at[lower]]] = 0.0
    truth.flags.writeable = False

    # the camera's pixel boxes, then each (lower a, higher b) pair's overlap
    cx, cy = (x + WORLD_HALF_EXTENT) * _PIXELS_PER_M_X, (y + WORLD_HALF_EXTENT) * _PIXELS_PER_M_Y
    bw, bh = w * _PIXELS_PER_M_X, d * _PIXELS_PER_M_Y

    def overlap(center: np.ndarray, width: np.ndarray) -> np.ndarray:
        lo, hi = center - width / 2, center + width / 2
        inside = np.minimum(hi[:, :, None], hi[:, None]) - np.maximum(lo[:, :, None], lo[:, None])
        return np.maximum(inside, 0.0)

    area = bw * bh
    inter = overlap(cx, bw) * overlap(cy, bh)
    iou = inter / (area[:, :, None] + area[:, None] - inter)
    hidden = ((z[:, None] > z[:, :, None]) & (iou > OCCLUSION_IOU)).any(axis=2).tolist()
    return {
        scene: (index, row, frozenset(obj for obj, h in zip(ids, hid) if h))
        for scene, row, hid in zip(scenes, truth, hidden)
    }


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
    words, [0] for 0.  A negative int raises ValueError."""
    if n < 0:
        raise ValueError(f"seed must be non-negative, got {n}")
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


def seed_sequence_words(entropies: Sequence[Sequence[int]], n_words: int) -> np.ndarray:
    """``SeedSequence(entropy).generate_state(n_words, np.uint32)`` of each
    entropy, a sequence of non-negative ints, as an (N, n_words) uint32
    array from one :func:`_seed_words` pass.  The entropies must take as
    many 32-bit words each (ValueError otherwise)."""
    words = [[w for n in entropy for w in _uint32_words(n)] for entropy in entropies]
    if len({len(w) for w in words}) != 1:
        raise ValueError("one seed pass needs entropies of as many 32-bit words")
    return _seed_words(np.array(words, dtype=np.uint32).T, n_words).T


_U128 = tuple[np.ndarray, np.ndarray]  # 128-bit ints as (low, high) uint64 limbs
_PCG64_MULT_LIMBS = np.array([_PCG64_MULT & _MASK64, _PCG64_MULT >> 64], dtype=np.uint64)


def _mulhi64(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The high 64 bits of each 128-bit product a * b, from 32-bit halves;
    no partial sum overflows 64 bits."""
    a_lo, a_hi = a & _MASK32, a >> 32
    b_lo, b_hi = b & _MASK32, b >> 32
    t = a_hi * b_lo + (a_lo * b_lo >> 32)
    u = a_lo * b_hi + (t & _MASK32)
    return a_hi * b_hi + (t >> 32) + (u >> 32)


def _step(state: _U128, inc: _U128) -> _U128:
    """PCG64's step, state * M + inc mod 2**128: the product's cross terms
    only reach the high limb, and the low limbs' sum carries into it."""
    (lo, hi), (m_lo, m_hi) = state, _PCG64_MULT_LIMBS
    out = lo * m_lo + inc[0]
    return out, _mulhi64(lo, m_lo) + lo * m_hi + hi * m_lo + inc[1] + (out < inc[0])


def _seeded(words: np.ndarray) -> tuple[_U128, _U128]:
    """Each column's PCG64 state and increment as numpy's ``pcg64.h`` seeds
    them from the four uint64 rows of :func:`_seed_words`: initstate w0:w1
    and initseq w2:w3 (high:low) give inc = 2 initseq + 1 and the state
    (initstate + inc) M + inc, which the first output steps."""
    w0, w1, w2, w3 = words
    inc = (w3 << 1 | 1, w2 << 1 | w3 >> 63)
    lo = w1 + inc[0]
    return _step((lo, w0 + inc[1] + (lo < inc[0])), inc), inc


def _first_outputs(state: _U128, inc: _U128) -> np.ndarray:
    """PCG64's first two 64-bit outputs from each column of a
    :func:`_seeded` state and increment, as a (2, n) uint64 array.  Each
    output steps the state and takes its XSL-RR: the xor of its two halves,
    rotated right by its top six bits."""
    first = _step(state, inc)
    lo, hi = map(np.stack, zip(first, _step(first, inc)))
    x = hi ^ lo
    rot = hi >> 58
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


def _draw_pass(keys: list[tuple[int, int, int]]) -> dict:
    """The read-only (g, label_draw) of each (perception seed, scene seed, n)
    key: for each k < n, the first normal and uniform of ``default_rng([
    perception seed, scene seed, k])``.  The keys share n and have
    non-negative seeds of as many 32-bit words in all (ValueError
    otherwise).  Key i's predicate k is entropy column i * n + k: its seed
    words, repeated, over k, tiled.  Both the fast path and numpy's draws
    off it read one :func:`_seeded`."""
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
    state, inc = _seeded(words)
    tables = _ziggurat_tables()
    if tables is None:
        g, label_draw = np.empty(total), np.empty(total)
        slow = range(total)
    else:
        r = _first_outputs(state, inc)
        g, fast = _fast_normals(r[0], tables)
        label_draw = (r[1] >> 11) * 2.0**-53
        slow = np.flatnonzero(~fast).tolist()
    limbs = np.array((*state, *inc))[:, slow].T.tolist()
    for k, (s_lo, s_hi, inc_lo, inc_hi) in zip(slow, limbs):
        rng = _generator_at(s_hi << 64 | s_lo, inc_hi << 64 | inc_lo)
        g[k] = rng.standard_normal()
        label_draw[k] = rng.random()
    g.flags.writeable = False
    label_draw.flags.writeable = False
    return dict(zip(keys, zip(g.reshape(-1, n), label_draw.reshape(-1, n))))


# a trial's predicate index, truth vector, occluded objects, g and label_draw
_World = tuple[PredicateIndex, np.ndarray, frozenset[str], np.ndarray, np.ndarray]

# The worlds of the last request that computed any, keyed on (scene,
# perception seed): one observation's trial, or one batch's trials.
_worlds: dict[tuple[Scene, int], _World] = {}


def prefetch_trials(trials: Sequence[tuple[Scene, int]]) -> list[_World]:
    """The world of each trial, a (scene, perception seed): its scene's
    :func:`_truth_pass` facts and its :func:`_draw_pass` noise draws.

    A request whose trials are all cached computes nothing; one with any
    trial missing runs one truth pass over its distinct scenes and one draw
    pass over its distinct noise keys, and replaces the cache.  The scenes
    must share one object set, and the perception seeds must be
    non-negative and, within one request, take as many 32-bit words (each
    below 2**32, say); ValueError otherwise, and the cache stays."""
    keys = [(scene, int(seed)) for scene, seed in trials]
    try:
        return [_worlds[key] for key in keys]
    except KeyError:
        facts = _truth_pass(list(dict.fromkeys(scene for scene, _ in keys)))
    n = len(facts[keys[0][0]][0].preds)  # one object set, so one index
    draws = _draw_pass(list(dict.fromkeys((seed, scene.seed, n) for scene, seed in keys)))
    worlds = [facts[scene] + draws[seed, scene.seed, n] for scene, seed in keys]
    _worlds.clear()
    _worlds.update(zip(keys, worlds))
    return worlds


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
    scene: Scene, cfg: NoiseConfig, seed: int,
    residual: Mapping[str, float] | None = None, cleared: Collection[str] = (),
) -> tuple[ProbabilisticState, np.ndarray]:
    """Noisy observation plus the calibrated label stream.

    The labels are a 0/1 int vector aligned with the state's predicates.

    For each candidate predicate with truth t: smooth t toward its opposite
    by the flip rate, jitter in logit space, then optionally miscalibrate.
    The label is sampled from the pre-miscalibration confidence, which is
    what makes the gamma = 1 stream calibrated by construction.

    Attention scales a predicate's flip rate and logit noise by the least
    ``residual`` of its objects, each in (0, 1] (1.0 when absent), and
    spares the objects in ``cleared`` the doubled noise of occlusion.

    The underlying noise draws depend only on (scene, seed, predicate), not
    on the attention, so re-perceiving under a sharper attention state refines
    the same observation instead of rolling new dice.  The truths,
    occlusion set and draws, the trial's world, come in one lookup through
    :func:`prefetch_trials`, computed unless the last request computed them.
    Logs, exponentials and powers are taken one float at a time with
    ``math`` and ``**``, whose results numpy's vector forms do not always
    match bit for bit; the log once per distinct odds value.
    """
    residual = {} if residual is None else residual
    if not all(0.0 < r <= 1.0 for r in residual.values()):  # NaN fails too
        raise ValueError(f"every residual must lie in (0, 1], got {dict(residual)}")
    ((index, truth, occluded, g, label_draw),) = prefetch_trials([(scene, seed)])

    per_obj = np.array([residual.get(obj, 1.0) for obj in index.ids])
    scale = np.minimum(per_obj[index.first], per_obj[index.last])
    hidden = np.array([obj in occluded and obj not in cleared for obj in index.ids])
    occ_mult = np.where(hidden[index.first] | hidden[index.last], 2.0, 1.0)
    eta = cfg.base_flip_rate * scale
    sd = cfg.logit_noise_sd * scale * occ_mult

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
    return ProbabilisticState.from_arrays(index, p), labels


def perceive(
    scene: Scene, cfg: NoiseConfig, seed: int,
    residual: Mapping[str, float] | None = None, cleared: Collection[str] = (),
) -> ProbabilisticState:
    """Noisy observation of every candidate predicate (see perceive_with_labels)."""
    state, _ = perceive_with_labels(scene, cfg, seed, residual, cleared)
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

    The perception seed and channel are fixed for the episode, so repeated
    observation refines the same noise draws under the episode's attention:
    ``residual`` holds each object's noise residual (1.0 when absent) and
    ``cleared`` the objects pushed clear.  Plan execution applies the
    planner's own grounded actions to the true support atoms, failing on
    the first action whose preconditions do not actually hold.
    """

    def __init__(self, scene: Scene, cfg: NoiseConfig, seed: int):
        self.scene = scene
        self.cfg = cfg
        self.seed = int(seed)
        self.residual: dict[str, float] = {}
        self.cleared: set[str] = set()

    def object_ids(self) -> tuple[str, ...]:
        return self.scene.object_ids()

    def observe(self) -> ProbabilisticState:
        return perceive(self.scene, self.cfg, self.seed, self.residual, self.cleared)

    def occluded_ids(self) -> frozenset[str]:
        return prefetch_trials([(self.scene, self.seed)])[0][2] - self.cleared

    def apply_info(self, kind: str, target: str) -> None:
        """Step ``target``'s residual by :func:`core.next_residual`, which
        shrinks the uncertainty of the predicates that mention it by about
        (1 - gain); push_obstacle also clears its occlusion penalty.  A zero
        gain changes nothing; an unknown kind or a target the scene does not
        have raises ValueError."""
        if kind not in (LOOK_CLOSER, PUSH_OBSTACLE):
            raise ValueError(f"unknown info action kind {kind!r}")
        if target not in self.scene.object_ids():
            raise ValueError(f"info action target {target!r} is not an object of the scene")
        if self.cfg.gain == 0.0:
            return
        self.residual[target] = next_residual(self.residual.get(target, 1.0), self.cfg.gain)
        if kind == PUSH_OBSTACLE:
            self.cleared.add(target)

    def execute(self, plan, goal_atoms: frozenset[Atom]) -> bool:
        """Run a plan of the planner's own actions against ground truth.

        The scene's support pairs become STRIPS atoms; each action fails the
        run unless its preconditions hold, then deletes and adds its atoms.
        True iff every goal atom (see ``planner.Goal.atoms``) holds at the end.
        """
        atoms = support_atoms(dict(self.scene.support), self.scene.object_ids())
        for action in plan:
            if not action.preconditions <= atoms:
                return False
            atoms = (atoms - action.delete) | action.add
        return goal_atoms <= atoms
