"""Probabilistic predicate beliefs over scene objects.

A perception front end emits, for every candidate relation between objects,
a confidence in [0, 1] that the relation holds.  This module holds the
symbolic side of that picture: ground predicates, the one index that
orders and positions the predicates a state scores, belief states mapping
them to confidences, the per-predicate and state-level uncertainty
measures, certain/uncertain masks at a threshold, the decay law
with its one look rule, the fusion of a fresh observation into a belief
state, and the one stacking rule (:func:`support_map`) that scenes,
symbolic states, goals and the belief projection share.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Iterator, Mapping

import numpy as np


class Relation(Enum):
    """Spatial relation vocabulary emitted by perception."""

    ON = "On"
    LEFT_OF = "LeftOf"
    CLOSE_TO = "CloseTo"
    TOUCHING = "Touching"
    CLEAR = "Clear"

    @property
    def arity(self) -> int:
        return 1 if self is Relation.CLEAR else 2

    @property
    def symmetric(self) -> bool:
        # proximity and contact do not distinguish argument order
        return self in (Relation.CLOSE_TO, Relation.TOUCHING)


_RELATION_BY_NAME = {r.value: r for r in Relation}


@dataclass(frozen=True)
class GroundPredicate:
    """A relation applied to concrete object ids, e.g. On(a, b).

    Symmetric relations are canonicalized so that the lexicographically
    smaller argument comes first; CloseTo(b, a) and CloseTo(a, b) are the
    same predicate.  Arguments must be distinct and match the relation's
    arity.  Predicates have no ``<``: order them by :meth:`sort_key`.
    Equality, hashing and pickling are the frozen dataclass's own, over
    (relation, args), so a predicate hashes alike in every process that
    loads it.
    """

    relation: Relation
    args: tuple[str, ...]

    def __init__(self, relation: Relation, args: Iterable[str]):
        args = tuple(args)
        if len(args) != relation.arity:
            raise ValueError(
                f"{relation.value} takes {relation.arity} argument(s), got {len(args)}"
            )
        if len(set(args)) != len(args):
            raise ValueError(f"{relation.value} arguments must be distinct: {args}")
        if relation.symmetric and len(args) == 2 and args[1] < args[0]:
            args = (args[1], args[0])
        object.__setattr__(self, "relation", relation)
        object.__setattr__(self, "args", args)

    def sort_key(self) -> tuple[str, tuple[str, ...]]:
        return (self.relation.value, self.args)

    def __str__(self) -> str:
        return f"{self.relation.value}({','.join(self.args)})"


_PRED_RE = re.compile(r"^\s*([A-Za-z]+)\s*\(\s*([^()]*?)\s*\)\s*$")


def parse_predicate(text: str) -> GroundPredicate:
    """Parse compact text like ``On(a,b)`` or ``Clear(a)``."""
    m = _PRED_RE.match(text)
    if not m:
        raise ValueError(f"unparseable predicate: {text!r}")
    name, argtext = m.group(1), m.group(2)
    rel = _RELATION_BY_NAME.get(name)
    if rel is None:
        raise ValueError(f"unknown relation {name!r} in {text!r}")
    args = tuple(a.strip() for a in argtext.split(",")) if argtext.strip() else ()
    return GroundPredicate(rel, args)


def has_support_cycle(lower_of: Mapping[str, str]) -> bool:
    """True when following ``upper -> lower`` support links from some object
    leads back to it; a value that is not a key (the table) ends a chain."""
    ends: set[str] = set()  # objects whose chain is known to end
    for start in lower_of:
        chain: set[str] = set()
        node = start
        while node in lower_of and node not in ends:
            if node in chain:
                return True
            chain.add(node)
            node = lower_of[node]
        ends |= chain
    return False


def support_map(pairs: Iterable[tuple[str, str]]) -> dict[str, str]:
    """The ``upper -> lower`` map of (upper, lower) support pairs.

    This is the one stacking rule: raises ValueError when an object rests
    on itself or on two supports, a support carries two objects, or the
    supports close a cycle.
    """
    lower_of: dict[str, str] = {}
    upper_of: dict[str, str] = {}
    for upper, lower in pairs:
        if upper == lower:
            raise ValueError(f"object {upper} cannot rest on itself")
        if upper in lower_of:
            raise ValueError(f"object {upper} rests on two supports")
        if lower in upper_of:
            raise ValueError(f"object {lower} supports two objects")
        lower_of[upper] = lower
        upper_of[lower] = upper
    if has_support_cycle(lower_of):
        raise ValueError("supports form a cycle")
    return lower_of


def _check_confidence(p: float) -> float:
    p = float(p)
    if not (0.0 <= p <= 1.0) or math.isnan(p):
        raise ValueError(f"confidence must lie in [0, 1], got {p}")
    return p


@dataclass(frozen=True, eq=False)
class PredicateIndex:
    """Predicates in order with their argument positions, shared by the
    states over them; equality and hashing are by identity.  Only
    :func:`predicate_index` builds one, and it derives every field."""

    ids: tuple[str, ...]  # the sorted objects the predicates name
    preds: tuple[GroundPredicate, ...]  # sorted by GroundPredicate.sort_key
    first: np.ndarray  # position in ids of each predicate's first argument
    last: np.ndarray  # ... and of its last one (the same for Clear)
    slot: dict[tuple[Relation, int, int], int]  # (relation, first, last) -> position
    by_relation: dict[Relation, np.ndarray]  # relation -> its positions, ascending (empty if none)


def _read_only(positions: list[int]) -> np.ndarray:
    arr = np.array(positions, dtype=np.intp)
    arr.flags.writeable = False
    return arr


def predicate_index(preds: Iterable[GroundPredicate]) -> PredicateIndex:
    """A new index over the distinct predicates of ``preds``; its arrays
    are read-only, since every state over it shares them."""
    ordered = tuple(sorted(set(preds), key=GroundPredicate.sort_key))
    ids = tuple(sorted({a for p in ordered for a in p.args}))
    at = {obj: k for k, obj in enumerate(ids)}
    first = [at[p.args[0]] for p in ordered]
    last = [at[p.args[-1]] for p in ordered]
    return PredicateIndex(
        ids, ordered, _read_only(first), _read_only(last),
        {(p.relation, i, j): k for k, (p, i, j) in enumerate(zip(ordered, first, last))},
        {r: _read_only([k for k, p in enumerate(ordered) if p.relation is r]) for r in Relation},
    )


class ProbabilisticState:
    """Immutable map from ground predicates to confidences.

    Stored as a :class:`PredicateIndex` and a float64 confidence vector
    aligned with its predicates, read-only as ``scored`` and ``confidences``.
    States derived from one another share the index object, so iteration
    never re-sorts and the belief operations below work on whole vectors.
    """

    __slots__ = ("_index", "_p")

    def __init__(self, confidences: Mapping[GroundPredicate, float]):
        index = predicate_index(confidences)
        self._set(index, [_check_confidence(confidences[p]) for p in index.preds])

    @classmethod
    def from_arrays(cls, index: PredicateIndex, confidences) -> ProbabilisticState:
        """State over ``index``; ``confidences`` aligns with its predicates."""
        state = cls.__new__(cls)
        state._set(index, confidences)
        return state

    def _set(self, index: PredicateIndex, confidences) -> None:
        p = np.array(confidences, dtype=float)
        if p.shape != (len(index.preds),):
            raise ValueError("confidence vector must match the predicates")
        bad = ~((p >= 0.0) & (p <= 1.0))  # NaN fails both comparisons
        if bad.any():
            _check_confidence(p[bad][0])
        p.flags.writeable = False
        self._index = index
        self._p = p

    @property
    def scored(self) -> PredicateIndex:
        return self._index

    @property
    def confidences(self) -> np.ndarray:
        return self._p

    def with_confidences(self, confidences) -> ProbabilisticState:
        """Same index, new aligned confidence vector."""
        return ProbabilisticState.from_arrays(self._index, confidences)

    def items(self) -> list[tuple[GroundPredicate, float]]:
        return list(zip(self._index.preds, self._p.tolist()))

    def __len__(self) -> int:
        return len(self._index.preds)

    def __iter__(self) -> Iterator[GroundPredicate]:
        return iter(self._index.preds)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ProbabilisticState):
            return NotImplemented
        return self._index.preds == other._index.preds and np.array_equal(self._p, other._p)

    def __repr__(self) -> str:
        body = ", ".join(f"{p}={v:.3g}" for p, v in self.items())
        return f"ProbabilisticState({body})"


@dataclass(frozen=True, eq=False)
class CertaintyPartition:
    """Disjoint masks over a state's index, split at a planning threshold."""

    certain_true: np.ndarray
    certain_false: np.ndarray
    uncertain: np.ndarray


def predicate_uncertainty(p: float) -> float:
    """Uncertainty of a single confidence value.

    u(p) = 1 - max(p, 1 - p).  Zero at p in {0, 1}, maximal 0.5 at p = 0.5,
    symmetric under p -> 1 - p.
    """
    p = _check_confidence(p)
    return 1.0 - max(p, 1.0 - p)


def predicate_uncertainties(p: np.ndarray) -> np.ndarray:
    """:func:`predicate_uncertainty` of each entry of a confidence vector in [0, 1]."""
    return 1.0 - np.maximum(p, 1.0 - p)


def state_uncertainty_independent(state: ProbabilisticState) -> float:
    """Aggregate uncertainty of a belief state, treating predicates as independent.

    U = 1 - prod_i (1 - u_i) where u_i is each predicate's uncertainty.
    Empty state has U = 0; any predicate at u = 0.5 does not by itself push
    U to 1, but U approaches 1 as uncertain predicates accumulate.  Adding a
    predicate never decreases U.
    """
    # math.prod multiplies sequentially in predicate order; numpy promises
    # no order for its reductions, and the order decides the rounding
    return 1.0 - math.prod((1.0 - predicate_uncertainties(state._p)).tolist())


def classify(state: ProbabilisticState, tau_plan: float) -> CertaintyPartition:
    """Split predicates into certain-true / certain-false / uncertain, as
    masks over the state's index.

    p > tau_plan counts as certainly true, p < 1 - tau_plan as certainly
    false, everything else (boundaries included) stays uncertain.  The
    certain-true test is applied first so the result is a partition for any
    tau_plan in (0, 1).
    """
    tau_plan = float(tau_plan)
    if not (0.0 < tau_plan < 1.0):
        raise ValueError(f"tau_plan must lie in (0, 1), got {tau_plan}")
    p = state._p
    true = p > tau_plan
    # algebraically p < 1 - tau_plan; summing avoids the rounded complement
    # misclassifying exact boundary confidences
    false = ~true & (p + tau_plan < 1.0)
    return CertaintyPartition(true, false, ~(true | false))


def reduction_law(u0: float, alpha: float, k: int) -> float:
    """Uncertainty after k information-gathering steps at gain alpha.

    U_k = U_0 * (1 - alpha)^k.  Composes as a semigroup: applying k then m
    steps equals applying k + m.
    """
    u0 = float(u0)
    alpha = float(alpha)
    if not (0.0 <= u0 <= 1.0):
        raise ValueError(f"u0 must lie in [0, 1], got {u0}")
    if not (0.0 <= alpha < 1.0):
        raise ValueError(f"alpha must lie in [0, 1), got {alpha}")
    if k < 0 or int(k) != k:
        raise ValueError(f"k must be a non-negative integer, got {k}")
    return u0 * (1.0 - alpha) ** int(k)


def next_residual(residual: float, gain: float) -> float:
    """An attention residual after one more look at this gain, floored at
    the least positive float so that attention saturates above 0.0."""
    return max(residual * (1.0 - gain), math.ulp(0.0))


def shrink_uncertainty(state: ProbabilisticState, r: float) -> ProbabilisticState:
    """The state with each uncertainty scaled by r in [0, 1] and each
    confidence on its side of 0.5 (0.5 on the true side): at the residual
    of k steps, :func:`reduction_law` for every predicate.  r = 1 keeps it."""
    if not (0.0 <= r <= 1.0):
        raise ValueError(f"r must lie in [0, 1], got {r}")
    if r == 1.0:
        return state
    u = predicate_uncertainties(state._p) * r
    return state.with_confidences(np.where(state._p >= 0.5, 1.0 - u, u))


def fuse_observation(
    prior: ProbabilisticState, obs: ProbabilisticState
) -> ProbabilisticState:
    """Fold a fresh observation into an existing belief state.

    Both states must score the same predicates; ValueError otherwise.  Each
    fused confidence is whichever of (prior, observation) is more extreme,
    i.e. has the smaller predicate uncertainty; on a tie the observation
    wins.
    """
    if prior._index is not obs._index and prior._index.preds != obs._index.preds:
        raise ValueError("fusion needs both states to score the same predicates")
    keep = predicate_uncertainties(prior._p) < predicate_uncertainties(obs._p)
    return obs.with_confidences(np.where(keep, prior._p, obs._p))

