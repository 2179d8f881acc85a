"""Probabilistic predicate beliefs over scene objects.

A perception front end emits, for every candidate relation between objects,
a confidence in [0, 1] that the relation holds.  This module holds the
symbolic side of that picture: ground predicates, belief states mapping
predicates to confidences, the per-predicate and state-level uncertainty
measures, threshold classification into certain/uncertain partitions, and
the fusion rule used when a fresh observation is folded into an existing
belief state.  It also holds the one stacking rule (:func:`support_map`)
that scenes, symbolic states, goals and the belief projection share.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from enum import Enum
from itertools import compress
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
        # the dataclass's own hash, taken once: Relation's __hash__ is a
        # Python-level call, and every state and label map hashes predicates
        object.__setattr__(self, "_hash", hash((relation, args)))

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        # rebuild instead of restoring _hash: str hashes differ between processes
        return (GroundPredicate, (self.relation, self.args))

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


class ProbabilisticState:
    """Immutable map from ground predicates to confidences.

    Stored as the predicates sorted by :meth:`GroundPredicate.sort_key` and
    a float64 confidence vector aligned with them, so iteration never
    re-sorts and the belief operations below work on whole vectors.
    """

    __slots__ = ("_preds", "_p", "_pos")

    def __init__(self, confidences: Mapping[GroundPredicate, float]):
        conf = {p: _check_confidence(v) for p, v in confidences.items()}
        preds = tuple(sorted(conf, key=GroundPredicate.sort_key))
        self._set(preds, [conf[p] for p in preds])

    @classmethod
    def from_arrays(cls, preds: tuple[GroundPredicate, ...], confidences) -> ProbabilisticState:
        """State over ``preds``, which must be distinct and sorted by sort_key;
        ``confidences`` aligns with them."""
        state = cls.__new__(cls)
        state._set(preds, confidences)
        return state

    def _set(self, preds, confidences) -> None:
        p = np.array(confidences, dtype=float)
        if p.shape != (len(preds),):
            raise ValueError("confidence vector must match the predicates")
        bad = ~((p >= 0.0) & (p <= 1.0))  # NaN fails both comparisons
        if bad.any():
            _check_confidence(p[bad][0])
        p.flags.writeable = False
        self._preds = tuple(preds)
        self._p = p
        self._pos = None  # {pred: k}, built on the first lookup

    def _positions(self) -> Mapping[GroundPredicate, int]:
        if self._pos is None:
            self._pos = {p: k for k, p in enumerate(self._preds)}
        return self._pos

    def with_confidences(self, confidences) -> ProbabilisticState:
        """Same predicates, new aligned confidence vector."""
        return ProbabilisticState.from_arrays(self._preds, confidences)

    def confidence(self, pred: GroundPredicate) -> float:
        return float(self._p[self._positions()[pred]])

    def items(self) -> list[tuple[GroundPredicate, float]]:
        return list(zip(self._preds, self._p.tolist()))

    def __contains__(self, pred: GroundPredicate) -> bool:
        return pred in self._positions()

    def __len__(self) -> int:
        return len(self._preds)

    def __iter__(self) -> Iterator[GroundPredicate]:
        return iter(self._preds)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ProbabilisticState):
            return NotImplemented
        return self._preds == other._preds and np.array_equal(self._p, other._p)

    def __repr__(self) -> str:
        body = ", ".join(f"{p}={v:.3g}" for p, v in self.items())
        return f"ProbabilisticState({body})"


@dataclass(frozen=True)
class CertaintyPartition:
    """Disjoint split of a state's predicates at a planning threshold."""

    certain_true: frozenset[GroundPredicate]
    certain_false: frozenset[GroundPredicate]
    uncertain: frozenset[GroundPredicate]


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
    """Split predicates into certain-true / certain-false / uncertain.

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
    uncertain = ~(true | false)
    return CertaintyPartition(
        *(frozenset(compress(state._preds, mask.tolist())) for mask in (true, false, uncertain))
    )


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


def fuse_observation(
    prior: ProbabilisticState, obs: ProbabilisticState
) -> ProbabilisticState:
    """Fold a fresh observation into an existing belief state.

    Both states must score the same predicates; ValueError otherwise.  Each
    fused confidence is whichever of (prior, observation) is more extreme,
    i.e. has the smaller predicate uncertainty; on a tie the observation
    wins.
    """
    if prior._preds != obs._preds:
        raise ValueError("fusion needs both states to score the same predicates")
    keep = predicate_uncertainties(prior._p) < predicate_uncertainties(obs._p)
    return obs.with_confidences(np.where(keep, prior._p, obs._p))

