"""Dependency refinement of predicate beliefs with a pairwise Markov random field.

Perception scores every predicate independently, but predicates are not
independent: a block with something on it is not clear, a block resting on
another touches it, and stacking patterns correlate.  This module turns a
belief state into a small binary MRF whose unary potentials encode the raw
confidences and whose pairwise potentials encode those structural rules,
then re-estimates the node marginals by exact enumeration (small graphs) or
loopy belief propagation.  Each structural rule pairs its own kind of
predicates, so no node pair gets two edges.  Only node marginals are produced: refinement and
the MAP readout read nothing else, and the dependency-aware uncertainty is
computed exactly from the enumerated joint.

Energy convention: P(x) proportional to exp(-E(x)) with
E(x) = sum_i psi_i(x_i) + sum_ij phi_ij(x_i, x_j).  Lower energy means more
probable.  All tables are indexed [false, true].
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from beliefplan.core import GroundPredicate, ProbabilisticState, Relation

CONFIDENCE_CLAMP = 1e-6
HARD_WEIGHT = 20.0
DEFAULT_CORRELATION = 0.5
ENUMERATION_CAP = 20


class CapacityError(RuntimeError):
    """Raised when an exact computation would exceed its size cap."""


@dataclass(frozen=True)
class Edge:
    """Pairwise factor between node indices i < j.

    ``table[x_i, x_j]`` is the energy contribution; BP, enumeration and
    :func:`energy` read nothing else.
    """

    i: int
    j: int
    table: tuple[tuple[float, float], tuple[float, float]]

    def __post_init__(self):
        if not (0 <= self.i < self.j):
            raise ValueError(f"edge endpoints must satisfy 0 <= i < j, got ({self.i}, {self.j})")

    def table_array(self) -> np.ndarray:
        return np.array(self.table, dtype=float)


@dataclass(frozen=True)
class PredicateMrf:
    nodes: tuple[GroundPredicate, ...]
    unary: np.ndarray  # shape (n, 2), unary[i] = [psi(false), psi(true)]
    edges: tuple[Edge, ...]

    def __post_init__(self):
        if self.unary.shape != (len(self.nodes), 2):
            raise ValueError("unary table shape must be (n_nodes, 2)")
        seen = set()
        for e in self.edges:
            if e.j >= len(self.nodes):
                raise ValueError(f"edge ({e.i}, {e.j}) exceeds node count {len(self.nodes)}")
            if (e.i, e.j) in seen:
                raise ValueError(f"duplicate edge ({e.i}, {e.j})")
            seen.add((e.i, e.j))

    @property
    def n_nodes(self) -> int:
        return len(self.nodes)

    def neighbors(self) -> list[list[int]]:
        adj: list[list[int]] = [[] for _ in self.nodes]
        for e in self.edges:
            adj[e.i].append(e.j)
            adj[e.j].append(e.i)
        return [sorted(a) for a in adj]


@dataclass(frozen=True)
class BeliefSet:
    """Marginals produced by enumeration or belief propagation.

    ``node_marginals`` are sum-product (probability) marginals.
    ``max_node_marginals`` are max-product marginals, the right quantity to
    argmax for a MAP readout; on trees that argmax is the exact minimum
    energy assignment.
    """

    node_marginals: np.ndarray  # shape (n, 2)
    max_node_marginals: np.ndarray  # shape (n, 2)
    converged: bool
    iterations: int


def _clamp(p: float) -> float:
    return min(max(p, CONFIDENCE_CLAMP), 1.0 - CONFIDENCE_CLAMP)


def unary_potentials(p: float) -> tuple[float, float]:
    """Energy pair [psi(false), psi(true)] for a confidence value."""
    return (-math.log(_clamp(1.0 - p)), -math.log(_clamp(p)))


def mutex_edge(i: int, j: int) -> Edge:
    """Hard pairwise factor forbidding both endpoints true."""
    return Edge(i, j, ((0.0, 0.0), (0.0, HARD_WEIGHT)))


def implication_edge(i: int, j: int, antecedent: int) -> Edge:
    """Hard pairwise factor penalizing antecedent-true, consequent-false;
    ``antecedent`` must be i or j."""
    if antecedent == i:
        table = ((0.0, 0.0), (HARD_WEIGHT, 0.0))
    elif antecedent == j:
        table = ((0.0, HARD_WEIGHT), (0.0, 0.0))
    else:
        raise ValueError("implication edge must name one endpoint as antecedent")
    return Edge(i, j, table)


def correlation_edge(i: int, j: int, rho: float) -> Edge:
    """Soft agreement factor of signed strength rho in (-1, 1)."""
    if not (-1.0 < rho < 1.0):
        raise ValueError(f"correlation strength must lie in (-1, 1), got {rho}")
    # kappa = 1: agreement lowers energy by rho, disagreement raises it
    return Edge(i, j, ((-rho, rho), (rho, -rho)))


def build_mrf(state: ProbabilisticState) -> PredicateMrf:
    """Construct the dependency MRF for a belief state.

    One node per predicate, unary energies from the confidences, and three
    structural edge rules:

    * mutual exclusion between On(A, B) and Clear(B),
    * implication from On(A, B) to Touching(A, B),
    * correlation of strength ``DEFAULT_CORRELATION`` between chained
      supports On(A, B) and On(B, C).

    No two rules pair the same two nodes, so each pair gets at most one edge.
    """
    nodes = tuple(state.predicates())
    index = {pred: k for k, pred in enumerate(nodes)}
    unary = np.array([unary_potentials(state.confidence(p)) for p in nodes], dtype=float)

    edges: list[Edge] = []
    ons = [p for p in nodes if p.relation is Relation.ON]

    for on in ons:
        a, b = on.args
        clear_b = state.get(GroundPredicate(Relation.CLEAR, (b,)))
        if clear_b is not None:
            i, j = sorted((index[on], index[GroundPredicate(Relation.CLEAR, (b,))]))
            edges.append(mutex_edge(i, j))

    for on in ons:
        a, b = on.args
        touching = GroundPredicate(Relation.TOUCHING, (a, b))
        if touching in state:
            ant, cons = index[on], index[touching]
            i, j = sorted((ant, cons))
            edges.append(implication_edge(i, j, ant))

    for upper in ons:
        a, b = upper.args
        for lower in ons:
            c, d = lower.args
            if c == b and d != a:  # On(a, b) chained with On(b, d)
                i, j = sorted((index[upper], index[lower]))
                edges.append(correlation_edge(i, j, DEFAULT_CORRELATION))

    edges.sort(key=lambda e: (e.i, e.j))
    return PredicateMrf(nodes, unary, tuple(edges))


def energy(mrf: PredicateMrf, assignment: Sequence[bool] | Mapping[int, bool]) -> float:
    """Total energy of a full assignment (lower is more probable)."""
    if isinstance(assignment, Mapping):
        missing = [i for i in range(mrf.n_nodes) if i not in assignment]
        if missing:
            raise ValueError(f"assignment missing nodes {missing}")
        bits = [bool(assignment[i]) for i in range(mrf.n_nodes)]
    else:
        if len(assignment) != mrf.n_nodes:
            raise ValueError(
                f"assignment covers {len(assignment)} of {mrf.n_nodes} nodes"
            )
        bits = [bool(v) for v in assignment]
    total = sum(mrf.unary[i, int(b)] for i, b in enumerate(bits))
    for e in mrf.edges:
        total += e.table[int(bits[e.i])][int(bits[e.j])]
    return float(total)


def _logsumexp(values: np.ndarray) -> float:
    m = float(np.max(values))
    return m + float(np.log(np.sum(np.exp(values - m))))


def _all_energies(mrf: PredicateMrf) -> np.ndarray:
    """Energy of every assignment, indexed by the node-bit integer."""
    n = mrf.n_nodes
    if n > ENUMERATION_CAP:
        raise CapacityError(f"enumeration capped at {ENUMERATION_CAP} nodes, got {n}")
    idx = np.arange(1 << n, dtype=np.int64)
    bits = [(idx >> i) & 1 for i in range(n)]
    total = np.zeros(1 << n, dtype=float)
    for i in range(n):
        total += mrf.unary[i][bits[i]]
    for e in mrf.edges:
        total += e.table_array()[bits[e.i], bits[e.j]]
    return total


def _joint(mrf: PredicateMrf) -> tuple[np.ndarray, np.ndarray]:
    """The normalized probability of every assignment, and the assignment
    ids (node-bit integers) it is indexed by; node count capped."""
    energies = _all_energies(mrf)
    w = np.exp(-energies - _logsumexp(-energies))
    return w, np.arange(1 << mrf.n_nodes, dtype=np.int64)


def enumerate_beliefs(mrf: PredicateMrf) -> BeliefSet:
    """Exact marginals by summing over every assignment (node count capped)."""
    n = mrf.n_nodes
    w, idx = _joint(mrf)

    node_marg = np.empty((n, 2), dtype=float)
    for i in range(n):
        p_true = float(np.sum(w[((idx >> i) & 1) == 1]))
        node_marg[i] = (1.0 - p_true, p_true)

    max_marg = np.empty((n, 2), dtype=float)
    for i in range(n):
        on = ((idx >> i) & 1) == 1
        best_true = float(np.max(w[on]))
        best_false = float(np.max(w[~on]))
        total = best_true + best_false
        max_marg[i] = (best_false / total, best_true / total)

    return BeliefSet(node_marg, max_marg, True, 0)


def _logaddexp(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Element-wise log(exp(a) + exp(b)), rounded exactly as ``_logsumexp`` of a pair."""
    m = np.maximum(a, b)
    return m + np.log(np.exp(a - m) + np.exp(b - m))


def _padded(rows: list[list[int]], fill: int) -> np.ndarray:
    """Ragged index lists as one (len(rows), longest) array padded with ``fill``."""
    width = max(map(len, rows), default=0)
    return np.array([r + [fill] * (width - len(r)) for r in rows], dtype=np.intp).reshape(
        len(rows), width
    )


def _gather_sum(base: np.ndarray, msgs: np.ndarray, gather: np.ndarray) -> np.ndarray:
    """``base[r]`` plus messages ``msgs[:, gather[r, c]]``, added column by column."""
    total = np.broadcast_to(base, (msgs.shape[0],) + base.shape)
    for col in gather.T:
        total = total + msgs[:, col]
    return total


def loopy_bp(
    mrf: PredicateMrf,
    damping: float = 0.5,
    tol: float = 1e-8,
    max_iters: int = 200,
) -> BeliefSet:
    """Sum-product belief propagation with synchronous flooding updates.

    Messages live in log space and are damped as
    new = damping * old + (1 - damping) * computed.  Exact on trees; on
    loopy graphs the returned marginals are the usual approximation, with
    ``converged`` reporting whether the message change fell below ``tol``
    within ``max_iters`` sweeps.  The max-product family runs alongside for
    the MAP readout.

    Messages sit in one array over the directed edges, each mrf edge (i, j)
    giving i->j and then j->i, for both families at once, with a zero row
    appended.  A padded gather index lists, for each edge s->t, the edges
    k->s with k != t in a fixed order, padding pointing at the zero row;
    each sweep adds those columns to the unary one at a time and runs the
    two-term log-sum-exp element-wise.  Summing in that fixed order, rather
    than taking a total over all inbound messages and subtracting, rounds
    every message exactly as a per-edge loop over the same order does, so
    results are bit-identical to it.
    """
    if not (0.0 <= damping < 1.0):
        raise ValueError(f"damping must lie in [0, 1), got {damping}")
    if tol <= 0 or max_iters < 1:
        raise ValueError("tol must be positive and max_iters at least 1")

    n = mrf.n_nodes
    log_unary = -mrf.unary  # log of unnormalized node factor

    # directed edges s->t with their log factor oriented [x_s, x_t]
    src: list[int] = []
    dst: list[int] = []
    log_phi: list[np.ndarray] = []
    for e in mrf.edges:
        tbl = -e.table_array()
        src += [e.i, e.j]
        dst += [e.j, e.i]
        log_phi += [tbl, tbl.T]
    n_dir = len(src)
    log_phi_arr = np.array(log_phi, dtype=float).reshape(n_dir, 2, 2)
    inbound: list[list[int]] = [[] for _ in range(n)]  # directed edge ids into each node
    for k, t in enumerate(dst):
        inbound[t].append(k)
    gather = _padded([[k for k in inbound[s] if src[k] != t] for s, t in zip(src, dst)], n_dir)
    edge_unary = log_unary[src]

    # msgs[0] sum-product, msgs[1] max-product; each message normalized to
    # logsumexp zero; row n_dir stays zero for the padding
    msgs = np.zeros((2, n_dir + 1, 2))
    msgs[:, :n_dir] = -math.log(2.0)

    converged = not mrf.edges  # no messages to pass
    iterations = 1
    for sweep in range(0 if converged else max_iters):
        iterations = sweep + 1
        pre = _gather_sum(edge_unary, msgs, gather)  # [family, edge, x_s]
        cand = pre[..., None] + log_phi_arr  # [family, edge, x_s, x_t]
        raw = np.empty((2, n_dir, 2))
        raw[0] = _logaddexp(cand[0, :, 0], cand[0, :, 1])
        raw[1] = np.maximum(cand[1, :, 0], cand[1, :, 1])
        raw -= _logaddexp(raw[..., 0], raw[..., 1])[..., None]
        old = msgs[:, :n_dir]
        nxt = damping * old + (1.0 - damping) * raw
        nxt -= _logaddexp(nxt[..., 0], nxt[..., 1])[..., None]
        delta = float(np.max(np.abs(nxt - old)))
        msgs[:, :n_dir] = nxt
        if delta < tol:
            converged = True
            break

    node = _gather_sum(log_unary, msgs, _padded(inbound, n_dir))  # [family, node, x]
    node_marg, max_marg = np.exp(node - _logaddexp(node[..., 0], node[..., 1])[..., None])
    return BeliefSet(node_marg, max_marg, converged, iterations)


def _entropy(p: np.ndarray) -> float:
    p = np.asarray(p, dtype=float).ravel()
    nz = p[p > 0.0]
    return float(-np.sum(nz * np.log(nz)))


def conditional_uncertainty(mrf: PredicateMrf) -> float:
    """Dependency-aware uncertainty: sum over nodes of H(X_i | neighbors).

    The conditional entropies are computed exactly from the enumerated
    joint, so the node count is capped at ``ENUMERATION_CAP`` (above it,
    ``CapacityError``).  Nats.
    """
    n = mrf.n_nodes
    adj = mrf.neighbors()
    w, idx = _joint(mrf)

    def subset_entropy(nodes_subset: list[int]) -> float:
        if not nodes_subset:
            return 0.0
        keys = np.zeros(1 << n, dtype=np.int64)
        for t, s in enumerate(nodes_subset):
            keys |= ((idx >> s) & 1) << t
        dist = np.bincount(keys, weights=w, minlength=1 << len(nodes_subset))
        return _entropy(dist)

    total = 0.0
    for i in range(n):
        total += subset_entropy([i] + adj[i]) - subset_entropy(adj[i])
    return total


def map_assignment(beliefs: BeliefSet) -> tuple[bool, ...]:
    """Per-node argmax of the max-product marginals; exact ties resolve to false.

    On trees that argmax is the exact minimum-energy assignment.
    """
    return tuple(bool(b[1] > b[0]) for b in beliefs.max_node_marginals)


def refined_state(state: ProbabilisticState, beliefs: BeliefSet) -> ProbabilisticState:
    """Belief state with confidences replaced by refined true-marginals.

    Node order follows :func:`build_mrf` (sorted predicates), so ``beliefs``
    must come from the MRF built for this same state.
    """
    if len(state) != beliefs.node_marginals.shape[0]:
        raise ValueError("belief set does not match state size")
    return state.with_confidences(beliefs.node_marginals[:, 1])

