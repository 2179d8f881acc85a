"""Dependency refinement of predicate beliefs with a pairwise Markov random field.

Perception scores every predicate independently, but predicates are not
independent: a block with something on it is not clear, a block resting on
another touches it.  This module turns a belief state into a small binary
MRF whose unary potentials encode the raw confidences and whose pairwise
potentials encode those two hard rules.  Each rule pairs its own kind of
predicates, so no node pair gets two edges; the rules read the state's
predicate index alone, so the refinement builds its edges, and the arrays
that condition them on the Clear nodes, once per index and caches them.

The planner's refinement (:func:`refined_state`) takes exact marginals by
conditioning on the Clear nodes: given them, the graph falls apart into
blocks of at most three nodes, so a sum over the Clear assignments is
exact.  Exact enumeration over every node (small graphs) and loopy belief
propagation serve the mrf-check experiment, which validates BP against
enumeration on graphs of its own.  Only node marginals are produced: the
refinement and the MAP readout read nothing else, and the dependency-aware
uncertainty is computed exactly from the enumerated joint.

Energy convention: P(x) proportional to exp(-E(x)) with
E(x) = sum_i psi_i(x_i) + sum_ij phi_ij(x_i, x_j).  Lower energy means more
probable.  All tables are indexed [false, true].
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from beliefplan.core import GroundPredicate, PredicateIndex, ProbabilisticState, Relation

CONFIDENCE_CLAMP = 1e-6
HARD_WEIGHT = 20.0
ENUMERATION_CAP = 20
# Clear nodes refined_state conditions on; generate_scene makes at most 10
CUTSET_CAP = 12
# loopy BP's fixed schedule: message damping, convergence tolerance, sweep cap
BP_DAMPING = 0.5
BP_TOL = 1e-8
BP_MAX_ITERS = 200


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


def unary_potentials(p: float) -> tuple[float, float]:
    """Energy pair [psi(false), psi(true)] for a confidence value."""
    lo, hi = CONFIDENCE_CLAMP, 1.0 - CONFIDENCE_CLAMP
    return (-math.log(min(max(1.0 - p, lo), hi)), -math.log(min(max(p, lo), hi)))


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

    One node per predicate, unary energies from the confidences, and two
    hard edge rules:

    * mutual exclusion between On(A, B) and Clear(B),
    * implication from On(A, B) to Touching(A, B).

    No two rules pair the same two nodes, so each pair gets at most one edge,
    and no edge joins two On nodes.
    """
    unary = np.array([unary_potentials(p) for p in state.confidences.tolist()], dtype=float)
    return PredicateMrf(state.scored.preds, unary, _structural_edges(state.scored))


def _structural_edges(index: PredicateIndex) -> tuple[Edge, ...]:
    """The two rules' edges over the index's predicates, sorted by endpoints."""
    edges: list[Edge] = []
    on = index.by_relation[Relation.ON]
    for k, a, b in zip(on.tolist(), index.first[on].tolist(), index.last[on].tolist()):
        clear_b = index.slot.get((Relation.CLEAR, b, b))
        if clear_b is not None:
            edges.append(mutex_edge(*sorted((k, clear_b))))
        # Touching is symmetric: its first argument is the smaller id
        touching = index.slot.get((Relation.TOUCHING, min(a, b), max(a, b)))
        if touching is not None:
            edges.append(implication_edge(*sorted((k, touching)), k))
    edges.sort(key=lambda e: (e.i, e.j))
    return tuple(edges)


def energy(mrf: PredicateMrf, assignment: Sequence[bool]) -> float:
    """Total energy of a full assignment, one bool per node (lower is more probable)."""
    if len(assignment) != mrf.n_nodes:
        raise ValueError(f"assignment covers {len(assignment)} of {mrf.n_nodes} nodes")
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


def _logaddexp(a: np.ndarray, b: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Element-wise log(exp(a) + exp(b)) as m + log(1 + exp(min(a, b) - m)), m = max(a, b)."""
    m = np.maximum(a, b)
    out = np.minimum(a, b, out=out)
    out -= m
    np.exp(out, out=out)
    out += 1.0
    np.log(out, out=out)
    out += m
    return out


def _padded(rows: list[list[int]], fill: int) -> np.ndarray:
    """Ragged index lists as one array, each row padded with ``fill`` to the longest."""
    width = max(map(len, rows), default=0)
    return np.array([r + [fill] * (width - len(r)) for r in rows], dtype=np.intp)


def _schedule(n: int, edges: tuple[Edge, ...]) -> tuple[np.ndarray, ...]:
    """BP schedule: sources of the directed edges (i->j, then j->i
    per edge), log factors ``[x_s, x_t, edge, family]``, and gather indexes
    ``[column, edge]`` of the edges k->s (k != t) into each edge s->t and
    ``[column, node]`` of those into each node, padded with the edge count."""
    src = [v for e in edges for v in (e.i, e.j)]
    dst = [v for e in edges for v in (e.j, e.i)]
    oriented = -np.array([(e.table, tuple(zip(*e.table))) for e in edges], dtype=float)
    inbound: list[list[int]] = [[] for _ in range(n)]
    for k, t in enumerate(dst):
        inbound[t].append(k)
    return (
        np.array(src, dtype=np.intp),
        np.repeat(oriented.reshape(-1, 2, 2).transpose(1, 2, 0)[..., None], 2, axis=3),
        _padded([[k for k in inbound[s] if src[k] != t] for s, t in zip(src, dst)], len(src)).T,
        _padded(inbound, len(src)).T,
    )


def loopy_bp(mrf: PredicateMrf) -> BeliefSet:
    """Sum-product belief propagation with synchronous flooding updates.

    Messages live in log space and are damped as
    new = BP_DAMPING * old + (1 - BP_DAMPING) * computed.  Exact on trees;
    on loopy graphs the returned marginals are the usual approximation,
    with ``converged`` reporting whether the message change fell below
    ``BP_TOL`` within ``BP_MAX_ITERS`` sweeps.  The max-product family runs
    alongside for the MAP readout.

    Messages are stored edge-major, ``[directed edge, family, x]`` with a
    zero row appended, and family 0 is sum-product.  Each sweep takes the
    rows of every edge's inbound messages in one step and adds them to the
    unary one column at a time.  That order, not a sum over the gather axis,
    rounds every message as a per-edge loop over the same order does, and
    ``_logaddexp``'s m + log(1 + exp(min - m)) rounds as the loop's
    m + log(exp(a - m) + exp(b - m)): one term is exp(0) == 1.0 exactly and
    the other's argument is exactly min - m.  So results are bit-identical.
    """
    damping, tol, max_iters = BP_DAMPING, BP_TOL, BP_MAX_ITERS
    log_unary = -mrf.unary  # log of unnormalized node factor
    src, log_phi, gather, node_gather = _schedule(mrf.n_nodes, mrf.edges)
    n_dir = len(src)
    edge_unary = np.repeat(log_unary[src][:, None], 2, axis=1)  # [edge, family, x_s]
    msgs = np.full((n_dir + 1, 2, 2), -math.log(2.0))  # normalized to logsumexp zero
    msgs[n_dir] = 0.0
    old = msgs[:n_dir].transpose(2, 0, 1)
    raw, new = np.empty((2, 2, n_dir, 2))  # [x_t, edge, family]: contiguous halves by x

    converged = not mrf.edges  # no messages to pass
    iterations = 1
    for sweep in range(0 if converged else max_iters):
        iterations = sweep + 1
        pre = edge_unary.copy()  # [edge, family, x_s]
        for inc in np.take(msgs, gather, axis=0):
            pre += inc
        cand = pre.transpose(2, 0, 1)[:, None] + log_phi  # [x_s, x_t, edge, family]
        _logaddexp(cand[0], cand[1], out=raw)
        np.maximum(cand[0, ..., 1], cand[1, ..., 1], out=raw[..., 1])  # max-product
        raw -= _logaddexp(raw[0], raw[1])
        np.multiply(old, damping, out=new)
        raw *= 1.0 - damping
        new += raw
        new -= _logaddexp(new[0], new[1])
        delta = float(abs(new - old).max())
        old[...] = new
        if delta < tol:
            converged = True
            break

    node = np.repeat(log_unary[:, None], 2, axis=1)  # [node, family, x]
    for inc in np.take(msgs, node_gather, axis=0):
        node += inc
    node -= _logaddexp(node[..., 0], node[..., 1])[..., None]
    node_marg, max_marg = np.exp(node).swapaxes(0, 1)
    return BeliefSet(node_marg, max_marg, converged, iterations)


def entropy(p: np.ndarray) -> float:
    """Shannon entropy of a distribution's probabilities, in nats; zeros add nothing."""
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
        return entropy(dist)

    total = 0.0
    for i in range(n):
        total += subset_entropy([i] + adj[i]) - subset_entropy(adj[i])
    return total


def map_assignment(beliefs: BeliefSet) -> tuple[bool, ...]:
    """Per-node argmax of the max-product marginals; exact ties resolve to false.

    On trees that argmax is the exact minimum-energy assignment.
    """
    return tuple(bool(b[1] > b[0]) for b in beliefs.max_node_marginals)


# which of a block's eight (x, y, t) values has each slot true
_TRUE_AT = np.array([[(v >> 2) & 1, (v >> 1) & 1, v & 1] for v in range(8)], dtype=float)
# a block's (l00, l01, l10, l11) to its coefficients of u, v and u v
_BILINEAR = np.array([[-1.0, -1.0, 1.0], [0.0, 1.0, -1.0], [1.0, 0.0, -1.0], [0.0, 0.0, 1.0]])
# the (slot, slot) entries of P(both Clear columns true) that give a block's
# P(u), P(v) and P(u v), and those to its (u, v) posterior 00, 01, 10, 11 less
# the constant 1 of P(0, 0)
_PICK = (np.array([0, 1, 0]), np.array([0, 1, 1]))
_POSTERIOR = np.array([[-1.0, 0.0, 1.0, 0.0], [-1.0, 1.0, 0.0, 0.0], [1.0, -1.0, -1.0, 1.0]])


@functools.lru_cache(maxsize=8)
def _cutset(index: PredicateIndex) -> tuple[np.ndarray, ...]:
    """Read-only arrays that condition the graph of the index's
    :func:`_structural_edges` on its Clear nodes.

    Every edge joins an On node to a Clear or a Touching node.  Given the
    Clear nodes, the rest falls apart into blocks of an optional Touching
    node and the (at most two) On nodes its edges reach; an On node with no
    Touching edge is a block alone.  Returns:

    * ``nodes[block, slot]``, the block's On, On and Touching positions, the
      node count where a slot is empty;
    * ``cut``, the positions of the Clear nodes that share an edge;
    * ``cols[block, slot]``, the column in ``cut`` of the Clear node each
      On slot sees, ``len(cut)`` where it sees none;
    * ``bits[assignment, column]``, every assignment of those Clear nodes,
      with a last column of zeros for the On slots that see none;
    * ``phi[block, u, v, x, y, t]``, the block's edge energies given the
      values u and v of the Clear nodes its On slots see, over its On, On
      and Touching values.
    """
    n = len(index.preds)
    relation = [p.relation for p in index.preds]
    partner: dict[tuple[int, Relation], tuple[int, np.ndarray]] = {}
    for e in _structural_edges(index):
        on, other = (e.i, e.j) if relation[e.i] is Relation.ON else (e.j, e.i)
        table = e.table_array()  # oriented [x_on, x_other] below
        partner[on, relation[other]] = other, table if on == e.i else table.T
    cut = sorted({c for (_, rel), (c, _) in partner.items() if rel is Relation.CLEAR})
    if len(cut) > CUTSET_CAP:
        raise CapacityError(f"Clear cutset capped at {CUTSET_CAP} nodes, got {len(cut)}")
    column = {c: m for m, c in enumerate(cut)}

    blocks: dict[int, list[int]] = {}  # Touching position, or -1 - position of a lone On
    for k in index.by_relation[Relation.ON].tolist():
        touching = partner.get((k, Relation.TOUCHING))
        blocks.setdefault(touching[0] if touching else -1 - k, []).append(k)
    rows = list(blocks.items())
    nodes = np.full((len(rows), 3), n, dtype=np.intp)
    cols = np.full((len(rows), 2), len(cut), dtype=np.intp)
    phi = np.zeros((len(rows), 2, 2, 2, 2, 2))
    for b, (t, ons) in enumerate(rows):
        nodes[b, : len(ons)] = ons
        if t >= 0:
            nodes[b, 2] = t
        for slot, k in enumerate(ons):
            clear = partner.get((k, Relation.CLEAR))
            if clear is not None:
                cols[b, slot] = column[clear[0]]
                mutex = clear[1].T  # [u, x] for slot 0, [v, y] for slot 1
                if slot == 0:
                    phi[b] += mutex[:, None, :, None, None]
                else:
                    phi[b] += mutex[None, :, None, :, None]
            touching = partner.get((k, Relation.TOUCHING))
            if touching is not None:  # [x, t] or [y, t]
                phi[b] += touching[1][:, None, :] if slot == 0 else touching[1]

    bits = (np.arange(1 << len(cut))[:, None] >> np.arange(len(cut) + 1)) & 1
    out = (nodes, np.array(cut, dtype=np.intp), cols, bits.astype(float), phi)
    for a in out:
        a.flags.writeable = False
    return out


def refined_state(state: ProbabilisticState) -> ProbabilisticState:
    """Belief state with every confidence replaced by its exact marginal
    under :func:`build_mrf`'s model of ``state``.

    The marginals come by conditioning on the Clear nodes (cutset
    conditioning; Koller and Friedman, *Probabilistic Graphical Models*,
    2009, ch. 9): each block's On--Touching--On path folds into a table
    over the two Clear nodes it sees, those tables and the Clear unaries
    give the posterior over every Clear assignment, and each block's
    marginals follow from its tables and that posterior.  A node with no
    edge keeps its normalized clamped confidence.  More than
    ``CUTSET_CAP`` Clear nodes with edges raise ``CapacityError``.
    """
    index = state.scored
    nodes, cut, cols, bits, phi = _cutset(index)
    n, width = len(index.preds), bits.shape[1]
    clamped = np.empty((n + 1, 2))
    clamped[:n, 0] = 1.0 - state.confidences
    clamped[:n, 1] = state.confidences
    np.clip(clamped, CONFIDENCE_CLAMP, 1.0 - CONFIDENCE_CLAMP, out=clamped)
    clamped[n] = 1.0
    log_unary = np.log(clamped)
    log_unary[n, 1] = -np.inf  # row n: an empty slot, never true

    # each block's log-sum and conditional marginals given (u, v)
    x, y, t = (log_unary[nodes[:, slot]] for slot in range(3))
    log_f = (x[:, :, None, None] + y[:, None, :, None] + t[:, None, None, :]).reshape(-1, 1, 8)
    log_f = log_f - phi.reshape(-1, 4, 8)
    peak = log_f.max(axis=2, keepdims=True)
    f = np.exp(log_f - peak)
    z = f.sum(axis=2)
    conditional = (f @ _TRUE_AT) / z[..., None]  # [block, 2 u + v, slot]

    # log-posterior over the Clear assignments: on binary u, v each table
    # is l00 + (l10 - l00) u + (l01 - l00) v + (l11 - l10 - l01 + l00) u v
    coef = (peak[..., 0] + np.log(z)) @ _BILINEAR
    linear = np.zeros(width)
    linear[:-1] = log_unary[cut, 1] - log_unary[cut, 0]
    linear += np.bincount(cols.ravel(), coef[:, :2].ravel(), width)
    quad = np.bincount(cols[:, 0] * width + cols[:, 1], coef[:, 2], width * width)
    log_w = bits @ linear + ((bits @ quad.reshape(width, width)) * bits).sum(axis=1)
    w = np.exp(log_w - log_w.max())
    w /= w.sum()

    # P(both of two Clear columns true), and from it each block's (u, v) posterior
    both = (bits.T * w) @ bits
    posterior = both[cols[:, _PICK[0]], cols[:, _PICK[1]]] @ _POSTERIOR
    posterior[:, 0] += 1.0

    out = np.exp(log_unary[:, 1] - np.logaddexp(log_unary[:, 0], log_unary[:, 1]))
    out[cut] = both.diagonal()[:-1]
    out[nodes] = np.einsum("bq,bqs->bs", posterior, conditional)  # empty slots land on row n
    return state.with_confidences(np.clip(out[:n], 0.0, 1.0))  # rounding may step outside
