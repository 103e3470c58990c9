"""Non-backtracking walks on leafless graphs.

A finite graph rooted at a uniform random vertex is the canonical unimodular
network; rooting at a uniform random directed edge gives the stationary law of
the non-backtracking walk, provided no vertex is a leaf. Graphs with leaves are
rejected outright for the walk operations rather than patched.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, NamedTuple

import numpy as np

from .graph import DegreeDistribution, DegreeStats, DirectedEdge, Graph, GraphInputError

__all__ = [
    "EdgeRootedLaw",
    "NBWKernel",
    "NBWSimulation",
    "NBWTrajectory",
    "StationarityReport",
    "degree_biased_edge_law",
    "edge_root_law",
    "nbw_entropy",
    "nbw_entropy_rate",
    "nbw_transition",
    "simulate_nbw",
    "stationarity_check",
]


def _require_edges(g: Graph) -> None:
    if g.edge_count < 1:
        raise GraphInputError("edge-rooted law requires at least one edge")


def _require_leafless(g: Graph) -> None:
    if g.vertex_count == 0 or g.min_degree < 2:
        raise GraphInputError(
            "non-backtracking walk requires minimum degree >= 2 (leaf present)"
        )


@dataclass(frozen=True)
class EdgeRootedLaw:
    """A probability law on the directed edges of a graph.

    ``probabilities`` aligns with ``graph.directed_edges()``. Uniform weight
    1/2m is the edge-rooted law derived from the uniform vertex root.
    """

    graph: Graph
    probabilities: tuple[Fraction, ...]

    def __post_init__(self):
        if len(self.probabilities) != 2 * self.graph.edge_count:
            raise ValueError("one probability per directed edge required")
        total = sum(self.probabilities)
        if abs(float(total) - 1.0) > 1e-12:
            raise ValueError(f"probabilities sum to {float(total)}, expected 1")
        if any(p < 0 for p in self.probabilities):
            raise ValueError("probabilities must be nonnegative")


def edge_root_law(g: Graph) -> EdgeRootedLaw:
    """Uniform law 1/2m on every directed edge."""
    _require_edges(g)
    p = Fraction(1, 2 * g.edge_count)
    return EdgeRootedLaw(g, (p,) * (2 * g.edge_count))


def degree_biased_edge_law(g: Graph) -> EdgeRootedLaw:
    """Same law through the factorized route: root a vertex with probability
    proportional to its degree, then pick a uniform neighbour.

    Kept as an independent construction; it must agree with edge_root_law
    exactly on finite graphs.
    """
    _require_edges(g)
    total = 2 * g.edge_count
    probs = [
        Fraction(g.degree(e.tail), total) * Fraction(1, g.degree(e.tail))
        for e in g.directed_edges()
    ]
    return EdgeRootedLaw(g, tuple(probs))


@dataclass(frozen=True)
class NBWKernel:
    """Stochastic matrix of the non-backtracking step over directed edges.

    Row (x, y) is uniform on {(y, z): z ~ y, z != x}; rows and columns follow ``edges``.
    """

    edges: tuple[DirectedEdge, ...]
    matrix: np.ndarray


def nbw_transition(g: Graph) -> NBWKernel:
    """Dense 2m x 2m kernel: the oracle of ``test_stationarity_matches_dense_kernel``
    and ``test_entropy_matches_kernel_rate``. The CLI does not build it."""
    _require_leafless(g)
    succ = g.nb_successors
    size = len(succ)
    m = np.zeros((size, size), dtype=np.float64)
    for i, targets in enumerate(succ):
        w = 1.0 / len(targets)
        for j in targets:
            m[i, j] = w
    return NBWKernel(tuple(g.edge_index), m)


class StationarityReport(NamedTuple):
    stationarity_deviation: float
    reversal_deviation: float


def stationarity_check(g: Graph) -> StationarityReport:
    """Max deviation of u^T M from u (u uniform on directed edges), and max
    deviation of u(e) M(e, f) from u(rev f) M(rev f, rev e) over the steps e -> f.

    Accumulates both directly from successor lists, without materializing the
    kernel matrix, so it stays usable on graphs where 2m x 2m is large.
    """
    _require_leafless(g)
    index, succ = g.edge_index, g.nb_successors
    size = len(succ)
    u = 1.0 / size
    acc = [0.0] * size
    rev = [index[e.reverse()] for e in index]
    rev_dev = 0.0
    for i, targets in enumerate(succ):
        w = u / len(targets)
        for j in targets:
            acc[j] += w
            w_back = u / len(succ[rev[j]]) if rev[i] in succ[rev[j]] else 0.0
            rev_dev = max(rev_dev, abs(w - w_back))
    stat_dev = max(abs(a - u) for a in acc)
    return StationarityReport(stat_dev, rev_dev)


def nbw_entropy(stats: DegreeStats | DegreeDistribution) -> float:
    """Entropy (nats) of one non-backtracking step under the stationary law:
    E[deg log(deg - 1)] / E[deg], of a graph's degrees or of a degree law."""
    if stats.dlog_mean is None:
        raise GraphInputError("nbw_entropy undefined when a leaf exists")
    return stats.dlog_mean / stats.d_av


def nbw_entropy_rate(g: Graph) -> float:
    """Entropy rate (nats) of the kernel's rows averaged under the uniform edge
    law, read from the successor lists; equals ``nbw_entropy`` up to roundoff."""
    _require_leafless(g)
    succ = g.nb_successors
    p = 1.0 / len(succ)
    rate = 0.0
    for targets in succ:
        w = 1.0 / len(targets)
        rate += p * -sum(w * math.log(w) for _ in targets)
    return rate


# ----------------------------------------------------------------------------
# Simulation
# ----------------------------------------------------------------------------


@dataclass(frozen=True)
class NBWTrajectory:
    edges: tuple[DirectedEdge, ...]
    seed: int


@dataclass(frozen=True)
class NBWSimulation:
    trajectory: NBWTrajectory
    counts: Mapping[DirectedEdge, int]
    total: int
    uniform_target: float
    stderr: float


def simulate_nbw(
    g: Graph, steps: int, seed: int, start: DirectedEdge | None = None
) -> NBWSimulation:
    """Run ``steps`` non-backtracking steps and tally edge occupancy.

    The start edge is drawn from the uniform edge law unless given. The
    occupancy of each directed edge converges to 1/2m; ``stderr`` is the
    binomial standard error sqrt(p(1-p)/N) against that target.
    """
    _require_leafless(g)
    if steps < 0:
        raise GraphInputError(f"steps must be nonnegative, got {steps}")
    index, succ = g.edge_index, g.nb_successors
    edges = list(index)
    rng = np.random.default_rng(seed)
    if start is None:
        cur = int(rng.integers(len(edges)))
    else:
        start = DirectedEdge(*start)
        if start not in index:
            raise GraphInputError(f"start edge {start} is not a directed edge of the graph")
        cur = index[start]
    visited = [cur]
    for _ in range(steps):
        targets = succ[cur]
        nxt = targets[int(rng.integers(len(targets)))]
        if edges[nxt].tail != edges[cur].head or edges[nxt] == edges[cur].reverse():
            raise AssertionError("non-backtracking step invariant violated")
        cur = nxt
        visited.append(cur)
    counts: dict[DirectedEdge, int] = {}
    for i in visited:
        counts[edges[i]] = counts.get(edges[i], 0) + 1
    total = len(visited)
    p = 1.0 / len(edges)
    stderr = math.sqrt(p * (1.0 - p) / total)
    return NBWSimulation(
        trajectory=NBWTrajectory(tuple(edges[i] for i in visited), seed),
        counts=counts,
        total=total,
        uniform_target=p,
        stderr=stderr,
    )
