"""Non-backtracking walks on leafless graphs.

A finite graph rooted at a uniform random vertex is the canonical unimodular
network; rooting at a uniform random directed edge gives the stationary law of
the non-backtracking walk, provided no vertex is a leaf. Graphs with leaves are
rejected outright for the walk operations rather than patched.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .graph import DegreeDistribution, DegreeStats, Graph, GraphInputError

__all__ = [
    "NBWKernel",
    "StationarityReport",
    "nbw_entropy",
    "nbw_entropy_rate",
    "nbw_transition",
    "stationarity_check",
]


def _require_leafless(g: Graph) -> None:
    if g.vertex_count == 0 or g.min_degree < 2:
        raise GraphInputError(
            "non-backtracking walk requires minimum degree >= 2 (leaf present)"
        )


@dataclass(frozen=True)
class NBWKernel:
    """Stochastic matrix of the non-backtracking step over directed edges.

    Row (x, y) is uniform on {(y, z): z ~ y, z != x}; rows and columns follow ``edges``.
    """

    edges: tuple[tuple[int, int], ...]
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
    return NBWKernel(tuple(g.directed_edges()), m)


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
    adj, offsets, succ = g.adjacency, g.edge_offsets, g.nb_successors
    size = len(succ)
    u = 1.0 / size
    acc = [0.0] * size
    rev = [offsets[y] + bisect_left(adj[y], x) for x, y in g.directed_edges()]
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

