import math
from fractions import Fraction

import numpy as np
import pytest

from unispec import (
    Graph,
    GraphInputError,
    bfs_distances,
    degree_stats,
    nbw_entropy,
    nbw_entropy_rate,
    nbw_transition,
    stationarity_check,
)

from fixture_graphs import FIXTURES, LEAFLESS, star


def test_kernel_c4_rotation():
    kernel = nbw_transition(FIXTURES["c4"])
    assert kernel.matrix.shape == (8, 8)
    assert np.all(kernel.matrix.sum(axis=1) == 1.0)
    assert np.all((kernel.matrix == 0) | (kernel.matrix == 1))  # degree 2 forces the step


def test_kernel_k3_deterministic():
    kernel = nbw_transition(FIXTURES["c3"])
    assert np.all((kernel.matrix == 0) | (kernel.matrix == 1))


def test_kernel_k4_two_successors():
    kernel = nbw_transition(FIXTURES["k4"])
    for row in kernel.matrix:
        targets = row[row > 0]
        assert len(targets) == 2
        assert np.allclose(targets, 0.5)


def test_kernel_rejects_leaf():
    with pytest.raises(GraphInputError, match="leaf"):
        nbw_transition(star(3))
    with pytest.raises(GraphInputError, match="leaf"):
        stationarity_check(FIXTURES["p5"])


def test_stationarity_exact_small():
    assert stationarity_check(FIXTURES["c4"]) == (0.0, 0.0)
    assert stationarity_check(FIXTURES["k4"]) == (0.0, 0.0)


def test_stationarity_chorded():
    report = stationarity_check(FIXTURES["chorded8"])
    assert report.stationarity_deviation <= 1e-14
    assert report.reversal_deviation <= 1e-14


def test_reversal_detects_redirected_successor(monkeypatch):
    g = FIXTURES["petersen"]
    assert stationarity_check(g).reversal_deviation == 0.0
    succ = [list(targets) for targets in g.nb_successors]
    # send edge 0 to a successor of one of its successors instead
    succ[0] = [succ[succ[0][0]][0]] + succ[0][1:]
    monkeypatch.setattr(Graph, "nb_successors", property(lambda self: succ))
    assert stationarity_check(g).reversal_deviation > 0


@pytest.mark.parametrize("name", LEAFLESS)
def test_stationarity_matches_dense_kernel(name):
    g = FIXTURES[name]
    kernel = nbw_transition(g)
    size = len(kernel.edges)
    u = np.full(size, 1.0 / size)
    dense_dev = float(np.abs(u @ kernel.matrix - u).max())
    report = stationarity_check(g)
    assert report.stationarity_deviation <= 1e-12
    assert abs(report.stationarity_deviation - dense_dev) <= 1e-15


def test_entropy_values():
    assert abs(nbw_entropy(degree_stats(FIXTURES["k4"])) - math.log(2)) < 1e-15
    assert nbw_entropy(degree_stats(FIXTURES["c6"])) == 0.0
    got = nbw_entropy(degree_stats(FIXTURES["c4_chord"]))
    assert abs(got - 6 * math.log(2) / 10) < 1e-15


def test_entropy_rejects_leaf():
    with pytest.raises(GraphInputError):
        nbw_entropy(degree_stats(FIXTURES["p5"]))


@pytest.mark.parametrize("name", LEAFLESS)
def test_entropy_matches_kernel_rate(name):
    g = FIXTURES[name]
    kernel = nbw_transition(g)
    p = 1.0 / (2 * g.edge_count)
    rate = 0.0
    for row in kernel.matrix:
        rate += p * -sum(x * math.log(x) for x in row if x > 0)
    assert abs(rate - nbw_entropy(degree_stats(g))) <= 1e-12
    assert nbw_entropy_rate(g) == rate


# Mass transport on a finite graph with a uniform root: x sends h(deg x, deg y) to every y at
# distance r. The mass the root sends is summed over its own BFS sphere, the mass it receives
# over the receiver's, and both against the adjacency matrix, so the sides agree only when BFS
# spheres match the adjacency and are symmetric. The transport identity that tests the
# unimodular law itself, size-biased UGW offspring, is acceptance criterion 05.
TRANSPORTS = {
    "adjacency": (1, lambda dx, dy: 1),
    "head_degree": (1, lambda dx, dy: dy),
    "degree_product": (1, lambda dx, dy: dx * dy * dy),
    "srw_step": (1, lambda dx, dy: Fraction(1, dx)),
    "distance_two": (2, lambda dx, dy: 1),
}


def _mtp_sides(g, transport):
    """Mean mass sent, mean mass received and the adjacency-matrix sum, as Fractions."""
    r, h = TRANSPORTS[transport]
    n = g.vertex_count
    deg = [g.degree(v) for v in range(n)]
    spheres = [[y for y, d in enumerate(bfs_distances(g, x, limit=r)) if d == r] for x in range(n)]
    sent = sum(h(deg[x], deg[y]) for x in range(n) for y in spheres[x])
    received = sum(h(deg[x], deg[y]) for y in range(n) for x in spheres[y])
    a = g.adjacency_matrix().astype(np.int64)
    at_r = a > 0 if r == 1 else (a @ a > 0) & (a == 0) & ~np.eye(n, dtype=bool)
    direct = sum(h(deg[x], deg[y]) for x, y in zip(*np.nonzero(at_r)))
    return Fraction(sent, n), Fraction(received, n), Fraction(direct, n)


def test_mtp_adjacency_is_average_degree():
    g = FIXTURES["c4_chord"]
    lhs, rhs, direct = _mtp_sides(g, "adjacency")
    assert lhs == rhs == direct == Fraction(2 * g.edge_count, g.vertex_count)


def test_mtp_head_degree_c4():
    assert _mtp_sides(FIXTURES["c4"], "head_degree") == (4, 4, 4)
    lopsided = Graph(((1, 2, 3), (0, 2), (0, 1, 3), (0,)))  # 2 lists 3, 3 does not list 2
    lhs, rhs, _ = _mtp_sides(lopsided, "head_degree")
    assert (lhs, rhs) == (Fraction(21, 4), Fraction(23, 4))


@pytest.mark.parametrize("name", sorted(FIXTURES))
@pytest.mark.parametrize("transport", sorted(TRANSPORTS))
def test_mtp_exact_on_all_fixtures(name, transport):
    lhs, rhs, direct = _mtp_sides(FIXTURES[name], transport)
    assert lhs == rhs == direct
    assert isinstance(lhs, Fraction)
