import math
from fractions import Fraction

import numpy as np
import pytest

from unispec import (
    bfs_distances,
    branch_series,
    build_graph,
    closed_walk_counts,
    generate,
    srw_return_probs,
    walks,
)

from fixture_graphs import (
    BIPARTITE, FIXTURES, adjacency_power_diagonal, random_tree, srw_weights, star)
from walk_oracles import catalan, enumerate_dyck, walk_identity_check, weighted_closed_walks


def test_closed_walk_examples():
    c4 = FIXTURES["c4"]
    counts = closed_walk_counts(c4, 0, 4)
    assert counts[2] == 2
    assert counts[4] == 8  # trace A^4 = 32 over 4 vertices
    k3 = FIXTURES["c3"]
    assert closed_walk_counts(k3, 0, 3)[3] == 2


@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_closed_walks_match_matrix_power(name):
    g = FIXTURES[name]
    for k in (3, 6):
        oracle = adjacency_power_diagonal(g, k)
        for x in range(g.vertex_count):
            assert closed_walk_counts(g, x, k)[k] == oracle[x]


@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_walk_table_invariants(name):
    g = FIXTURES[name]
    for x in range(g.vertex_count):
        counts = closed_walk_counts(g, x, 6)
        assert counts[0] == 1
        assert counts[1] == 0
        assert counts[2] == g.degree(x)
        assert all(c <= max(1, g.max_degree) ** k for k, c in enumerate(counts))
        if name in BIPARTITE:
            assert all(c == 0 for c in counts[1::2])


def test_exact_escalation_beyond_64_bits():
    g = generate("complete", 5)
    count = closed_walk_counts(g, 0, 40)[40]
    assert count > 2**63  # would overflow fixed-width integers
    assert count == adjacency_power_diagonal(g, 40)[0]


def test_srw_return_probs():
    assert abs(srw_return_probs(FIXTURES["c4"], 0, 2)[2] - 0.5) < 1e-15
    assert abs(srw_return_probs(FIXTURES["c3"], 0, 2)[2] - 0.5) < 1e-15
    assert abs(srw_return_probs(star(3), 0, 2)[2] - 1.0) < 1e-15


@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_srw_matches_float_matrix_power(name):
    g = FIXTURES[name]
    if g.min_degree < 1:
        return
    p = g.adjacency_matrix()
    p = p / p.sum(axis=1, keepdims=True)
    pk = np.linalg.matrix_power(p, 5)
    for x in range(g.vertex_count):
        probs = srw_return_probs(g, x, 5)
        assert abs(probs[5] - pk[x, x]) < 1e-12
        assert all(0.0 <= q <= 1.0 for q in probs)


def _full_srw_iteration(g, x, kmax):
    """Return probabilities with every vertex of the graph updated at every step."""
    vec = [0.0] * g.vertex_count
    vec[x] = 1.0
    probs = [1.0]
    for _ in range(kmax):
        scaled = [value * (1.0 / g.degree(v)) for v, value in enumerate(vec)]
        vec = [sum(scaled[w] for w in g.adjacency[v]) for v in range(g.vertex_count)]
        probs.append(vec[x])
    return probs


@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_srw_return_probs_equal_full_iteration(name):
    # the windowed ball iteration makes the same products and sums, so the floats are equal
    g = FIXTURES[name]
    if g.min_degree < 1:
        return
    for x in range(g.vertex_count):
        full = _full_srw_iteration(g, x, 8)
        for kmax in range(9):
            assert srw_return_probs(g, x, kmax) == full[:kmax + 1]


def test_catalan_and_dyck():
    assert catalan(0) == 1
    assert catalan(2) == 2
    assert catalan(3) == 5
    assert enumerate_dyck(0) == [()]
    two = set(enumerate_dyck(2))
    assert two == {(1, 1, -1, -1), (1, -1, 1, -1)}
    for k in range(8):
        assert len(enumerate_dyck(k)) == catalan(k)


def test_branch_series_cycles_and_orders():
    # E_0 = 1 / (1 - z E_0) gives Catalan numbers; two copies under a root give the
    # line's central binomials, kept to the root's own order
    series = branch_series([[0], [0, 0]], [9, 3])
    assert series == [[catalan(j) for j in range(10)], [math.comb(2 * j, j) for j in range(4)]]


def test_branch_series_excursion_weights():
    # every excursion into the one child branch weighs 2, so the 2j steps weigh 2^j
    assert branch_series([[0]], [8], [[2]])[0] == [2**j * catalan(j) for j in range(9)]
    # weights line up with the successor lists: one-step excursions into two leaves weigh 3 + 5
    assert branch_series([[1, 2], [], []], [2, 1, 1], [[3, 5], [], []])[0] == [1, 8, 64]
    # a half-weight excursion into a Catalan branch stays an exact Fraction
    assert branch_series([[1], [1]], [3, 3], [[Fraction(1, 2)], [1]])[0][3] == Fraction(13, 8)


def test_weighted_unit_matches_exact_counts():
    rng = np.random.default_rng(3)
    for _ in range(10):
        tree = random_tree(int(rng.integers(2, 14)), rng)
        root = int(rng.integers(tree.vertex_count))
        counts = closed_walk_counts(tree, root, 10)
        weighted = weighted_closed_walks(tree, root, 5)
        assert weighted == counts[::2]


def test_weighted_srw_matches_return_probs():
    rng = np.random.default_rng(4)
    for _ in range(10):
        tree = random_tree(int(rng.integers(2, 14)), rng)
        root = int(rng.integers(tree.vertex_count))
        probs = srw_return_probs(tree, root, 10)
        weighted = weighted_closed_walks(tree, root, 5, srw_weights(tree))
        assert all(abs(a - probs[2 * k]) < 1e-12 for k, a in enumerate(weighted))


def test_weighted_srw_star_center():
    assert abs(weighted_closed_walks(star(3), 0, 2, srw_weights(star(3)))[2] - 1.0) < 1e-15


def test_weighted_explicit_single_edge():
    tree = build_graph([(0, 1)], 2)
    assert weighted_closed_walks(tree, 0, 1, {(0, 1): 2, (1, 0): 2})[1] == 4


def test_walk_identity_examples():
    p3 = generate("path", 3)
    assert walk_identity_check(p3, 0, 2) == 0
    assert walk_identity_check(star(3), 0, 3) == 0
    rng = np.random.default_rng(9)
    tree = random_tree(10, rng)
    assert walk_identity_check(tree, 0, 4, srw_weights(tree)) <= 1e-12


def test_walk_identity_rational_weights_exact():
    rng = np.random.default_rng(5)
    for _ in range(5):
        tree = random_tree(int(rng.integers(3, 10)), rng)
        table = {}
        for u in range(tree.vertex_count):
            for v in tree.adjacency[u]:
                table[(u, v)] = Fraction(int(rng.integers(1, 5)), int(rng.integers(1, 4)))
        residual = walk_identity_check(tree, 0, 3, table)
        assert residual == 0
        assert isinstance(residual, Fraction)


def test_walk_oracle_weighs_through_the_library_series(monkeypatch):
    # the oracle's left side is the library's weighted branch series: a copy of that series
    # inside walk_oracles.py would check only itself, and fails here
    weights = []
    original = walks.branch_series

    def recorded(succ, order, weight=None):
        weights.append(weight)
        return original(succ, order, weight)

    monkeypatch.setattr(walks, "branch_series", recorded)
    tree = random_tree(8, np.random.default_rng(6))
    table = {edge: Fraction(edge[0] + 1, edge[1] + 2) for edge in srw_weights(tree)}
    assert walk_identity_check(tree, 0, 3, table) == 0
    assert len(weights) == 1 and weights[0] is not None
    assert walk_identity_check(tree, 0, 3) == 0
    assert len(weights) == 2 and weights[1] is None


def _walk_weight_products(tree, walk, weight):
    """All-steps product and forward-time kappa product for one closed walk."""
    step = (lambda a, b: 1) if weight is None else (lambda a, b: weight[a, b])
    dist = bfs_distances(tree, walk[0])
    full = paired = Fraction(1)
    for a, b in zip(walk, walk[1:]):
        full *= step(a, b)
        if dist[b] > dist[a]:
            paired *= step(a, b) * step(b, a)
    return full, paired


@pytest.mark.parametrize("seed", range(5))
def test_pairing_identity(seed):
    # product over all 2k steps == product of kappa over forward steps,
    # walk by walk, hence also in total; totals match the excursion recursion
    from fixture_graphs import enumerate_closed_walks

    rng = np.random.default_rng(seed)
    tree = random_tree(int(rng.integers(3, 9)), rng)
    table = {}
    for u in range(tree.vertex_count):
        for v in tree.adjacency[u]:
            table[(u, v)] = Fraction(int(rng.integers(1, 4)), 2)
    for weight in (None, table):
        k = 3
        total_full = Fraction(0)
        total_paired = Fraction(0)
        for walk in enumerate_closed_walks(tree, 0, 2 * k):
            full, paired = _walk_weight_products(tree, walk, weight)
            assert full == paired
            total_full += full
            total_paired += paired
        assert total_full == weighted_closed_walks(tree, 0, k, weight)[k]
        assert total_paired == total_full


@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_moment_norm_monotone(name):
    g = FIXTURES[name]
    n = g.vertex_count
    norms = []
    for k in range(1, 9):
        total = sum(closed_walk_counts(g, x, 2 * k)[2 * k] for x in range(n))
        if total == 0:
            norms.append(0.0)
        else:
            norms.append(math.exp((math.log(total) - math.log(n)) / (2 * k)))
    assert all(a <= b + 1e-12 for a, b in zip(norms, norms[1:]))


def test_one_ended_path_catalan():
    path = generate("path", 13)
    counts = closed_walk_counts(path, 0, 12)
    for k in range(7):
        assert counts[2 * k] == catalan(k)
