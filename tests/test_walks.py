import math
from fractions import Fraction

import numpy as np
import pytest

from unispec import (
    BudgetError,
    DyckPath,
    GraphInputError,
    WeightFn,
    bfs_distances,
    branch_series,
    build_graph,
    catalan,
    closed_walk_counts,
    enumerate_dyck,
    generate,
    srw_return_probs,
    walk_identity_check,
    weighted_closed_walks,
)

from fixture_graphs import BIPARTITE, FIXTURES, adjacency_power_diagonal, random_tree, star


def test_closed_walk_examples():
    c4 = FIXTURES["c4"]
    t = closed_walk_counts(c4, 0, 4)
    assert t.counts[2] == 2
    assert t.counts[4] == 8  # trace A^4 = 32 over 4 vertices
    k3 = FIXTURES["c3"]
    assert closed_walk_counts(k3, 0, 3).counts[3] == 2


@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_closed_walks_match_matrix_power(name):
    g = FIXTURES[name]
    for k in (3, 6):
        oracle = adjacency_power_diagonal(g, k)
        for x in range(g.vertex_count):
            assert closed_walk_counts(g, x, k).counts[k] == oracle[x]


@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_walk_table_invariants(name):
    g = FIXTURES[name]
    for x in range(g.vertex_count):
        t = closed_walk_counts(g, x, 6)
        assert t.counts[0] == 1
        assert t.counts[1] == 0
        assert t.counts[2] == g.degree(x)
        assert all(c <= max(1, g.max_degree) ** k for k, c in enumerate(t.counts))
        if name in BIPARTITE:
            assert all(c == 0 for c in t.counts[1::2])


def test_walk_budget():
    with pytest.raises(BudgetError):
        closed_walk_counts(FIXTURES["c4"], 0, 65)
    # explicit budget lifts the default
    assert closed_walk_counts(FIXTURES["c4"], 0, 70, budget=70).counts[0] == 1


def test_exact_escalation_beyond_64_bits():
    g = generate("complete", 5)
    t = closed_walk_counts(g, 0, 40, budget=40)
    assert t.counts[40] > 2**63  # would overflow fixed-width integers
    assert t.counts[40] == adjacency_power_diagonal(g, 40)[0]


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
    assert enumerate_dyck(0) == [DyckPath(())]
    two = {p.steps for p in enumerate_dyck(2)}
    assert two == {(1, 1, -1, -1), (1, -1, 1, -1)}
    for k in range(8):
        assert len(enumerate_dyck(k)) == catalan(k)
    with pytest.raises(BudgetError):
        enumerate_dyck(15)


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


def test_dyck_validation():
    with pytest.raises(ValueError):
        DyckPath((1, -1, -1, 1))  # negative prefix
    with pytest.raises(ValueError):
        DyckPath((1, 1))  # does not return to 0


def test_weighted_unit_matches_exact_counts():
    rng = np.random.default_rng(3)
    for _ in range(10):
        tree = random_tree(int(rng.integers(2, 14)), rng)
        root = int(rng.integers(tree.vertex_count))
        table = closed_walk_counts(tree, root, 10)
        weighted = weighted_closed_walks(tree, root, 5, WeightFn.unit())
        assert weighted == [table.counts[2 * k] for k in range(6)]


def test_weighted_srw_matches_return_probs():
    rng = np.random.default_rng(4)
    for _ in range(10):
        tree = random_tree(int(rng.integers(2, 14)), rng)
        root = int(rng.integers(tree.vertex_count))
        probs = srw_return_probs(tree, root, 10)
        weighted = weighted_closed_walks(tree, root, 5, WeightFn.srw())
        assert all(abs(a - probs[2 * k]) < 1e-12 for k, a in enumerate(weighted))


def test_weighted_srw_star_center():
    assert abs(weighted_closed_walks(star(3), 0, 2, WeightFn.srw())[2] - 1.0) < 1e-15


def test_weighted_explicit_single_edge():
    tree = build_graph([(0, 1)], 2)
    w = WeightFn.explicit({(0, 1): 2, (1, 0): 2})
    assert weighted_closed_walks(tree, 0, 1, w)[1] == 4


def test_weight_validation():
    with pytest.raises(GraphInputError, match="below delta"):
        WeightFn.explicit({(0, 1): Fraction(1, 2)}, delta=1)
    with pytest.raises(GraphInputError, match="no entry"):
        tree = build_graph([(0, 1)], 2)
        weighted_closed_walks(tree, 0, 1, WeightFn.explicit({(0, 1): 1}))


def test_walk_identity_examples():
    p3 = generate("path", 3)
    assert walk_identity_check(p3, 0, 2, WeightFn.unit()) == 0
    assert walk_identity_check(star(3), 0, 3, WeightFn.unit()) == 0
    rng = np.random.default_rng(9)
    tree = random_tree(10, rng)
    assert walk_identity_check(tree, 0, 4, WeightFn.srw()) <= 1e-12


def test_walk_identity_rational_weights_exact():
    rng = np.random.default_rng(5)
    for _ in range(5):
        tree = random_tree(int(rng.integers(3, 10)), rng)
        table = {}
        for u in range(tree.vertex_count):
            for v in tree.adjacency[u]:
                table[(u, v)] = Fraction(int(rng.integers(1, 5)), int(rng.integers(1, 4)))
        residual = walk_identity_check(tree, 0, 3, WeightFn.explicit(table))
        assert residual == 0
        assert isinstance(residual, Fraction)


def test_walk_identity_budgets():
    with pytest.raises(BudgetError):
        walk_identity_check(generate("path", 3), 0, 7, WeightFn.unit())
    with pytest.raises(BudgetError):
        walk_identity_check(generate("path", 17), 0, 2, WeightFn.unit())
    for k in (0, -1):
        with pytest.raises(GraphInputError, match="k >= 1"):
            walk_identity_check(build_graph([(0, 1), (1, 2)], 3), 0, k, WeightFn.unit())


def _walk_weight_products(tree, walk, w):
    """All-steps product and forward-time kappa product for one closed walk."""
    from unispec import edge_weight

    root = walk[0]
    dist = bfs_distances(tree, root)
    full = Fraction(1) if w.mode in ("unit", "explicit") else 1.0
    paired = Fraction(1) if w.mode in ("unit", "explicit") else 1.0
    for a, b in zip(walk, walk[1:]):
        full *= edge_weight(w, tree, a, b)
        if dist[b] > dist[a]:
            paired *= edge_weight(w, tree, a, b) * edge_weight(w, tree, b, a)
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
    for w in (WeightFn.unit(), WeightFn.explicit(table)):
        k = 3
        total_full = Fraction(0)
        total_paired = Fraction(0)
        for walk in enumerate_closed_walks(tree, 0, 2 * k):
            full, paired = _walk_weight_products(tree, walk, w)
            assert full == paired
            total_full += full
            total_paired += paired
        assert total_full == weighted_closed_walks(tree, 0, k, w)[k]
        assert total_paired == total_full


@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_moment_norm_monotone(name):
    g = FIXTURES[name]
    n = g.vertex_count
    norms = []
    for k in range(1, 9):
        total = sum(closed_walk_counts(g, x, 2 * k, budget=16).counts[2 * k] for x in range(n))
        if total == 0:
            norms.append(0.0)
        else:
            norms.append(math.exp((math.log(total) - math.log(n)) / (2 * k)))
    assert all(a <= b + 1e-12 for a, b in zip(norms, norms[1:]))


def test_one_ended_path_catalan():
    path = generate("path", 13)
    t = closed_walk_counts(path, 0, 12)
    for k in range(7):
        assert t.counts[2 * k] == catalan(k)
