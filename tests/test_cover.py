import math

import numpy as np
import pytest

from unispec import cover
from unispec import (
    BudgetError,
    GraphInputError,
    adjacency_spectrum,
    branch_series,
    build_graph,
    canonical_rooted_code,
    closed_walk_counts,
    cover_ball_size,
    cover_walk_rows,
    generate,
    regular_tree_walks,
    rho_cover_estimate,
    sigma,
    universal_cover_ball,
    verify_lifting,
)

from fixture_graphs import (
    FIXTURES,
    LEAFLESS,
    LIFTING_FIXTURES,
    enumerate_closed_walks,
    random_tree,
)


def test_cycle_cover_is_line_segment():
    cb = universal_cover_ball(generate("cycle", 3), 0, 2)
    assert cb.tree.vertex_count == 5
    assert sorted(cb.tree.degree(v) for v in range(5)) == [1, 1, 2, 2, 2]
    assert cb.tree.is_tree()


def test_k4_cover_ball_count():
    cb = universal_cover_ball(generate("complete", 4), 0, 2)
    assert cb.tree.vertex_count == 10  # 1 + 3 + 6


def test_tree_is_its_own_cover():
    rng = np.random.default_rng(2)
    for _ in range(5):
        tree = random_tree(int(rng.integers(2, 12)), rng)
        root = int(rng.integers(tree.vertex_count))
        radius = 12  # past the diameter, so the whole tree lifts
        cb = universal_cover_ball(tree, root, radius)
        assert cb.tree.vertex_count == tree.vertex_count
        code_base, _ = canonical_rooted_code(tree, root, radius)
        code_cover, _ = canonical_rooted_code(cb.tree, cb.root, radius)
        assert code_base == code_cover


@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_cover_ball_invariants(name):
    g = FIXTURES[name]
    if not g.is_connected():
        return
    cb = universal_cover_ball(g, 0, 3)
    t = cb.tree
    assert t.is_tree()
    assert cb.cover_map[cb.root] == 0
    # recompute depths and check the local isomorphism at interior vertices
    from unispec import bfs_distances

    dist = bfs_distances(t, cb.root)
    for v in range(t.vertex_count):
        base = cb.cover_map[v]
        if dist[v] < cb.radius:
            assert t.degree(v) == g.degree(base)
        for w in t.adjacency[v]:
            assert g.has_edge(base, cb.cover_map[w])


def test_cover_walk_counts_cycle():
    cb = universal_cover_ball(generate("cycle", 6), 0, 5)
    counts = closed_walk_counts(cb.tree, cb.root, 10)
    for k in range(6):
        assert counts[2 * k] == math.comb(2 * k, k)


def test_cover_walk_counts_k4_brute_force():
    cb = universal_cover_ball(generate("complete", 4), 0, 2)
    assert closed_walk_counts(cb.tree, cb.root, 4)[4] == 15
    assert len(enumerate_closed_walks(cb.tree, cb.root, 4)) == 15


def test_cover_walk_counts_tree_identity():
    rng = np.random.default_rng(7)
    tree = random_tree(9, rng)
    cb = universal_cover_ball(tree, 0, 4)
    assert closed_walk_counts(cb.tree, cb.root, 8) == closed_walk_counts(tree, 0, 8)


def test_node_budget_errors(monkeypatch):
    g = generate("complete", 4)
    monkeypatch.setattr(cover, "COVER_NODE_BUDGET", 100)
    with pytest.raises(BudgetError, match="cover series of 176 coefficients"):
        universal_cover_ball(g, 0, 10)


def test_node_budget_is_the_exact_ball_size(monkeypatch):
    g = generate("complete", 4)  # 1 + 3*(2^10 - 1) = 3070 vertices within radius 10
    monkeypatch.setattr(cover, "COVER_NODE_BUDGET", 3070)
    assert universal_cover_ball(g, 0, 10).tree.vertex_count == 3070
    monkeypatch.setattr(cover, "COVER_NODE_BUDGET", 3069)
    with pytest.raises(BudgetError, match="cover ball of 3070 vertices"):
        universal_cover_ball(g, 0, 10)


def test_cover_ball_of_empty_graph_is_refused():
    with pytest.raises(GraphInputError, match="nonempty"):
        universal_cover_ball(build_graph([], 0), 0, 0)


def test_lifting_c3():
    g = generate("cycle", 3)
    rows = verify_lifting(g, cover_walk_rows(g, 3), 0)
    by_k = {row.k: row for row in rows}
    assert by_k[3].cover_count == 20  # binom(6, 3) on the line
    assert by_k[3].base_count == 22  # (A^6)_xx on the triangle
    assert all(row.ok for row in rows)


def test_lifting_tree_equality():
    rng = np.random.default_rng(12)
    tree = random_tree(10, rng)
    for row in verify_lifting(tree, cover_walk_rows(tree, 4), 0):
        assert row.cover_count == row.base_count


def test_lifting_k4():
    g = generate("complete", 4)
    assert all(row.ok for row in verify_lifting(g, cover_walk_rows(g, 4), 0))


def test_rho_estimate_cycle_approaches_two():
    values = rho_cover_estimate(cover_walk_rows(generate("cycle", 6), 6))
    assert all(a <= b + 1e-12 for a, b in zip(values, values[1:]))
    assert values[-1] < 2.0
    assert values[-1] > 1.7


# every connected non-tree fixture; glued43 is the graph of "glued_clique_path:4:3"
ROW_GRAPHS = {
    **{name: FIXTURES[name] for name in LIFTING_FIXTURES + ["c4", "c4_chord", "grid4"]},
    "path:6": generate("path", 6),
    "glued_clique_path:4:3": generate("glued_clique_path", 4, 3),
    "random_regular:14:4": generate("random_regular", 14, 4, seed=5),
}


@pytest.mark.parametrize("name", sorted(ROW_GRAPHS))
def test_cover_walk_rows_match_materialized_cover(name):
    # the branch-series recursion and the ball-size recursion against the materialized ball
    g = ROW_GRAPHS[name]
    for k in range(7):
        rows = cover_walk_rows(g, k)
        for x in range(g.vertex_count):
            ball = universal_cover_ball(g, x, k)
            assert rows[x] == closed_walk_counts(ball.tree, ball.root, 2 * k)[::2]
            assert cover_ball_size(g, x, k) == ball.tree.vertex_count


def _full_series_rows(g, k):
    """The rows of the series over all 2m + n branches, with no quotient."""
    succ = cover._cover_branches(g, k)
    return branch_series(succ, [k] * len(succ))[2 * g.edge_count:]


def _full_ball_sizes(g, radius):
    """The ball size at every root by the recursion over all 2m + n branches, with no quotient."""
    succ = cover._cover_branches(g, radius)
    sizes = [1] * len(succ)
    for _ in range(radius):
        sizes = [1 + sum(map(sizes.__getitem__, children)) for children in succ]
    return sizes[2 * g.edge_count:]


QUOTIENT_CASES = {
    **{name: (g, range(9)) for name, g in ROW_GRAPHS.items()},
    # kmax - 1 refinement rounds give wrong rows here at k = 1..5 and at k = 1, 2
    "glued_clique_path:8:10": (generate("glued_clique_path", 8, 10), range(9)),
    "grid:6": (generate("grid", 6), range(9)),
    "random_regular:200:3": (generate("random_regular", 200, 3, seed=1), [40]),  # one edge class
}


@pytest.mark.parametrize("name", sorted(QUOTIENT_CASES))
def test_quotient_rows_equal_the_full_series(name):
    g, ks = QUOTIENT_CASES[name]
    for k in ks:
        rows = cover_walk_rows(g, k)
        assert rows == _full_series_rows(g, k)
        assert len({id(row) for row in rows}) == g.vertex_count  # every root owns its row


@pytest.mark.parametrize("name", sorted(QUOTIENT_CASES))
def test_quotient_ball_size_equals_the_full_pass(name):
    g = QUOTIENT_CASES[name][0]
    for radius in range(9):
        assert [cover_ball_size(g, x, radius) for x in range(g.vertex_count)] == \
            _full_ball_sizes(g, radius)


@pytest.mark.parametrize("name, wrong", [
    ("glued_clique_path:8:10", [1, 2, 3, 4, 5]), ("grid:6", [1, 2]), ("path:6", [1, 2]),
    ("glued_clique_path:4:3", [1, 2]), ("random_regular:14:4", []),
])
def test_ball_size_needs_radius_rounds(name, wrong):
    # a rounds mutant: radius - 1 refinement rounds merge branches whose N_radius differ
    g = QUOTIENT_CASES[name][0]
    assert [radius for radius in range(1, 9)
            if [cover._ball_size(*cover._cone_types(g, radius - 1), x, radius)
                for x in range(g.vertex_count)] != _full_ball_sizes(g, radius)] == wrong


def test_cover_walk_rows_budget(monkeypatch):
    g = generate("cycle", 4)  # 2m + n = 12 series, kmax + 1 coefficients each
    monkeypatch.setattr(cover, "COVER_NODE_BUDGET", 36)
    assert cover_walk_rows(g, 2) == [[1, 2, 6]] * 4
    with pytest.raises(BudgetError, match="48 coefficients"):
        cover_walk_rows(g, 3)


def test_rho_estimate_k4_approaches_2sqrt2():
    values = rho_cover_estimate(cover_walk_rows(generate("complete", 4), 6))
    assert all(a <= b + 1e-12 for a, b in zip(values, values[1:]))
    assert values[-1] < 2 * math.sqrt(2)
    assert values[-1] > 2.3


@pytest.mark.parametrize("d", [2, 3, 4])
def test_cover_of_complete_matches_regular_tree(d):
    cb = universal_cover_ball(generate("complete", d + 1), 0, 5)
    counts = closed_walk_counts(cb.tree, cb.root, 10)
    expected = regular_tree_walks(d, 5)
    assert tuple(counts[2 * k] for k in range(6)) == expected


def test_glued_estimate_below_sigma1():
    g = FIXTURES["glued43"]
    values = rho_cover_estimate(cover_walk_rows(g, 5))
    top = sigma(adjacency_spectrum(g), 1)
    assert values[-1] <= top + 1e-9


@pytest.mark.parametrize("name", LEAFLESS)
def test_lifting_all_leafless(name):
    g = FIXTURES[name]
    rows = cover_walk_rows(g, 4)
    for base in range(g.vertex_count):
        assert all(row.ok for row in verify_lifting(g, rows, base))
