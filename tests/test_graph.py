import math
from fractions import Fraction

import numpy as np
import pytest

from unispec import (
    GraphInputError,
    build_graph,
    core_peel,
    degree_stats,
    generate,
    load_graph,
    parse_edge_list,
)

from fixture_graphs import CONNECTED_NON_TREE, FIXTURES, LEAFLESS, random_connected_graph


def test_build_triangle():
    g = build_graph([(0, 1), (1, 2), (2, 0)], 3)
    assert g.adjacency == ((1, 2), (0, 2), (0, 1))
    assert g.edge_count == 3


def test_build_isolated_vertex():
    g = build_graph([], 1)
    assert g.vertex_count == 1
    assert g.adjacency == ((),)


def test_build_rejections():
    with pytest.raises(GraphInputError, match="self-loop"):
        build_graph([(0, 0)], 1)
    with pytest.raises(GraphInputError, match="duplicate"):
        build_graph([(0, 1), (1, 0)], 2)
    with pytest.raises(GraphInputError, match="out of range"):
        build_graph([(0, 5)], 3)


def test_build_order_irrelevant():
    edges = [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)]
    g1 = build_graph(edges, 4)
    g2 = build_graph(list(reversed([(b, a) for a, b in edges])), 4)
    assert g1 == g2


@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_handshake(name):
    g = FIXTURES[name]
    assert sum(g.degree(v) for v in range(g.vertex_count)) == 2 * g.edge_count


def test_generate_cycle():
    g = generate("cycle", 4)
    assert [g.degree(v) for v in range(4)] == [2, 2, 2, 2]
    assert g.edge_count == 4


def test_generate_grid():
    g = generate("grid", 10)
    assert g.vertex_count == 100
    assert g.edge_count == 180


def test_generate_random_regular():
    g = generate("random_regular", 8, 3, seed=7)
    assert g.vertex_count == 8
    assert all(g.degree(v) == 3 for v in range(8))
    # simplicity is enforced by the Graph invariants; determinism by the seed
    assert g == generate("random_regular", 8, 3, seed=7)


def test_generate_infeasible():
    with pytest.raises(GraphInputError):
        generate("random_regular", 5, 3, seed=0)  # n*d odd
    with pytest.raises(GraphInputError):
        generate("random_regular", 4, 4, seed=0)  # d >= n
    with pytest.raises(GraphInputError):
        generate("cycle", 2)
    with pytest.raises(GraphInputError):
        generate("nosuch", 3)


def test_generate_glued_clique_path():
    g = generate("glued_clique_path", 4, 3)
    assert g.vertex_count == 7
    degs = sorted(g.degree(v) for v in range(7))
    assert degs == [1, 2, 2, 3, 3, 3, 4]


def test_degree_stats_c4():
    s = degree_stats(FIXTURES["c4"])
    assert s.d_av == 2.0
    assert s.d2_mean == 4.0
    assert s.dlog_mean == 0.0
    assert s.hoory_lambda == 1.0


def test_degree_stats_k4():
    s = degree_stats(FIXTURES["k4"])
    assert s.d_av == 3.0
    assert abs(s.hoory_lambda - 2.0) < 1e-15
    assert abs(2 * math.sqrt(s.hoory_lambda) - 2 * math.sqrt(2)) < 1e-15


def test_degree_stats_chord():
    # C4 plus one chord: degrees {2, 2, 3, 3}
    s = degree_stats(FIXTURES["c4_chord"])
    assert s.deg_sum == 10
    assert abs(s.dlog_mean - 6 * math.log(2) / 4) < 1e-15
    assert s.min_degree == 2 and s.max_degree == 3


def test_degree_stats_undefined_with_leaf():
    s = degree_stats(FIXTURES["p5"])
    assert s.dlog_mean is None
    assert s.hoory_lambda is None


@pytest.mark.parametrize("name", LEAFLESS)
def test_hoory_lambda_two_forms(name):
    s = degree_stats(FIXTURES[name])
    assert abs(math.log(s.hoory_lambda) - s.dlog_mean / s.d_av) <= 1e-12


@pytest.mark.parametrize("name", [n for n in LEAFLESS])
def test_hoory_lambda_jensen(name):
    s = degree_stats(FIXTURES[name])
    assert s.hoory_lambda >= s.d_av - 1 - 1e-12


def test_core_peel_path():
    core, removed, kept = core_peel(FIXTURES["p5"])
    assert core.vertex_count == 0
    assert removed == 5
    assert kept == ()


def test_core_peel_pendant_triangle():
    g = build_graph([(0, 1), (1, 2), (2, 0), (2, 3)], 4)
    core, removed, kept = core_peel(g)
    assert removed == 1
    assert kept == (0, 1, 2)
    assert core == build_graph([(0, 1), (1, 2), (2, 0)], 3)


def test_core_peel_glued():
    core, removed, _ = core_peel(FIXTURES["glued43"])
    assert removed == 3
    assert core == generate("complete", 4)


@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_core_peel_idempotent(name):
    first = core_peel(FIXTURES[name])
    second = core_peel(first.core)
    assert second.core == first.core
    assert second.removed == 0
    assert first.core.vertex_count + first.removed == FIXTURES[name].vertex_count


def _random_order_peel(g, rng):
    alive = set(range(g.vertex_count))
    degree = {v: g.degree(v) for v in alive}
    while True:
        candidates = [v for v in alive if degree[v] <= 1]
        if not candidates:
            return tuple(sorted(alive))
        v = candidates[int(rng.integers(len(candidates)))]
        alive.discard(v)
        for w in g.adjacency[v]:
            if w in alive:
                degree[w] -= 1


@pytest.mark.parametrize("seed", range(10))
def test_core_peel_order_independent(seed):
    rng = np.random.default_rng(seed)
    g = random_connected_graph(30, int(rng.integers(0, 12)), rng)
    assert core_peel(g).kept == _random_order_peel(g, rng)


@pytest.mark.parametrize("name", CONNECTED_NON_TREE)
def test_core_average_degree_increases(name):
    g = FIXTURES[name]
    core, _, _ = core_peel(g)
    assert core.vertex_count > 0
    lhs = Fraction(2 * core.edge_count, core.vertex_count)
    rhs = Fraction(2 * g.edge_count, g.vertex_count)
    assert lhs >= rhs


def test_parse_edge_list_with_header():
    text = """# triangle plus isolated vertex
n 4
0 1
1 2  # trailing comment

2 0
"""
    edges, n = parse_edge_list(text.splitlines())
    assert n == 4
    assert edges == [(0, 1), (1, 2), (2, 0)]


def test_parse_edge_list_without_header():
    edges, n = parse_edge_list(["0 1", "1 5"])
    assert n == 6
    assert edges == [(0, 1), (1, 5)]


def test_parse_edge_list_errors_name_line():
    with pytest.raises(GraphInputError, match="line 2"):
        parse_edge_list(["0 1", "1 2 3"])
    with pytest.raises(GraphInputError, match="line 1"):
        parse_edge_list(["a b"])


def test_load_graph_roundtrip(tmp_path):
    path = tmp_path / "g.edges"
    path.write_text("n 3\n0 1\n1 2\n")
    g = load_graph(str(path))
    assert g == build_graph([(0, 1), (1, 2)], 3)


def test_load_graph_reports_offending_line(tmp_path):
    path = tmp_path / "bad.edges"
    path.write_text("# header comment\n0 1\n\n2 2\n")
    with pytest.raises(GraphInputError, match="line 4: self-loop"):
        load_graph(str(path))
    path.write_text("0 1\n1 0\n")
    with pytest.raises(GraphInputError, match="line 2: duplicate"):
        load_graph(str(path))
    path.write_text("n 3\n0 1\n\n1 3\n")
    with pytest.raises(GraphInputError, match=r"line 4: endpoint out of range in \(1, 3\) for n=3"):
        load_graph(str(path))
    for text in ("n -3\n0 1\n", "n -3\n"):  # the header is the fault, with or without edges
        path.write_text(text)
        message = "^line 1: vertex count must be nonnegative, got -3$"
        with pytest.raises(GraphInputError, match=message):
            load_graph(str(path))
