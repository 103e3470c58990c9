import importlib
import math
import re
import tracemalloc
import types
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import unispec
from unispec import (
    DegreeDistribution,
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


def test_random_regular_edges_at_a_fixed_seed():
    # pins the sampler: a rewrite that draws or accepts stub pairings differently changes it
    assert generate("random_regular", 8, 3, seed=7).edges() == [
        (0, 3), (0, 4), (0, 7), (1, 2), (1, 5), (1, 6), (2, 4), (2, 7), (3, 5), (3, 6), (4, 5),
        (6, 7)]


def _pairwise_random_regular(n, d, seed):
    """Reference for the sampler's vectorized check: the same draws, each stub pair checked
    in turn for a loop or a repeated edge. Sorted edges, or None after 2,000 refusals."""
    rng = np.random.default_rng(seed)
    for _ in range(2000):
        stubs = np.repeat(np.arange(n), d)
        rng.shuffle(stubs)
        seen = set()
        for u, v in stubs.reshape(-1, 2).tolist():
            if u == v or (min(u, v), max(u, v)) in seen:
                break
            seen.add((min(u, v), max(u, v)))
        else:
            return sorted(seen)
    return None


@pytest.mark.parametrize("n, d, seeds", [(6, 5, (0, 2)), (8, 3, (0, 1, 7)), (10, 4, (1, 2)),
                                         (13, 4, (0, 7)), (20, 5, (1, 2)), (31, 2, (0, 1))])
def test_random_regular_matches_the_pairwise_check(n, d, seeds):
    for seed in seeds:
        try:
            edges = generate("random_regular", n, d, seed=seed).edges()
        except GraphInputError as exc:
            assert "failed to sample a simple graph" in str(exc)
            edges = None
        assert edges == _pairwise_random_regular(n, d, seed), seed


def test_generate_infeasible():
    with pytest.raises(GraphInputError):
        generate("random_regular", 5, 3, seed=0)  # n*d odd
    with pytest.raises(GraphInputError):
        generate("random_regular", 4, 4, seed=0)  # d >= n
    with pytest.raises(GraphInputError):
        generate("cycle", 2)
    with pytest.raises(GraphInputError):
        generate("nosuch", 3)
    with pytest.raises(GraphInputError, match=r"grid takes 1 or 2 parameter\(s\), got 0"):
        generate("grid")
    with pytest.raises(GraphInputError, match=r"grid takes 1 or 2 parameter\(s\), got 3"):
        generate("grid", 2, 3, 4)


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


MOMENT_GRAPHS = {
    **FIXTURES,
    "isolated": build_graph([(0, 1), (1, 2), (2, 0), (2, 3)], 6),
    "grid6": generate("grid", 6),
    "regular600": generate("random_regular", 600, 4, seed=0xC0FFEE),
}


@pytest.mark.parametrize("name", sorted(MOMENT_GRAPHS))
def test_degree_stats_pin_the_per_vertex_sums(name):
    # the report bytes need these sums to the last bit: per vertex, in vertex order
    degrees = [len(nbrs) for nbrs in MOMENT_GRAPHS[name].adjacency]
    n, deg_sum = len(degrees), sum(degrees)
    s = degree_stats(MOMENT_GRAPHS[name])
    assert (s.d_av, s.d2_mean) == (deg_sum / n, sum(d * d for d in degrees) / n)
    assert s.dlogd_mean == sum(d * math.log(d) for d in degrees if d > 0) / n
    if min(degrees) < 2:
        assert s.dlog_mean is None and s.hoory_lambda is None
        return
    lam = 1.0
    for d in degrees:
        lam *= (d - 1) ** (d / deg_sum)
    assert s.dlog_mean == sum(d * math.log(d - 1) for d in degrees) / n
    assert s.hoory_lambda == lam


@pytest.mark.parametrize("exact", [True, False])
@pytest.mark.parametrize("text", ["2:0.5,3:0.5", "3:1", "1:0.25,2:0.25,4:0.5", "2:1/3,5:2/3",
                                  "2:0.1,3:0.2,7:0.7", "2:0.3,3:0.3,4:0.2,9:0.2"])
def test_law_moments_pin_the_weighted_sums(text, exact):
    pi = DegreeDistribution.from_string(text)
    if not exact:
        pi = DegreeDistribution.build([(d, float(p)) for d, p in zip(pi.support, pi.probabilities)])
    atoms = list(zip(pi.support, pi.probabilities))

    def moment(f):
        return float(sum(p * f(d) for d, p in atoms))

    assert pi.d_av == moment(lambda d: d)
    assert pi.d2_mean == moment(lambda d: d * d)
    assert pi.dlogd_mean == moment(lambda d: d * math.log(d))
    assert pi.mean_d_dm1 == moment(lambda d: d * (d - 1))
    if pi.min_degree < 2:
        assert pi.dlog_mean is None and pi.hoory_lambda is None
        return
    lam = 1.0
    for d, p in atoms:
        lam *= float(d - 1) ** (d * float(p) / moment(lambda d: d))
    assert pi.dlog_mean == moment(lambda d: d * math.log(d - 1))
    assert pi.hoory_lambda == lam


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


def test_public_surface_is_consistent():
    # perfbench's tracer getattrs every name in each module's __all__, so one stale entry
    # breaks every traced run; the package re-exports every function and type of the library,
    # and nothing else, so a name a module stops listing cannot linger as a re-export
    listed = set()
    for short in ("graph", "spectra", "walks", "cover", "nbw", "ensembles", "bounds", "cli"):
        module = importlib.import_module(f"unispec.{short}")
        assert [name for name in module.__all__ if not hasattr(module, name)] == [], short
        listed.update(module.__all__)
        if short != "cli":
            unexported = [name for name in module.__all__ if not name.isupper()
                          and getattr(unispec, name, None) is not getattr(module, name)]
            assert unexported == [], short
    unlisted = [name for name, value in vars(unispec).items() if not name.startswith("_")
                and not isinstance(value, types.ModuleType) and name not in listed]
    assert unlisted == []


# every public function that takes a vertex (a root, a base vertex, or one vertex of a
# selection)
ROOTED_CALLS = {
    "bfs_distances": unispec.bfs_distances,
    "closed_walk_counts": lambda g, v: unispec.closed_walk_counts(g, v, 4),
    "srw_return_probs": lambda g, v: unispec.srw_return_probs(g, v, 4),
    "canonical_rooted_code": lambda g, v: unispec.canonical_rooted_code(g, v, 2),
    "cover_ball_size": lambda g, v: unispec.cover_ball_size(g, v, 3),
    "universal_cover_ball": lambda g, v: unispec.universal_cover_ball(g, v, 2),
    "verify_lifting": lambda g, v: unispec.verify_lifting(g, unispec.cover_walk_rows(g, 2), v),
    "induced_subgraph": lambda g, v: unispec.induced_subgraph(g, [v, 0]),
}


@pytest.mark.parametrize("vertex", [-1, 5])
@pytest.mark.parametrize("name", sorted(ROOTED_CALLS))
def test_root_outside_the_graph_is_refused(name, vertex):
    # a negative root used to index from the end and give wrong counts without an error
    with pytest.raises(GraphInputError, match=rf"^vertex {vertex} is not in 0\.\.4$"):
        ROOTED_CALLS[name](generate("path", 5), vertex)


class _LazyCycle:
    """The adjacency of the n-cycle, each neighbour pair computed when it is read."""

    def __init__(self, n: int):
        self.n = n

    def __len__(self) -> int:
        return self.n

    def __getitem__(self, v: int) -> tuple[int, int]:
        return tuple(sorted(((v - 1) % self.n, (v + 1) % self.n)))


def test_ball_local_routines_cost_their_ball():
    # a root's routines read its ball alone: nothing of size n is built for a 10^7-cycle
    g = unispec.Graph(_LazyCycle(10**7))
    tracemalloc.start()
    try:
        counts = unispec.closed_walk_counts(g, 5, 6)
        code, exact = unispec.canonical_rooted_code(g, 5, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert counts == [1, 0, 2, 0, 6, 0, 20]
    assert exact and code.startswith("g7:")
    assert peak < 10**6


def test_library_reads_no_environment():
    # a run is fixed by its argv, which every report records in ``config``
    package = Path(unispec.__file__).parent
    readers = [path.name for path in sorted(package.glob("*.py"))
               if re.search(r"\b(environ|getenv)\b", path.read_text())]
    assert readers == []
