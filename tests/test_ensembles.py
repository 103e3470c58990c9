import math
from fractions import Fraction

import numpy as np
import pytest

from unispec import ensembles, graph, walks
from unispec import (
    DegreeDistribution,
    GraphInputError,
    ball_census,
    bfs_distances,
    build_graph,
    canonical_rooted_code,
    closed_walk_counts,
    estimate_sphere,
    estimate_walk_moment,
    generate,
    regular_tree_walks,
    sample_ugw,
    tv_distance,
    universal_cover_ball,
)

from fixture_graphs import enumerate_closed_walks, random_connected_graph

UNIFORM_23 = DegreeDistribution.from_string("2:0.5,3:0.5")
DELTA_3 = DegreeDistribution.from_string("3:1")
DELTA_2 = DegreeDistribution.from_string("2:1")


def test_distribution_moments():
    pi = UNIFORM_23
    assert pi.d_av == 2.5
    assert pi.d2_mean == 6.5
    assert pi.mean_d_dm1 == 4.0
    assert abs(pi.dlog_mean - 1.5 * math.log(2)) < 1e-15


def test_distribution_validation():
    with pytest.raises(GraphInputError):
        DegreeDistribution.from_string("2:0.5,3:0.4")  # sums to 0.9
    # a law with leaves is valid; only the bounds need minimum degree 2
    leafy = DegreeDistribution.from_string("1:0.5,3:0.5")
    assert leafy.min_degree == 1
    assert leafy.dlog_mean is None and leafy.hoory_lambda is None
    with pytest.raises(GraphInputError):
        DegreeDistribution.from_string("2:0.5;3:0.5")


def test_size_biased_exact_normalization():
    rng = np.random.default_rng(0)
    for _ in range(50):
        support = sorted(set(int(d) for d in rng.integers(2, 9, size=3)))
        weights = [Fraction(int(rng.integers(1, 9)), 1) for _ in support]
        total = sum(weights)
        pi = DegreeDistribution.build(
            [(d, w / total) for d, w in zip(support, weights)]
        )
        offspring = pi.size_biased_offspring()
        assert sum(p for _, p in offspring) == 1
        assert all(isinstance(p, Fraction) for _, p in offspring)


def test_ugw_point_mass_three():
    tree = sample_ugw(DELTA_3, 2, seed=0)
    assert tree.graph.vertex_count == 10
    assert tree.graph.is_tree()
    assert tree.graph.degree(tree.root) == 3


@pytest.mark.parametrize("r", [1, 2, 4])
def test_ugw_line(r):
    tree = sample_ugw(DELTA_2, r, seed=1)
    assert tree.graph.vertex_count == 2 * r + 1
    assert sorted(tree.graph.degree(v) for v in range(tree.graph.vertex_count)) == (
        [1, 1] + [2] * (2 * r - 1)
    )


def test_ugw_depth_truncation_and_determinism():
    pi = UNIFORM_23
    t1 = sample_ugw(pi, 3, seed=9)
    t2 = sample_ugw(pi, 3, seed=9)
    assert t1.graph == t2.graph
    dist = bfs_distances(t1.graph, t1.root)
    assert max(dist) <= 3
    assert t1.graph.is_tree()
    assert t1.graph.degree(0) in (2, 3)


def test_ugw_second_sphere_mean():
    # E[|S_2|] = E[D] * E[D(D-1)] / E[D] = 4 for pi uniform on {2, 3}
    est, exact = estimate_sphere(UNIFORM_23, 2, samples=4000, seed=123)
    assert exact == 4.0
    assert abs(est.mean - 4.0) <= 3 * est.stderr


def test_walk_moment_point_mass_zero_variance():
    est = estimate_walk_moment(DELTA_3, 3, samples=20, seed=5)
    assert est.stderr == 0.0
    assert est.mean == float(regular_tree_walks(3, 3)[3])


def test_walk_moment_line():
    est = estimate_walk_moment(DELTA_2, 2, samples=10, seed=5)
    assert est.mean == 6.0
    assert est.stderr == 0.0


def test_walk_moment_w2_is_mean_degree():
    est = estimate_walk_moment(UNIFORM_23, 1, samples=3000, seed=17)
    assert abs(est.mean - 2.5) <= 3 * est.stderr


def test_walk_moment_matches_walk_iteration():
    # branch series on each sample against ball-local walk iteration on the same trees
    for k in (1, 3, 5):
        est = estimate_walk_moment(UNIFORM_23, k, samples=60, seed=41)
        trees = [sample_ugw(UNIFORM_23, k, (41, i)) for i in range(60)]
        counts = [float(closed_walk_counts(t.graph, t.root, 2 * k, budget=2 * k).counts[2 * k])
                  for t in trees]
        assert est.mean == float(np.asarray(counts).mean())


def test_walk_moment_builds_no_graph(monkeypatch):
    # the counts of the grower go straight to branch_series: no Graph, no BFS
    expected = estimate_walk_moment(UNIFORM_23, 4, samples=30, seed=8)

    def forbidden(*args, **kwargs):
        raise AssertionError("estimate_walk_moment built a graph or ran a BFS")

    monkeypatch.setattr(ensembles, "build_graph", forbidden)
    monkeypatch.setattr(graph, "bfs_distances", forbidden)
    monkeypatch.setattr(walks, "bfs_distances", forbidden)
    assert estimate_walk_moment(UNIFORM_23, 4, samples=30, seed=8) == expected


def test_negative_depth_rejected():
    with pytest.raises(GraphInputError, match="depth must be nonnegative"):
        sample_ugw(UNIFORM_23, -1, 0)
    with pytest.raises(GraphInputError, match="depth must be nonnegative"):
        estimate_walk_moment(UNIFORM_23, -1, samples=3, seed=0)


@pytest.mark.parametrize("pi,r", [(UNIFORM_23, 3), (DELTA_2, 4),
                                  (DegreeDistribution.from_string("1:0.5,3:0.5"), 4)])
def test_sphere_samples_match_sampled_trees(monkeypatch, pi, r):
    # sample i of the sphere estimate is |S_r| of the tree sample_ugw draws from (seed, i)
    seen = []
    aggregate = ensembles._aggregate

    def recording(values, *rest):
        seen.append(list(values))
        return aggregate(values, *rest)

    monkeypatch.setattr(ensembles, "_aggregate", recording)
    estimate_sphere(pi, r, samples=40, seed=21)
    spheres = []
    for i in range(40):
        tree = sample_ugw(pi, r, (21, i))
        spheres.append(float(bfs_distances(tree.graph, tree.root).count(r)))
    assert seen == [spheres]


def test_sphere_point_masses():
    est, exact = estimate_sphere(DELTA_3, 3, samples=50, seed=3)
    assert (est.mean, est.stderr, exact) == (12.0, 0.0, 12.0)
    est, exact = estimate_sphere(DELTA_2, 5, samples=50, seed=3)
    assert (est.mean, exact) == (2.0, 2.0)


def test_sphere_uniform_23():
    est, exact = estimate_sphere(UNIFORM_23, 3, samples=20000, seed=99)
    assert abs(exact - 6.4) < 1e-12
    assert abs(est.mean - exact) <= 3 * est.stderr


def test_estimates_deterministic():
    a = estimate_walk_moment(UNIFORM_23, 2, samples=100, seed=31)
    b = estimate_walk_moment(UNIFORM_23, 2, samples=100, seed=31)
    assert a == b


@pytest.mark.parametrize("master", [0, 12345, 2**40 + 3])
def test_uniforms_are_numpy_philox_streams(monkeypatch, master):
    # the stream layout: generation g of sample i draws Generator(Philox(key, counter=[0, g, i, 0]))
    key = ensembles._philox_key(master)
    trees = np.array([0, 2, 2**32 + 5, 2**40, 2**63 + 1], np.uint64)
    sizes = np.array([1, 0, 5, 9, 4])
    pieces = (ensembles._PHILOX_SLICE, 3)  # slices of 3 blocks cut through trees
    for g in (0, 1, 5):
        counters = [np.array([0, g, i, 0], np.uint64) for i in trees]  # a list rounds past 2^63
        expected = np.concatenate([np.random.Generator(np.random.Philox(key=key, counter=c))
                                   .random(s) for c, s in zip(counters, sizes)])
        for piece in pieces:
            monkeypatch.setattr(ensembles, "_PHILOX_SLICE", piece)
            assert np.array_equal(ensembles._uniforms(key, g, trees, sizes), expected)


@pytest.mark.parametrize("chunk", [1, 3])
def test_estimates_do_not_depend_on_the_chunk(monkeypatch, chunk):
    expected = (estimate_sphere(UNIFORM_23, 4, samples=20, seed=13),
                estimate_walk_moment(UNIFORM_23, 4, samples=20, seed=13))
    monkeypatch.setattr(ensembles, "UGW_CHUNK", chunk)
    assert (estimate_sphere(UNIFORM_23, 4, samples=20, seed=13),
            estimate_walk_moment(UNIFORM_23, 4, samples=20, seed=13)) == expected


def test_fewer_samples_are_a_prefix(monkeypatch):
    # sample i depends on (seed, i) alone, across the chunk boundary too
    seen = []
    aggregate = ensembles._aggregate

    def recording(values, *rest):
        seen.append(list(values))
        return aggregate(values, *rest)

    monkeypatch.setattr(ensembles, "_aggregate", recording)
    many = ensembles.UGW_CHUNK + 5
    for samples in (7, many):
        estimate_sphere(UNIFORM_23, 3, samples=samples, seed=4)
        estimate_walk_moment(UNIFORM_23, 3, samples=samples, seed=4)
    assert seen[0] == seen[2][:7] and seen[1] == seen[3][:7]
    assert len(seen[2]) == len(seen[3]) == many


def test_chunk_over_the_budget_is_split(monkeypatch):
    # a depth-5 tree of UNIFORM_23 has at most 1 + 3 + 6 + 12 + 24 + 48 = 94 vertices, and
    # at least 11, so 40 of them pass a budget of 100 together but never alone
    expected = (estimate_sphere(UNIFORM_23, 5, samples=40, seed=2),
                estimate_walk_moment(UNIFORM_23, 5, samples=40, seed=2))
    monkeypatch.setattr(ensembles, "UGW_NODE_BUDGET", 100)
    assert (estimate_sphere(UNIFORM_23, 5, samples=40, seed=2),
            estimate_walk_moment(UNIFORM_23, 5, samples=40, seed=2)) == expected
    runs = list(ensembles._generations(ensembles._inverse_cdfs(UNIFORM_23), 5,
                                       ensembles._philox_key(2), np.arange(40, dtype=np.uint64)))
    assert len(runs) > 1
    assert all(sum(map(len, counts)) + last.sum() <= 100 for counts, last in runs)
    assert sum(len(last) for _, last in runs) == 40


def test_tree_over_the_budget_raises(monkeypatch):
    # a depth-3 tree of the 3-regular law has 1 + 3 + 6 + 12 = 22 vertices
    monkeypatch.setattr(ensembles, "UGW_NODE_BUDGET", 21)
    for call in (lambda: sample_ugw(DELTA_3, 3, seed=0),
                 lambda: estimate_sphere(DELTA_3, 3, samples=5, seed=0),
                 lambda: estimate_walk_moment(DELTA_3, 3, samples=5, seed=0)):
        with pytest.raises(graph.BudgetError, match="^UGW sample exceeded node budget 21$"):
            call()
    monkeypatch.setattr(ensembles, "UGW_NODE_BUDGET", 22)
    assert sample_ugw(DELTA_3, 3, seed=0).graph.vertex_count == 22


def test_walk_moment_past_int64():
    # W_68 of the line is binom(68, 34) ~ 2.8e19 > 2^63: the counts must not wrap
    assert estimate_walk_moment(DELTA_2, 34, samples=3, seed=0).mean == float(math.comb(68, 34))


def test_regular_tree_walks_values():
    assert regular_tree_walks(3, 2) == (1, 3, 15)
    assert regular_tree_walks(2, 5) == tuple(math.comb(2 * k, k) for k in range(6))
    with pytest.raises(GraphInputError):
        regular_tree_walks(1, 3)


def test_regular_tree_walks_brute_force():
    # depth-2 ball of the 3-regular tree carries all length-4 closed walks
    edges = [(0, 1), (0, 2), (0, 3)]
    nxt = 4
    for leaf in (1, 2, 3):
        edges += [(leaf, nxt), (leaf, nxt + 1)]
        nxt += 2
    ball = build_graph(edges, nxt)
    assert len(enumerate_closed_walks(ball, 0, 4)) == regular_tree_walks(3, 2)[2]


def test_ugw_walk_norms_monotone_within_noise():
    norms = []
    for k in range(1, 5):
        est = estimate_walk_moment(UNIFORM_23, k, samples=800, seed=77)
        norms.append((est.mean ** (1 / (2 * k)), est))
    for (a, ea), (b, eb) in zip(norms, norms[1:]):
        slack = 3 * (ea.stderr + eb.stderr)
        assert a <= b + slack


def test_census_c6():
    census = ball_census(generate("cycle", 6), 1)
    assert census.total == 6
    assert census.exact
    assert list(census.counts.values()) == [6]


def test_census_k4_transitive():
    census = ball_census(generate("complete", 4), 2)
    assert list(census.counts.values()) == [4]


def test_census_grid10():
    census = ball_census(generate("grid", 10), 1)
    assert census.total == 100
    assert max(census.counts.values()) == 64  # (10 - 2)^2 interior class
    assert sorted(census.counts.values()) == [4, 32, 64]


def test_census_relabel_invariance():
    rng = np.random.default_rng(21)
    for _ in range(5):
        g = random_connected_graph(12, 5, rng)
        perm = rng.permutation(12)
        relabeled = build_graph(
            [(int(perm[u]), int(perm[v])) for u, v in g.edges()], 12
        )
        assert ball_census(g, 2).counts == ball_census(relabeled, 2).counts


def test_census_hash_degradation_flagged():
    big = generate("complete", 45)
    census = ball_census(big, 1)
    assert not census.exact
    assert list(census.counts.values()) == [45]
    code, exact = canonical_rooted_code(big, 0, 1)
    assert code.startswith("h") and not exact
    # K_9's radius-1 ball is small enough to search, but cyclic: it exhausts CANON_SEARCH_CAP
    code, exact = canonical_rooted_code(generate("complete", 9), 0, 1)
    assert code.startswith("h9:") and not exact
    # EXACT_CANON_LIMIT (40) bounds cyclic balls: the centre of grid:9 has a 41-vertex ball
    code, exact = canonical_rooted_code(generate("grid", 9), 40, 4)
    assert code.startswith("h41:") and not exact


def test_tree_ball_search_takes_one_branch_per_level(monkeypatch):
    # a tree ball's pruned search gives the full search's code, and stays exact past the cap
    rng = np.random.default_rng(31)
    for _ in range(40):
        n = int(rng.integers(2, 24))
        tree = build_graph([(v, int(rng.integers(v))) for v in range(1, n)], n)
        adj, _, dist = walks._ball_adjacency(tree, int(rng.integers(n)), n)
        assert (ensembles._min_code(adj, dist, [10**9], True)
                == ensembles._min_code(adj, dist, [10**9], False))
    # roots 7, 11, 12 and 18 have tree balls that exhausted the cap of the full search
    cubic = generate("random_regular", 150, 3, seed=0xC0FFEE)
    assert all(canonical_rooted_code(cubic, root, 3)[1] for root in range(20))
    # and past EXACT_CANON_LIMIT (40): the radius-4 ball of the cubic tree, in any labelling
    ball = universal_cover_ball(generate("complete", 4), 0, 4)
    code, exact = canonical_rooted_code(ball.tree, ball.root, 4)
    assert exact and code.startswith("g46:")
    perm = np.random.default_rng(5).permutation(46)
    relabeled = build_graph([(int(perm[u]), int(perm[v])) for u, v in ball.tree.edges()], 46)
    assert canonical_rooted_code(relabeled, int(perm[ball.root]), 4) == (code, True)
    # its one branch is searched by a loop, not by a recursion that a big ball overflows
    calls = []
    search = ensembles._min_code
    monkeypatch.setattr(ensembles, "_min_code", lambda *args: calls.append(1) or search(*args))
    assert canonical_rooted_code(ball.tree, ball.root, 4) == (code, True) and len(calls) == 1


def _ball_nx(nx, g, root, radius):
    dist = bfs_distances(g, root, radius)
    ball = nx.Graph()
    ball.add_nodes_from((v, {"dist": d}) for v, d in enumerate(dist) if d >= 0)
    ball.add_edges_from((u, v) for u, v in g.edges() if dist[u] >= 0 and dist[v] >= 0)
    return ball


def _cone(cycle_lengths):
    """Vertex 0 joined to every vertex of disjoint cycles: its neighbours form one refinement
    cell that is not one automorphism orbit unless the cycles have equal lengths."""
    edges, start = [], 1
    for length in cycle_lengths:
        edges += [(start + i, start + (i + 1) % length) for i in range(length)]
        start += length
    return build_graph(edges + [(0, v) for v in range(1, start)], start)


def test_canonical_codes_agree_with_vf2():
    # equal codes exactly when networkx finds a distance-preserving isomorphism
    nx = pytest.importorskip("networkx")
    from networkx.algorithms.isomorphism import GraphMatcher, categorical_node_match

    rng = np.random.default_rng(17)
    graphs = [generate("random_regular", 40, 3, seed=3), generate("grid", 5),
              random_connected_graph(16, 6, rng), random_connected_graph(16, 2, rng),
              _cone((3, 4)), _cone((4, 3))]
    balls = []
    for g, radius in [(g, 2) for g in graphs] + [(graphs[0], 3)]:
        for root in range(g.vertex_count):
            code, exact = canonical_rooted_code(g, root, radius)
            assert exact
            balls.append((code, _ball_nx(nx, g, root, radius)))
    match = categorical_node_match("dist", -1)
    outcomes = {True: 0, False: 0}
    for i, (code_a, a) in enumerate(balls):
        for code_b, b in balls[i + 1:]:
            if (len(a), a.number_of_edges()) == (len(b), b.number_of_edges()):
                isomorphic = GraphMatcher(a, b, node_match=match).is_isomorphic()
                assert (code_a == code_b) == isomorphic
                outcomes[isomorphic] += 1
    assert min(outcomes.values()) > 100  # both outcomes are exercised


def test_tv_distance():
    c10 = ball_census(generate("grid", 10), 1)
    c20 = ball_census(generate("grid", 20), 1)
    assert tv_distance(c10, c10) == 0.0
    d = tv_distance(c10, c20)
    assert 0.0 < d <= 1 - 64 / 100 + 1e-12
    with pytest.raises(GraphInputError, match="radii"):
        tv_distance(c10, ball_census(generate("grid", 10), 2))


def test_tv_disjoint_supports():
    a = ball_census(generate("cycle", 5), 1)
    b = ball_census(generate("complete", 4), 1)
    assert tv_distance(a, b) == 1.0
