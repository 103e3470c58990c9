import math
from fractions import Fraction

import numpy as np
import pytest

from unispec import cover, ensembles, graph, walks
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


def test_numpy_integer_seeds_are_their_values():
    assert (sample_ugw(UNIFORM_23, 4, (np.int64(1), np.uint64(2**64 - 1))).graph
            == sample_ugw(UNIFORM_23, 4, (1, 2**64 - 1)).graph)
    assert estimate_sphere(UNIFORM_23, 3, 10, np.int32(4)) == estimate_sphere(UNIFORM_23, 3, 10, 4)


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
        counts = [float(closed_walk_counts(t.graph, t.root, 2 * k)[2 * k]) for t in trees]
        assert est.mean == float(np.asarray(counts).mean())


def test_walk_moment_builds_no_graph(monkeypatch):
    # the counts of the grower go straight to branch_series: no Graph, no BFS
    expected = estimate_walk_moment(UNIFORM_23, 4, samples=30, seed=8)

    def forbidden(*args, **kwargs):
        raise AssertionError("estimate_walk_moment built a graph or ran a BFS")

    monkeypatch.setattr(ensembles, "build_graph", forbidden)
    monkeypatch.setattr(graph, "bfs_distances", forbidden)
    for module in (graph, walks, ensembles):  # the ball builder and its imported names
        monkeypatch.setattr(module, "_ball", forbidden)
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
def test_uniforms_are_numpy_philox_streams(master):
    # the stream layout: generation g of sample i draws Generator(Philox(key, counter=[0, g, i, 0]))
    key = ensembles._philox_key(master)
    trees = np.array([0, 2, 2**32 + 5, 2**40, 2**63 + 1], np.uint64)
    sizes = np.array([1, 0, 5, 9, 4])
    for g in (0, 1, 5):
        counters = [np.array([0, g, i, 0], np.uint64) for i in trees]  # a list rounds past 2^63
        expected = np.concatenate([np.random.Generator(np.random.Philox(key=key, counter=c))
                                   .random(s) for c, s in zip(counters, sizes)])
        assert np.array_equal(ensembles._uniforms(key, g, trees, sizes), expected)


@pytest.mark.parametrize("master", [0, 7, 2**40 + 3])
def test_philox_is_numpy_philox(master):
    # numpy's Philox bumps its counter before each block, so block 1 of counter c is the kernel
    # at c + 1; the counters cover the full range of every word, past 2^63 too
    key = ensembles._philox_key(master)
    c = np.random.default_rng(master).integers(0, 2**64, (200, 4), np.uint64)
    c = c[c[:, 0] != 2**64 - 1]  # c + 1 would carry into word 1
    expected = [np.random.Philox(key=key, counter=ci).random_raw(4) for ci in c]
    nxt = c.T.copy()
    nxt[0] += np.uint64(1)
    assert np.array_equal(ensembles._philox(nxt, key).T, expected)


@pytest.mark.parametrize("draws", [1, 3, 7])
def test_estimates_do_not_depend_on_the_chunk(monkeypatch, draws):
    # at 1 every run of two or more trees splits before every generation
    expected = (estimate_sphere(UNIFORM_23, 4, samples=20, seed=13),
                estimate_walk_moment(UNIFORM_23, 4, samples=20, seed=13))
    monkeypatch.setattr(ensembles, "UGW_DRAWS", draws)
    assert (estimate_sphere(UNIFORM_23, 4, samples=20, seed=13),
            estimate_walk_moment(UNIFORM_23, 4, samples=20, seed=13)) == expected


def test_runs_keep_to_the_draw_bound(monkeypatch):
    # each generation of a run of two or more trees draws at most UGW_DRAWS values, and the
    # split runs draw each vertex once: as many draws as one run, and the same estimates
    uniforms = ensembles._uniforms

    def run():
        calls = []

        def recording(key, g, trees, sizes):
            calls.append((len(trees), int(sizes.sum())))
            return uniforms(key, g, trees, sizes)

        monkeypatch.setattr(ensembles, "_uniforms", recording)
        return (estimate_sphere(UNIFORM_23, 5, 200, 3),
                estimate_walk_moment(UNIFORM_23, 5, 200, 3)), calls

    expected, unbounded = run()
    monkeypatch.setattr(ensembles, "UGW_DRAWS", 50)
    estimates, calls = run()
    assert all(draws <= 50 for trees, draws in calls if trees > 1)
    assert sum(draws for _, draws in calls) == sum(draws for _, draws in unbounded)
    assert estimates == expected


def test_fewer_samples_are_a_prefix(monkeypatch):
    # sample i depends on (seed, i) alone, across the split of a run past the draw bound too
    seen = []
    aggregate = ensembles._aggregate

    def recording(values, *rest):
        seen.append(list(values))
        return aggregate(values, *rest)

    monkeypatch.setattr(ensembles, "_aggregate", recording)
    many = ensembles.UGW_DRAWS + 5
    for samples in (7, many):
        estimate_sphere(UNIFORM_23, 3, samples=samples, seed=4)
        estimate_walk_moment(UNIFORM_23, 3, samples=samples, seed=4)
    assert seen[0] == seen[2][:7] and seen[1] == seen[3][:7]
    assert len(seen[2]) == len(seen[3]) == many


def test_estimates_are_pinned():
    # the exact floats, so a change to the streams, the laws or the splits shows; the 20,000 sphere
    # root draws pass the draw bound, and so does generation 7 of the walk runs
    pinned = [
        (UNIFORM_23, (6.40685, 0.014325725642904089), (332172.32, 9642.791985425214)),
        (DegreeDistribution.from_string("2:0.5,5:0.5"), (34.52375, 0.12256995131973955),
         (42622958.34, 1533215.3763036919)),
    ]
    for pi, sphere, walks_ in pinned:
        assert estimate_sphere(pi, 3, 20000, 1)[0] == ensembles.Estimate(*sphere, 20000, 1)
        assert estimate_walk_moment(pi, 8, 600, 1) == ensembles.Estimate(*walks_, 600, 1)


def test_chunk_over_the_budget_is_split(monkeypatch):
    # a depth-5 tree of UNIFORM_23 has at most 1 + 3 + 6 + 12 + 24 + 48 = 94 vertices, and
    # at least 11, so 40 of them pass a budget of 100 together but never alone
    expected = (estimate_sphere(UNIFORM_23, 5, samples=40, seed=2),
                estimate_walk_moment(UNIFORM_23, 5, samples=40, seed=2))
    monkeypatch.setattr(ensembles, "UGW_NODE_BUDGET", 100)
    assert (estimate_sphere(UNIFORM_23, 5, samples=40, seed=2),
            estimate_walk_moment(UNIFORM_23, 5, samples=40, seed=2)) == expected
    runs = list(ensembles._generations(UNIFORM_23, 5, 2, np.arange(40, dtype=np.uint64)))
    assert len(runs) > 1
    assert all(sum(map(len, counts)) + last.sum() <= 100 for counts, last in runs)
    assert sum(len(last) for _, last in runs) == 40


def test_split_chunk_draws_each_vertex_once(monkeypatch):
    # 64 depth-5 trees of the 10-regular law pass the budget together, so the run halves three
    # times; each half keeps the generations already drawn, 1 + 10 + 90 + 810 + 7290 per tree
    drawn = []
    uniforms = ensembles._uniforms
    monkeypatch.setattr(ensembles, "_uniforms",
                        lambda key, g, trees, sizes: drawn.append(int(sizes.sum()))
                        or uniforms(key, g, trees, sizes))
    pi = DegreeDistribution.from_string("10:1")
    assert estimate_sphere(pi, 5, 64, 0) == (ensembles.Estimate(65610.0, 0.0, 64, 0), 65610.0)
    assert sum(drawn) == 64 * 8201


def test_sphere_job_makes_one_pass_per_run_generation(monkeypatch):
    # the 100,000 root draws are cut by the halving split alone, into 8 runs of 12,500 trees: a
    # fixed-size chunker ahead of it (7 chunks of at most 16,384 trees) makes 72 passes
    passes = []
    philox = ensembles._philox
    monkeypatch.setattr(ensembles, "_philox",
                        lambda ctr, key: passes.append(1) or philox(ctr, key))
    estimate_sphere(UNIFORM_23, 3, 100_000, 1)
    assert len(passes) <= 56


@pytest.mark.parametrize("text,largest", [(",".join(f"{d}:1/7" for d in range(2, 9)), 8),
                                          ("2:0.4999999999999,3:0.5", 3)])
def test_largest_draw_finds_the_largest_atom(monkeypatch, text, largest):
    # a float cumsum of these exact laws ends below 1 (0.9999999999999998 for the uniform law on
    # 2..8), so the draw 1 - 2^-53 fell past the end of the table
    pi = DegreeDistribution.from_string(text)
    monkeypatch.setattr(ensembles, "_uniforms",
                        lambda key, g, trees, sizes: np.full(int(sizes.sum()), 1 - 2.0 ** -53))
    tree = sample_ugw(pi, 2, 0)
    assert tree.graph.degree(0) == largest
    assert all(tree.graph.degree(v) == largest for v in tree.graph.adjacency[0])
    est, _ = estimate_sphere(pi, 2, 3, 0)
    assert (est.mean, est.stderr) == (largest * (largest - 1), 0.0)


def test_aggregate_past_the_float_range():
    # the sum 2.5e308 and the squares of 1e308 pass the float range, the mean and stderr do not
    est = ensembles._aggregate([1e308, 1.5e308], 2, 0)
    assert math.isclose(est.mean, 1.25e308, rel_tol=1e-15)
    assert math.isclose(est.stderr, 0.25e308, rel_tol=1e-15)


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
    assert regular_tree_walks(1, 3) == (1, 1, 1, 1)  # the 1-regular tree is K_2
    with pytest.raises(GraphInputError):
        regular_tree_walks(0, 3)


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


def test_census_hash_degradation_flagged(monkeypatch):
    big = generate("complete", 45)
    census = ball_census(big, 1)
    assert not census.exact
    assert list(census.counts.values()) == [45]
    code, exact = canonical_rooted_code(big, 0, 1)
    assert code.startswith("h") and not exact
    # K_9's radius-1 ball is cyclic; automorphism pruning searches it in 36 nodes, where the
    # full search needs 5,001, so it stays exact under a cap of 100 and hashes under one of 10
    k9 = generate("complete", 9)
    code, exact = canonical_rooted_code(k9, 0, 1)
    assert code.startswith("g9:") and exact
    monkeypatch.setattr(ensembles, "CANON_SEARCH_CAP", 100)
    assert canonical_rooted_code(k9, 0, 1) == (code, True)
    monkeypatch.setattr(ensembles, "CANON_SEARCH_CAP", 10)
    code, exact = canonical_rooted_code(k9, 0, 1)
    assert code.startswith("h9:") and not exact
    monkeypatch.undo()
    # EXACT_CANON_LIMIT (40) bounds cyclic balls: the centre of grid:9 has a 41-vertex ball
    code, exact = canonical_rooted_code(generate("grid", 9), 40, 4)
    assert code.startswith("h41:") and not exact


def _relabeled(g, seed):
    """g under a random vertex permutation, edge order and edge orientation."""
    rng = np.random.default_rng(seed)
    perm = rng.permutation(g.vertex_count)
    edges = [(int(perm[u]), int(perm[v])) for u, v in g.edges()]
    edges = [edges[i][::-1] if rng.random() < 0.5 else edges[i]
             for i in rng.permutation(len(edges))]
    return build_graph(edges, g.vertex_count)


def _relabeled_grid(side, seed):
    return _relabeled(generate("grid", side), seed)


@pytest.mark.parametrize("g, radius, cap", [
    (_relabeled_grid(12, 3), 2, None),
    (generate("random_regular", 60, 3, seed=0), 3, None),
    (generate("random_regular", 200, 3, seed=0), 4, None),  # some balls hash
    (generate("complete", 45), 1, None),  # above EXACT_CANON_LIMIT: hashed
    (generate("grid", 9), 4, None),
    (generate("complete", 9), 1, 10),  # the search cap runs out: hashed
], ids=["relabeled_grid12_r2", "cubic60_r3", "cubic200_r4", "k45_r1", "grid9_r4", "k9_r1_cap10"])
def test_census_memo_matches_per_root_codes(monkeypatch, g, radius, cap):
    # the census searches each distinct BFS-labelled ball once; the per-root route searches all
    if cap is not None:
        monkeypatch.setattr(ensembles, "CANON_SEARCH_CAP", cap)
    counts, exact = {}, True
    for root in range(g.vertex_count):
        code, code_exact = canonical_rooted_code(g, root, radius)
        counts[code] = counts.get(code, 0) + 1
        exact &= code_exact
    census = ball_census(g, radius)
    assert (census.counts, census.exact, census.total) == (counts, exact, g.vertex_count)


class _Probe(dict):
    """A class map that records whether a search found a leaf code in it."""

    hit = False

    def __contains__(self, code):
        found = super().__contains__(code)
        self.hit |= found
        return found


def test_census_searches_fewer_balls_than_roots(monkeypatch):
    # one full search per isomorphism class: a search that no mapped leaf stops, a tree ball's
    # one branch included. The search of an isomorphic ball stops at its first leaf
    searches = []
    search = ensembles._min_code

    def counted(adj, colors, budget, tree, classes):
        probe = _Probe(classes)
        code = search(adj, colors, budget, tree, probe)
        classes.update(probe)
        searches.append(not probe.hit)
        return code

    monkeypatch.setattr(ensembles, "_min_code", counted)
    for g, radius in [(_relabeled_grid(12, 3), 2), (generate("random_regular", 60, 3, seed=0), 3)]:
        census = ball_census(g, radius)
        assert census.exact
        assert sum(searches) == len(census.counts) < len(searches)
        searches.clear()


def test_tree_ball_search_takes_one_branch_per_level(monkeypatch):
    # a tree ball's pruned search gives the full search's code, and stays exact past the cap
    rng = np.random.default_rng(31)
    for _ in range(40):
        n = int(rng.integers(2, 24))
        tree = build_graph([(v, int(rng.integers(v))) for v in range(1, n)], n)
        adj, _, dist = graph._ball(tree, int(rng.integers(n)), n)
        assert (ensembles._min_code(adj, dist, [10**9], True, {})
                == ensembles._min_code(adj, dist, [10**9], False, {}))
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


def _full_search_code(adj, colors):
    """The minimum leaf code over every branch of the individualization tree, with no pruning:
    the oracle for the automorphism-pruned search of ``ensembles._min_code``."""
    colors = ensembles._refine(adj, colors)
    n = len(adj)
    if len(set(colors)) == n:
        return ensembles._code_from_discrete(adj, colors)[0]
    target = min(c for c in colors if colors.count(c) > 1)
    return min(_full_search_code(adj, colors[:v] + [n] + colors[v + 1:])
               for v in range(n) if colors[v] == target)


def _refine_to_a_fixed_point(adj, colors):
    """Refinement rounds until one returns its input ids: the oracle for the early stop of
    ``ensembles._refine``, which ends on the round that splits no cell."""
    while True:
        sigs = [(colors[v], tuple(sorted(colors[u] for u in adj[v]))) for v in range(len(adj))]
        lookup = {s: i for i, s in enumerate(sorted(set(sigs)))}
        new_colors = [lookup[s] for s in sigs]
        if new_colors == colors:
            return colors
        colors = new_colors


def test_refine_ids_match_the_fixed_point():
    # the distance colouring of each ball, and each one-vertex individualization (colour n, as
    # the search gives it) of its refined colouring: the ids, not only the partition, must agree
    colourings = 0
    for g in (generate("grid", 7), generate("random_regular", 40, 3, seed=5)):
        for root in range(g.vertex_count):
            adj, _, dist = graph._ball(g, root, 3)
            refined = ensembles._refine(adj, dist)
            assert refined == _refine_to_a_fixed_point(adj, dist)
            n = len(adj)
            for v in range(n):
                individualized = refined[:v] + [n] + refined[v + 1:]
                assert (ensembles._refine(adj, individualized)
                        == _refine_to_a_fixed_point(adj, individualized))
            colourings += 1 + n
    assert colourings > 1000


def _refinement_rounds(adj, colors, rounds):
    """``rounds`` rounds that each re-sign every vertex: the oracle for ``ensembles._refine``
    with a round limit, as ``cover.cover_walk_rows`` calls it."""
    for _ in range(rounds):
        sigs = [(colors[v], tuple(sorted(colors[u] for u in adj[v]))) for v in range(len(adj))]
        lookup = {s: i for i, s in enumerate(sorted(set(sigs)))}
        colors = [lookup[s] for s in sigs]
    return colors


def _random_successors(n, rng):
    """Directed successor lists with repeated entries, self-loops and vertices without any."""
    return [[int(u) for u in rng.integers(n, size=int(rng.integers(4)))] for _ in range(n)]


def test_refine_rounds_match_the_full_rounds_on_directed_successors():
    # the cover's branch successors are directed: a split re-signs the cells of the split
    # vertices' in-neighbours. glued_clique_path:8:10 and grid:6 need all kmax rounds
    rng = np.random.default_rng(29)
    cases = []
    for g in (generate("glued_clique_path", 8, 10), generate("grid", 6),
              generate("random_regular", 30, 3, seed=0)):
        cases.append((cover._cover_branches(g, 8), [0] * (2 * g.edge_count) + [1] * g.vertex_count))
    for _ in range(20):
        succ = _random_successors(30, rng)
        cases.append((succ, [int(c) for c in rng.integers(3, size=30)]))
    for succ, start in cases:
        for rounds in range(1, 9):
            assert ensembles._refine(succ, start, rounds) == _refinement_rounds(succ, start, rounds)
        assert ensembles._refine(succ, start) == _refine_to_a_fixed_point(succ, start)


def test_search_children_refine_to_the_fixed_point():
    # a search child individualizes v in its parent's stable cells and first re-signs only the
    # cells of v's neighbours. At every node, its ids must be those of the full refinement of
    # the parent's ids with v given the fresh colour n; children of two members of each target
    # cell are checked, down to the leaves, on cyclic balls
    def ids(cell):
        rank = {c: i for i, c in enumerate(sorted(set(cell)))}
        return [rank[c] for c in cell]

    def check(adj, node, touched, colors):
        target = ensembles._search_node(adj, node, touched, [10**9])
        stable = _refine_to_a_fixed_point(adj, colors)
        assert ids(node[2]) == stable
        return 1 + sum(check(adj, *ensembles._child(adj, node, v),
                             stable[:v] + [len(adj)] + stable[v + 1:])
                       for v in (target or [])[:2])

    nodes = 0
    for g, radius in [(generate("complete", 7), 1), (generate("glued_clique_path", 6, 4), 3),
                      (generate("random_regular", 30, 4, seed=2), 2), (_cone((3, 4)), 1),
                      (generate("cycle", 9), 5), (generate("grid", 5), 2)]:
        for root in range(g.vertex_count):
            adj, _, dist = graph._ball(g, root, radius)
            if sum(map(len, adj)) == 2 * (len(adj) - 1):
                continue
            node = graph._partition(dist)
            nodes += check(adj, node, list(node[1]), dist)
    assert nodes > 800


def test_pruned_search_matches_the_full_search():
    # balls with large automorphism groups, where orbit pruning and jump-back skip the most
    cases = [(generate("complete", n), [0], 1) for n in range(2, 9)]
    cases += [(generate("grid", 7), [24, 17, 3, 0], r) for r in (2, 3)]  # interior, edge, corner
    cases += [(generate("random_regular", 40, 3, seed=5), range(40), 3)]
    # refinement cells that are not orbits: the first child alone misses the minimum of some
    cases += [(_cone((3, 4)), [0], 1), (_cone((4, 3)), [0], 1)]
    cyclic = 0
    for g, roots, radius in cases:
        for root in roots:
            adj, _, dist = graph._ball(g, root, radius)
            if sum(map(len, adj)) == 2 * (len(adj) - 1):
                continue  # a tree ball takes the one-branch loop
            cyclic += 1
            assert ensembles._min_code(adj, dist, [10**9], False, {}) == _full_search_code(adj, dist)
    assert cyclic >= 20


def test_pruned_search_is_label_invariant_on_strongly_regular_components():
    # a cone over the Shrikhande graph (Cayley graph of Z4 x Z4, steps +-(0,1), +-(1,0), +-(1,1))
    # and the 4 x 4 rook's graph: both strongly regular (16, 6, 2, 2), so refinement splits no
    # cell of either. Automorphisms found below a rook vertex move Shrikhande vertices freely;
    # pruning a Shrikhande node's children with ones that do not fix its prefix changes the code
    # under some labellings (seed 11 below)
    cells = [(a, b) for a in range(16) for b in range(a + 1, 16)]
    shrikhande = [(a, b) for a, b in cells
                  if ((a // 4 - b // 4) % 4, (a % 4 - b % 4) % 4) in {(0, 1), (0, 3), (1, 0), (3, 0),
                                                                       (1, 1), (3, 3)}]
    rook = [(a, b) for a, b in cells if a // 4 == b // 4 or a % 4 == b % 4]
    edges = ([(a + 1, b + 1) for a, b in shrikhande] + [(a + 17, b + 17) for a, b in rook]
             + [(0, v) for v in range(1, 33)])
    codes = set()
    for seed in range(12):
        perm = np.random.default_rng(seed).permutation(33)
        cone = build_graph([(int(perm[u]), int(perm[v])) for u, v in edges], 33)
        code, exact = canonical_rooted_code(cone, int(perm[0]), 1)
        assert exact
        codes.add(code)
    assert len(codes) == 1


@pytest.mark.parametrize("g, radius", [
    (generate("glued_clique_path", 5, 6), 3),
    (generate("grid", 12), 2),
    (generate("random_regular", 60, 3, seed=0), 3),
    # three cones whose neighbour cells are not orbits: a search finds two leaf codes
    (build_graph([(u + 8 * i, v + 8 * i) for i in range(3) for u, v in _cone((3, 4)).edges()],
                 24), 1),
], ids=["glued_clique_path5_6_r3", "grid12_r2", "cubic60_r3", "cones_3_4_r1"])
def test_census_classes_do_not_depend_on_labels(monkeypatch, g, radius):
    # the class map gives each labelling the per-root codes, with fewer search nodes
    nodes = []
    visit = ensembles._search_node
    monkeypatch.setattr(ensembles, "_search_node", lambda *args: nodes.append(1) or visit(*args))
    for seed in range(5):
        relabeled = _relabeled(g, seed)
        counts, exact = {}, True
        for root in range(g.vertex_count):
            code, code_exact = canonical_rooted_code(relabeled, root, radius)
            counts[code] = counts.get(code, 0) + 1
            exact &= code_exact
        per_root = len(nodes)
        census = ball_census(relabeled, radius)
        assert (census.counts, census.exact) == (counts, exact)
        assert len(nodes) - per_root < per_root
        nodes.clear()


def test_canonical_codes_agree_with_vf2():
    # equal codes exactly when networkx finds a distance-preserving isomorphism
    nx = pytest.importorskip("networkx")
    from networkx.algorithms.isomorphism import GraphMatcher, categorical_node_match

    rng = np.random.default_rng(17)
    graphs = [generate("random_regular", 40, 3, seed=3), generate("grid", 5),
              random_connected_graph(16, 6, rng), random_connected_graph(16, 2, rng),
              _cone((3, 4)), _cone((4, 3)), generate("complete", 6), generate("complete", 7)]
    balls = []
    for g, radius in [(g, 2) for g in graphs] + [(graphs[0], 3), (generate("grid", 6), 3)]:
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


def test_tv_distance_refuses_an_empty_census():
    empty = ball_census(build_graph([], 0), 1)
    cycle = ball_census(generate("cycle", 5), 1)
    for a, b in ((empty, cycle), (cycle, empty), (empty, empty)):
        with pytest.raises(GraphInputError, match="empty census"):
            tv_distance(a, b)


def test_tv_disjoint_supports():
    a = ball_census(generate("cycle", 5), 1)
    b = ball_census(generate("complete", 4), 1)
    assert tv_distance(a, b) == 1.0
