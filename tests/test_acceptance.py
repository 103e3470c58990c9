"""Acceptance suite: every criterion at its stated tolerance, one test each.

Eigenvalue-based comparisons tagged "exact" use a 1e-9 guard, which is the
honest resolution of the certified dense eigensolver; everything arithmetic
(walk counts, rational averages, census frequencies) is compared exactly.
"""

import math
import time
from fractions import Fraction

import numpy as np
import pytest

from unispec import (
    DegreeDistribution,
    GraphInputError,
    adjacency_spectrum,
    ball_census,
    closed_walk_counts,
    core_peel,
    ensembles,
    estimate_sphere,
    generate,
    hoory_bound,
    markov_spectrum,
    moment,
    regular_tree_walks,
    sample_ugw,
    sigma,
    sphere_growth_bounds,
    srw_return_probs,
    stationarity_check,
    tail_mass,
    tail_mass_lower_bound,
    tree_spectral_radius_bounds,
    tree_srw_radius_bounds,
    tv_distance,
    universal_cover_ball,
)

from fixture_graphs import (
    FIXTURES,
    LEAFLESS,
    LEAFY,
    LIFTING_FIXTURES,
    CONNECTED_NON_TREE,
    random_connected_graph,
    random_tree,
    srw_weights,
)
from walk_oracles import walk_identity_check


def test_01_regular_tree_radius():
    start = time.perf_counter()
    counts = regular_tree_walks(3, 300)
    norms = [math.exp(math.log(counts[k]) / (2 * k)) for k in range(1, 301)]
    elapsed = time.perf_counter() - start
    target = 2 * math.sqrt(2)
    assert abs(norms[-1] - target) <= 0.02 * target
    assert all(a <= b + 1e-12 for a, b in zip(norms, norms[1:]))
    assert elapsed < 1.0


def test_02_cycle_cover_central_binomial():
    start = time.perf_counter()
    ball = universal_cover_ball(generate("cycle", 9), 0, 500)
    counts = closed_walk_counts(ball.tree, ball.root, 1000)
    for k in range(11):
        assert counts[2 * k] == math.comb(2 * k, k)
    norm = math.exp(math.log(counts[1000]) / 1000)
    elapsed = time.perf_counter() - start
    assert abs(norm - 2.0) <= 0.01 * 2.0
    assert elapsed < 1.0


@pytest.mark.parametrize("name", LIFTING_FIXTURES)
def test_03_lifting_inequality(name):
    g = FIXTURES[name]
    for base in range(g.vertex_count):
        ball = universal_cover_ball(g, base, 8)
        cover_counts = closed_walk_counts(ball.tree, ball.root, 16)
        base_counts = closed_walk_counts(g, base, 16)
        for k in range(1, 9):
            assert cover_counts[2 * k] <= base_counts[2 * k]  # exact integers


def test_04_nbw_stationarity_and_reversal():
    for name in LEAFLESS:
        report = stationarity_check(FIXTURES[name])
        assert report.stationarity_deviation <= 1e-12
        assert report.reversal_deviation <= 1e-12
    for name in LEAFY:
        with pytest.raises(GraphInputError):
            stationarity_check(FIXTURES[name])


def _root_neighbour_degrees(pi, samples, seed):
    """Mean and stderr of sum_{y ~ root} deg y over UGW trees 0..samples-1 of depth 2.

    The trees grow together in ``_generations``, where the sum is the root's child count
    plus the size of generation 2; the first 20 match the trees of ``sample_ugw``.
    """
    trees = np.arange(samples, dtype=np.uint64)
    runs = ensembles._generations(pi, 2, seed, trees)
    values = np.concatenate([counts[0] + last for counts, last in runs])
    for i in range(20):
        tree = sample_ugw(pi, 2, (seed, i))
        assert values[i] == sum(tree.graph.degree(y) for y in tree.graph.adjacency[tree.root])
    return np.mean(values), np.std(values, ddof=1) / math.sqrt(samples)


def test_05_ugw_mass_transport(monkeypatch):
    # Mass transport f(x, y) = 1[x ~ y] deg y: the root receives sum_{y ~ o} deg y and sends
    # deg(o)^2, so a unimodular tree has E[sum_{y ~ o} deg y] = E[D^2]. That needs size-biased
    # offspring below the root; offspring drawn from pi shifted by one give E[D]^2 < E[D^2].
    laws = [DegreeDistribution.from_string(text) for text in ("2:0.5,3:0.5", "2:0.5,5:0.5")]
    seed, samples = 5, 2000
    for pi in laws:
        mean, stderr = _root_neighbour_degrees(pi, samples, seed)
        assert abs(mean - pi.d2_mean) <= 3 * stderr, (pi, mean)

    def unbiased(self):
        return tuple((d - 1, p) for d, p in zip(self.support, self.probabilities))

    monkeypatch.setattr(DegreeDistribution, "size_biased_offspring", unbiased)
    for pi in laws:
        mean, stderr = _root_neighbour_degrees(pi, samples, seed)
        assert mean < pi.d2_mean - 3 * stderr, (pi, mean)


def test_06_walk_identity_on_random_trees():
    rng = np.random.default_rng(606)
    for i in range(50):
        tree = random_tree(int(rng.integers(3, 13)), rng)
        root = int(rng.integers(tree.vertex_count))
        k = 2 + i % 4  # k <= 5
        assert walk_identity_check(tree, root, k) == 0
        table = {}
        for u in range(tree.vertex_count):
            for v in tree.adjacency[u]:
                table[(u, v)] = Fraction(int(rng.integers(1, 6)), int(rng.integers(1, 4)))
        assert walk_identity_check(tree, root, k, table) == 0
        assert walk_identity_check(tree, root, k, srw_weights(tree)) <= 1e-12


@pytest.mark.parametrize("name", LEAFLESS)
def test_07_cover_tail_mass_bound(name):
    g = FIXTURES[name]
    n = g.vertex_count
    measure = adjacency_spectrum(g)
    rho = sigma(measure, 1)
    totals = [0] * 7
    for x in range(n):
        ball = universal_cover_ball(g, x, 6)
        counts = closed_walk_counts(ball.tree, ball.root, 12)
        for k in range(1, 7):
            totals[k] += counts[2 * k]
    moments = [Fraction(totals[k], n) for k in range(1, 7)]
    rho_est = float(moments[-1]) ** (1 / 12)
    for k in range(1, 7):
        for i in range(1, 21):
            a = rho_est * i / 21.0
            lower = tail_mass_lower_bound(float(moments[k - 1]), rho, a, k)
            assert tail_mass(measure, a) >= lower


def test_08_interlacing_and_core_degree():
    cases = [FIXTURES[name] for name in CONNECTED_NON_TREE]
    rng = np.random.default_rng(808)
    while len(cases) < len(CONNECTED_NON_TREE) + 100:
        g = random_connected_graph(int(rng.integers(5, 61)), int(rng.integers(1, 15)), rng)
        if g.edge_count >= g.vertex_count:  # connected non-tree
            cases.append(g)
    for g in cases:
        core, removed, _ = core_peel(g)
        assert core.vertex_count + removed == g.vertex_count
        assert Fraction(2 * core.edge_count, core.vertex_count) >= Fraction(
            2 * g.edge_count, g.vertex_count
        )
        mg = adjacency_spectrum(g)
        mc = adjacency_spectrum(core)
        for j in range(1, g.vertex_count + 1):
            assert sigma(mg, j) >= sigma(mc, j) - 1e-9


def test_09_alon_boppana_trend():
    start = time.perf_counter()
    # cycles: closed form and computed sigma_2 both clear 2 - 0.01 from n = 63
    for n in (63, 64, 101, 200):
        assert 2 * math.cos(2 * math.pi / n) >= 2 - 0.01
        s2 = sigma(adjacency_spectrum(generate("cycle", n)), 2)
        assert s2 >= 2 - 0.01
    # random cubic graphs at pinned seeds: near-Ramanujan sigma_2
    threshold = 2 * math.sqrt(2) - 0.15
    for n, seed in ((500, 1), (1000, 2), (2000, 3)):
        g = generate("random_regular", n, 3, seed=seed)
        assert sigma(adjacency_spectrum(g), 2) >= threshold
    assert time.perf_counter() - start < 120.0


def test_10_ugw_sphere_estimate():
    start = time.perf_counter()
    pi = DegreeDistribution.from_string("2:0.5,3:0.5")
    est, exact = estimate_sphere(pi, 3, samples=100_000, seed=0xC0FFEE)
    assert abs(exact - 6.4) < 1e-12
    assert abs(est.mean - exact) <= 3 * est.stderr
    b1, b2 = sphere_growth_bounds(pi, 3)
    assert abs(b1 - 5.7434917749851756) < 1e-9
    assert b1 <= est.mean + 3 * est.stderr
    assert b2 <= b1
    assert time.perf_counter() - start < 30.0


@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_11_moment_walk_equivalence(name):
    g = FIXTURES[name]
    n = g.vertex_count
    adj = adjacency_spectrum(g)
    for k in range(9):
        walk_avg = sum(closed_walk_counts(g, x, k)[k] for x in range(n)) / n
        mom = moment(adj, k)
        assert abs(mom - walk_avg) <= 1e-9 * max(1.0, abs(walk_avg))
    if g.min_degree >= 1:
        mk = markov_spectrum(g)
        for k in range(9):
            p_avg = sum(srw_return_probs(g, x, k)[k] for x in range(n)) / n
            assert abs(moment(mk, k) - p_avg) <= 1e-9


def test_12_grid_census():
    censuses = {}
    for n in (10, 20, 40):
        for r in (1, 2):
            c = ball_census(generate("grid", n), r)
            assert c.exact
            assert c.total == n * n
            assert max(c.counts.values()) >= (n - 2 * r) ** 2
            censuses[(n, r)] = c
    for r in (1, 2):
        assert tv_distance(censuses[(10, r)], censuses[(20, r)]) > tv_distance(
            censuses[(20, r)], censuses[(40, r)]
        )


def test_13_bound_form_identity_and_jensen():
    rng = np.random.default_rng(1313)
    point_mass_seen = 0
    for _ in range(1000):
        size = int(rng.integers(1, 5))
        support = sorted(set(int(d) for d in rng.integers(2, 12, size=size)))
        weights = rng.integers(1, 20, size=len(support))
        total = int(weights.sum())
        pi = DegreeDistribution.build(
            [(d, Fraction(int(w), total)) for d, w in zip(support, weights)]
        )
        b1, b2 = tree_spectral_radius_bounds(pi)
        s1, s2 = tree_srw_radius_bounds(pi)
        g1, g2 = sphere_growth_bounds(pi, 3)
        assert abs(hoory_bound(pi) - b1) <= 1e-12 * max(1.0, b1)
        assert b1 >= b2 - 1e-12 * max(1.0, b2)
        assert s1 >= s2 - 1e-12 * max(1.0, s2)
        assert g1 >= g2 - 1e-12 * max(1.0, g2)
        if pi.is_point_mass():
            point_mass_seen += 1
            assert abs(b1 - b2) <= 1e-9 * max(1.0, b2)
        else:
            assert b1 - b2 > 1e-9
    assert point_mass_seen > 0


def test_14_markov_tail_even_cycles():
    for n in (100, 200, 400):
        g = generate("cycle", n)
        measure = markov_spectrum(g)
        closed_form = sorted(math.cos(2 * math.pi * j / n) for j in range(n))
        assert max(
            abs(a - b) for a, b in zip(measure.eigenvalues, closed_form)
        ) <= 1e-9
        # srw tail threshold of a cycle is 1; epsilon = 0.1
        assert tail_mass(measure, 1.0 - 0.1) > 0.1
