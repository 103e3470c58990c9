import math
from fractions import Fraction

import numpy as np
import pytest

from unispec import (
    DegreeDistribution,
    GraphInputError,
    adjacency_spectrum,
    alon_boppana_report,
    closed_walk_counts,
    degree_stats,
    generate,
    hoory_bound,
    nbw_entropy,
    sigma,
    sphere_growth_bounds,
    tail_mass,
    tail_mass_constant,
    tail_mass_lower_bound,
    tree_spectral_radius_bounds,
    tree_srw_radius_bounds,
    universal_cover_ball,
)

from fixture_graphs import FIXTURES, LEAFLESS

UNIFORM_23 = DegreeDistribution.from_string("2:0.5,3:0.5")
SQRT2 = math.sqrt(2.0)


def test_tree_radius_bounds_regular():
    b1, b2 = tree_spectral_radius_bounds(DegreeDistribution.from_string("3:1"))
    assert abs(b1 - 2 * SQRT2) < 1e-14
    assert abs(b2 - 2 * SQRT2) < 1e-14


def test_tree_radius_bounds_line():
    b1, b2 = tree_spectral_radius_bounds(DegreeDistribution.from_string("2:1"))
    assert (b1, b2) == (2.0, 2.0)


def test_tree_radius_bounds_uniform23():
    b1, b2 = tree_spectral_radius_bounds(UNIFORM_23)
    # b1 = 2 exp(0.75 log 2 / 2.5) = 2 * 2^0.3, b2 = 2 sqrt(1.5)
    assert abs(b1 - 2 * 2**0.3) < 1e-13
    assert abs(b1 - 2.4622888266898326) < 1e-12
    assert abs(b2 - 2.449489742783178) < 1e-12
    assert b1 >= b2


def test_srw_bounds_regular():
    b1, b2 = tree_srw_radius_bounds(DegreeDistribution.from_string("3:1"))
    assert abs(b1 - 2 * SQRT2 / 3) < 1e-14
    assert abs(b2 - 2 * SQRT2 / 3) < 1e-14
    assert abs(b1 - 0.9428090415820634) < 1e-13


def test_srw_bounds_line():
    b1, b2 = tree_srw_radius_bounds(DegreeDistribution.from_string("2:1"))
    assert abs(b1 - 1.0) < 1e-14
    assert abs(b2 - 1.0) < 1e-14


def test_srw_bounds_uniform23():
    b1, b2 = tree_srw_radius_bounds(UNIFORM_23)
    # b2 = 2 * 2.5 * sqrt(1.5) / 6.5
    assert abs(b2 - 5 * math.sqrt(1.5) / 6.5) < 1e-14
    assert abs(b2 - 0.9421114395319916) < 1e-12
    assert b1 >= b2


BOUNDS = [tree_spectral_radius_bounds, tree_srw_radius_bounds, hoory_bound,
          lambda stats: sphere_growth_bounds(stats, 3), nbw_entropy]


def test_leaf_rejection():
    with pytest.raises(GraphInputError):
        tree_spectral_radius_bounds(degree_stats(FIXTURES["p5"]))
    with pytest.raises(GraphInputError):
        tree_srw_radius_bounds(degree_stats(FIXTURES["star3"]))
    for bound in BOUNDS:
        with pytest.raises(GraphInputError):
            bound(DegreeDistribution.from_string("1:0.5,3:0.5"))


@pytest.mark.parametrize("name", LEAFLESS)
def test_graph_and_its_empirical_law_agree(name):
    # a finite graph with a uniform root is the unimodular network of its degree law
    degrees = [len(nbrs) for nbrs in FIXTURES[name].adjacency]
    n = len(degrees)
    law = DegreeDistribution.build([(d, Fraction(degrees.count(d), n)) for d in set(degrees)])
    stats = degree_stats(FIXTURES[name])
    for bound in BOUNDS:
        got, want = np.ravel(bound(law)), np.ravel(bound(stats))
        assert np.all(np.abs(got - want) <= 1e-12 * np.abs(want)), (bound, got, want)


def test_tail_bound_c4():
    g = FIXTURES["c4"]
    measure = adjacency_spectrum(g)
    rho = sigma(measure, 1)
    # cover of C4 is the line: E[W_2] = 2
    lower = tail_mass_lower_bound(2, rho, 1.0, 1)
    assert abs(lower - 0.25) < 1e-12
    assert tail_mass(measure, 1.0) == 0.5 >= lower


def test_tail_bound_c6():
    g = generate("cycle", 6)
    measure = adjacency_spectrum(g)
    lower = tail_mass_lower_bound(6, sigma(measure, 1), 1.0, 2)  # E[W_4(line)] = 6
    assert abs(lower - 0.3125) < 1e-12
    # eigenvalues 2cos(pi j / 3): only +-2 strictly exceed 1; probe with the
    # documented offset since +-1 sit exactly on the threshold
    assert tail_mass(measure, 1.0 + 1e-9) == 2 / 6
    assert tail_mass(measure, 1.0) >= lower


def test_tail_bound_vacuous():
    assert tail_mass_lower_bound(2, 2.0, 3.0, 1) < 0


def test_tail_mass_constant_example():
    # delta = 1/2, K = 1, rho_sup/rho_t = 2 gives (0.75^2 - 0.5^2) / 4
    c, big_k = tail_mass_constant(1.0, 4.0, [3.0], 2.0)
    assert big_k == 1
    assert abs(c - 0.078125) < 1e-15


def test_tail_mass_constant_ratio_one():
    c, big_k = tail_mass_constant(1.0, 2.0, [3.0], 2.0)
    assert big_k == 1
    assert abs(c - (0.75**2 - 0.5**2)) < 1e-15


def test_tail_mass_constant_errors():
    with pytest.raises(GraphInputError, match="increase k budget"):
        tail_mass_constant(0.01, 2.0, [0.5], 2.0)
    with pytest.raises(GraphInputError):
        tail_mass_constant(3.0, 4.0, [3.0], 2.0)  # epsilon >= rho_t
    with pytest.raises(GraphInputError):
        tail_mass_constant(1.0, 1.0, [3.0], 2.0)  # rho_sup < rho_t


def _cover_moments(g, kmax):
    n = g.vertex_count
    totals = [0] * (kmax + 1)
    for x in range(n):
        ball = universal_cover_ball(g, x, kmax)
        counts = closed_walk_counts(ball.tree, ball.root, 2 * kmax)
        for k in range(1, kmax + 1):
            totals[k] += counts[2 * k]
    return [totals[k] / n for k in range(1, kmax + 1)]


@pytest.mark.parametrize("name", LEAFLESS)
def test_tail_mass_constant_self_consistency(name):
    g = FIXTURES[name]
    measure = adjacency_spectrum(g)
    rho = sigma(measure, 1)
    moments = _cover_moments(g, 5)
    rho_est = moments[-1] ** (1 / 10)
    for frac in (0.2, 0.5, 0.8):
        eps = frac * rho_est
        c, big_k = tail_mass_constant(eps, rho, moments, rho_est)
        assert c > 0
        assert tail_mass(measure, rho_est - eps) >= c


def test_srw_tail_threshold_values():
    # the threshold is b2 of the SRW radius bounds, 2 d_av sqrt(d_av - 1) / E[deg^2]
    assert abs(tree_srw_radius_bounds(degree_stats(FIXTURES["k4"]))[1] - 2 * SQRT2 / 3) < 1e-14
    assert tree_srw_radius_bounds(degree_stats(FIXTURES["c6"]))[1] == 1.0


def test_sphere_growth_bounds():
    b1, b2 = sphere_growth_bounds(DegreeDistribution.from_string("3:1"), 3)
    assert abs(b1 - 12.0) < 1e-12
    assert abs(b2 - 12.0) < 1e-12
    b1, b2 = sphere_growth_bounds(DegreeDistribution.from_string("2:1"), 7)
    assert (b1, b2) == (2.0, 2.0)
    b1, b2 = sphere_growth_bounds(UNIFORM_23, 3)
    assert abs(b1 - 2.5 * 2**1.2) < 1e-12  # 5.7434917...
    assert b1 <= 6.4
    assert b1 >= b2


def test_alon_boppana_cycles():
    # odd cycles: sigma_2 = 2cos(pi/n) (the near -2 pair), increasing toward
    # the bound 2; even cycles have -2 in the spectrum so sigma_2 = 2 exactly
    rows = alon_boppana_report([generate("cycle", n) for n in (11, 51, 251)], 2)
    sigmas = [row.sigma_j for row in rows]
    for row, n in zip(rows, (11, 51, 251)):
        assert abs(row.sigma_j - 2 * math.cos(math.pi / n)) < 1e-9
        assert row.sigma_j >= 2 * math.cos(2 * math.pi / n)
        assert abs(row.degree_bound - 2.0) < 1e-12
    assert sigmas == sorted(sigmas)
    even = alon_boppana_report([generate("cycle", 10)], 2)
    assert abs(even[0].sigma_j - 2.0) < 1e-9


def test_alon_boppana_complete():
    rows = alon_boppana_report([generate("complete", n) for n in (4, 6, 9)], 1)
    for row, n in zip(rows, (4, 6, 9)):
        assert abs(row.sigma_j - (n - 1)) < 1e-9
        assert row.sigma_j >= 2 * math.sqrt(n - 2)


def test_alon_boppana_rejects_disconnected():
    g = generate("path", 2)
    from unispec import build_graph

    with pytest.raises(GraphInputError, match="connected"):
        alon_boppana_report([build_graph([(0, 1)], 3)], 1)
    assert alon_boppana_report([g], 1)


def test_hoory_examples():
    assert abs(hoory_bound(degree_stats(FIXTURES["k4"])) - 2 * SQRT2) < 1e-14
    assert hoory_bound(degree_stats(FIXTURES["c6"])) == 2.0
    stats = degree_stats(FIXTURES["c4_chord"])
    b1, _ = tree_spectral_radius_bounds(stats)
    assert abs(hoory_bound(stats) - b1) <= 1e-12
    assert abs(b1 - 2.4622888266898326) < 1e-12


def _random_distribution(rng):
    size = int(rng.integers(1, 5))
    support = sorted(set(int(d) for d in rng.integers(2, 12, size=size)))
    weights = rng.integers(1, 20, size=len(support))
    total = int(weights.sum())
    return DegreeDistribution.build(
        [(d, Fraction(int(w), total)) for d, w in zip(support, weights)]
    )


@pytest.mark.parametrize("seed", range(4))
def test_jensen_orderings_random(seed):
    # tolerances are relative: the bounds reach magnitudes ~1e3 where float64
    # cannot resolve absolute 1e-12
    rng = np.random.default_rng(seed)
    for _ in range(250):
        pi = _random_distribution(rng)
        b1, b2 = tree_spectral_radius_bounds(pi)
        s1, s2 = tree_srw_radius_bounds(pi)
        g1, g2 = sphere_growth_bounds(pi, 4)
        assert b1 >= b2 - 1e-12 * max(1.0, b2)
        assert s1 >= s2 - 1e-12 * max(1.0, s2)
        assert g1 >= g2 - 1e-12 * max(1.0, g2)
        assert abs(hoory_bound(pi) - b1) <= 1e-12 * max(1.0, b1)
        if pi.is_point_mass():
            assert abs(b1 - b2) <= 1e-9 * max(1.0, b2)
            assert abs(s1 - s2) <= 1e-9 * max(1.0, s2)
            assert abs(g1 - g2) <= 1e-9 * max(1.0, g2)
        else:
            assert b1 - b2 > 1e-9 * max(1.0, b2)
            assert g1 - g2 > 1e-9 * max(1.0, g2)
