import math

import numpy as np
import pytest

from unispec import spectra
from unispec import (
    BudgetError,
    GraphInputError,
    adjacency_spectrum,
    build_graph,
    core_peel,
    degree_stats,
    eigenvalues_csv,
    generate,
    markov_spectrum,
    moment,
    sigma,
    tail_mass,
)

from fixture_graphs import BIPARTITE, CONNECTED_NON_TREE, FIXTURES, star


def close_multiset(values, expected, tol=1e-9):
    return all(abs(a - b) <= tol for a, b in zip(sorted(values), sorted(expected)))


def test_k3_spectrum():
    m = adjacency_spectrum(FIXTURES["c3"])
    assert close_multiset(m.eigenvalues, [2, -1, -1])


def test_c4_spectrum():
    m = adjacency_spectrum(FIXTURES["c4"])
    assert close_multiset(m.eigenvalues, [2, 0, 0, -2])


def test_p3_spectrum():
    # roots of x^3 - 2x
    m = adjacency_spectrum(generate("path", 3))
    assert close_multiset(m.eigenvalues, [math.sqrt(2), 0, -math.sqrt(2)])


@pytest.mark.parametrize("n", [5, 8, 12])
def test_cycle_closed_form(n):
    m = adjacency_spectrum(generate("cycle", n))
    expected = [2 * math.cos(2 * math.pi * j / n) for j in range(n)]
    assert close_multiset(m.eigenvalues, expected)


@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_residual_contract(name):
    g = FIXTURES[name]
    report = adjacency_spectrum(g)
    assert report.max_residual <= 1e-8 * max(1, g.max_degree)
    ev = report.eigenvalues
    assert abs(sum(ev)) <= 1e-9 * max(1, g.max_degree)  # trace 0
    assert abs(sum(x * x for x in ev) - 2 * g.edge_count) <= 1e-8 * max(1, g.edge_count)
    assert max(abs(x) for x in ev) <= g.max_degree + 1e-9


def test_dense_limit(monkeypatch):
    monkeypatch.setattr(spectra, "DENSE_LIMIT_DEFAULT", 5)
    with pytest.raises(BudgetError):
        adjacency_spectrum(generate("cycle", 10))


def test_markov_cycle_closed_form():
    m = markov_spectrum(generate("cycle", 8))
    expected = [math.cos(2 * math.pi * j / 8) for j in range(8)]
    assert close_multiset(m.eigenvalues, expected)


def test_markov_k3():
    m = markov_spectrum(FIXTURES["c3"])
    assert close_multiset(m.eigenvalues, [1, -0.5, -0.5])


def test_markov_star_independent_oracle():
    # general (nonsymmetric) eigensolve of P itself as the second route
    g = star(3)
    m = markov_spectrum(g)
    p = g.adjacency_matrix()
    p = p / p.sum(axis=1, keepdims=True)
    oracle = sorted(np.linalg.eigvals(p).real)
    assert close_multiset(m.eigenvalues, oracle)
    assert close_multiset(m.eigenvalues, [1, 0, 0, -1])


@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_markov_range_and_top(name):
    g = FIXTURES[name]
    if g.min_degree < 1:
        return
    m = markov_spectrum(g)
    assert all(-1.0 <= x <= 1.0 for x in m.eigenvalues)
    if g.is_connected():
        assert abs(m.eigenvalues[-1] - 1.0) <= 1e-9


@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_markov_conjugate_is_the_degree_scaled_edge_loop(name):
    # the eigenvalues of D^-1/2 A D^-1/2 built entry by entry from the degree list, the
    # construction the solve replaced, match bit for bit
    g = FIXTURES[name]
    scale = 1.0 / np.sqrt(np.array([g.degree(v) for v in range(g.vertex_count)], dtype=float))
    loop = np.zeros((g.vertex_count, g.vertex_count))
    for u, v in g.directed_edges():
        loop[u, v] = 1
    w = np.linalg.eigh(loop * np.outer(scale, scale))[0]
    assert markov_spectrum(g).eigenvalues == tuple(np.clip(w, -1.0, 1.0).tolist())


def test_markov_isolated_vertex_rejected():
    with pytest.raises(GraphInputError, match="isolated"):
        markov_spectrum(build_graph([(0, 1)], 3))


def test_sigma_conventions():
    m = adjacency_spectrum(FIXTURES["c4"])
    assert abs(sigma(m, 1) - 2) < 1e-9
    assert abs(sigma(m, 2) - 2) < 1e-9
    assert abs(sigma(m, 3)) < 1e-9
    k3 = adjacency_spectrum(FIXTURES["c3"])
    assert sigma(k3, 5) == 0.0


def test_tail_mass():
    m = adjacency_spectrum(FIXTURES["c4"])
    assert tail_mass(m, 1.0) == 0.5
    assert tail_mass(m, -1.0) == 1.0
    mk = markov_spectrum(FIXTURES["c4"])
    assert tail_mass(mk, 0.5) == 0.5


def test_tail_mass_strict():
    # strict > on the stored eigenvalues, no tolerance: |2| > 2 is false
    from unispec import Spectrum

    m = Spectrum((-2.0, 0.0, 0.0, 2.0), 0.0)
    assert tail_mass(m, 2.0) == 0.0
    assert tail_mass(m, 2.0 - 1e-15) == 0.5


def test_moments():
    k3 = adjacency_spectrum(FIXTURES["c3"])
    assert abs(moment(k3, 2) - 2.0) < 1e-9
    assert abs(moment(k3, 3) - 2.0) < 1e-9
    c4m = markov_spectrum(FIXTURES["c4"])
    assert abs(moment(c4m, 2) - 0.5) < 1e-9
    assert moment(k3, 0) == 1.0


@pytest.mark.parametrize("name", CONNECTED_NON_TREE)
def test_interlacing_core(name):
    g = FIXTURES[name]
    core, _, _ = core_peel(g)
    mg = adjacency_spectrum(g)
    mc = adjacency_spectrum(core)
    for j in range(1, g.vertex_count + 1):
        assert sigma(mg, j) >= sigma(mc, j) - 1e-9


@pytest.mark.parametrize("name", BIPARTITE)
def test_bipartite_symmetry(name):
    m = adjacency_spectrum(FIXTURES[name])
    assert close_multiset(m.eigenvalues, [-x for x in m.eigenvalues])


def test_csv_export():
    m = adjacency_spectrum(FIXTURES["c3"])
    text = eigenvalues_csv(m)
    lines = text.strip().split("\n")
    assert len(lines) == 3
    back = [float(s) for s in lines]
    assert close_multiset(back, m.eigenvalues, tol=0.0)  # 17 digits round-trips
    assert degree_stats(FIXTURES["c3"]).n == 3
