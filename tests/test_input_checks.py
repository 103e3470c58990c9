"""Every public input check of the library raises, with its type and message.

These checks are safety code that no computation in the other tests reaches, so this
table keeps a refactor from dropping one unnoticed.
"""

import re

import pytest

from unispec import bounds, cover, ensembles, graph, spectra, walks
from unispec.graph import DegreeDistribution, GraphInputError, generate

CYCLE = generate("cycle", 5)
EMPTY = graph.build_graph([], 0)
LAW = DegreeDistribution.from_string("3:1")

CASES = [
    # bounds
    (lambda: bounds.tail_mass_lower_bound(1, 0.0, 0.5, 1), GraphInputError,
     "rho must be positive, got 0.0"),
    (lambda: bounds.tail_mass_lower_bound(1, 2.0, 0.5, 0), GraphInputError,
     "k must be >= 1, got 0"),
    (lambda: bounds.sphere_growth_bounds(graph.degree_stats(CYCLE), 0), GraphInputError,
     "sphere radius must be >= 1, got 0"),
    # cover
    (lambda: cover.cover_walk_rows(CYCLE, -1), GraphInputError,
     "kmax must be nonnegative, got -1"),
    (lambda: cover.cover_ball_size(CYCLE, 0, -1), GraphInputError,
     "radius must be nonnegative, got -1"),
    (lambda: cover.rho_cover_estimate(cover.cover_walk_rows(CYCLE, 0)), GraphInputError,
     "kmax must be >= 1, got 0"),
    # ensembles
    (lambda: ensembles.estimate_walk_moment(LAW, 2, 0, 1), GraphInputError,
     "samples must be >= 1, got 0"),
    (lambda: ensembles.exact_sphere_expectation(LAW, 0), GraphInputError,
     "sphere radius must be >= 1, got 0"),
    (lambda: ensembles.estimate_sphere(LAW, 0, 10, 1), GraphInputError,
     "sphere radius must be >= 1, got 0"),
    (lambda: ensembles.estimate_sphere(LAW, 2, 0, 1), GraphInputError,
     "samples must be >= 1, got 0"),
    (lambda: ensembles.regular_tree_walks(3, -1), GraphInputError,
     "kmax must be nonnegative, got -1"),
    (lambda: ensembles.ball_census(CYCLE, -1), GraphInputError,
     "radius must be nonnegative, got -1"),
    # graph
    (lambda: graph.build_graph([], -1), GraphInputError,
     "vertex count must be nonnegative, got -1"),
    (lambda: graph.induced_subgraph(CYCLE, [0, 1, 0]), GraphInputError,
     "duplicate vertices in induced_subgraph selection"),
    (lambda: generate("path", 0), GraphInputError, "path needs n >= 1, got 0"),
    (lambda: generate("complete", 0), GraphInputError, "complete needs n >= 1, got 0"),
    (lambda: generate("grid", 0), GraphInputError, "grid needs positive dimensions, got 0x0"),
    (lambda: generate("glued_clique_path", 0, 1), GraphInputError,
     "glued_clique_path needs clique_n >= 1 and path_len >= 0, got 0, 1"),
    (lambda: generate("cycle", 5, 2), GraphInputError, "cycle takes 1 parameter(s), got 2"),
    (lambda: graph.degree_stats(EMPTY), GraphInputError, "degree_stats needs at least one vertex"),
    (lambda: DegreeDistribution((2, 3), (1,)), GraphInputError,
     "support and probabilities must align and be nonempty"),
    (lambda: DegreeDistribution((3, 2), (0.5, 0.5)), GraphInputError,
     "support must be strictly increasing degrees"),
    (lambda: DegreeDistribution((0,), (1,)), GraphInputError, "degrees must be >= 1"),
    (lambda: graph.parse_edge_list(["n 3 4"]), GraphInputError,
     "line 1: malformed header 'n 3 4'"),
    (lambda: graph.parse_edge_list(["n x"]), GraphInputError, "line 1: bad vertex count 'x'"),
    (lambda: graph.parse_edge_list(["0 -1"]), GraphInputError,
     "line 1: negative vertex index in '0 -1'"),
    # spectra
    (lambda: spectra.adjacency_spectrum(EMPTY), GraphInputError,
     "adjacency_spectrum needs at least one vertex"),
    (lambda: spectra.sigma(spectra.adjacency_spectrum(CYCLE), 0), ValueError,
     "sigma index must be >= 1, got 0"),
    (lambda: spectra.moment(spectra.adjacency_spectrum(CYCLE), -1), ValueError,
     "moment order must be nonnegative, got -1"),
    (lambda: spectra.moment(spectra.Spectrum((), 0.0), 1), ValueError,
     "moment of an empty measure"),
    # walks
    (lambda: walks.closed_walk_counts(CYCLE, 0, -1), GraphInputError,
     "kmax must be nonnegative, got -1"),
    (lambda: walks.srw_return_probs(graph.build_graph([(0, 1)], 3), 0, 2), GraphInputError,
     "srw_return_probs undefined with an isolated vertex"),
    # new rows go last, so that the index in each earlier row's id stays put
    # negative radii
    (lambda: ensembles.canonical_rooted_code(CYCLE, 0, -1), GraphInputError,
     "radius must be nonnegative, got -1"),
    (lambda: graph.bfs_distances(CYCLE, 0, -1), GraphInputError,
     "radius must be nonnegative, got -1"),
    # cover rows that are empty, ragged or not one per vertex
    (lambda: cover.rho_cover_estimate([]), GraphInputError,
     "cover rows must be nonempty and of one length, got lengths []"),
    (lambda: cover.rho_cover_estimate([[1, 2], [1]]), GraphInputError,
     "cover rows must be nonempty and of one length, got lengths [1, 2]"),
    (lambda: cover.rho_cover_estimate([[]]), GraphInputError,
     "cover rows must be nonempty and of one length, got lengths [0]"),
    (lambda: cover.verify_lifting(CYCLE, [], 0), GraphInputError,
     "cover rows must be nonempty and of one length, got lengths []"),
    (lambda: cover.verify_lifting(CYCLE, cover.cover_walk_rows(CYCLE, 2)[1:], 0), GraphInputError,
     "4 cover rows for 5 vertices"),
    # branch series inputs of the wrong shape
    (lambda: walks.branch_series([[1, 1], []], [2, 1], [[1], []]), GraphInputError,
     "weight needs one row per branch and one entry per successor"),
    (lambda: walks.branch_series([[1], []], [1, 1], [[1]]), GraphInputError,
     "weight needs one row per branch and one entry per successor"),
    (lambda: walks.branch_series([[1], []], [2]), GraphInputError,
     "order has 1 entries for 2 branches"),
    (lambda: walks.branch_series([[1], []], [3, 1]), GraphInputError,
     "successors of branch 0 must be branches of order >= 2"),
    (lambda: walks.branch_series([[2], []], [1, 1]), GraphInputError,
     "successors of branch 0 must be branches of order >= 0"),
    # UGW seeds outside numpy's range
    (lambda: ensembles.sample_ugw(LAW, 3, (1, -1)), GraphInputError,
     "sample index must be in 0..2**64 - 1, got -1"),
    (lambda: ensembles.sample_ugw(LAW, 3, (1, 2**64)), GraphInputError,
     f"sample index must be in 0..2**64 - 1, got {2**64}"),
    (lambda: ensembles.sample_ugw(LAW, 3, -1), GraphInputError,
     "seed must be nonnegative, got -1"),
    # UGW seeds that are not integers
    (lambda: ensembles.sample_ugw(LAW, 3, (1, 1.7)), GraphInputError,
     "sample index must be an integer, got 1.7"),
    (lambda: ensembles.sample_ugw(LAW, 3, (1.5, 0)), GraphInputError,
     "seed must be an integer, got 1.5"),
    (lambda: ensembles.estimate_sphere(LAW, 3, 10, 1.5), GraphInputError,
     "seed must be an integer, got 1.5"),
    (lambda: ensembles.estimate_walk_moment(LAW, 2, 10, 1.5), GraphInputError,
     "seed must be an integer, got 1.5"),
]


@pytest.mark.parametrize("call, error, message", CASES,
                         ids=[f"{i:02d}-" + re.sub(r"\W+", "_", message)[:32].strip("_")
                              for i, (_, _, message) in enumerate(CASES)])
def test_input_check_raises(call, error, message):
    with pytest.raises(ValueError) as excinfo:
        call()
    assert type(excinfo.value) is error
    assert message in str(excinfo.value)


def test_zero_degree_random_regular_is_the_empty_graph():
    g = generate("random_regular", 6, 0, seed=1)
    assert (g.vertex_count, g.edge_count) == (6, 0)


def test_the_empty_graph_is_connected():
    assert EMPTY.is_connected()
