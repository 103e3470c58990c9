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

# Each row's number prefixes its test id and is fixed when the row is added (the next unused
# one), so rows stay in module order and a row added to its module's group moves no other id.
CASES = [
    # bounds
    (0, lambda: bounds.tail_mass_lower_bound(1, 0.0, 0.5, 1), GraphInputError,
     "rho must be positive, got 0.0"),
    (1, lambda: bounds.tail_mass_lower_bound(1, 2.0, 0.5, 0), GraphInputError,
     "k must be >= 1, got 0"),
    (2, lambda: bounds.sphere_growth_bounds(graph.degree_stats(CYCLE), 0), GraphInputError,
     "sphere radius must be >= 1, got 0"),
    # cover
    (3, lambda: cover.cover_walk_rows(CYCLE, -1), GraphInputError,
     "kmax must be nonnegative, got -1"),
    (4, lambda: cover.cover_ball_size(CYCLE, 0, -1), GraphInputError,
     "radius must be nonnegative, got -1"),
    (5, lambda: cover.rho_cover_estimate(cover.cover_walk_rows(CYCLE, 0)), GraphInputError,
     "kmax must be >= 1, got 0"),
    (34, lambda: cover.rho_cover_estimate([]), GraphInputError,
     "cover rows must be nonempty and of one length, got lengths []"),
    (35, lambda: cover.rho_cover_estimate([[1, 2], [1]]), GraphInputError,
     "cover rows must be nonempty and of one length, got lengths [1, 2]"),
    (36, lambda: cover.rho_cover_estimate([[]]), GraphInputError,
     "cover rows must be nonempty and of one length, got lengths [0]"),
    (37, lambda: cover.verify_lifting(CYCLE, [], 0), GraphInputError,
     "cover rows must be nonempty and of one length, got lengths []"),
    (38, lambda: cover.verify_lifting(CYCLE, cover.cover_walk_rows(CYCLE, 2)[1:], 0),
     GraphInputError, "4 cover rows for 5 vertices"),
    (51, lambda: cover.cover_ball_size(CYCLE, 5, 2), GraphInputError, "vertex 5 is not in 0..4"),
    # ensembles
    (6, lambda: ensembles.estimate_walk_moment(LAW, 2, 0, 1), GraphInputError,
     "samples must be >= 1, got 0"),
    (7, lambda: ensembles.exact_sphere_expectation(LAW, 0), GraphInputError,
     "sphere radius must be >= 1, got 0"),
    (8, lambda: ensembles.estimate_sphere(LAW, 0, 10, 1), GraphInputError,
     "sphere radius must be >= 1, got 0"),
    (9, lambda: ensembles.estimate_sphere(LAW, 2, 0, 1), GraphInputError,
     "samples must be >= 1, got 0"),
    (10, lambda: ensembles.regular_tree_walks(3, -1), GraphInputError,
     "kmax must be nonnegative, got -1"),
    (11, lambda: ensembles.ball_census(CYCLE, -1), GraphInputError,
     "radius must be nonnegative, got -1"),
    (32, lambda: ensembles.canonical_rooted_code(CYCLE, 0, -1), GraphInputError,
     "radius must be nonnegative, got -1"),
    (44, lambda: ensembles.sample_ugw(LAW, 3, (1, -1)), GraphInputError,
     "sample index must be in 0..2**64 - 1, got -1"),
    (45, lambda: ensembles.sample_ugw(LAW, 3, (1, 2**64)), GraphInputError,
     f"sample index must be in 0..2**64 - 1, got {2**64}"),
    (46, lambda: ensembles.sample_ugw(LAW, 3, -1), GraphInputError,
     "seed must be nonnegative, got -1"),
    (47, lambda: ensembles.sample_ugw(LAW, 3, (1, 1.7)), GraphInputError,
     "sample index must be an integer, got 1.7"),
    (48, lambda: ensembles.sample_ugw(LAW, 3, (1.5, 0)), GraphInputError,
     "seed must be an integer, got 1.5"),
    (49, lambda: ensembles.estimate_sphere(LAW, 3, 10, 1.5), GraphInputError,
     "seed must be an integer, got 1.5"),
    (50, lambda: ensembles.estimate_walk_moment(LAW, 2, 10, 1.5), GraphInputError,
     "seed must be an integer, got 1.5"),
    # graph
    (12, lambda: graph.build_graph([], -1), GraphInputError,
     "vertex count must be nonnegative, got -1"),
    (13, lambda: graph.induced_subgraph(CYCLE, [0, 1, 0]), GraphInputError,
     "duplicate vertices in induced_subgraph selection"),
    (14, lambda: generate("path", 0), GraphInputError, "path needs n >= 1, got 0"),
    (15, lambda: generate("complete", 0), GraphInputError, "complete needs n >= 1, got 0"),
    (16, lambda: generate("grid", 0), GraphInputError, "grid needs positive dimensions, got 0x0"),
    (17, lambda: generate("glued_clique_path", 0, 1), GraphInputError,
     "glued_clique_path needs clique_n >= 1 and path_len >= 0, got 0, 1"),
    (18, lambda: generate("cycle", 5, 2), GraphInputError, "cycle takes 1 parameter(s), got 2"),
    (19, lambda: graph.degree_stats(EMPTY), GraphInputError,
     "degree_stats needs at least one vertex"),
    (20, lambda: DegreeDistribution((2, 3), (1,)), GraphInputError,
     "support and probabilities must align and be nonempty"),
    (21, lambda: DegreeDistribution((3, 2), (0.5, 0.5)), GraphInputError,
     "support must be strictly increasing degrees"),
    (22, lambda: DegreeDistribution((0,), (1,)), GraphInputError, "degrees must be >= 1"),
    (23, lambda: graph.parse_edge_list(["n 3 4"]), GraphInputError,
     "line 1: malformed header 'n 3 4'"),
    (24, lambda: graph.parse_edge_list(["n x"]), GraphInputError, "line 1: bad vertex count 'x'"),
    (25, lambda: graph.parse_edge_list(["0 -1"]), GraphInputError,
     "line 1: negative vertex index in '0 -1'"),
    (33, lambda: graph.bfs_distances(CYCLE, 0, -1), GraphInputError,
     "radius must be nonnegative, got -1"),
    # spectra
    (26, lambda: spectra.adjacency_spectrum(EMPTY), GraphInputError,
     "adjacency_spectrum needs at least one vertex"),
    (27, lambda: spectra.sigma(spectra.adjacency_spectrum(CYCLE), 0), ValueError,
     "sigma index must be >= 1, got 0"),
    (28, lambda: spectra.moment(spectra.adjacency_spectrum(CYCLE), -1), ValueError,
     "moment order must be nonnegative, got -1"),
    (29, lambda: spectra.moment(spectra.Spectrum((), 0.0), 1), ValueError,
     "moment of an empty measure"),
    # walks
    (30, lambda: walks.closed_walk_counts(CYCLE, 0, -1), GraphInputError,
     "kmax must be nonnegative, got -1"),
    (31, lambda: walks.srw_return_probs(graph.build_graph([(0, 1)], 3), 0, 2), GraphInputError,
     "srw_return_probs undefined with an isolated vertex"),
    (39, lambda: walks.branch_series([[1, 1], []], [2, 1], [[1], []]), GraphInputError,
     "weight needs one row per branch and one entry per successor"),
    (40, lambda: walks.branch_series([[1], []], [1, 1], [[1]]), GraphInputError,
     "weight needs one row per branch and one entry per successor"),
    (41, lambda: walks.branch_series([[1], []], [2]), GraphInputError,
     "order has 1 entries for 2 branches"),
    (42, lambda: walks.branch_series([[1], []], [3, 1]), GraphInputError,
     "successors of branch 0 must be branches of order >= 2"),
    (43, lambda: walks.branch_series([[2], []], [1, 1]), GraphInputError,
     "successors of branch 0 must be branches of order >= 0"),
]


IDS = [f"{number:02d}-" + re.sub(r"\W+", "_", message)[:32].strip("_")
       for number, _, _, message in CASES]


def test_case_numbers_are_unique():
    numbers = [number for number, *_ in CASES]
    assert len(set(numbers)) == len(numbers)


@pytest.mark.parametrize("call, error, message", [case[1:] for case in CASES], ids=IDS)
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
