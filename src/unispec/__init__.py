"""Spectra, walk counts, universal covers, and non-backtracking-walk statistics
of finite graphs and sampled random trees, plus numerical evaluation of the
associated average-degree lower bounds."""

from .graph import (
    BudgetError,
    DegreeDistribution,
    DegreeStats,
    Graph,
    GraphInputError,
    PeeledCore,
    bfs_distances,
    build_graph,
    core_peel,
    degree_stats,
    generate,
    induced_subgraph,
    load_graph,
    parse_edge_list,
)
from .spectra import (
    Spectrum,
    adjacency_spectrum,
    eigenvalues_csv,
    markov_spectrum,
    moment,
    sigma,
    tail_mass,
)
from .walks import (
    branch_series,
    closed_walk_counts,
    srw_return_probs,
)
from .cover import (
    CoverBall,
    LiftCheck,
    cover_ball_size,
    cover_walk_rows,
    rho_cover_estimate,
    universal_cover_ball,
    verify_lifting,
)
from .nbw import (
    NBWKernel,
    StationarityReport,
    nbw_entropy,
    nbw_entropy_rate,
    nbw_transition,
    stationarity_check,
)
from .ensembles import (
    Census,
    Estimate,
    RootedTree,
    ball_census,
    canonical_rooted_code,
    estimate_sphere,
    estimate_walk_moment,
    exact_sphere_expectation,
    regular_tree_walks,
    sample_ugw,
    tv_distance,
)
from .bounds import (
    AlonBoppanaRow,
    alon_boppana_degree_bound,
    alon_boppana_report,
    hoory_bound,
    sphere_growth_bounds,
    tail_mass_constant,
    tail_mass_lower_bound,
    tree_spectral_radius_bounds,
    tree_srw_radius_bounds,
)

__version__ = "0.1.0"
