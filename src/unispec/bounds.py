"""Spectral-radius, tail-mass, and volume-growth lower bounds from degree moments.

Every bound depends only on the root-degree law, so it reads the moments
``d_av``, ``d2_mean``, ``dlog_mean``, ``dlogd_mean`` and ``hoory_lambda`` of
either a concrete finite graph (DegreeStats) or an abstract law
(DegreeDistribution), which name them alike. All formulas use natural log and
exp in full precision, no series approximations.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Sequence

from .graph import DegreeDistribution, DegreeStats, Graph, GraphInputError, degree_stats
from .spectra import adjacency_spectrum, sigma

__all__ = [
    "AlonBoppanaRow",
    "alon_boppana_degree_bound",
    "alon_boppana_report",
    "hoory_bound",
    "sphere_growth_bounds",
    "tail_mass_constant",
    "tail_mass_lower_bound",
    "tree_spectral_radius_bounds",
    "tree_srw_radius_bounds",
]


def alon_boppana_degree_bound(stats: DegreeStats | DegreeDistribution) -> float:
    """2 sqrt(max(d_av - 1, 0)), the spectral radius of the d_av-regular tree: the Alon-Boppana
    benchmark of a graph's degrees, and the second tree-radius bound of a leafless law."""
    return 2.0 * math.sqrt(max(stats.d_av - 1.0, 0.0))


def _require_leafless(stats: DegreeStats | DegreeDistribution) -> None:
    # the log-based moments are None exactly when degree <= 1 occurs
    if stats.dlog_mean is None:
        raise GraphInputError("degree moments for bounds require minimum degree >= 2")


def tree_spectral_radius_bounds(stats: DegreeStats | DegreeDistribution) -> tuple[float, float]:
    """Lower bounds on the spectral radius of a leafless unimodular tree.

    b1 = 2 exp(E[D log sqrt(D-1)] / E[D]) and b2 = 2 sqrt(E[D] - 1); b1 >= b2
    by convexity of x log(x - 1) on x >= 2, with equality only for a
    deterministic degree.
    """
    _require_leafless(stats)
    b1 = 2.0 * math.exp(stats.dlog_mean / (2.0 * stats.d_av))
    return b1, alon_boppana_degree_bound(stats)


def tree_srw_radius_bounds(stats: DegreeStats | DegreeDistribution) -> tuple[float, float]:
    """Lower bounds on the simple-random-walk spectral radius of such a tree.

    b1 = 2 exp(E[D log(sqrt(D-1)/D)] / E[D]) and b2 = 2 E[D] sqrt(E[D]-1) / E[D^2]; b2 is
    also the threshold below which the Markov spectrum of a growing leafless sequence keeps
    positive mass (the ``srw_tail_threshold`` row of ``analyze``).
    """
    _require_leafless(stats)
    b1 = 2.0 * math.exp((stats.dlog_mean / 2.0 - stats.dlogd_mean) / stats.d_av)
    return b1, stats.d_av * alon_boppana_degree_bound(stats) / stats.d2_mean


def hoory_bound(stats: DegreeStats | DegreeDistribution) -> float:
    """2 sqrt(Lambda) with Lambda = ``hoory_lambda``, the degree-geometric-mean product.

    Algebraically identical to the first tree-radius bound, but evaluated
    through the product form, which makes the identity a usable cross-check of
    both code paths (the ``hoory_equals_entropy_bound`` row of the bounds suite).
    """
    _require_leafless(stats)
    return 2.0 * math.sqrt(stats.hoory_lambda)


def tail_mass_lower_bound(cover_moment_w2k, rho_h: float, a: float, k: int) -> float:
    """Lower bound (E[W_2k(cover)] - a^2k) / rho^2k on the spectral mass above a.

    May be nonpositive, in which case it is vacuous. ``cover_moment_w2k`` is a
    certified finite-k moment of the truncated cover, never an extrapolation.
    """
    if rho_h <= 0:
        raise GraphInputError(f"rho must be positive, got {rho_h}")
    if k < 1:
        raise GraphInputError(f"k must be >= 1, got {k}")
    return (float(cover_moment_w2k) - a ** (2 * k)) / rho_h ** (2 * k)


class TailMassConstant(NamedTuple):
    c: float
    K: int


def tail_mass_constant(
    epsilon: float, rho_sup: float, cover_moments: Sequence[float], rho_t: float
) -> TailMassConstant:
    """Uniform positive constant below the spectral mass above rho_t - epsilon.

    ``cover_moments`` holds E[W_2k(cover)] for k = 1..len; K is the smallest k
    with moment / rho_t^2k >= (1 - delta/2)^2k where delta = epsilon / rho_t,
    and c = ((1 - delta/2)^2K - (1 - delta)^2K) / (rho_sup / rho_t)^2K > 0.
    """
    if not 0 < epsilon < rho_t:
        raise GraphInputError(f"need 0 < epsilon < rho_t, got epsilon={epsilon}, rho_t={rho_t}")
    if rho_sup < rho_t:
        raise GraphInputError(f"need rho_sup >= rho_t, got {rho_sup} < {rho_t}")
    delta = epsilon / rho_t
    for idx, moment_value in enumerate(cover_moments, start=1):
        if float(moment_value) / rho_t ** (2 * idx) >= (1.0 - delta / 2.0) ** (2 * idx):
            big_k = idx
            break
    else:
        raise GraphInputError(
            f"no qualifying K among {len(list(cover_moments))} cover moments; increase k budget"
        )
    c = ((1.0 - delta / 2.0) ** (2 * big_k) - (1.0 - delta) ** (2 * big_k)) / (
        (rho_sup / rho_t) ** (2 * big_k)
    )
    return TailMassConstant(c, big_k)


def sphere_growth_bounds(stats: DegreeStats | DegreeDistribution, r: int) -> tuple[float, float]:
    """Lower bounds on the expected sphere size E[|S_r|] of a leafless tree.

    b1 = E[D] exp((r-1) E[D log(D-1)] / E[D]) and b2 = E[D] (E[D] - 1)^(r-1).
    """
    if r < 1:
        raise GraphInputError(f"sphere radius must be >= 1, got {r}")
    _require_leafless(stats)
    b1 = stats.d_av * math.exp((r - 1) * stats.dlog_mean / stats.d_av)
    b2 = stats.d_av * (stats.d_av - 1.0) ** (r - 1)
    return b1, b2


class AlonBoppanaRow(NamedTuple):
    n: int
    sigma_j: float
    degree_bound: float
    margin: float


def alon_boppana_report(graphs: Sequence[Graph], j: int) -> list[AlonBoppanaRow]:
    """Per-graph sigma_j against the 2 sqrt(d_av - 1) benchmark.

    No pass flag: the comparison is a liminf statement, so only the trend is
    reported (margin = sigma_j - bound, possibly negative for small graphs).
    """
    rows = []
    for g in graphs:
        if not g.is_connected():
            raise GraphInputError("alon_boppana_report requires connected graphs")
        stats = degree_stats(g)
        s = sigma(adjacency_spectrum(g), j)
        bound = alon_boppana_degree_bound(stats)
        rows.append(AlonBoppanaRow(stats.n, s, bound, s - bound))
    return rows

