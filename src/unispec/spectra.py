"""Dense symmetric eigendecompositions and spectral-measure queries."""

from __future__ import annotations

from typing import Callable, NamedTuple

import numpy as np

from .graph import BudgetError, Graph, GraphInputError

__all__ = [
    "DENSE_LIMIT_DEFAULT",
    "Spectrum",
    "adjacency_spectrum",
    "eigenvalues_csv",
    "markov_spectrum",
    "moment",
    "sigma",
    "tail_mass",
]

DENSE_LIMIT_DEFAULT = 4000

# Residual contract per eigenpair: ||A v - lambda v||_2 <= 1e-8 * max(1, max_degree).
RESIDUAL_FACTOR = 1e-8


class Spectrum(NamedTuple):
    """All n eigenvalues in ascending order, the empirical measure giving each weight 1/n,
    and the largest eigenpair residual of the solve that produced them."""

    eigenvalues: tuple[float, ...]
    max_residual: float


def _solve(g: Graph, caller: str, matrix: Callable[[], np.ndarray]) -> Spectrum:
    """Eigenvalues of the symmetric n x n ``matrix()``, built only once ``g`` passes the
    size checks; raises if any eigenpair misses the residual contract."""
    n = g.vertex_count
    if n < 1:
        raise GraphInputError(f"{caller} needs at least one vertex")
    if n > DENSE_LIMIT_DEFAULT:
        raise BudgetError(f"n={n} exceeds dense eigensolver limit {DENSE_LIMIT_DEFAULT}")
    sym = matrix()
    w, v = np.linalg.eigh(sym)
    resid = sym @ v - v * w
    max_residual = float(np.sqrt((resid * resid).sum(axis=0)).max())
    bound = RESIDUAL_FACTOR * max(1, g.max_degree)
    if max_residual > bound:
        raise ArithmeticError(f"eigensolver residual {max_residual:.3e} exceeds bound {bound:.3e}")
    return Spectrum(tuple(w.tolist()), max_residual)


def adjacency_spectrum(g: Graph) -> Spectrum:
    """All eigenvalues of the adjacency matrix, with a residual certificate."""
    return _solve(g, "adjacency_spectrum", g.adjacency_matrix)


def markov_spectrum(g: Graph) -> Spectrum:
    """Eigenvalues of P = D^-1 A via the symmetric conjugate D^-1/2 A D^-1/2.

    The conjugation keeps the solve symmetric, so the spectrum is certified
    real; it is clipped to [-1, 1] (excursions are pure roundoff).
    """
    if g.vertex_count > 0 and g.min_degree < 1:
        raise GraphInputError("markov_spectrum undefined with an isolated vertex")

    def conjugate() -> np.ndarray:
        degrees = np.array([g.degree(v) for v in range(g.vertex_count)], dtype=np.float64)
        scale = 1.0 / np.sqrt(degrees)
        return g.adjacency_matrix() * np.outer(scale, scale)

    w, max_residual = _solve(g, "markov_spectrum", conjugate)
    return Spectrum(tuple(np.clip(w, -1.0, 1.0).tolist()), max_residual)


def sigma(s: Spectrum, j: int) -> float:
    """j-th largest eigenvalue in absolute value, with multiplicity.

    Returns 0 when j exceeds the number of eigenvalues (the convention used
    when comparing a graph against its possibly smaller leafless core).
    """
    if j < 1:
        raise ValueError(f"sigma index must be >= 1, got {j}")
    if j > len(s.eigenvalues):
        return 0.0
    moduli = sorted((abs(x) for x in s.eigenvalues), reverse=True)
    return moduli[j - 1]


def tail_mass(s: Spectrum, a: float) -> float:
    """Fraction of eigenvalues with |lambda| strictly above ``a``.

    Strict comparison on the computed eigenvalues, no tolerance: callers
    probing near-boundary values must offset ``a`` themselves.
    """
    if not s.eigenvalues:
        return 0.0
    return sum(1 for x in s.eigenvalues if abs(x) > a) / len(s.eigenvalues)


def moment(s: Spectrum, k: int) -> float:
    """k-th moment (1/n) sum lambda_i^k of the measure."""
    if k < 0:
        raise ValueError(f"moment order must be nonnegative, got {k}")
    if not s.eigenvalues:
        raise ValueError("moment of an empty measure")
    return float(np.mean(np.asarray(s.eigenvalues) ** k))


def eigenvalues_csv(s: Spectrum) -> str:
    """CSV export: one eigenvalue per line, 17 significant digits."""
    return "".join(f"{x:.17g}\n" for x in s.eigenvalues)
