"""Dense symmetric eigendecompositions and spectral-measure queries."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph import BudgetError, Graph, GraphInputError

__all__ = [
    "DENSE_LIMIT_DEFAULT",
    "EigenReport",
    "SpectralMeasure",
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


@dataclass(frozen=True)
class SpectralMeasure:
    """Empirical eigenvalue measure: all n eigenvalues with weight 1/n each.

    ``kind`` is "adjacency" (eigenvalues of A) or "markov" (eigenvalues of the
    simple-random-walk operator P = D^-1 A, always real and in [-1, 1]).
    """

    eigenvalues: tuple[float, ...]
    kind: str

    def __post_init__(self):
        if self.kind not in ("adjacency", "markov"):
            raise ValueError(f"unknown spectral measure kind {self.kind!r}")
        if any(a > b for a, b in zip(self.eigenvalues, self.eigenvalues[1:])):
            raise ValueError("eigenvalues must be sorted ascending")

    @property
    def size(self) -> int:
        return len(self.eigenvalues)


@dataclass(frozen=True)
class EigenReport:
    measure: SpectralMeasure
    max_residual: float


def _eigh_report(sym: np.ndarray, kind: str, residual_bound: float) -> EigenReport:
    w, v = np.linalg.eigh(sym)
    resid = sym @ v - v * w
    max_residual = float(np.sqrt((resid * resid).sum(axis=0)).max()) if len(w) else 0.0
    if max_residual > residual_bound:
        raise ArithmeticError(
            f"eigensolver residual {max_residual:.3e} exceeds bound {residual_bound:.3e}"
        )
    if kind == "markov":
        w = np.clip(w, -1.0, 1.0)
    return EigenReport(SpectralMeasure(tuple(float(x) for x in w), kind), max_residual)


def adjacency_spectrum(g: Graph) -> EigenReport:
    """All eigenvalues of the adjacency matrix, with a residual certificate."""
    n = g.vertex_count
    if n < 1:
        raise GraphInputError("adjacency_spectrum needs at least one vertex")
    if n > DENSE_LIMIT_DEFAULT:
        raise BudgetError(f"n={n} exceeds dense eigensolver limit {DENSE_LIMIT_DEFAULT}")
    bound = RESIDUAL_FACTOR * max(1, g.max_degree)
    return _eigh_report(g.adjacency_matrix(), "adjacency", bound)


def markov_spectrum(g: Graph) -> EigenReport:
    """Eigenvalues of P = D^-1 A via the symmetric conjugate D^-1/2 A D^-1/2.

    The conjugation keeps the solve symmetric, so the spectrum is certified
    real; it is clipped to [-1, 1] (excursions are pure roundoff).
    """
    n = g.vertex_count
    if n < 1:
        raise GraphInputError("markov_spectrum needs at least one vertex")
    if g.min_degree < 1:
        raise GraphInputError("markov_spectrum undefined with an isolated vertex")
    if n > DENSE_LIMIT_DEFAULT:
        raise BudgetError(f"n={n} exceeds dense eigensolver limit {DENSE_LIMIT_DEFAULT}")
    a = g.adjacency_matrix()
    scale = 1.0 / np.sqrt(np.array([g.degree(v) for v in range(n)], dtype=np.float64))
    sym = a * np.outer(scale, scale)
    bound = RESIDUAL_FACTOR * max(1, g.max_degree)
    return _eigh_report(sym, "markov", bound)


def sigma(m: SpectralMeasure, j: int) -> float:
    """j-th largest eigenvalue in absolute value, with multiplicity.

    Returns 0 when j exceeds the number of eigenvalues (the convention used
    when comparing a graph against its possibly smaller leafless core).
    """
    if j < 1:
        raise ValueError(f"sigma index must be >= 1, got {j}")
    if j > m.size:
        return 0.0
    moduli = sorted((abs(x) for x in m.eigenvalues), reverse=True)
    return moduli[j - 1]


def tail_mass(m: SpectralMeasure, a: float) -> float:
    """Fraction of eigenvalues with |lambda| strictly above ``a``.

    Strict comparison on the computed eigenvalues, no tolerance: callers
    probing near-boundary values must offset ``a`` themselves.
    """
    if m.size == 0:
        return 0.0
    return sum(1 for x in m.eigenvalues if abs(x) > a) / m.size


def moment(m: SpectralMeasure, k: int) -> float:
    """k-th moment (1/n) sum lambda_i^k of the measure."""
    if k < 0:
        raise ValueError(f"moment order must be nonnegative, got {k}")
    if m.size == 0:
        raise ValueError("moment of an empty measure")
    return float(np.mean(np.asarray(m.eigenvalues) ** k))


def eigenvalues_csv(m: SpectralMeasure) -> str:
    """CSV export: one eigenvalue per line, 17 significant digits."""
    return "".join(f"{x:.17g}\n" for x in m.eigenvalues)
