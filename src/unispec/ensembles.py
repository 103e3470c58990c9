"""Random rooted-tree samplers, Monte Carlo estimators, and rooted-ball censuses.

The Galton-Watson sampler here is the unimodular variant: the root degree is
drawn from the given law pi, and every other vertex draws its offspring count
from the size-biased shifted law P(offspring = k - 1) = k pi(k) / E[D]. That is
the construction under which the resulting random rooted tree satisfies the
Mass-Transport Principle.

All estimators derive a per-sample generator from (master seed, sample index),
so aggregation is deterministic no matter how samples are scheduled.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from typing import NamedTuple, Sequence

import numpy as np

from .graph import BudgetError, Graph, GraphInputError, build_graph
from .walks import _ball_adjacency, branch_series

__all__ = [
    "Census",
    "DegreeDistribution",
    "Estimate",
    "RootedTree",
    "ball_census",
    "canonical_rooted_code",
    "estimate_sphere",
    "estimate_walk_moment",
    "exact_sphere_expectation",
    "regular_tree_walks",
    "sample_ugw",
    "tv_distance",
]

EXACT_CANON_LIMIT = 40
# legitimate desk-scale balls refine almost immediately (grid/cycle/Petersen
# balls use < 30 search nodes); only factorially symmetric balls hit the cap
CANON_SEARCH_CAP = 5_000
UGW_NODE_BUDGET = 1_000_000


@dataclass(frozen=True)
class DegreeDistribution:
    """A finitely supported root-degree law with its moments.

    The moments carry the names of the ``DegreeStats`` fields, so every bound reads
    either type; a finite graph with a uniform root is the law of its degrees. As
    there, the log-based moments are None when degree 1 is in the support. Rational
    probabilities (Fractions) keep the size-biased construction exact.
    """

    support: tuple[int, ...]
    probabilities: tuple

    def __post_init__(self):
        if len(self.support) != len(self.probabilities) or not self.support:
            raise GraphInputError("support and probabilities must align and be nonempty")
        if list(self.support) != sorted(set(self.support)):
            raise GraphInputError("support must be strictly increasing degrees")
        if any(d < 1 for d in self.support):
            raise GraphInputError("degrees must be >= 1")
        for d, p in zip(self.support, self.probabilities):
            if not 0 < p <= 1:
                raise GraphInputError(f"probability of degree {d} is not in (0, 1]; drop zero atoms")
        total = sum(map(Fraction, self.probabilities))  # exact, so no float can overflow
        if abs(total - 1) > 1e-12:
            raise GraphInputError(f"probabilities sum to {float(total)}")

    @classmethod
    def build(cls, pairs) -> "DegreeDistribution":
        items = sorted(pairs)
        return cls(tuple(d for d, _ in items), tuple(p for _, p in items))

    @classmethod
    def from_string(cls, text: str) -> "DegreeDistribution":
        """Parse "2:0.5,3:0.5"; decimal probabilities become exact Fractions."""
        pairs = []
        for part in text.split(","):
            part = part.strip()
            if not part:
                continue
            try:
                d_text, p_text = part.split(":")
                pairs.append((int(d_text), Fraction(p_text)))
            except (ValueError, ZeroDivisionError):
                raise GraphInputError(f"bad degree:probability pair {part!r}") from None
        return cls.build(pairs)

    def _moment(self, f) -> float:
        return float(sum(p * f(d) for d, p in zip(self.support, self.probabilities)))

    @property
    def d_av(self) -> float:
        return self._moment(lambda d: d)

    @property
    def d2_mean(self) -> float:
        return self._moment(lambda d: d * d)

    @property
    def mean_d_dm1(self) -> float:
        """E[D (D - 1)], the mean offspring count of non-root vertices."""
        return self._moment(lambda d: d * (d - 1))

    @property
    def dlog_mean(self) -> float | None:
        """E[D log(D - 1)]; None with degree 1 in the support."""
        if self.min_degree < 2:
            return None
        return self._moment(lambda d: d * math.log(d - 1))

    @property
    def dlogd_mean(self) -> float:
        return self._moment(lambda d: d * math.log(d))

    @property
    def hoory_lambda(self) -> float | None:
        """prod_d (d - 1)^(d pi(d) / E[D]); None with degree 1 in the support."""
        if self.min_degree < 2:
            return None
        mean = self.d_av
        lam = 1.0
        for d, p in zip(self.support, self.probabilities):
            lam *= float(d - 1) ** (d * float(p) / mean)
        return lam

    @property
    def min_degree(self) -> int:
        return self.support[0]

    @property
    def max_degree(self) -> int:
        return self.support[-1]

    def is_point_mass(self) -> bool:
        return len(self.support) == 1

    def size_biased_offspring(self) -> tuple[tuple[int, object], ...]:
        """Offspring law of non-root vertices: P(k - 1) = k pi(k) / E[D].

        Exact (Fraction) whenever the input probabilities are exact; the
        probabilities sum to 1 identically.
        """
        mean = sum(d * p for d, p in zip(self.support, self.probabilities))
        return tuple(
            (d - 1, d * p / mean) for d, p in zip(self.support, self.probabilities)
        )


class RootedTree(NamedTuple):
    graph: Graph
    root: int
    depth: int


def _inverse_cdfs(pi: DegreeDistribution) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
    """Inverse-CDF tables (values, cumulative probabilities): root degree, size-biased offspring."""
    offspring = pi.size_biased_offspring()
    return ((np.array(pi.support), np.cumsum([float(p) for p in pi.probabilities])),
            (np.array([k for k, _ in offspring]), np.cumsum([float(p) for _, p in offspring])))


def _generations(laws: tuple, depth: int, rng) -> tuple[list[np.ndarray], int]:
    """Grow a UGW tree: child counts of generations 0..depth-1 and the size of generation depth.

    Vertices are numbered level by level, so each vertex's children are consecutive. The root's
    degree comes from pi, then one size-biased offspring draw per generation; an empty generation
    ends the list. The only ``UGW_NODE_BUDGET`` check: it counts every vertex, the last level too.
    """
    if depth < 0:
        raise GraphInputError(f"depth must be nonnegative, got {depth}")
    (values, cum), offspring = laws
    counts = []
    size = total = 1
    while size and len(counts) < depth:
        drawn = values[cum.searchsorted(rng.random(size))]
        counts.append(drawn)
        size = int(drawn.sum())
        total += size
        if total > UGW_NODE_BUDGET:
            raise BudgetError(f"UGW sample exceeded node budget {UGW_NODE_BUDGET}")
        values, cum = offspring
    return counts, size


def _tree_lists(counts: list[np.ndarray], size: int) -> tuple[list[range], list[int]]:
    """Children and depth of every vertex of a tree grown by ``_generations``."""
    flat = [c for generation in counts for c in generation.tolist()]
    children = [range(a, a + c) for a, c in zip(accumulate(flat, initial=1), flat)]
    depth = [h for h, generation in enumerate(counts) for _ in range(len(generation))]
    return children + [range(0)] * size, depth + [len(counts)] * size


def sample_ugw(pi: DegreeDistribution, depth: int, seed) -> RootedTree:
    """Sample a unimodular Galton-Watson tree truncated at ``depth``.

    Vertex 0 is the root; vertices at distance ``depth`` get no children.
    Deterministic for a fixed seed (ints and (master, index) tuples both work).
    """
    children, _ = _tree_lists(*_generations(_inverse_cdfs(pi), depth, np.random.default_rng(seed)))
    edges = [(v, w) for v, kids in enumerate(children) for w in kids]
    return RootedTree(build_graph(edges, len(children)), 0, depth)


@dataclass(frozen=True)
class Estimate:
    """Monte Carlo estimate: mean, stderr = sample std / sqrt(samples)."""

    mean: float
    stderr: float
    samples: int
    seed: int


def _aggregate(values: Sequence[float], samples: int, seed) -> Estimate:
    arr = np.asarray(values, dtype=np.float64)
    mean = float(arr.mean())
    stderr = float(arr.std(ddof=1) / math.sqrt(samples)) if samples > 1 else 0.0
    return Estimate(mean=mean, stderr=stderr, samples=samples, seed=seed)


def estimate_walk_moment(pi: DegreeDistribution, k: int, samples: int, seed) -> Estimate:
    """Estimate E[W_2k(T, root)] over unimodular Galton-Watson trees.

    Each sample grows a depth-k tree (walks of length 2k never go deeper) and
    counts its closed walks exactly with ``branch_series``, run leaf-up: the
    branch of a vertex at depth h is its subtree of children, kept to order k - h.
    """
    if samples < 1:
        raise GraphInputError(f"samples must be >= 1, got {samples}")
    laws = _inverse_cdfs(pi)
    values = []
    for i in range(samples):
        children, depth = _tree_lists(*_generations(laws, k, np.random.default_rng((seed, i))))
        values.append(float(branch_series(children, [k - h for h in depth])[0][k]))
    return _aggregate(values, samples, seed)


def exact_sphere_expectation(pi: DegreeDistribution, r: int) -> float:
    """Branching value E[|S_r|] = E[D] * m^(r-1) with m = E[D(D-1)] / E[D]."""
    if r < 1:
        raise GraphInputError(f"sphere radius must be >= 1, got {r}")
    mean = pi.d_av
    return mean * (pi.mean_d_dm1 / mean) ** (r - 1)


def estimate_sphere(
    pi: DegreeDistribution, r: int, samples: int, seed
) -> tuple[Estimate, float]:
    """Monte Carlo estimate of E[|S_r|] plus the exact branching value.

    Only generation sizes are kept: the tree grows through ``_generations``, with the
    draws and the node budget of ``sample_ugw``, which keeps 1e5-sample runs cheap.
    """
    if r < 1:
        raise GraphInputError(f"sphere radius must be >= 1, got {r}")
    if samples < 1:
        raise GraphInputError(f"samples must be >= 1, got {samples}")
    laws = _inverse_cdfs(pi)
    values = [float(_generations(laws, r, np.random.default_rng((seed, i)))[1])
              for i in range(samples)]
    return _aggregate(values, samples, seed), exact_sphere_expectation(pi, r)


def regular_tree_walks(d: int, kmax: int) -> tuple[int, ...]:
    """Exact closed-walk counts W_2k from a vertex of the infinite d-regular tree.

    Two branch classes: a non-root vertex has d - 1 child branches like itself
    (class 0), the root has d of them (class 1). O(kmax^2) integer work.
    """
    if d < 2:
        raise GraphInputError(f"regular tree degree must be >= 2, got {d}")
    if kmax < 0:
        raise GraphInputError(f"kmax must be nonnegative, got {kmax}")
    return tuple(branch_series([[0] * (d - 1), [0] * d], [kmax, kmax])[1])


# ----------------------------------------------------------------------------
# Rooted-ball census and canonical codes
# ----------------------------------------------------------------------------


@dataclass(frozen=True)
class Census:
    """Frequencies of canonical rooted-ball codes over all root choices."""

    radius: int
    counts: dict
    total: int
    exact: bool


class _CanonBudget(Exception):
    pass


def _refine(adj: list[list[int]], colors: list[int]) -> list[int]:
    # canonical color ids: sorted signature order, so refinement is
    # label-invariant
    while True:
        sigs = [(colors[v], tuple(sorted(colors[u] for u in adj[v]))) for v in range(len(adj))]
        lookup = {s: i for i, s in enumerate(sorted(set(sigs)))}
        new_colors = [lookup[s] for s in sigs]
        if new_colors == colors:
            return colors
        colors = new_colors


def _code_from_discrete(adj: list[list[int]], colors: list[int]) -> tuple:
    order = sorted(range(len(adj)), key=colors.__getitem__)
    label = [0] * len(adj)
    for pos, v in enumerate(order):
        label[v] = pos
    edges = sorted(
        (label[u], label[v]) for u in range(len(adj)) for v in adj[u] if label[u] < label[v]
    )
    return (len(adj), tuple(edges))


def _min_code(adj: list[list[int]], colors: list[int], budget: list[int], tree: bool) -> tuple:
    # budget counts search nodes, so walls of equal-code branches on highly
    # symmetric balls cannot stall the census; exhaustion degrades to hashing.
    # On a coloured tree the stable cells are automorphism orbits (a tree is its
    # own unfolding), so every branch gives the same code and one is searched;
    # a loop searches it, as a big tree ball needs more levels than Python recurses
    n = len(adj)
    while True:
        budget[0] -= 1
        if budget[0] < 0:
            raise _CanonBudget
        colors = _refine(adj, colors)
        if len(set(colors)) == n:
            return _code_from_discrete(adj, colors)
        by_color: dict[int, list[int]] = {}
        for v, c in enumerate(colors):
            by_color.setdefault(c, []).append(v)
        cell = by_color[min(c for c, vs in by_color.items() if len(vs) > 1)]
        if not tree:  # individualize v with the fresh color n, larger than any refined id
            return min(_min_code(adj, colors[:v] + [n] + colors[v + 1:], budget, tree)
                       for v in cell)
        colors = colors[:cell[0]] + [n] + colors[cell[0] + 1:]


def canonical_rooted_code(g: Graph, root: int, radius: int) -> tuple[str, bool]:
    """Canonical code of the rooted ball B_radius(g, root).

    Exact canonical form (minimum code over refinement-individualized
    orderings). A tree ball takes one branch per search level, so it is exact at
    any size; a cyclic ball is searched only up to ``EXACT_CANON_LIMIT`` vertices
    and ``CANON_SEARCH_CAP`` search nodes. Larger or exhausted cyclic balls fall
    back to an iterative-refinement hash, flagged non-exact, which can in
    principle collide for refinement-equivalent non-isomorphic balls.
    """
    adj, _, init = _ball_adjacency(g, root, radius)  # colored by distance: the root alone at 0
    tree = sum(map(len, adj)) == 2 * (len(adj) - 1)  # the ball is connected
    if tree or len(adj) <= EXACT_CANON_LIMIT:
        try:
            n, edges = _min_code(adj, init, [CANON_SEARCH_CAP], tree)
            body = ",".join(f"{u}-{v}" for u, v in edges)
            return f"g{n}:{body}", True
        except _CanonBudget:
            pass
    colors = _refine(adj, init)
    payload = repr((len(adj), colors[0],
                    sorted((colors[v], tuple(sorted(colors[u] for u in adj[v])))
                           for v in range(len(adj)))))
    digest = hashlib.sha256(payload.encode()).hexdigest()[:16]
    return f"h{len(adj)}:{digest}", False


def ball_census(g: Graph, r: int) -> Census:
    """Census of canonical r-ball codes over all n root choices."""
    if r < 0:
        raise GraphInputError(f"radius must be nonnegative, got {r}")
    counts: dict[str, int] = {}
    all_exact = True
    for root in range(g.vertex_count):
        code, exact = canonical_rooted_code(g, root, r)
        all_exact &= exact
        counts[code] = counts.get(code, 0) + 1
    return Census(radius=r, counts=counts, total=g.vertex_count, exact=all_exact)


def tv_distance(a: Census, b: Census) -> float:
    """Total variation distance between two censuses of equal radius."""
    if a.radius != b.radius:
        raise GraphInputError(f"census radii differ: {a.radius} vs {b.radius}")
    codes = set(a.counts) | set(b.counts)
    total = Fraction(0)
    for code in codes:
        total += abs(Fraction(a.counts.get(code, 0), a.total) - Fraction(b.counts.get(code, 0), b.total))
    return float(total / 2)
