"""Random rooted-tree samplers, Monte Carlo estimators, and rooted-ball censuses.

The Galton-Watson sampler here is the unimodular variant: the root degree is
drawn from the given law pi, and every other vertex draws its offspring count
from the size-biased shifted law P(offspring = k - 1) = k pi(k) / E[D]. That is
the construction under which the resulting random rooted tree satisfies the
Mass-Transport Principle.

Every draw comes from a counter-based Philox stream (Salmon et al. 2011) keyed by
the master seed and addressed by (sample, generation, vertex), so sample i is a
function of (master seed, i) alone, however the samples are chunked or scheduled.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from fractions import Fraction
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
# trees the estimators grow together; any chunking gives the same samples. Larger chunks
# pay less per-call overhead but hold more memory: at 1024 the perfbench ugw workload peaks
# at 42 MB, below the 44 MB of a loop over single trees, and at 2048 it peaks at 46 MB
UGW_CHUNK = 1024
_PHILOX_SLICE = 1 << 14  # counter blocks per Philox evaluation
_PHILOX_M = (0xD2E7470EE14C6C93, 0xCA5A826395121157)
_PHILOX_W = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)


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


def _philox_key(master: int) -> np.ndarray:
    """The Philox key of a master seed; every draw of every sample is keyed by it."""
    return np.random.SeedSequence(master).generate_state(2, np.uint64)


def _philox(ctr: np.ndarray, key: np.ndarray) -> np.ndarray:
    """Philox4x64-10 (Salmon et al. 2011) of each column of a (4, n) uint64 counter array.

    The same function as numpy's ``Philox`` bit generator: ten rounds, the key bumped by the
    Weyl constants before every round after the first.
    """
    low, half = np.array(0xFFFFFFFF, np.uint64), np.array(32, np.uint64)  # faster than int operands
    m = np.array(_PHILOX_M, np.uint64)[:, None]  # multipliers of words 0 and 2
    m_lo, m_hi = m & low, m >> half
    bumps = np.array(_PHILOX_W[::-1], np.uint64)[:, None] * np.arange(10, dtype=np.uint64)
    keys = key[::-1, None] + bumps  # round r xors key + r * W, word order matching hi
    x = ctr.copy()
    for r in range(10):
        a = x[0::2]
        a_lo, a_hi = a & low, a >> half
        mid = a_hi * m_lo
        carry = ((a_lo * m_lo) >> half) + (mid & low) + a_lo * m_hi
        hi = a_hi * m_hi + (mid >> half) + (carry >> half)  # high words of the products a * m
        lo = a * m
        hi ^= x[3::-2]  # words 3 and 1
        hi ^= keys[:, r:r + 1]
        x[0::2], x[1::2] = hi[::-1], lo[::-1]
    return x


def _uniforms(key: np.ndarray, g: int, trees: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """The uniform draws of generation g: ``sizes[t]`` of them for tree ``trees[t]``, tree-major.

    Vertex j of tree i takes word j % 4 of Philox at counter (1 + j // 4, g, i, 0) as the double
    (x >> 11) * 2**-53. These are the values of
    ``Generator(Philox(key=key, counter=[0, g, i, 0])).random(size)``, so every draw is a
    function of (key, tree, generation, vertex) alone.
    """
    blocks = (sizes + 3) // 4
    first = np.cumsum(blocks) - blocks  # each tree's first block
    ctr = np.zeros((int(blocks.sum()), 4), np.uint64)
    ctr[:, 0] = np.arange(1, len(ctr) + 1) - np.repeat(first, blocks)
    ctr[:, 1] = g
    ctr[:, 2] = np.repeat(trees, blocks)
    for s in range(0, len(ctr), _PHILOX_SLICE):  # bounds the round temporaries
        ctr[s:s + _PHILOX_SLICE] = _philox(ctr[s:s + _PHILOX_SLICE].T, key).T
    skip = np.repeat(4 * first - (np.cumsum(sizes) - sizes), sizes)  # unused words of last blocks
    return (ctr.ravel()[np.arange(len(skip)) + skip] >> 11) * 2.0 ** -53


def _generations(laws: tuple, depth: int, key: np.ndarray, trees: np.ndarray):
    """Grow UGW trees ``trees``; yield (child counts of generations 0..depth-1, per-tree size of
    generation depth) for consecutive runs of them, in tree order.

    Generation g lists the child counts of its vertices tree-major, each tree's vertices in level
    order, so the children of a vertex are consecutive in generation g + 1. The root's degree
    comes from pi, then one size-biased offspring draw per vertex; a generation empty in every
    tree ends the list.

    The only ``UGW_NODE_BUDGET`` check: a tree that passes it, counting every vertex, the last level
    too, raises. A run of trees that passes it together is split in two and grown again, so no run
    yielded holds more vertices than the budget. Each draw depends only on its counter, so the trees
    never depend on the split.
    """
    if depth < 0:
        raise GraphInputError(f"depth must be nonnegative, got {depth}")
    (values, cum), offspring = laws
    counts = []
    sizes = np.ones(len(trees), np.int64)
    totals = sizes.copy()
    for g in range(depth):
        if not sizes.any():
            break
        drawn = values[cum.searchsorted(_uniforms(key, g, trees, sizes))]
        counts.append(drawn)
        owner = np.repeat(np.arange(len(trees)), sizes)
        sizes = np.bincount(owner, drawn, len(trees)).astype(np.int64)
        totals += sizes
        if totals.max() > UGW_NODE_BUDGET:
            raise BudgetError(f"UGW sample exceeded node budget {UGW_NODE_BUDGET}")
        if totals.sum() > UGW_NODE_BUDGET:
            del counts, drawn  # the halves regrow them; free them first
            for half in np.array_split(trees, 2):
                yield from _generations(laws, depth, key, half)
            return
        values, cum = offspring
    yield counts, sizes


def _chunks(samples: int):
    """Consecutive sample indices, ``UGW_CHUNK`` trees at a time."""
    for start in range(0, samples, UGW_CHUNK):
        yield np.arange(start, min(start + UGW_CHUNK, samples), dtype=np.uint64)


def sample_ugw(pi: DegreeDistribution, depth: int, seed) -> RootedTree:
    """Sample a unimodular Galton-Watson tree truncated at ``depth``.

    Vertex 0 is the root; vertices at distance ``depth`` get no children. A seed (master, i) gives
    sample i of ``estimate_sphere`` and ``estimate_walk_moment`` with master seed ``master``; an int
    seed s means (s, 0).
    """
    master, index = seed if isinstance(seed, tuple) else (seed, 0)
    (counts, _), = _generations(_inverse_cdfs(pi), depth, _philox_key(master),
                                np.array([index], np.uint64))
    flat = np.concatenate([np.zeros(0, np.int64)] + counts)  # level order: children are consecutive
    parents = np.repeat(np.arange(len(flat)), flat).tolist()
    edges = list(zip(parents, range(1, len(parents) + 1)))
    return RootedTree(build_graph(edges, len(parents) + 1), 0, depth)


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


def _walk_series(counts: list[np.ndarray], last: np.ndarray, k: int, dtype) -> np.ndarray:
    """W_2k at the root of each tree grown by ``_generations`` to depth k, run leaf-up one level
    at a time.

    The branch of a depth-h vertex has E = 1 / (1 - z * sum of its children's E), kept to order
    k - h (Hoory 2005); the walks are the coefficient of z^k in the root's E. This is the series
    of ``branch_series`` with unit weights, over whole levels of a chunk of trees at once.
    """
    series = np.ones((int(last.sum()), k + 1 - len(counts)), dtype)
    for h in range(len(counts) - 1, -1, -1):
        kids = counts[h]
        sums = np.zeros((len(kids), k - h), dtype)  # sums[v, i] = sum_{children c of v} E_c[i]
        if series.size:
            has = kids > 0
            sums[has] = np.add.reduceat(series, (np.cumsum(kids) - kids)[has], axis=0)
        series = np.zeros((len(kids), k - h + 1), dtype)
        series[:, 0] = 1
        for j in range(1, k - h + 1):
            series[:, j] = (sums[:, :j] * series[:, j - 1::-1]).sum(axis=1)
    return series[:, k]


def estimate_walk_moment(pi: DegreeDistribution, k: int, samples: int, seed) -> Estimate:
    """Estimate E[W_2k(T, root)] over unimodular Galton-Watson trees.

    Each sample grows a depth-k tree (walks of length 2k never go deeper) and counts its
    closed walks exactly with the leaf-up branch series, a chunk of trees at a time. The
    counts are int64 when D_max^(2k) < 2^63 bounds them, Python ints otherwise.
    """
    if samples < 1:
        raise GraphInputError(f"samples must be >= 1, got {samples}")
    laws, key = _inverse_cdfs(pi), _philox_key(seed)
    dtype = np.int64 if pi.max_degree ** (2 * k) < 2 ** 63 else object
    values = [_walk_series(counts, last, k, dtype).astype(np.float64)
              for trees in _chunks(samples) for counts, last in _generations(laws, k, key, trees)]
    return _aggregate(np.concatenate(values), samples, seed)


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

    Only the size of the last generation is kept: the trees grow through ``_generations``, with
    the draws and the node budget of ``sample_ugw``.
    """
    if r < 1:
        raise GraphInputError(f"sphere radius must be >= 1, got {r}")
    if samples < 1:
        raise GraphInputError(f"samples must be >= 1, got {samples}")
    laws, key = _inverse_cdfs(pi), _philox_key(seed)
    values = [last for trees in _chunks(samples) for _, last in _generations(laws, r, key, trees)]
    return _aggregate(np.concatenate(values), samples, seed), exact_sphere_expectation(pi, r)


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
