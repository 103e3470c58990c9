"""Random rooted-tree samplers, Monte Carlo estimators, and rooted-ball censuses.

The Galton-Watson sampler here is the unimodular variant: the root degree is
drawn from the given law pi, and every other vertex draws its offspring count
from the size-biased shifted law P(offspring = k - 1) = k pi(k) / E[D]. That is
the construction under which the resulting random rooted tree satisfies the
Mass-Transport Principle.

Every draw comes from a counter-based Philox stream (Salmon et al. 2011) keyed by
the master seed and addressed by (sample, generation, vertex), so sample i is a
function of (master seed, i) alone, however the samples are split or scheduled.
Trees grow together in runs, each generation of a run one Philox pass; a run of two
or more trees draws at most ``UGW_DRAWS`` values in one generation.
"""

from __future__ import annotations

import hashlib
import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Sequence

import numpy as np

from .graph import (BudgetError, DegreeDistribution, Graph, GraphInputError, _ball, _partition,
                    _refine, _split_cells, build_graph)
from .walks import branch_series

__all__ = [
    "Census",
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
# balls use < 30 search nodes), and automorphism pruning keeps symmetric ones
# far below the cap (the 40-vertex ball of K_40 takes 780 nodes)
CANON_SEARCH_CAP = 5_000
UGW_NODE_BUDGET = 1_000_000
# the most values a run of two or more trees draws in one generation; any bound gives the same
# samples. A larger bound makes fewer, larger Philox passes; the memory a run holds grows with
# the bound times the depth
UGW_DRAWS = 1 << 14
_PHILOX_M = (0xD2E7470EE14C6C93, 0xCA5A826395121157)
_PHILOX_W = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)


class RootedTree(NamedTuple):
    graph: Graph
    root: int
    depth: int


def _inverse_cdfs(pi: DegreeDistribution) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
    """Inverse-CDF tables (values, cumulative probabilities): root degree, size-biased offspring.

    Each table ends at exactly 1: a float cumsum of an exact law can end below 1, and a draw
    past its end would find no atom.
    """
    def table(values, probs):
        cum = np.cumsum([float(p) for p in probs])
        cum[-1] = 1.0
        return np.array(values), cum

    return table(pi.support, pi.probabilities), table(*zip(*pi.size_biased_offspring()))


def _philox_key(master: int) -> np.ndarray:
    """The Philox key of a master seed; every draw of every sample is keyed by it."""
    if not isinstance(master, (int, np.integer)):
        raise GraphInputError(f"seed must be an integer, got {master!r}")
    if master < 0:
        raise GraphInputError(f"seed must be nonnegative, got {master}")
    return np.random.SeedSequence(master).generate_state(2, np.uint64)


def _philox(ctr: np.ndarray, key: np.ndarray) -> np.ndarray:
    """Philox4x64-10 (Salmon et al. 2011) of each column of a (4, n) uint64 counter array.

    The same function as numpy's ``Philox`` bit generator: ten rounds, the key bumped by the
    Weyl constants before every round after the first. The state is two (2, n) arrays, words
    (0, 2), which are multiplied, and words (3, 1), which are xored into the high halves of the
    products; each round runs in place on a fixed set of buffers, and ends by swapping references.
    """
    low, half = np.array(0xFFFFFFFF, np.uint64), np.array(32, np.uint64)  # faster than int operands
    m = np.array(_PHILOX_M, np.uint64)[:, None]  # multipliers of words 0 and 2
    m_lo, m_hi = m & low, m >> half
    bumps = np.array(_PHILOX_W[::-1], np.uint64)[:, None] * np.arange(10, dtype=np.uint64)
    keys = (key[::-1, None] + bumps).T[:, :, None]  # round r xors key + r * W, words matching hi
    a, b = ctr[[0, 2]], ctr[[3, 1]]
    a_lo, hi, mid, carry = (np.empty_like(a) for _ in range(4))
    for r in range(10):
        np.bitwise_and(a, low, out=a_lo)
        np.right_shift(a, half, out=hi)
        np.multiply(hi, m_lo, out=mid)
        np.multiply(a_lo, m_lo, out=carry)
        np.right_shift(carry, half, out=carry)
        np.multiply(a_lo, m_hi, out=a_lo)
        np.add(carry, a_lo, out=carry)
        np.bitwise_and(mid, low, out=a_lo)
        np.add(carry, a_lo, out=carry)
        np.right_shift(carry, half, out=carry)
        np.multiply(hi, m_hi, out=hi)
        np.right_shift(mid, half, out=mid)
        np.add(hi, mid, out=hi)
        np.add(hi, carry, out=hi)  # the high words of the products a * m
        np.bitwise_xor(hi, b, out=hi)
        np.bitwise_xor(hi, keys[r], out=hi)
        np.multiply(a, m, out=a)  # the low words: next words (3, 1)
        a, b, hi = hi[::-1], a, b
    x = np.empty_like(ctr)
    x[0::2], x[1::2] = a, b[::-1]
    return x


def _uniforms(key: np.ndarray, g: int, trees: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """The uniform draws of generation g: ``sizes[t]`` of them for tree ``trees[t]``, tree-major.

    Vertex j of tree i takes word j % 4 of Philox at counter (1 + j // 4, g, i, 0) as the double
    (x >> 11) * 2**-53. These are the values of
    ``Generator(Philox(key=key, counter=[0, g, i, 0])).random(size)``, so every draw is a
    function of (key, tree, generation, vertex) alone. All blocks go through one Philox pass:
    there are no more of them than draws.
    """
    blocks = (sizes + 3) // 4
    first = np.cumsum(blocks) - blocks  # each tree's first block
    ctr = np.zeros((4, int(blocks.sum())), np.uint64)
    ctr[0] = np.arange(1, ctr.shape[1] + 1) - np.repeat(first, blocks)
    ctr[1] = g
    ctr[2] = np.repeat(trees, blocks)
    skip = np.repeat(4 * first - (np.cumsum(sizes) - sizes), sizes)  # unused words of last blocks
    words = _philox(ctr, key).ravel(order="F")  # block-major
    return (words[np.arange(len(skip)) + skip] >> 11) * 2.0 ** -53


def _generations(pi: DegreeDistribution, depth: int, master: int, trees: np.ndarray):
    """Grow UGW(pi) trees ``trees`` with the Philox key of seed ``master``; yield (child counts of
    generations 0..depth-1, per-tree size of generation depth) for runs of them, in tree order.

    Generation g lists the child counts of its vertices tree-major, each tree's vertices in level
    order, so the children of a vertex are consecutive in generation g + 1. The root's degree
    comes from pi, then one size-biased offspring draw per vertex; a generation empty in every
    tree of the run ends the list.

    ``trees`` may be every sample index. A run is yielded once grown (to ``depth`` or to an empty
    generation) within the budget. A run of two or more trees that would draw more than
    ``UGW_DRAWS`` values in its next generation, or that passes the budget together, is split in
    two, each half keeping its share of the generations drawn, so no vertex is drawn twice; the
    first split cuts the root generation (one draw per tree) like any other. A single tree draws
    whatever it needs. The only ``UGW_NODE_BUDGET`` check: a tree that passes it, counting every
    vertex, the last level too, raises. Each draw depends only on its counter, so the trees never
    depend on the splits.
    """
    if depth < 0:
        raise GraphInputError(f"depth must be nonnegative, got {depth}")
    laws, key = _inverse_cdfs(pi), _philox_key(master)
    runs = [(trees, [], [np.ones(len(trees), np.int64)])]  # (trees, child counts, level sizes)
    while runs:
        trees, counts, levels = runs.pop()  # levels[g][t]: vertices of tree t in generation g
        totals = sum(levels)
        while (len(counts) < depth and levels[-1].any() and totals.sum() <= UGW_NODE_BUDGET
               and (len(trees) == 1 or levels[-1].sum() <= UGW_DRAWS)):
            values, cum = laws[1] if counts else laws[0]
            drawn = values[cum.searchsorted(_uniforms(key, len(counts), trees, levels[-1]))]
            owner = np.repeat(np.arange(len(trees)), levels[-1])
            counts.append(drawn)
            levels.append(np.bincount(owner, drawn, len(trees)).astype(np.int64))
            totals += levels[-1]
        if totals.max() > UGW_NODE_BUDGET:
            raise BudgetError(f"UGW sample exceeded node budget {UGW_NODE_BUDGET}")
        if (len(counts) == depth or not levels[-1].any()) and totals.sum() <= UGW_NODE_BUDGET:
            yield counts, levels[-1]
            continue
        half = (len(trees) + 1) // 2  # at least two trees: a single one is grown or raised
        cuts = [int(level[:half].sum()) for level in levels[:-1]]
        runs.append((trees[half:], [c[k:] for c, k in zip(counts, cuts)],
                     [level[half:] for level in levels]))
        runs.append((trees[:half], [c[:k] for c, k in zip(counts, cuts)],
                     [level[:half] for level in levels]))  # popped first, to keep tree order


def sample_ugw(pi: DegreeDistribution, depth: int, seed) -> RootedTree:
    """Sample a unimodular Galton-Watson tree truncated at ``depth``.

    Vertex 0 is the root; vertices at distance ``depth`` get no children. A seed (master, i) gives
    sample i of ``estimate_sphere`` and ``estimate_walk_moment`` with master seed ``master``; an int
    seed s means (s, 0).
    """
    master, index = seed if isinstance(seed, tuple) else (seed, 0)
    if not isinstance(index, (int, np.integer)):
        raise GraphInputError(f"sample index must be an integer, got {index!r}")
    if not 0 <= index < 2**64:
        raise GraphInputError(f"sample index must be in 0..2**64 - 1, got {index}")
    (counts, _), = _generations(pi, depth, master, np.array([index], np.uint64))
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
    """The estimate of ``values``. Finite values whose sum or squares pass the float range are
    divided by their largest magnitude, and the mean and stderr of the quotients scaled back."""
    def moments(x: np.ndarray, scale: float) -> tuple[float, float]:
        with np.errstate(over="ignore"):
            return (float(x.mean()) * scale,
                    float(x.std(ddof=1) / math.sqrt(samples)) * scale if samples > 1 else 0.0)

    arr = np.asarray(values, dtype=np.float64)
    mean, stderr = moments(arr, 1.0)
    if not (math.isfinite(mean) and math.isfinite(stderr)) and np.isfinite(arr).all():
        scale = float(np.abs(arr).max())
        mean, stderr = moments(arr / scale, scale)
    return Estimate(mean=mean, stderr=stderr, samples=samples, seed=seed)


def _walk_series(counts: list[np.ndarray], last: np.ndarray, k: int, dtype) -> np.ndarray:
    """W_2k at the root of each tree grown by ``_generations`` to depth k, run leaf-up one level
    at a time.

    The branch of a depth-h vertex has E = 1 / (1 - z * sum of its children's E), kept to order
    k - h (Hoory 2005); the walks are the coefficient of z^k in the root's E. This is the series
    of ``branch_series`` with unit weights, over whole levels of a run of trees at once. The draw
    bound ``UGW_DRAWS`` bounds the levels and arrays of a run of two or more trees; per sample,
    the grower holds only an index and a level-0 count (16 bytes), beside the estimate's one float.
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
    closed walks exactly with the leaf-up branch series, a run of trees at a time (runs are
    bounded by their draws per generation, see ``_generations``). The counts are int64 when
    D_max^(2k) < 2^63 bounds them, Python ints otherwise; a count past the float range raises,
    as soon as the first run is grown if the count of the min-degree regular tree passes it.
    """
    if samples < 1:
        raise GraphInputError(f"samples must be >= 1, got {samples}")
    dtype = np.int64 if pi.max_degree ** (2 * k) < 2 ** 63 else object
    # every sample holds the min-degree regular tree to depth k, so its W_2k bounds every count
    floor = regular_tree_walks(pi.min_degree, k)[k] if dtype is object else 0
    values = []
    try:
        for counts, last in _generations(pi, k, seed, np.arange(samples, dtype=np.uint64)):
            if floor > sys.float_info.max:
                raise OverflowError
            values.append(_walk_series(counts, last, k, dtype).astype(np.float64))
    except OverflowError:  # a count too large for a float, from the floor or from astype
        raise GraphInputError(f"a walk count W_2k at k = {k} passes the float range "
                              f"(max {sys.float_info.max:.3g})") from None
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
    values = [last for _, last in _generations(pi, r, seed, np.arange(samples, dtype=np.uint64))]
    return _aggregate(np.concatenate(values), samples, seed), exact_sphere_expectation(pi, r)


def regular_tree_walks(d: int, kmax: int) -> tuple[int, ...]:
    """Exact closed-walk counts W_2k from a vertex of the infinite d-regular tree.

    Two branch classes: a non-root vertex has d - 1 child branches like itself
    (class 0), the root has d of them (class 1). O(kmax^2) integer work. The
    1-regular tree is K_2, with W_2k = 1.
    """
    if d < 1:
        raise GraphInputError(f"regular tree degree must be >= 1, got {d}")
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


def _code_from_discrete(adj: list[list[int]], colors: list[int]) -> tuple[tuple, list[int]]:
    """The code of a discrete colouring, and its vertex order (the vertex at each label)."""
    order = sorted(range(len(adj)), key=colors.__getitem__)
    label = [0] * len(adj)
    for pos, v in enumerate(order):
        label[v] = pos
    edges = sorted(
        (label[u], label[v]) for u in range(len(adj)) for v in adj[u] if label[u] < label[v]
    )
    return (len(adj), tuple(edges)), order


def _search_node(adj: list[list[int]], node: tuple, touched, budget: list[int]) -> list | None:
    """Visit a search node: refine its cells ``node`` (the order, end and cell lists of
    ``graph._partition``) in place, from the cells ``touched``. Returns the first cell with two
    or more vertices, in vertex order, or None once the cells are discrete."""
    budget[0] -= 1
    if budget[0] < 0:
        raise _CanonBudget
    order, end, cell = node
    _split_cells(adj, adj, order, end, cell, touched)  # a ball's lists are its in-neighbours
    if len(end) == len(adj):
        return None
    s = min(s for s, e in end.items() if e - s > 1)
    return sorted(order[s:end[s]])


def _child(adj: list[list[int]], node: tuple, v: int) -> tuple[tuple, set[int]]:
    """A copy of the stable cells ``node`` with v individualized, and the cells its first round
    re-signs: those of v's neighbours. v leaves its block for a new one past the end of
    ``order``, the last, as the colour n would sort it; the slot it frees at the end of its old
    block is in no block."""
    order, end, cell = node
    order, end, cell = order + [v], dict(end), cell[:]
    s, last = cell[v], end[cell[v]] - 1
    i = order.index(v, s)
    order[i], order[last] = order[last], v
    end[s], end[len(order) - 1], cell[v] = last, len(order), len(order) - 1
    return (order, end, cell), {cell[u] for u in adj[v]}


def _min_code(adj: list[list[int]], colors: list[int], budget: list[int], tree: bool,
              classes: dict) -> tuple:
    # budget counts search nodes, so walls of equal-code branches on highly
    # symmetric balls cannot stall the census; exhaustion degrades to hashing.
    # A child individualizes v as if with the fresh colour n, larger than any refined id.
    # On a coloured tree the stable cells are automorphism orbits (a tree is its
    # own unfolding), so every branch gives the same code and one is searched;
    # a loop searches it, as a big tree ball needs more levels than Python recurses
    n = len(adj)
    node = _partition(colors)
    touched = list(node[1])
    if tree:
        while True:
            target = _search_node(adj, node, touched, budget)
            if target is None:
                return _code_from_discrete(adj, node[2])[0]
            node, touched = _child(adj, node, target[0])
    # A cyclic ball is searched with automorphism pruning (McKay & Piperno 2014). Two leaves
    # with one code give an automorphism of the rooted ball (the root is label 0 of every
    # code), and refinement commutes with automorphisms, so one that fixes a node's prefix
    # maps the subtree of one child onto the subtree of another, leaf codes included. The
    # skipped subtrees repeat codes already seen, so the minimum is the full search's.
    # So a completed search stores every leaf code of its full search tree, each mapped in
    # ``classes`` to the minimum. Equal leaf codes are isomorphic balls, whose search trees are
    # relabelled images of each other: a leaf found in ``classes`` ends the search with its code.
    leaves: dict[tuple, tuple[list[int], list[int]]] = {}  # code -> (vertex order, prefix)
    known = []  # the minimum of a leaf found in ``classes``
    automorphisms: list[tuple[list[int], list[tuple[int, int]]]] = []  # (image, moved pairs)

    def search(node, touched, prefix: list[int]) -> int | None:
        """Search below the node that individualized ``prefix``: its cells ``node``, whose
        first round re-signs the cells ``touched`` (see ``_child``). A leaf that repeats a code
        returns the depth where its prefix leaves the stored one's: the automorphism maps the
        stored leaf's subtree there onto this one, so the search abandons it (jump-back)."""
        target = _search_node(adj, node, touched, budget)
        if target is None:
            code, order = _code_from_discrete(adj, node[2])
            if code in classes:
                known.append(classes[code])
                return -1  # above every level: the search ends
            if code not in leaves:
                leaves[code] = order, prefix
                return None
            stored, stored_prefix = leaves[code]
            image = [0] * n
            for u, v in zip(stored, order):
                image[u] = v
            automorphisms.append((image, [(u, v) for u, v in enumerate(image) if u != v]))
            return next(i for i, (u, v) in enumerate(zip(prefix, stored_prefix)) if u != v)
        orbit = list(range(n))  # union-find over the automorphisms that fix prefix pointwise

        def find(v: int) -> int:
            while orbit[v] != v:
                orbit[v] = orbit[orbit[v]]
                v = orbit[v]
            return v

        used, explored = 0, []
        for v in target:
            for image, moved in automorphisms[used:]:
                if all(image[p] == p for p in prefix):
                    for u, w in moved:
                        orbit[find(u)] = find(w)
            used = len(automorphisms)
            if find(v) in {find(u) for u in explored}:
                continue
            explored.append(v)
            jump = search(*_child(adj, node, v), prefix + [v])
            if jump is not None and jump < len(prefix):
                return jump
        return None

    search(node, touched, [])
    best = known[0] if known else min(leaves)
    classes.update(dict.fromkeys(leaves, best))
    return best


def canonical_rooted_code(g: Graph, root: int, radius: int) -> tuple[str, bool]:
    """Canonical code of the rooted ball B_radius(g, root).

    Exact canonical form (minimum code over refinement-individualized
    orderings). A tree ball takes one branch per search level, so it is exact at
    any size; a cyclic ball is searched only up to ``EXACT_CANON_LIMIT`` vertices
    and ``CANON_SEARCH_CAP`` search nodes, with automorphism pruning: a node skips
    children in the orbit of an explored one, and a leaf that repeats a code jumps
    back past the subtree an automorphism maps onto an explored one. Cyclic balls
    above the limit, or the rare one that exhausts the cap, fall back to an
    iterative-refinement hash, flagged non-exact, which can in principle collide
    for refinement-equivalent non-isomorphic balls. Each call searches in full
    (``ball_census`` searches once per isomorphism class).
    """
    adj, _, dist = _ball(g, root, radius)  # colored by distance: the root alone at 0
    return _ball_code(adj, dist, {})


def _ball_code(adj: list[list[int]], dist: list[int], classes: dict) -> tuple[str, bool]:
    """The code of the ball ``adj`` with root 0 and depths ``dist``, as ``canonical_rooted_code``
    gives it. ``classes`` maps the leaf codes of completed cyclic searches to their minima (see
    ``_min_code``); a cyclic search that reaches one of them stops there."""
    tree = sum(map(len, adj)) == 2 * (len(adj) - 1)  # the ball is connected
    if tree or len(adj) <= EXACT_CANON_LIMIT:
        try:
            n, edges = _min_code(adj, dist, [CANON_SEARCH_CAP], tree, classes)
            body = ",".join(f"{u}-{v}" for u, v in edges)
            return f"g{n}:{body}", True
        except _CanonBudget:
            pass
    colors = _refine(adj, dist)
    payload = repr((len(adj), colors[0],
                    sorted((colors[v], tuple(sorted(colors[u] for u in adj[v])))
                           for v in range(len(adj)))))
    digest = hashlib.sha256(payload.encode()).hexdigest()[:16]
    return f"h{len(adj)}:{digest}", False


def ball_census(g: Graph, r: int) -> Census:
    """Census of canonical r-ball codes over all n root choices.

    Each root's ball is built once, and each distinct BFS-labelled ball (the root is vertex 0)
    is coded once. Cyclic balls run one full search per isomorphism class: ``classes`` maps the
    leaf codes of each completed search to its code, and an isomorphic ball's search stops at
    its first leaf (292 full searches fall to 54 in a benchmark census batch). A ball whose own
    search would exhaust ``CANON_SEARCH_CAP`` but reaches a mapped leaf first gets its class's
    exact ``g`` code, not the ``h`` hash of ``canonical_rooted_code``.
    """
    if r < 0:
        raise GraphInputError(f"radius must be nonnegative, got {r}")
    counts: dict[str, int] = {}
    all_exact = True
    codes: dict[tuple, tuple[str, bool]] = {}  # labelled ball -> its code and exactness
    classes: dict[tuple, tuple] = {}  # leaf code -> its class's minimum code
    for root in range(g.vertex_count):
        adj, _, dist = _ball(g, root, r)
        key = tuple(tuple(sorted(nbrs)) for nbrs in adj)
        if key not in codes:
            codes[key] = _ball_code(adj, dist, classes)
        code, exact = codes[key]
        all_exact &= exact
        counts[code] = counts.get(code, 0) + 1
    return Census(radius=r, counts=counts, total=g.vertex_count, exact=all_exact)


def tv_distance(a: Census, b: Census) -> float:
    """Total variation distance between two censuses of equal radius."""
    if a.radius != b.radius:
        raise GraphInputError(f"census radii differ: {a.radius} vs {b.radius}")
    if a.total == 0 or b.total == 0:
        raise GraphInputError("total variation of an empty census is undefined")
    codes = set(a.counts) | set(b.counts)
    total = Fraction(0)
    for code in codes:
        total += abs(Fraction(a.counts.get(code, 0), a.total) - Fraction(b.counts.get(code, 0), b.total))
    return float(total / 2)
