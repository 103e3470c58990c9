"""Exact closed-walk counts: the branch series on trees and covers, the ball-local walk loop.

Two walk engines, one per geometry. ``branch_series`` gives every closed-walk count on a
tree or universal cover, weighted ones included (``weighted_closed_walks``). ``_ball_walks``
gives every closed-walk quantity on a finite graph (``closed_walk_counts``,
``srw_return_probs``). Catalan numbers, Dyck-path enumeration and ``walk_identity_check``
are the independent brute-force oracle of the weighted tree series.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from operator import mul
from typing import Mapping, Sequence

from .graph import BudgetError, Graph, GraphInputError, _bfs, bfs_distances

__all__ = [
    "DYCK_ENUM_LIMIT",
    "branch_series",
    "catalan",
    "closed_walk_counts",
    "enumerate_dyck",
    "srw_return_probs",
    "walk_identity_check",
    "weighted_closed_walks",
]

DYCK_ENUM_LIMIT = 14
IDENTITY_K_LIMIT = 6
IDENTITY_SIZE_LIMIT = 16


def _ball_adjacency(g: Graph, root: int, radius: int) -> tuple[list[list[int]], list, list]:
    """B_radius(root) as local adjacency lists, its vertices in BFS order (the root is local
    vertex 0 and each distance layer is one contiguous block), and their distances from the
    root, a nondecreasing list."""
    ball, dist = _bfs(g, root, radius)
    local = {v: i for i, v in enumerate(ball)}
    adj = [[local[w] for w in g.adjacency[v] if w in local] for v in ball]
    return adj, ball, [dist[v] for v in ball]


def _ball_walks(g: Graph, root: int, length: int, scale=None) -> list:
    """(W^t)_{root,root} for t = 0..length: W is A, or A with each step out of v scaled by scale(v).

    Closed walks of length t stay within floor(t/2) of the root, so the iteration runs on the
    BFS-ordered ball of radius floor(length/2). Step t updates only its prefix within
    min(t, length - t) of the root: farther vertices are not reached yet (their entries stay 0)
    or cannot get back in time (their entries are never read again), and only their neighbours,
    the prefix within min(t, length - t) + 1, are scaled first. Unscaled counts are Python
    integers, which never overflow; a Fraction scale keeps the entries exact.
    """
    if length < 0:
        raise GraphInputError(f"kmax must be nonnegative, got {length}")
    adj, ball, depth = _ball_adjacency(g, root, length // 2)
    factor = None if scale is None else [scale(v) for v in ball]
    vec = [1] + [0] * (len(adj) - 1)
    diagonal = [1]
    for t in range(1, length + 1):
        reach = min(t, length - t)
        source = vec if factor is None else [
            x * p for x, p in zip(vec, factor[:bisect_right(depth, reach + 1)])]
        window = bisect_right(depth, reach)
        vec[:window] = [sum(map(source.__getitem__, nbrs)) for nbrs in adj[:window]]
        diagonal.append(vec[0])
    return diagonal


def closed_walk_counts(g: Graph, root: int, kmax: int) -> list[int]:
    """Exact (A^k)_{root,root} for k = 0..kmax, read from ``_ball_walks``."""
    return _ball_walks(g, root, kmax)


def branch_series(succ: Sequence[Sequence[int]], order: Sequence[int],
                  weight: Sequence[Sequence] | None = None) -> list[list]:
    """Exact series E_b = 1 / (1 - z * sum_{c in succ[b]} w_bc E_c), truncated at z^order[b].

    A branch b is a subtree seen from its parent. Coefficient j of E_b counts the closed
    walks of length 2j from its top that stay in it: sequences of excursions into child
    branches c in succ[b] (Hoory 2005), each excursion weighted by w_bc = weight[b][i] for
    c = succ[b][i], or by 1 without ``weight``. Coefficient j is filled in for every branch
    before any j + 1, so ``succ`` may contain cycles; a successor of b needs order >= order[b] - 1.
    """
    series = [[1] for _ in succ]
    sums: list[list] = [[] for _ in succ]  # sums[b][i] = sum_{c in succ[b]} w_bc E_c[i]
    for j in range(1, max(order, default=0) + 1):
        for b, children in enumerate(succ):
            if order[b] >= j:
                tops = (series[c][j - 1] for c in children)
                sums[b].append(sum(tops if weight is None else map(mul, weight[b], tops)))
                series[b].append(sum(map(mul, sums[b], reversed(series[b]))))
    return series


def srw_return_probs(g: Graph, root: int, kmax: int) -> list[float]:
    """Return probabilities p_k = (P^k)_{root,root} of the simple random walk.

    Degrees are those of the full graph even though the iteration is
    ball-local; walks contributing to p_k never leave B_{k/2}(root).
    """
    if g.min_degree < 1:
        raise GraphInputError("srw_return_probs undefined with an isolated vertex")
    return [1.0] + _ball_walks(g, root, kmax, lambda v: 1.0 / g.degree(v))[1:]


# ----------------------------------------------------------------------------
# Dyck paths
# ----------------------------------------------------------------------------


def catalan(k: int) -> int:
    """Number of Dyck paths of length 2k: binom(2k, k) / (k + 1)."""
    if k < 0:
        raise ValueError(f"catalan index must be nonnegative, got {k}")
    return math.comb(2 * k, k) // (k + 1)


def enumerate_dyck(k: int) -> list[tuple[int, ...]]:
    """All Dyck paths of length 2k as +1/-1 step tuples (prefix sums >= 0, total 0), the
    height profiles of closed tree walks. Capped (C_14 = 2674440 paths already).

    Only ``walk_identity_check`` reads it, as the brute-force side of the oracle of
    ``test_06_walk_identity_on_random_trees`` and the ``test_walk_identity_*`` tests.
    """
    if k < 0:
        raise ValueError(f"k must be nonnegative, got {k}")
    if k > DYCK_ENUM_LIMIT:
        raise BudgetError(f"Dyck enumeration k={k} exceeds limit {DYCK_ENUM_LIMIT}")
    paths: list[tuple[int, ...]] = []
    steps: list[int] = []

    def extend(height: int, ups_left: int, downs_left: int):
        if ups_left == 0 and downs_left == 0:
            paths.append(tuple(steps))
            return
        if ups_left > 0:
            steps.append(1)
            extend(height + 1, ups_left - 1, downs_left)
            steps.pop()
        if downs_left > 0 and height > 0:
            steps.append(-1)
            extend(height - 1, ups_left, downs_left - 1)
            steps.pop()

    extend(0, k, k)
    return paths


# ----------------------------------------------------------------------------
# Weighted walk counts on trees
# ----------------------------------------------------------------------------


def _kappa(weight: Mapping[tuple[int, int], object] | None):
    """kappa(x, y) = weight[x, y] * weight[y, x] of a mapping from directed edges to positive step
    weights, or 1 for every edge without one. Rational weights keep every product exact."""
    if weight is None:
        return lambda x, y: 1
    for edge, value in weight.items():
        if not value > 0:
            raise GraphInputError(f"step weight {value} on {edge} is not positive")

    def kappa(x: int, y: int):
        try:
            return weight[x, y] * weight[y, x]
        except KeyError as missing:
            raise GraphInputError(f"step weights have no entry for {missing.args[0]}") from None

    return kappa


def _check_tree(tree: Graph) -> None:
    if not tree.is_tree():
        raise GraphInputError("expected a tree (connected, m = n - 1)")


def weighted_closed_walks(tree: Graph, root: int, kmax: int,
                          weight: Mapping[tuple[int, int], object] | None = None) -> list:
    """Weighted closed-walk counts: entry k is the sum over closed walks of
    length 2k from ``root`` of the product of the 2k step weights ``weight[x, y]``.

    On a tree each forward step of a closed walk pairs with its reversal, so that
    product is the product of kappa(x, y) = weight[x, y] weight[y, x] over the forward steps:
    the series of the root's branch, with excursion weights kappa and orders kmax - depth.
    Without ``weight`` every step weighs 1 and the counts are exact ints, those of
    closed_walk_counts at even lengths; weight[x, y] = 1.0 / deg x reproduces
    srw_return_probs on the tree.
    """
    kappa = _kappa(weight)
    _check_tree(tree)
    if kmax < 0:
        raise GraphInputError(f"kmax must be nonnegative, got {kmax}")
    adj, ball, depth = _ball_adjacency(tree, root, kmax)
    children = [[c for c in nbrs if depth[c] > depth[b]] for b, nbrs in enumerate(adj)]
    weights = None if weight is None else [[kappa(ball[b], ball[c]) for c in kids]
                                           for b, kids in enumerate(children)]
    return branch_series(children, [kmax - h for h in depth], weights)[0]


def walk_identity_check(tree: Graph, root: int, k: int,
                        weight: Mapping[tuple[int, int], object] | None = None):
    """Residual of the profile-conditioned walk decomposition.

    The weighted closed-walk count from ``root`` must equal, summed over Dyck
    profiles h and first neighbours y, kappa(root, y) times the weighted count
    of walks with first step y and profile h, where walks are weighted by the
    symmetrized kappa over forward times after the first. The right side is
    brute-force enumeration over Dyck profiles, the left side the excursion
    recursion of ``weighted_closed_walks``, so the two routes are independent.
    Exact arithmetic whenever the weights are rational. Conditioning on the first
    step needs k >= 1.

    This is the oracle of the weighted tree series in acceptance
    ``test_06_walk_identity_on_random_trees`` and in the ``test_walk_identity_*``
    tests of ``tests/test_walks.py``; no command calls it.
    """
    kappa = _kappa(weight)
    if k < 1:
        raise GraphInputError(f"walk_identity_check needs k >= 1, got {k}")
    if k > IDENTITY_K_LIMIT:
        raise BudgetError(f"walk_identity_check limited to k <= {IDENTITY_K_LIMIT}, got {k}")
    if tree.vertex_count > IDENTITY_SIZE_LIMIT:
        raise BudgetError(
            f"walk_identity_check limited to {IDENTITY_SIZE_LIMIT} vertices, "
            f"got {tree.vertex_count}"
        )
    _check_tree(tree)
    lhs = weighted_closed_walks(tree, root, k, weight)[k]

    # parent[v] is the neighbour of v on the path back to root
    dist = bfs_distances(tree, root)
    parent = [-1] * tree.vertex_count
    for v in range(tree.vertex_count):
        for u in tree.adjacency[v]:
            if dist[u] == dist[v] - 1:
                parent[v] = u

    def profile_sum(first: int, steps: tuple[int, ...]):
        """Sum of prod kappa over forward times > 1, over walks with the given
        first neighbour and height profile."""

        def go(cur: int, idx: int, acc):
            if idx == len(steps):
                return acc
            if steps[idx] == -1:
                return go(parent[cur], idx + 1, acc)
            total = 0 * acc
            for z in tree.adjacency[cur]:
                if z == parent[cur]:
                    continue
                total += go(z, idx + 1, acc * kappa(cur, z))
            return total

        return go(first, 1, 1)

    rhs = 0
    for h in enumerate_dyck(k):
        for y in tree.adjacency[root]:
            rhs += kappa(root, y) * profile_sum(y, h)
    return abs(lhs - rhs)
