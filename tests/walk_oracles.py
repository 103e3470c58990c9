"""The brute-force oracle of the weighted tree series: Dyck paths against ``branch_series``.

``weighted_closed_walks`` runs the library's ``walks.branch_series`` with excursion weights;
``walk_identity_check`` compares it with a sum over Dyck height profiles that shares no code
with it. Acceptance ``test_06_walk_identity_on_random_trees`` and the ``test_walk_identity_*``
tests of ``test_walks.py`` read it. The tests pick small trees, so no budget guards it.
"""

import math

from unispec import bfs_distances, graph, walks


def catalan(k: int) -> int:
    """Number of Dyck paths of length 2k: binom(2k, k) / (k + 1)."""
    return math.comb(2 * k, k) // (k + 1)


def enumerate_dyck(k: int) -> list[tuple[int, ...]]:
    """All Dyck paths of length 2k as +1/-1 step tuples (prefix sums >= 0, total 0), the
    height profiles of closed tree walks."""
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


def _kappa(weight):
    """kappa(x, y) = weight[x, y] * weight[y, x] of a mapping from directed edges to step
    weights, or 1 for every edge without one. Rational weights keep every product exact."""
    if weight is None:
        return lambda x, y: 1
    return lambda x, y: weight[x, y] * weight[y, x]


def weighted_closed_walks(tree, root: int, kmax: int, weight=None) -> list:
    """Weighted closed-walk counts: entry k is the sum over closed walks of
    length 2k from ``root`` of the product of the 2k step weights ``weight[x, y]``.

    On a tree each forward step of a closed walk pairs with its reversal, so that
    product is the product of kappa(x, y) = weight[x, y] weight[y, x] over the forward steps:
    the series of the root's branch, with excursion weights kappa and orders kmax - depth.
    Without ``weight`` every step weighs 1 and the counts are exact ints, those of
    closed_walk_counts at even lengths; weight[x, y] = 1.0 / deg x reproduces
    srw_return_probs on the tree.
    """
    assert tree.is_tree(), "steps pair with their reversals on trees only"
    kappa = _kappa(weight)
    adj, ball, depth = graph._ball(tree, root, kmax)
    children = [[c for c in nbrs if depth[c] > depth[b]] for b, nbrs in enumerate(adj)]
    weights = None if weight is None else [[kappa(ball[b], ball[c]) for c in kids]
                                           for b, kids in enumerate(children)]
    return walks.branch_series(children, [kmax - h for h in depth], weights)[0]


def walk_identity_check(tree, root: int, k: int, weight=None):
    """Residual of the profile-conditioned walk decomposition, for k >= 1.

    The weighted closed-walk count from ``root`` must equal, summed over Dyck
    profiles h and first neighbours y, kappa(root, y) times the weighted count
    of walks with first step y and profile h, where walks are weighted by the
    symmetrized kappa over forward times after the first. The right side is
    brute-force enumeration over Dyck profiles, the left side the excursion
    recursion of ``weighted_closed_walks``, so the two routes are independent.
    Exact arithmetic whenever the weights are rational.
    """
    kappa = _kappa(weight)
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
