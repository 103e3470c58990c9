"""Exact closed-walk counts: the branch series on trees and covers, the ball-local walk loop.

Two walk engines, one per geometry. ``branch_series`` gives every closed-walk count on a
tree or universal cover; its excursion weights, which no command passes yet, are checked
against a Dyck-path brute force in ``tests/walk_oracles.py``. ``_ball_walks`` gives every
closed-walk quantity on a finite graph (``closed_walk_counts``, ``srw_return_probs``).
"""

from __future__ import annotations

from bisect import bisect_right
from operator import mul
from typing import Sequence

from .graph import Graph, GraphInputError, _ball

__all__ = ["branch_series", "closed_walk_counts", "srw_return_probs"]


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
    adj, ball, depth = _ball(g, root, length // 2)
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
    n = len(succ)
    if len(order) != n:
        raise GraphInputError(f"order has {len(order)} entries for {n} branches")
    if weight is not None and list(map(len, weight)) != list(map(len, succ)):
        raise GraphInputError("weight needs one row per branch and one entry per successor")
    for b, (children, k) in enumerate(zip(succ, order)):
        if any(not 0 <= c < n or order[c] < k - 1 for c in children):
            raise GraphInputError(f"successors of branch {b} must be branches of order >= {k - 1}")
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
