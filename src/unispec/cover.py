"""Universal-cover walk counts by branch series, materialized cover balls, lifting."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

from .graph import BudgetError, Graph, GraphInputError, _refine, build_graph
from .walks import branch_series, closed_walk_counts

__all__ = [
    "COVER_NODE_BUDGET",
    "CoverBall",
    "LiftCheck",
    "cover_ball_size",
    "cover_walk_rows",
    "rho_cover_estimate",
    "universal_cover_ball",
    "verify_lifting",
]

COVER_NODE_BUDGET = 5_000_000


@dataclass(frozen=True)
class CoverBall:
    """Radius-r ball of the universal cover around a lift of ``cover_map[root]``.

    Vertices of the ball are the non-backtracking paths of length <= radius
    from the base vertex (the empty path is the root). Only the parent edge and
    the final base vertex of each path are materialized. ``cover_map`` sends
    each cover vertex to the base vertex its path ends at; it restricts to an
    isomorphism on the neighbourhood of every vertex of depth < radius.
    """

    tree: Graph
    root: int
    cover_map: tuple[int, ...]
    radius: int


def universal_cover_ball(g: Graph, base: int, radius: int) -> CoverBall:
    """Materialize the universal cover out to ``radius`` around a lift of ``base``.

    Refused when its exact vertex count, ``cover_ball_size``, passes ``COVER_NODE_BUDGET``.
    The CLI builds none. With ``closed_walk_counts(ball.tree, ball.root, 2 * k)`` it is the test
    oracle of ``test_cover_walk_rows_match_*`` (rows and ``cover_ball_size``) and acceptance 02,
    03, 07: walks of length 2k stay in the radius-k ball, so their counts are the cover's.
    """
    size = cover_ball_size(g, base, radius)
    if size > COVER_NODE_BUDGET:
        raise BudgetError(f"cover ball of {size} vertices exceeds node budget {COVER_NODE_BUDGET}")
    # cover vertex i: base_of[i] = final base vertex, came_from[i] = base vertex
    # preceding it on the path (-1 at the root).
    base_of = [base]
    came_from = [-1]
    depth_of = [0]
    edges: list[tuple[int, int]] = []
    frontier = [0]
    for depth in range(radius):
        nxt = []
        for node in frontier:
            b = base_of[node]
            for z in g.adjacency[b]:
                if z == came_from[node]:
                    continue
                idx = len(base_of)
                base_of.append(z)
                came_from.append(b)
                depth_of.append(depth + 1)
                edges.append((node, idx))
                nxt.append(idx)
        frontier = nxt
    tree = build_graph(edges, len(base_of))
    # the cover map must restrict to an isomorphism around every interior vertex
    for node, depth in enumerate(depth_of):
        if depth < radius and tree.degree(node) != g.degree(base_of[node]):
            raise AssertionError(
                f"cover construction broke local isomorphism at node {node} "
                f"(degree {tree.degree(node)} vs base {g.degree(base_of[node])})"
            )
    return CoverBall(tree=tree, root=0, cover_map=tuple(base_of), radius=radius)


def _cover_branches(g: Graph, order: int) -> list[Sequence[int]]:
    """Successors of the cover's branches: directed edge (u, v) is the subtree entered from u
    at v, over the steps (v, w), w != u; then one root branch per vertex x, over every (x, y).
    Series to z^order on these 2m + n branches count against ``COVER_NODE_BUDGET``."""
    if g.vertex_count == 0:
        raise GraphInputError("universal cover requires a nonempty graph")
    if not g.is_connected():
        raise GraphInputError("universal cover requires a connected graph")
    stored = (2 * g.edge_count + g.vertex_count) * (order + 1)
    if stored > COVER_NODE_BUDGET:
        raise BudgetError(
            f"cover series of {stored} coefficients exceeds node budget {COVER_NODE_BUDGET}")
    offsets = g.edge_offsets
    return [*g.nb_successors, *map(range, offsets, offsets[1:])]


def _cone_types(g: Graph, rounds: int) -> tuple[list[list[int]], list[int]]:
    """The cone-type quotient of the cover's branches after ``rounds`` rounds, and each root's
    class. Branches of one cone type have one series and one size sequence (Nagnibeda & Woess
    2002): the branches (edges coloured 0, roots 1) are refined over their successor lists, and
    each class is one branch over the classes of one member's successors, repeats kept. After r
    rounds a class fixes coefficients 0..r and sizes N_0..N_r, so r rounds serve every order up
    to r, and r - 1 do not (glued_clique_path:8:10, grid:6)."""
    succ = _cover_branches(g, rounds)
    edges = 2 * g.edge_count
    colors = _refine(succ, [0] * edges + [1] * g.vertex_count, rounds)
    members = dict(zip(colors, range(len(colors))))  # colour -> one branch of that colour
    index = {c: i for i, c in enumerate(members)}
    quotient = [[index[colors[c]] for c in succ[b]] for b in members.values()]
    return quotient, [index[c] for c in colors[edges:]]


def _walk_rows(quotient: list[list[int]], roots: list[int], kmax: int) -> list[list[int]]:
    """The series rows off ``_cone_types`` of at least kmax rounds, one copy per root."""
    series = branch_series(quotient, [kmax] * len(quotient))
    return [list(series[c]) for c in roots]


def _ball_size(quotient: list[list[int]], roots: list[int], base: int, radius: int) -> int:
    """N_radius at the root of ``base``, off ``_cone_types`` of at least radius rounds."""
    sizes = [1] * len(quotient)
    for _ in range(radius):
        sizes = [1 + sum(map(sizes.__getitem__, children)) for children in quotient]
    return sizes[roots[base]]


def cover_walk_rows(g: Graph, kmax: int) -> list[list[int]]:
    """Exact rows[x][k] = W_2k(cover at a lift of x), every x and k = 0..kmax, on the quotient."""
    if kmax < 0:
        raise GraphInputError(f"kmax must be nonnegative, got {kmax}")
    return _walk_rows(*_cone_types(g, kmax), kmax)


def cover_ball_size(g: Graph, base: int, radius: int) -> int:
    """Vertex count of the radius-``radius`` cover ball around a lift of ``base``: the branch
    sizes N_j(b) = 1 + sum_{c in succ[b]} N_{j-1}(c), N_0 = 1, at the root class of ``base`` in
    ``_cone_types(g, radius)``. The refinement is most of the cost (2-core Intel Xeon): 1 ms at
    random_regular:200:3, radius 10 (one edge class), where the full pass over all 2m + n
    branches (the test oracle) takes 2 ms, but 48 ms at grid:40, radius 10, where it takes 24."""
    if radius < 0:
        raise GraphInputError(f"radius must be nonnegative, got {radius}")
    types = _cone_types(g, radius)
    if not 0 <= base < g.vertex_count:
        raise GraphInputError(f"vertex {base} is not in 0..{g.vertex_count - 1}")
    return _ball_size(*types, base, radius)


def _rows_kmax(rows: list[list[int]]) -> int:
    """The kmax of a table of cover rows, refused unless its rows are nonempty and of one length."""
    lengths = {len(row) for row in rows}
    if len(lengths) != 1 or 0 in lengths:
        raise GraphInputError(
            f"cover rows must be nonempty and of one length, got lengths {sorted(lengths)}")
    return lengths.pop() - 1


class LiftCheck(NamedTuple):
    k: int
    cover_count: int
    base_count: int
    ok: bool


def verify_lifting(g: Graph, rows: list[list[int]], base: int) -> list[LiftCheck]:
    """Check W_2k(cover, lift) <= W_2k(g, base) for k = 1..kmax, exactly.

    ``rows`` are those of ``cover_walk_rows(g, kmax)``. Closed walks lift injectively
    through the cover map, so every cover count is at most the base count; equality
    holds at every k when g is a tree.
    """
    kmax = _rows_kmax(rows)
    if len(rows) != g.vertex_count:
        raise GraphInputError(f"{len(rows)} cover rows for {g.vertex_count} vertices")
    # closed_walk_counts refuses a base outside the graph before rows[base] reads from the end
    base_counts = closed_walk_counts(g, base, 2 * kmax)[::2]
    cover_counts = rows[base]
    return [LiftCheck(k, cover_counts[k], base_counts[k], cover_counts[k] <= base_counts[k])
            for k in range(1, kmax + 1)]


def rho_cover_estimate(rows: list[list[int]]) -> list[float]:
    """Moment norms ((1/n) sum_x W_2k(cover at x))^(1/2k) for k = 1..kmax.

    ``rows`` are those of ``cover_walk_rows(g, kmax)``. The sequence is nondecreasing
    and every entry is a lower estimate of the cover's spectral radius in the
    vertex-averaged sense; no extrapolation is performed, the final entry is an
    estimate and not a per-root bound.
    """
    kmax = _rows_kmax(rows)
    if kmax < 1:
        raise GraphInputError(f"kmax must be >= 1, got {kmax}")
    n = len(rows)
    sums = [sum(column) for column in zip(*rows)]
    # math.log accepts arbitrarily large ints, so no float overflow on the way; a cover
    # with no edges (one isolated vertex) has no closed walk of positive length
    return [math.exp((math.log(sums[k]) - math.log(n)) / (2 * k)) if sums[k] else 0.0
            for k in range(1, kmax + 1)]
