"""Immutable simple-graph container, generators, degree functionals, core peeling."""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, NamedTuple, Sequence

import numpy as np

__all__ = [
    "BudgetError",
    "DegreeStats",
    "DirectedEdge",
    "Graph",
    "GraphInputError",
    "PeeledCore",
    "bfs_distances",
    "build_graph",
    "core_peel",
    "degree_stats",
    "generate",
    "induced_subgraph",
    "load_graph",
    "parse_edge_list",
]


class GraphInputError(ValueError):
    """Invalid graph input: bad edge list, infeasible generator parameters, etc."""


class BudgetError(ValueError):
    """A computation would exceed its configured size budget."""


class DirectedEdge(NamedTuple):
    tail: int
    head: int

    def reverse(self) -> "DirectedEdge":
        return DirectedEdge(self.head, self.tail)


@dataclass(frozen=True)
class Graph:
    """Undirected simple graph in adjacency-list form.

    ``adjacency[v]`` is the sorted tuple of neighbours of ``v``. The structure
    is immutable and hashable, so graphs can be shared freely across parallel
    workers; every operation in this package treats it as read-only.
    """

    adjacency: tuple[tuple[int, ...], ...]

    @property
    def vertex_count(self) -> int:
        return len(self.adjacency)

    @cached_property
    def edge_count(self) -> int:
        return sum(len(nbrs) for nbrs in self.adjacency) // 2

    def degree(self, v: int) -> int:
        return len(self.adjacency[v])

    @cached_property
    def min_degree(self) -> int:
        return min((len(n) for n in self.adjacency), default=0)

    @cached_property
    def max_degree(self) -> int:
        return max((len(n) for n in self.adjacency), default=0)

    def edges(self) -> list[tuple[int, int]]:
        """All undirected edges as (u, v) pairs with u < v, sorted."""
        return [(u, v) for u in range(self.vertex_count) for v in self.adjacency[u] if u < v]

    def directed_edges(self) -> list[DirectedEdge]:
        """All 2m directed edges in lexicographic order."""
        return [DirectedEdge(u, v) for u in range(self.vertex_count) for v in self.adjacency[u]]

    @cached_property
    def edge_index(self) -> dict[DirectedEdge, int]:
        """Position of each directed edge in ``directed_edges()``; iterates in that order."""
        return {e: i for i, e in enumerate(self.directed_edges())}

    @cached_property
    def nb_successors(self) -> tuple[tuple[int, ...], ...]:
        """Non-backtracking successors by edge position: (u, v) -> (v, w) for w ~ v, w != u,
        in the order of ``adjacency[v]``. Shared by the NBW statistics and the cover series."""
        index = self.edge_index
        return tuple(tuple([index[(v, w)] for w in self.adjacency[v] if w != u]) for u, v in index)

    def has_edge(self, u: int, v: int) -> bool:
        return v in self.adjacency[u]

    def adjacency_matrix(self, dtype=np.float64) -> np.ndarray:
        n = self.vertex_count
        a = np.zeros((n, n), dtype=dtype)
        for u in range(n):
            for v in self.adjacency[u]:
                a[u, v] = 1
        return a

    def is_connected(self) -> bool:
        n = self.vertex_count
        if n == 0:
            return True
        return sum(1 for d in bfs_distances(self, 0) if d >= 0) == n

    def is_tree(self) -> bool:
        return self.is_connected() and self.edge_count == self.vertex_count - 1


def bfs_distances(g: Graph, source: int, limit: int | None = None) -> list[int]:
    """BFS distances from ``source``; -1 marks unreachable vertices.

    ``limit`` stops the search beyond that radius (farther vertices stay -1).
    """
    return _bfs(g, source, limit)[1]


def _bfs(g: Graph, source: int, limit: int | None) -> tuple[list[int], list[int]]:
    """The vertices within ``limit`` of ``source`` in BFS order, so each distance layer is
    one contiguous block, and the distances of ``bfs_distances``."""
    dist = [-1] * g.vertex_count
    dist[source] = 0
    order = [source]
    for u in order:  # the list grows behind the cursor: it is the BFS queue
        if limit is not None and dist[u] >= limit:
            continue
        for v in g.adjacency[u]:
            if dist[v] < 0:
                dist[v] = dist[u] + 1
                order.append(v)
    return order, dist


def build_graph(edge_list: Iterable[tuple[int, int]], n: int) -> Graph:
    """Build a simple graph on vertices 0..n-1 from an edge list.

    Input order is irrelevant; neighbours are stored sorted. Self-loops,
    duplicate edges and out-of-range endpoints are rejected with the offending
    entry named (multigraph input is an error, never merged).
    """
    if n < 0:
        raise GraphInputError(f"vertex count must be nonnegative, got {n}")
    return _checked_graph(edge_list, n, lambda i: f"edge {i}")


def _checked_graph(edges: Iterable[tuple[int, int]], n: int, label) -> Graph:
    """The graph of ``edges`` on 0..n-1; the bad entry i is named ``label(i)``."""
    nbrs: list[set[int]] = [set() for _ in range(n)]
    for i, (u, v) in enumerate(edges):
        if not (0 <= u < n and 0 <= v < n):
            raise GraphInputError(f"{label(i)}: endpoint out of range in ({u}, {v}) for n={n}")
        if u == v:
            raise GraphInputError(f"{label(i)}: self-loop ({u}, {v})")
        if v in nbrs[u]:
            raise GraphInputError(f"{label(i)}: duplicate edge ({u}, {v})")
        nbrs[u].add(v)
        nbrs[v].add(u)
    return Graph(tuple(tuple(sorted(s)) for s in nbrs))


def induced_subgraph(g: Graph, vertices: Sequence[int]) -> Graph:
    """Induced subgraph on ``vertices``, relabelled 0..k-1 in the given order."""
    index = {v: i for i, v in enumerate(vertices)}
    if len(index) != len(vertices):
        raise GraphInputError("duplicate vertices in induced_subgraph selection")
    edges = []
    for v in vertices:
        for w in g.adjacency[v]:
            if w in index and v < w:
                edges.append((index[v], index[w]))
    return build_graph(edges, len(vertices))


# ----------------------------------------------------------------------------
# Generators
# ----------------------------------------------------------------------------

GENERATOR_FAMILIES = (
    "cycle",
    "path",
    "complete",
    "grid",
    "random_regular",
    "glued_clique_path",
)


def generate(family: str, *params: int, seed: int | None = None) -> Graph:
    """Generate a named graph family; deterministic for a fixed seed.

    Families and parameters:
      cycle:n  path:n  complete:n  grid:n (or grid:rows:cols)
      random_regular:n:d (configuration model, loops/multi-edges rejected)
      glued_clique_path:clique_n:path_len (one clique vertex is the path end)
    """
    if family == "cycle":
        (n,) = _params(family, params, 1)
        if n < 3:
            raise GraphInputError(f"cycle needs n >= 3, got {n}")
        return build_graph([(i, (i + 1) % n) for i in range(n)], n)
    if family == "path":
        (n,) = _params(family, params, 1)
        if n < 1:
            raise GraphInputError(f"path needs n >= 1, got {n}")
        return build_graph([(i, i + 1) for i in range(n - 1)], n)
    if family == "complete":
        (n,) = _params(family, params, 1)
        if n < 1:
            raise GraphInputError(f"complete needs n >= 1, got {n}")
        return build_graph([(i, j) for i in range(n) for j in range(i + 1, n)], n)
    if family == "grid":
        if len(params) == 1:
            rows = cols = params[0]
        else:
            rows, cols = _params(family, params, 2)
        if rows < 1 or cols < 1:
            raise GraphInputError(f"grid needs positive dimensions, got {rows}x{cols}")
        edges = []
        for r in range(rows):
            for c in range(cols):
                u = r * cols + c
                if c + 1 < cols:
                    edges.append((u, u + 1))
                if r + 1 < rows:
                    edges.append((u, u + cols))
        return build_graph(edges, rows * cols)
    if family == "random_regular":
        n, d = _params(family, params, 2)
        return _random_regular(n, d, seed)
    if family == "glued_clique_path":
        clique_n, path_len = _params(family, params, 2)
        if clique_n < 1 or path_len < 0:
            raise GraphInputError(
                f"glued_clique_path needs clique_n >= 1 and path_len >= 0, "
                f"got {clique_n}, {path_len}"
            )
        edges = [(i, j) for i in range(clique_n) for j in range(i + 1, clique_n)]
        # path hangs off clique vertex clique_n - 1 (the single cut vertex)
        prev = clique_n - 1
        for i in range(path_len):
            edges.append((prev, clique_n + i))
            prev = clique_n + i
        return build_graph(edges, clique_n + path_len)
    raise GraphInputError(f"unknown family {family!r}; expected one of {GENERATOR_FAMILIES}")


def _params(family: str, params: tuple[int, ...], count: int) -> tuple[int, ...]:
    if len(params) != count:
        raise GraphInputError(f"{family} takes {count} parameter(s), got {len(params)}")
    return params


def _random_regular(n: int, d: int, seed: int | None, max_tries: int = 2000) -> Graph:
    if d < 0 or d >= n:
        raise GraphInputError(f"random_regular needs 0 <= d < n, got n={n}, d={d}")
    if (n * d) % 2 != 0:
        raise GraphInputError(f"random_regular needs n*d even, got n={n}, d={d}")
    if d == 0:
        return build_graph([], n)
    rng = np.random.default_rng(seed)
    for _ in range(max_tries):
        stubs = np.repeat(np.arange(n), d)
        rng.shuffle(stubs)
        seen: set[tuple[int, int]] = set()
        edges = []
        ok = True
        for i in range(0, len(stubs), 2):
            u, v = int(stubs[i]), int(stubs[i + 1])
            if u == v:
                ok = False
                break
            key = (u, v) if u < v else (v, u)
            if key in seen:
                ok = False
                break
            seen.add(key)
            edges.append(key)
        if ok:
            return build_graph(edges, n)
    raise GraphInputError(f"random_regular failed to sample a simple graph (n={n}, d={d})")


# ----------------------------------------------------------------------------
# Degree functionals
# ----------------------------------------------------------------------------


@dataclass(frozen=True)
class DegreeStats:
    """Degree functionals consumed by the spectral and growth bounds.

    ``dlog_mean`` is the mean of deg*log(deg-1), ``dlogd_mean`` the mean of
    deg*log(deg) and ``hoory_lambda`` the product prod_v (deg v - 1)^(deg v / 2m).
    The log-based fields are None when a vertex of degree <= 1 exists (the
    quantities are undefined there, not -inf).
    """

    n: int
    m: int
    d_av: float
    d2_mean: float
    dlog_mean: float | None
    dlogd_mean: float
    deg_sum: int
    hoory_lambda: float | None
    min_degree: int
    max_degree: int


def degree_stats(g: Graph) -> DegreeStats:
    n = g.vertex_count
    if n < 1:
        raise GraphInputError("degree_stats needs at least one vertex")
    degrees = [g.degree(v) for v in range(n)]
    m = sum(degrees) // 2
    deg_sum = 2 * m
    d_av = deg_sum / n
    d2_mean = sum(d * d for d in degrees) / n
    dlogd_mean = sum(d * math.log(d) for d in degrees if d > 0) / n
    min_degree = min(degrees)
    max_degree = max(degrees)
    if min_degree >= 2:
        dlog_mean = sum(d * math.log(d - 1) for d in degrees) / n
        lam = 1.0
        for d in degrees:
            lam *= (d - 1) ** (d / deg_sum)
        hoory_lambda: float | None = lam
    else:
        dlog_mean = None
        hoory_lambda = None
    return DegreeStats(
        n=n,
        m=m,
        d_av=d_av,
        d2_mean=d2_mean,
        dlog_mean=dlog_mean,
        dlogd_mean=dlogd_mean,
        deg_sum=deg_sum,
        hoory_lambda=hoory_lambda,
        min_degree=min_degree,
        max_degree=max_degree,
    )


# ----------------------------------------------------------------------------
# Core peeling
# ----------------------------------------------------------------------------


class PeeledCore(NamedTuple):
    core: Graph
    removed: int
    kept: tuple[int, ...]


def core_peel(g: Graph) -> PeeledCore:
    """Iteratively remove degree <= 1 vertices until none remain.

    Returns the maximal leafless induced subgraph (relabelled over the sorted
    surviving vertices), the number of removed vertices, and the surviving
    original labels. Trees peel down to the empty graph. The result does not
    depend on peeling order; the queue below is just one valid order.
    """
    n = g.vertex_count
    degree = [g.degree(v) for v in range(n)]
    removed = [False] * n
    queue = deque(v for v in range(n) if degree[v] <= 1)
    while queue:
        v = queue.popleft()
        if removed[v]:
            continue
        removed[v] = True
        for w in g.adjacency[v]:
            if not removed[w]:
                degree[w] -= 1
                if degree[w] <= 1:
                    queue.append(w)
    kept = tuple(v for v in range(n) if not removed[v])
    core = induced_subgraph(g, kept)
    return PeeledCore(core, n - len(kept), kept)


# ----------------------------------------------------------------------------
# Edge-list text format
# ----------------------------------------------------------------------------


def _parse_edge_lines(lines: Iterable[str]) -> tuple[list[tuple[int, int, int]], int]:
    entries: list[tuple[int, int, int]] = []  # (u, v, source line number)
    n: int | None = None
    saw_data = False
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        if tokens[0] == "n" and not saw_data:
            if len(tokens) != 2:
                raise GraphInputError(f"line {lineno}: malformed header {line!r}")
            try:
                n = int(tokens[1])
            except ValueError:
                raise GraphInputError(f"line {lineno}: bad vertex count {tokens[1]!r}") from None
            if n < 0:
                raise GraphInputError(f"line {lineno}: vertex count must be nonnegative, got {n}")
            saw_data = True
            continue
        saw_data = True
        if len(tokens) != 2:
            raise GraphInputError(f"line {lineno}: expected 'u v', got {line!r}")
        try:
            u, v = int(tokens[0]), int(tokens[1])
        except ValueError:
            raise GraphInputError(f"line {lineno}: non-integer endpoint in {line!r}") from None
        if u < 0 or v < 0:
            raise GraphInputError(f"line {lineno}: negative vertex index in {line!r}")
        entries.append((u, v, lineno))
    if n is None:
        n = 1 + max((max(u, v) for u, v, _ in entries), default=-1)
    return entries, n


def parse_edge_list(lines: Iterable[str]) -> tuple[list[tuple[int, int]], int]:
    """Parse the edge-list text format: one "u v" pair per line, 0-indexed.

    '#' starts a comment, blank lines are ignored, and an optional leading
    header "n <count>" fixes the vertex count (otherwise n = max index + 1).
    """
    entries, n = _parse_edge_lines(lines)
    return [(u, v) for u, v, _ in entries], n


def load_graph(path: str) -> Graph:
    """Load and validate a graph file, reporting errors by source line."""
    with open(path, "r", encoding="utf-8") as fh:
        entries, n = _parse_edge_lines(fh)
    return _checked_graph([(u, v) for u, v, _ in entries], n, lambda i: f"line {entries[i][2]}")
