"""Immutable simple-graph container, generators, degree laws and their moments, core peeling."""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import accumulate, count
from typing import Iterable, NamedTuple, Sequence

import numpy as np

__all__ = [
    "BudgetError",
    "DegreeDistribution",
    "DegreeStats",
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


@dataclass(frozen=True)
class Graph:
    """Undirected simple graph in adjacency-list form.

    ``adjacency[v]`` is the sorted tuple of neighbours of ``v``. The structure
    is immutable and hashable; every operation in this package treats it as
    read-only.
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

    def directed_edges(self) -> list[tuple[int, int]]:
        """All 2m directed edges (tail, head) in lexicographic order."""
        return [(u, v) for u in range(self.vertex_count) for v in self.adjacency[u]]

    @cached_property
    def edge_offsets(self) -> tuple[int, ...]:
        """Directed edge (u, adjacency[u][i]) sits at position edge_offsets[u] + i of
        ``directed_edges()``; edge_offsets[n] = 2m."""
        return (0, *accumulate(map(len, self.adjacency)))

    @cached_property
    def nb_successors(self) -> tuple[tuple[int, ...], ...]:
        """Non-backtracking successors by edge position: (u, v) -> (v, w) for w ~ v, w != u,
        in the order of ``adjacency[v]``. Shared by the NBW statistics and the cover series."""
        offsets = self.edge_offsets
        return tuple(tuple([offsets[v] + i for i, w in enumerate(self.adjacency[v]) if w != u])
                     for u, v in self.directed_edges())

    def has_edge(self, u: int, v: int) -> bool:
        return v in self.adjacency[u]

    def adjacency_matrix(self) -> np.ndarray:
        a = np.zeros((self.vertex_count, self.vertex_count))
        for u, v in self.directed_edges():
            a[u, v] = 1
        return a

    @cached_property
    def _connected(self) -> bool:
        return not self.adjacency or all(d >= 0 for d in bfs_distances(self, 0))

    def is_connected(self) -> bool:
        return self._connected

    def is_tree(self) -> bool:
        return self.is_connected() and self.edge_count == self.vertex_count - 1


def bfs_distances(g: Graph, source: int, limit: int | None = None) -> list[int]:
    """BFS distances from ``source``; -1 marks unreachable vertices.

    ``limit`` stops the search beyond that radius (farther vertices stay -1).
    """
    dist = [-1] * g.vertex_count
    for v, d in zip(*_ball(g, source, limit)[1:]):
        dist[v] = d
    return dist


def _ball(g: Graph, root: int, radius: int | None) -> tuple[list[list[int]], list[int], list[int]]:
    """B_radius(root) as local adjacency lists, its vertices in BFS order (the root is local
    vertex 0 and each distance layer is one contiguous block), and their distances from the
    root, a nondecreasing list. The list of u is read once the search has found u's layer and
    the next, so the work and memory are those of the ball, not of ``g``."""
    if not 0 <= root < g.vertex_count:
        raise GraphInputError(f"vertex {root} is not in 0..{g.vertex_count - 1}")
    if radius is not None and radius < 0:
        raise GraphInputError(f"radius must be nonnegative, got {radius}")
    local = {root: 0}  # the visited set, and each ball vertex's local label
    ball, depth, adj = [root], [0], []
    for u, d in zip(ball, depth):  # the lists grow behind the cursor: they are the BFS queue
        if radius is None or d < radius:
            for v in g.adjacency[u]:
                if v not in local:
                    local[v] = len(ball)
                    ball.append(v)
                    depth.append(d + 1)
        adj.append([local[w] for w in g.adjacency[u] if w in local])
    return adj, ball, depth


def _refine(adj: Sequence[Sequence[int]], colors: list[int], rounds: int | None = None) -> list:
    """The stable refinement of ``colors`` over the out-neighbour lists ``adj``, or its first
    ``rounds`` rounds, with ids in sorted signature order, so refinement is label-invariant.

    A round gives v the dense rank of (its colour, the sorted colours of adj[v]), so it refines
    the last one, and a round that splits no cell only renumbers the cells, to the ids a further
    round would keep: refinement ends there. ``_split_cells`` runs the rounds on cells that keep
    their ids until they split. Their pieces take ids in signature order, so the ids keep the
    order of their dense ranks, and so do the sorted tuples of ids: after every round, the dense
    ranks of the ids are the ids of a round that re-signs every vertex. A cell can split only
    where a member has an out-neighbour that the last round split off, so a round re-signs only
    the cells of the in-neighbours of those vertices (not the out-neighbours: ``adj`` may be
    directed). It skips one largest piece of each split cell: a vertex's count there is its old
    count in the cell less its counts in the other pieces.
    """
    if rounds == 0:
        return colors
    inn: list[list[int]] = [[] for _ in adj]
    for v, out in enumerate(adj):
        for u in out:
            inn[u].append(v)
    order, end, cell = _partition(colors)
    _split_cells(adj, inn, order, end, cell, list(end), rounds)
    rank = dict(zip(sorted(end), count()))
    return list(map(rank.__getitem__, cell))


def _partition(colors: list[int]) -> tuple[list[int], dict[int, int], list[int]]:
    """The cells of ``colors`` as ``_split_cells`` keeps them: the blocks order[s:end[s]] in
    colour order, and cell[v] the start s of the block of v, which is the id of its cell."""
    n = len(colors)
    order = sorted(range(n), key=colors.__getitem__)
    ranked = sorted(colors)
    first = dict(zip(reversed(ranked), range(n - 1, -1, -1)))
    starts = sorted(first.values())
    return order, dict(zip(starts, starts[1:] + [n])), list(map(first.__getitem__, colors))


def _split_cells(adj: Sequence[Sequence[int]], inn: Sequence[Sequence[int]], order: list[int],
                 end: dict[int, int], cell: list[int], touched, rounds: int | None = None) -> None:
    """The rounds of ``_refine``, in place, on the cells of ``_partition``, until a round splits
    no cell or for ``rounds`` rounds. The first round re-signs the cells ``touched``, and each
    later one the cells of ``inn`` (the in-neighbour lists) of the vertices the last one split
    off. A split cell's pieces take over its block in signature order."""
    get = cell.__getitem__
    for _ in count() if rounds is None else range(rounds):
        splits = []
        for s in touched:
            if end[s] - s > 1:
                pieces: dict[tuple, list[int]] = {}
                for v in order[s:end[s]]:
                    pieces.setdefault(tuple(sorted(map(get, adj[v]))), []).append(v)
                if len(pieces) > 1:
                    splits.append((s, [pieces[sig] for sig in sorted(pieces)]))
        if not splits:
            return
        moved = []
        for s, pieces in splits:  # every signature above was read before any id changes
            largest = max(pieces, key=len)
            for piece in pieces:
                order[s:s + len(piece)] = piece
                end[s] = s + len(piece)
                for v in piece:
                    cell[v] = s
                if piece is not largest:
                    moved += piece
                s += len(piece)
        touched = {get(u) for v in moved for u in inn[v]}


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
    for v in vertices:
        if not 0 <= v < g.vertex_count:
            raise GraphInputError(f"vertex {v} is not in 0..{g.vertex_count - 1}")
    index = {v: i for i, v in enumerate(vertices)}
    if len(index) != len(vertices):
        raise GraphInputError("duplicate vertices in induced_subgraph selection")
    edges = [(index[v], index[w]) for v in vertices for w in g.adjacency[v] if w in index and v < w]
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
        if len(params) not in (1, 2):
            raise GraphInputError(f"grid takes 1 or 2 parameter(s), got {len(params)}")
        rows, cols = params if len(params) == 2 else params * 2
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


def _random_regular(n: int, d: int, seed: int | None) -> Graph:
    if d < 0 or d >= n:
        raise GraphInputError(f"random_regular needs 0 <= d < n, got n={n}, d={d}")
    if (n * d) % 2 != 0:
        raise GraphInputError(f"random_regular needs n*d even, got n={n}, d={d}")
    if d == 0:
        return build_graph([], n)
    rng = np.random.default_rng(seed)
    for _ in range(2000):
        stubs = np.repeat(np.arange(n), d)
        rng.shuffle(stubs)
        pairs = np.sort(stubs.reshape(-1, 2), axis=1)
        keys = pairs[:, 0] * n + pairs[:, 1]
        if (pairs[:, 0] != pairs[:, 1]).all() and np.unique(keys).size == keys.size:
            return build_graph(pairs.tolist(), n)
    raise GraphInputError(f"random_regular failed to sample a simple graph (n={n}, d={d})")


# ----------------------------------------------------------------------------
# Degree functionals
# ----------------------------------------------------------------------------


def _degree_moments(atoms: Sequence[tuple[int, object]], total) -> dict[str, float | None]:
    """The five moments, by ``DegreeStats`` field name, of weighted degree atoms (d, w) of
    total weight ``total``: a graph passes (deg v, 1) per vertex in vertex order with total n,
    a law its support and probabilities with total 1.

    Each mean is float(sum w f(d) / total), so a Fraction law is summed exactly, and d log d
    is 0 at d = 0. The log-based moments are None when an atom has d <= 1. ``hoory_lambda``
    stays a product and ``dlog_mean`` a sum: ``hoory_lambda_two_forms`` and
    ``hoory_equals_entropy_bound`` compare the two forms.
    """
    def mean(f) -> float:
        return float(sum(w * f(d) for d, w in atoms) / total)

    leafless = min(d for d, _ in atoms) >= 2
    lam = None
    if leafless:
        deg_sum, lam = float(sum(w * d for d, w in atoms)), 1.0
        for d, w in atoms:
            lam *= float(d - 1) ** (d * float(w) / deg_sum)
    return {
        "d_av": mean(lambda d: d),
        "d2_mean": mean(lambda d: d * d),
        "dlog_mean": mean(lambda d: d * math.log(d - 1)) if leafless else None,
        "dlogd_mean": mean(lambda d: d * math.log(d) if d else 0.0),
        "hoory_lambda": lam,
    }


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
    moments = _degree_moments([(len(nbrs), 1) for nbrs in g.adjacency], n)
    return DegreeStats(n=n, m=g.edge_count, deg_sum=2 * g.edge_count, min_degree=g.min_degree,
                       max_degree=g.max_degree, **moments)


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

    @cached_property
    def _moments(self) -> dict[str, float | None]:
        return _degree_moments(tuple(zip(self.support, self.probabilities)), 1)

    d_av = property(lambda self: self._moments["d_av"])
    d2_mean = property(lambda self: self._moments["d2_mean"])
    dlog_mean = property(lambda self: self._moments["dlog_mean"])
    dlogd_mean = property(lambda self: self._moments["dlogd_mean"])
    hoory_lambda = property(lambda self: self._moments["hoory_lambda"])

    @property
    def mean_d_dm1(self) -> float:
        """E[D (D - 1)], the mean offspring count of non-root vertices."""
        return float(sum(p * (d * (d - 1)) for d, p in zip(self.support, self.probabilities)))

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
