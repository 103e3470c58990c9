"""Report oracles, written without unispec so they share no code with it.

Each ``check_*`` takes a parsed JSON report and returns the list of violated
expectations (empty when the report is correct). Values that a correct change
may legitimately alter, such as sampled means under another random stream or
the spelling of canonical codes, are checked only through invariants: exact
mathematical values, conservation of counts and label invariance.
"""

from __future__ import annotations

import math
from collections import deque
from fractions import Fraction


def connected(n: int, edges: list[tuple[int, int]]) -> bool:
    return len(_ball(_adjacency(n, edges), 0, n)) == n


def _adjacency(n: int, edges: list[tuple[int, int]]) -> list[list[int]]:
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    return adj


def _ball(adj: list[list[int]], root: int, radius: int) -> dict[int, int]:
    """Vertex -> distance for every vertex within ``radius`` of ``root``."""
    dist = {root: 0}
    queue = deque([root])
    while queue:
        u = queue.popleft()
        if dist[u] == radius:
            continue
        for w in adj[u]:
            if w not in dist:
                dist[w] = dist[u] + 1
                queue.append(w)
    return dist


def regular_tree_closed_walks(d: int, k: int) -> int:
    """Closed walks of length 2k from a vertex of the infinite d-regular tree.

    McKay's closed form (Linear Algebra Appl. 40, 1981): the sum over j of
    j / (2k - j) * C(2k - j, k) * d^j * (d - 1)^(k - j).
    """
    if k == 0:
        return 1
    total = sum(
        Fraction(j, 2 * k - j) * math.comb(2 * k - j, k) * d**j * (d - 1) ** (k - j)
        for j in range(1, k + 1)
    )
    if total.denominator != 1:
        raise ArithmeticError(f"non-integral walk count {total}")
    return total.numerator


def _close(a, b, tol: float) -> bool:
    return isinstance(a, (int, float)) and abs(a - b) <= tol


def check_analyze(rep: dict, n: int, d: int) -> list[str]:
    """``analyze`` on a connected d-regular graph with n vertices."""
    bad = []
    graph = rep["graph"]
    if (graph["n"], graph["m"], graph["connected"]) != (n, n * d // 2, True):
        bad.append(f"graph {graph} is not the connected {n}-vertex {d}-regular input")
    stats = rep["degree_stats"]
    if (stats["min_degree"], stats["max_degree"]) != (d, d) or not _close(stats["d_av"], d, 0):
        bad.append(f"degree stats {stats} are not those of a {d}-regular graph")
    failed = [row["name"] for row in rep["checks"] if row["pass"] is not True]
    if not rep["checks"] or failed:
        bad.append(f"checks failed or missing: {failed}")
    for kind, top in (("adjacency", d), ("markov", 1.0)):
        block = rep["spectra"][kind]
        if not block["max_residual"] <= 1e-8 * d:
            bad.append(f"{kind} residual {block['max_residual']} exceeds {1e-8 * d}")
        if not _close(block["sigma_1_to_5"][0], top, 1e-9):
            bad.append(f"{kind} sigma_1 {block['sigma_1_to_5'][0]} is not {top}")
        masses = [mass for _, mass in block["tail_mass_grid"]]
        if any(not 0 <= m <= 1 for m in masses) or masses != sorted(masses, reverse=True):
            bad.append(f"{kind} tail masses {masses} are not nonincreasing in [0, 1]")
    alon = rep["bounds"]["alon_boppana_degree_bound"]["value"]
    if not _close(alon, 2 * math.sqrt(d - 1), 1e-12):
        bad.append(f"Alon-Boppana bound {alon} is not 2 sqrt({d - 1})")
    return bad


def check_cover(rep: dict, n: int, d: int, radius: int) -> list[str]:
    """``cover --radius R`` of a connected d-regular graph: every cover ball is
    the radius-R ball of the d-regular tree, at every root."""
    bad = []
    if (rep["graph"]["n"], rep["graph"]["m"]) != (n, n * d // 2):
        bad.append(f"graph {rep['graph']} is not the {n}-vertex {d}-regular input")
    counts = rep["walk_table"]["counts"]
    want = [regular_tree_closed_walks(d, k // 2) if k % 2 == 0 else 0 for k in range(2 * radius + 1)]
    if counts != want:
        diff = [k for k in range(max(len(counts), len(want)))
                if k >= len(counts) or k >= len(want) or counts[k] != want[k]]
        bad.append(f"walk_table differs from the {d}-regular tree at lengths {diff}")
    values = rep["rho_estimate"]["values"]
    limit = 2 * math.sqrt(d - 1)
    if len(values) != radius:
        bad.append(f"rho_estimate has {len(values)} entries, expected {radius}")
    if values != sorted(values) or any(not v < limit for v in values):
        bad.append(f"rho_estimate {values} is not nondecreasing below {limit}")
    for k, v in enumerate(values, start=1):
        exact = regular_tree_closed_walks(d, k) ** (1.0 / (2 * k))
        if not _close(v, exact, 1e-9 * exact):
            bad.append(f"rho_estimate[{k}] = {v}, expected W_{2 * k}^(1/{2 * k}) = {exact}")
    size = 1 + d * ((d - 1) ** radius - 1) // (d - 2)
    if rep["ball"] != {"vertices": size, "radius": radius}:
        bad.append(f"ball {rep['ball']} is not the {size}-vertex radius-{radius} tree ball")
    return bad


def _census_totals(rep: dict, n: int, radius: int) -> list[str]:
    bad = []
    counts = [c["count"] for c in rep["classes"]]
    if rep["total"] != n or sum(counts) != n:
        bad.append(f"census total {rep['total']} and class sum {sum(counts)} are not n = {n}")
    if rep["radius"] != radius:
        bad.append(f"census radius {rep['radius']} is not {radius}")
    if any(not c >= 1 for c in counts) or len({c["code"] for c in rep["classes"]}) != len(counts):
        bad.append("census has an empty or repeated class")
    return bad


def ball_invariant(adj: list[list[int]], root: int, radius: int) -> tuple:
    """Isomorphism invariant of a rooted ball: per layer, the sorted degrees
    inside the ball."""
    dist = _ball(adj, root, radius)
    layers = [[] for _ in range(radius + 1)]
    for v, dv in dist.items():
        layers[dv].append(sum(1 for w in adj[v] if w in dist))
    return tuple(tuple(sorted(layer)) for layer in layers)


def check_census(rep: dict, n: int, edges: list[tuple[int, int]], radius: int) -> list[str]:
    """Census of any graph: counts are conserved, the classes are at least as
    fine as an isomorphism invariant, and the roots whose balls are the full
    tree ball form one class."""
    bad = _census_totals(rep, n, radius)
    adj = _adjacency(n, edges)
    invariants = [ball_invariant(adj, root, radius) for root in range(n)]
    counts = [c["count"] for c in rep["classes"]]
    if len(counts) < len(set(invariants)):
        bad.append(f"{len(counts)} classes merge balls of {len(set(invariants))} distinct invariants")
    tree_roots = sum(1 for inv in invariants if sum(map(len, inv)) - 1 == sum(map(sum, inv)) // 2)
    if tree_roots and tree_roots not in counts:
        bad.append(f"the {tree_roots} roots with tree-shaped balls do not form one class")
    return bad


_SQUARE_SYMMETRIES = (
    (0, 1, 2, 3), (1, 0, 2, 3), (0, 1, 3, 2), (1, 0, 3, 2),
    (2, 3, 0, 1), (3, 2, 0, 1), (2, 3, 1, 0), (3, 2, 1, 0),
)


def grid_ball_classes(side: int, radius: int) -> list[int]:
    """Sizes of the isomorphism classes of rooted radius-r balls of a side x side grid.

    A ball is determined by the root's distances to the four sides, capped at
    r, up to the eight symmetries of the square.
    """
    sizes: dict[tuple, int] = {}
    for row in range(side):
        for col in range(side):
            sides = [min(d, radius) for d in (col, side - 1 - col, row, side - 1 - row)]
            key = min(tuple(sides[i] for i in perm) for perm in _SQUARE_SYMMETRIES)
            sizes[key] = sizes.get(key, 0) + 1
    return sorted(sizes.values())


def check_grid_census(rep: dict, side: int, radius: int) -> list[str]:
    """Census of a relabelled grid: exact, with one class per ball shape."""
    bad = _census_totals(rep, side * side, radius)
    if rep["exact"] is not True:
        bad.append("grid census is not exact")
    counts = sorted(c["count"] for c in rep["classes"])
    if counts != grid_ball_classes(side, radius):
        bad.append(f"grid class sizes {counts} differ from the ball shapes")
    return bad


def _degree_law(pi: dict[int, float]) -> tuple[Fraction, Fraction]:
    law = {d: Fraction(p) for d, p in pi.items()}
    mean = sum(d * p for d, p in law.items())
    return mean, sum(d * (d - 1) * p for d, p in law.items()) / mean


def _check_sample(rep: dict, samples: int, seed: int) -> list[str]:
    bad = []
    if (rep["samples"], rep["seed"]) != (samples, seed):
        bad.append(f"samples/seed {rep['samples']}/{rep['seed']} are not {samples}/{seed}")
    if not (isinstance(rep["stderr"], float) and rep["stderr"] > 0):
        bad.append(f"stderr {rep['stderr']} is not positive")
    return bad


def check_sphere(rep: dict, pi: dict[int, float], r: int, samples: int, seed: int) -> list[str]:
    """Mean sphere size of UGW(pi) at radius r against E[D] m^(r-1)."""
    bad = _check_sample(rep, samples, seed)
    mean_d, m = _degree_law(pi)
    exact = float(mean_d * m ** (r - 1))
    if not _close(rep["exact"], exact, 1e-9 * exact):
        bad.append(f"exact {rep['exact']} is not E[D] m^(r-1) = {exact}")
    if not abs(rep["mean"] - exact) <= 4 * rep["stderr"]:
        bad.append(f"mean {rep['mean']} is more than 4 stderr from {exact}")
    return bad


def check_ugw_walks(rep: dict, pi: dict[int, float], k: int, samples: int, seed: int) -> list[str]:
    """Mean W_2k at the root of UGW(pi), which lies between the path (every
    vertex keeps one child) and the tree of the largest degree."""
    bad = _check_sample(rep, samples, seed)
    lo = math.comb(2 * k, k) if min(pi) >= 2 else 1
    hi = regular_tree_closed_walks(max(pi), k)
    if not lo <= rep["mean"] <= hi:
        bad.append(f"mean W_{2 * k} {rep['mean']} outside [{lo}, {hi}]")
    return bad
