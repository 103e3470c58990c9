"""Seeded benchmark inputs and the CLI jobs of each workload.

Graphs come from the benchmark's own generators (stdlib ``random`` only), so
the program under test receives nothing but edge-list files. Every generator
draws from ``random.Random`` seeded with the workload seed, and the same seed
gives the same files byte for byte.

The seed changes the inputs but not the amount of work: the cover balls of
any cubic graph are the same tree, grid balls depend only on the grid, and
the cubic census graph is one fixed structure whose vertex labels and edge
order the seed permutes. Its cost is dominated by the roots whose balls are
trees, and how many there are varies too much between random cubic graphs of
this size for two runs with different seeds to be comparable.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import oracles

# structure seed of the census cubic graph; the workload seed only relabels it
CUBIC_CENSUS_STRUCTURE = 1


def random_regular_edges(n: int, d: int, rng: random.Random) -> list[tuple[int, int]]:
    """Connected simple d-regular graph: configuration-model pairing, then
    random pair switches until no loop or repeated edge is left."""
    if (n * d) % 2 or not 0 < d < n:
        raise ValueError(f"no simple {d}-regular graph on {n} vertices")
    while True:
        stubs = [v for v in range(n) for _ in range(d)]
        rng.shuffle(stubs)
        pairs = [[stubs[i], stubs[i + 1]] for i in range(0, len(stubs), 2)]
        for _ in range(100 * len(pairs)):
            seen: dict[tuple[int, int], int] = {}
            bad = []
            for i, (u, v) in enumerate(pairs):
                key = (min(u, v), max(u, v))
                if u == v or key in seen:
                    bad.append(i)
                seen[key] = i
            if not bad:
                break
            for i in bad:
                j = rng.randrange(len(pairs))
                pairs[i][1], pairs[j][1] = pairs[j][1], pairs[i][1]
        else:
            continue
        edges = [(min(u, v), max(u, v)) for u, v in pairs]
        if oracles.connected(n, edges):
            return edges


def grid_edges(side: int) -> list[tuple[int, int]]:
    edges = []
    for r in range(side):
        for c in range(side):
            u = r * side + c
            if c + 1 < side:
                edges.append((u, u + 1))
            if r + 1 < side:
                edges.append((u, u + side))
    return edges


def relabel(n: int, edges: list[tuple[int, int]], rng: random.Random) -> list[tuple[int, int]]:
    """Randomly permute vertex labels, edge order and edge orientation."""
    perm = list(range(n))
    rng.shuffle(perm)
    out = [(perm[u], perm[v]) if rng.random() < 0.5 else (perm[v], perm[u]) for u, v in edges]
    rng.shuffle(out)
    return out


def write_edge_list(path: Path, n: int, edges: list[tuple[int, int]]) -> None:
    lines = [f"n {n}\n"] + [f"{u} {v}\n" for u, v in edges]
    path.write_text("".join(lines), encoding="utf-8")


@dataclass
class Job:
    """One CLI call and the oracle its report must pass."""

    name: str
    argv: list[str]
    check: Callable[[dict], list[str]]


@dataclass
class Workload:
    jobs: list[Job]
    files: dict[str, tuple[int, list[tuple[int, int]]]]


def build(name: str, seed: int, workdir: Path) -> Workload:
    """The jobs of workload ``name`` and the graph files they read from ``workdir``."""
    rng = random.Random(seed)
    if name == "analyze":
        n, d = 600, 4
        path = str(workdir / "regular_600_4.edges")
        files = {path: (n, random_regular_edges(n, d, rng))}
        jobs = [Job("analyze", ["analyze", "--input", path],
                    lambda rep: oracles.check_analyze(rep, n=n, d=d))]
    elif name == "cover":
        n, d, radius = 200, 3, 10
        path = str(workdir / "regular_200_3.edges")
        files = {path: (n, random_regular_edges(n, d, rng))}
        jobs = [Job("cover", ["cover", "--input", path, "--radius", str(radius)],
                    lambda rep: oracles.check_cover(rep, n=n, d=d, radius=radius))]
    elif name == "census":
        n, side = 100, 40
        cubic = random_regular_edges(n, 3, random.Random(CUBIC_CENSUS_STRUCTURE))
        cubic = relabel(n, cubic, rng)
        grid = relabel(side * side, grid_edges(side), rng)
        cubic_path = str(workdir / "cubic_100.edges")
        grid_path = str(workdir / "grid_40.edges")
        files = {cubic_path: (n, cubic), grid_path: (side * side, grid)}
        jobs = [
            Job("census_cubic", ["census", "--input", cubic_path, "--radius", "3"],
                lambda rep: oracles.check_census(rep, n, cubic, radius=3)),
            Job("census_grid", ["census", "--input", grid_path, "--radius", "2"],
                lambda rep: oracles.check_grid_census(rep, side, radius=2)),
        ]
    elif name == "ugw":
        files = {}
        pi = {2: 0.5, 3: 0.5}
        pi_arg = "2:0.5,3:0.5"
        jobs = [
            Job("ugw_sphere", ["sample", "ugw", "--pi", pi_arg, "--stat", "sphere", "--r", "3",
                               "--samples", "100000", "--seed", str(seed)],
                lambda rep: oracles.check_sphere(rep, pi, r=3, samples=100000, seed=seed)),
            Job("ugw_walks", ["sample", "ugw", "--pi", pi_arg, "--stat", "walks", "--k", "8",
                              "--samples", "2000", "--seed", str(seed)],
                lambda rep: oracles.check_ugw_walks(rep, pi, k=8, samples=2000, seed=seed)),
        ]
    else:
        raise ValueError(f"unknown workload {name!r}")
    return Workload(jobs, files)


WORKLOADS = ("analyze", "cover", "census", "ugw")
