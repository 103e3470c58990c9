"""Shared fixture graphs and small independent oracles for the tests."""

import numpy as np

from unispec import Graph, build_graph, generate


def petersen() -> Graph:
    edges = [(i, (i + 1) % 5) for i in range(5)]
    edges += [(i, i + 5) for i in range(5)]
    edges += [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return build_graph(edges, 10)


def chorded_cycle(n=8, chords=((0, 4), (2, 6))) -> Graph:
    edges = [(i, (i + 1) % n) for i in range(n)] + list(chords)
    return build_graph(edges, n)


def star(leaves: int) -> Graph:
    return build_graph([(0, i) for i in range(1, leaves + 1)], leaves + 1)


def random_tree(n, rng) -> Graph:
    edges = [(int(rng.integers(i)), i) for i in range(1, n)]
    return build_graph(edges, n)


def srw_weights(g: Graph) -> dict:
    """The simple random walk's step weights: 1 / deg x on every directed edge (x, y)."""
    return {(x, y): 1.0 / g.degree(x) for x in range(g.vertex_count) for y in g.adjacency[x]}


def random_connected_graph(n, extra_edges, rng) -> Graph:
    edges = set((int(rng.integers(i)), i) for i in range(1, n))
    tries = 0
    while len(edges) < n - 1 + extra_edges and tries < 50 * extra_edges + 100:
        u, v = int(rng.integers(n)), int(rng.integers(n))
        tries += 1
        if u == v:
            continue
        key = (min(u, v), max(u, v))
        edges.add(key)
    return build_graph(sorted(edges), n)


FIXTURES = {
    "c3": generate("cycle", 3),
    "c4": generate("cycle", 4),
    "c6": generate("cycle", 6),
    "k4": generate("complete", 4),
    "p5": generate("path", 5),
    "star3": star(3),
    "petersen": petersen(),
    "chorded8": chorded_cycle(),
    "c4_chord": build_graph([(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)], 4),
    "grid4": generate("grid", 4),
    "glued43": generate("glued_clique_path", 4, 3),
    "tree9": random_tree(9, np.random.default_rng(11)),
}

LEAFLESS = ["c3", "c4", "c6", "k4", "petersen", "chorded8", "c4_chord", "grid4"]
LEAFY = ["p5", "star3", "glued43", "tree9"]
CONNECTED_NON_TREE = LEAFLESS + ["glued43"]
LIFTING_FIXTURES = ["c3", "c6", "k4", "petersen", "chorded8"]
BIPARTITE = ["c4", "c6", "p5", "star3", "grid4"]


def adjacency_power_diagonal(g, k):
    """Matrix-power walk-count oracle: exact (A^k)_{xx} via object-dtype numpy."""
    a = np.zeros((g.vertex_count, g.vertex_count), dtype=object)
    for u in range(g.vertex_count):
        for v in g.adjacency[u]:
            a[u, v] = 1
    power = np.eye(g.vertex_count, dtype=object)
    for _ in range(k):
        power = power @ a
    return [power[x, x] for x in range(g.vertex_count)]


def enumerate_closed_walks(g, root, length):
    """All closed walks of a given length from root, by pruned DFS."""
    from unispec import bfs_distances

    dist = bfs_distances(g, root)
    walks = []
    path = [root]

    def step(cur, remaining):
        if remaining == 0:
            if cur == root:
                walks.append(tuple(path))
            return
        for z in g.adjacency[cur]:
            if dist[z] <= remaining - 1:
                path.append(z)
                step(z, remaining - 1)
                path.pop()

    step(root, length)
    return walks
