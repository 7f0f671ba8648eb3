"""Builders for sparsest maximum-robustness graphs and seeded random graphs.

The two extremal families share one pattern: a set of hub vertices adjacent
to every other vertex, plus a sparse remainder.  On 2r-1 vertices, r-1 hubs
and a tree on the remaining r vertices meet the odd-case edge bound exactly;
on 2r vertices, r hubs with a perfect matching of edges removed inside the
hub set meet the even-case bound.  Both certify at the ceil(n/2) robustness
ceiling.

Randomized builders (Erdos-Renyi sampling, random trees) draw from
random.Random, the stdlib MT19937 Mersenne Twister, in a documented fixed
order so a (parameters, seed) pair reproduces the same graph on any
platform.
"""

from __future__ import annotations

import heapq
import random
from typing import Optional

from .graph import Graph, check_int, check_number, check_vertex_count

TREE_SHAPES = ("path", "star", "random")


def _hub_graph(n: int, hubs: int, toggled=()) -> Graph:
    """Rows making every vertex below `hubs` adjacent to all others (no edge
    list is built), with each toggled pair's edge flipped."""
    full = (1 << n) - 1
    hub_mask = (1 << hubs) - 1
    rows = [full ^ (1 << v) if v < hubs else hub_mask for v in range(n)]
    for u, v in toggled:
        rows[u] ^= 1 << v
        rows[v] ^= 1 << u
    return Graph(tuple(rows))


def _random_tree_edges(vertices: list[int], rng: random.Random) -> list[tuple[int, int]]:
    """Uniform random labeled tree on the given vertices (Pruefer decode)."""
    k = len(vertices)
    if k < 2:
        return []
    seq = [rng.randrange(k) for _ in range(k - 2)]
    degree = [1] * k
    for s in seq:
        degree[s] += 1
    leaves = [i for i in range(k) if degree[i] == 1]
    heapq.heapify(leaves)
    edges = []
    for s in seq:
        leaf = heapq.heappop(leaves)
        edges.append((vertices[leaf], vertices[s]))
        degree[s] -= 1
        if degree[s] == 1:
            heapq.heappush(leaves, s)
    a = heapq.heappop(leaves)
    b = heapq.heappop(leaves)
    edges.append((vertices[a], vertices[b]))
    return edges


def _tree_edges(vertices: list[int], shape: str, seed: Optional[int]) -> list[tuple[int, int]]:
    """Edges of a tree of the given shape; shape and seed are checked even on one
    vertex, and a seed is refused where the shape would ignore it."""
    if shape not in TREE_SHAPES:
        raise ValueError(f"unknown tree shape {shape!r}")
    if shape == "random":
        return _random_tree_edges(vertices, random.Random(check_int(seed, "seed", None)))
    if seed is not None:
        raise ValueError(f"seed only applies to the random tree shape, not {shape!r}")
    if shape == "path":
        return list(zip(vertices, vertices[1:]))
    return [(vertices[0], v) for v in vertices[1:]]


def sparsest_odd(r: int, tree_shape: str = "path", seed: Optional[int] = None) -> Graph:
    """Maximally robust graph on 2r-1 vertices with the fewest possible edges.

    Vertices 0..r-2 are hubs adjacent to everything; the remaining r
    vertices form a tree of the requested shape.  Any tree shape yields the
    same edge count, 3r(r-1)/2, and the same certified robustness r.
    """
    n = check_vertex_count(2 * check_int(r, "robustness level", 1) - 1)
    return _hub_graph(n, r - 1, _tree_edges(list(range(r - 1, n)), tree_shape, seed))


def sparsest_even(r: int) -> Graph:
    """Maximally robust graph on 2r vertices with the fewest possible edges.

    Vertices 0..r-1 are hubs adjacent to everything.  The first delta hubs
    (delta = r-1 for odd r, r-2 for even r; always even) are matched into
    consecutive pairs 0-1, 2-3, ... and each pair's connecting edge is
    removed, leaving exactly floor((r(3r-2)+2)/2) edges.
    """
    n = check_vertex_count(2 * check_int(r, "robustness level", 1))
    delta = r - 1 if r % 2 else r - 2
    return _hub_graph(n, r, [(k, k + 1) for k in range(0, delta, 2)])


def erdos_renyi(n: int, p: float, seed: int) -> Graph:
    """Seeded G(n, p) sample.

    Pairs (i, j) with i < j are visited in lexicographic order and each
    consumes exactly one uniform draw from random.Random(seed), so identical
    (n, p, seed) triples reproduce identical edge lists byte for byte.
    """
    check_vertex_count(n)
    if not 0.0 <= check_number(p, "edge probability") <= 1.0:
        raise ValueError(f"edge probability must be in [0, 1], got {p!r}")
    rows = [0] * n
    draw = random.Random(check_int(seed, "seed", None)).random
    for i in range(n):
        for j in range(i + 1, n):
            if draw() < p:
                rows[i] |= 1 << j
                rows[j] |= 1 << i
    return Graph(tuple(rows))


def tree_graph(n: int, tree_shape: str = "path", seed: Optional[int] = None) -> Graph:
    """Tree on n vertices: a path, a star, or a seeded uniform random tree."""
    return _hub_graph(check_vertex_count(n), 0, _tree_edges(list(range(n)), tree_shape, seed))


# kind name -> builder; the builder's parameters are the options its kind takes
KINDS = {
    "sparsest-odd": sparsest_odd,
    "sparsest-even": sparsest_even,
    "erdos-renyi": erdos_renyi,
    "tree": tree_graph,
}
