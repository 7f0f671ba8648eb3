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
platform.  random.Random seeds from |seed|, so seeds s and -s give the same
graph.

erdos_renyi decides pair (i, j) by the draw random() would return there:
((w0 >> 5) * 2**26 + (w1 >> 6)) / 2**53 from the pair's two generator words
w0, w1, an edge when below p.  A graph with at least WORD_SAMPLER_PAIRS
pairs takes each row block's words from numpy's MT19937 loaded with the
random.Random's key and position (the same generator, so the same words)
and compares each draw's numerator in numpy with the count of draws below
p; numpy.random is imported only on that path.  A smaller graph calls
random() once per pair.  Both give the same graph bit for bit.
"""

from __future__ import annotations

import bisect
import functools
import heapq
import math
import random
from typing import Optional

import numpy as np

from .graph import Graph, check_int, check_number, check_vertex_count

TREE_SHAPES = ("path", "star", "random")

# Graphs with fewer pairs call random() once a pair.  The word-level sampler
# pays about 35 us a draw to find its threshold and load the Random's state;
# with CPython 3.11 on one Xeon core it ties that loop near 700 pairs
# (n = 38) for p = 0.5, near 1,000 (n = 46) for p = 0.2 and near 2,000
# (n = 65) for p = 0.05, where the loop sets fewer bits.  At 1,024 pairs
# either path is at most about 0.06 ms slower.
WORD_SAMPLER_PAIRS = 1 << 10

# Pairs a row block draws at most, unless its 8 rows hold more.  Blocks of
# 2**12 to 2**16 pairs sample G(n, p) for n = 300..4000 within 5 % of each
# other, and a block's temporaries take about 20 B a pair: at 24 B, blocks
# of 2**16 raised the peak RSS of three G(1000, p) draws by 1.5 MB, of 2**14
# by none.
BLOCK_PAIRS = 1 << 14


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
    rng = random.Random(check_int(seed, "seed", None))
    if n * (n - 1) // 2 >= WORD_SAMPLER_PAIRS:
        return Graph(_word_sampled_rows(n, p, rng))
    rows = [0] * n
    draw = rng.random
    for i in range(n):
        for j in range(i + 1, n):
            if draw() < p:
                rows[i] |= 1 << j
                rows[j] |= 1 << i
    return Graph(tuple(rows))


def _word_sampled_rows(n: int, p: float, rng: random.Random) -> tuple[int, ...]:
    """The rows erdos_renyi draws from rng, decided a block of rows at a time.

    The words come from a numpy MT19937 loaded with rng's key and position,
    which runs the same recurrence and tempering as random.Random and so
    yields the same 32-bit words; rng itself is left where it was.  Each
    block of rows, a multiple of 8 but the last, takes its pairs' words,
    two a pair.  Its hits are ORed into a packed bit matrix (bit j of a row
    in byte j // 8) once as rows and once transposed.  The matrix holds row
    i at index n - 1 - i, so the rows a block finishes are its last ones:
    they are read into ints and cut off, and the matrix and the ints
    together stay near n**2 / 8 bytes.  Temporaries stay near
    20 * BLOCK_PAIRS bytes at any n.
    """
    # the count of draws X / 2**53 below p, found by the loop's own comparison:
    # a numpy float32 p, say, compares in float32
    threshold = bisect.bisect_left(range(1 << 53), True, key=lambda x: not math.ldexp(x, -53) < p)
    state = rng.getstate()[1]  # the 624 words of the key, then the position in it
    source = _word_source()
    with source.lock:  # held over every block, so no other draw moves the state between them
        source.state = {"bit_generator": "MT19937", "state": {"key": state[:-1], "pos": state[-1]}}
        matrix = np.zeros((n, (n + 7) >> 3), np.uint8)
        rows: list[int] = []
        i0 = 0
        while i0 < n - 1:
            # the block's pairs lie in columns i0..n-1, its rows at indices span-b..span-1
            span = n - i0
            b = min(span, max(8, BLOCK_PAIRS // (span - 1) // 8 * 8))
            m = b * (span - 1) - b * (b - 1) // 2
            words = source.random_raw(2 * m)  # 32-bit words in uint64s, w0 and w1 of each pair in turn
            draws, w1 = words[0::2], words[1::2]
            draws >>= 5  # in place: (w0 >> 5) * 2**26 + (w1 >> 6)
            draws <<= 26
            w1 >>= 6
            draws |= w1
            block = np.less.outer(np.arange(b), np.arange(span))
            block[block] = draws < threshold
            matrix[span - b:span, i0 >> 3:] |= np.packbits(block[::-1], axis=1, bitorder="little")
            matrix[:span, i0 >> 3:(i0 + b + 7) >> 3] |= np.packbits(
                block[:, ::-1], axis=0, bitorder="little").T
            rows += [int.from_bytes(row, "little") for row in matrix[span - b:span][::-1]]
            # refcheck=False: no view of matrix is alive here
            matrix.resize((span - b, matrix.shape[1]), refcheck=False)
            i0 += b
        # row n - 1, unless the last block took it
        rows += [int.from_bytes(row, "little") for row in matrix]
        return tuple(rows)


@functools.cache
def _word_source():
    """The numpy MT19937 every large draw loads its state into, built once:
    seeding it takes about 40 times as long as loading a state."""
    from numpy.random import MT19937  # here, so drawing small graphs never imports it

    return MT19937(0)  # a fixed seed spares an entropy read; each draw replaces the state


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
