"""Immutable simple undirected graphs with bitset adjacency rows.

Vertices are the integers 0..n-1.  Row i is an integer whose bit j is set
iff (i, j) is an edge.  This keeps adjacency queries O(1) and lets the
subset-heavy callers (clique search, robustness certification) manipulate
whole vertex sets with single bitwise operations.  Vertex subsets cross the
public API as plain frozensets; masks stay internal.
"""

from __future__ import annotations

import json
import os
import stat
import sys
from dataclasses import dataclass
from numbers import Real
from typing import Iterable, Iterator, Optional

import numpy as np

# Loaders refuse larger declared vertex counts before sizing anything by
# them; 2^14 agents over a 500-step simulation is a trace of about 66 MB.
MAX_VERTICES = 1 << 14

# The only limit of the exact searches over all 2^n vertex subsets (the
# certifier, densest_subset_of_size and max_clique): the tables of the first
# two hold 2^20 subsets at about 6 B each, roughly 6 MB.
MAX_EXACT_N = 20

_FLOAT_MAX = sys.float_info.max


def check_int(value, what: str, least: Optional[int] = 0, most: Optional[int] = None) -> int:
    """value, if it is an int in least..most (None leaves that end open).

    Anything else raises ValueError naming what; a bool is refused, not
    read as 0 or 1.
    """
    if (isinstance(value, bool) or not isinstance(value, int)
            or (least is not None and value < least) or (most is not None and value > most)):
        if most is not None:
            raise ValueError(f"{what} {value!r} out of range {least}..{most}")
        need = {None: "an integer", 0: "a non-negative integer", 1: "a positive integer"}
        raise ValueError(f"{what} must be {need.get(least, f'an integer >= {least}')}, got {value!r}")
    return value


def check_number(value, what: str):
    """value, unchanged, if it is a real number in the finite float range; a bool is refused."""
    # float first: the Real ABC check alone costs about 1 us a call
    if type(value) is bool or not isinstance(value, (float, Real)) or not abs(value) <= _FLOAT_MAX:
        raise ValueError(f"{what} must be a finite number, got {value!r}")
    return value


def check_fields(data, what: str, required=(), optional=()) -> dict:
    """data, if it is a dict with every required key and no key outside required and optional;
    anything else, an unknown key included, raises ValueError naming what."""
    if not isinstance(data, dict):
        raise ValueError(f"{what} must be a JSON object, got {type(data).__name__}")
    # plain loops: all() over generators costs about twice as much a call
    for key in data:
        if key not in required and key not in optional:
            raise ValueError(f"{what} has unknown key {key!r}")
    for key in required:
        if key not in data:
            raise ValueError(f"{what} is missing {key!r}")
    return data


def bits(mask: int) -> Iterator[int]:
    """Indices of the set bits of mask, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph on n = len(rows) vertices, immutable once built.

    Graph(rows) trusts its rows: new_graph, the file readers, the construct
    builders and with_edge_removed make them symmetric, loop-free and in range."""

    rows: tuple[int, ...]

    @property
    def n(self) -> int:
        return len(self.rows)

    @property
    def edge_count(self) -> int:
        return sum(row.bit_count() for row in self.rows) // 2

    @property
    def full_mask(self) -> int:
        return (1 << self.n) - 1

    def has_edge(self, u: int, v: int) -> bool:
        self._check_vertex(u)
        self._check_vertex(v)
        return bool(self.rows[u] >> v & 1)

    def degree(self, i: int) -> int:
        self._check_vertex(i)
        return self.rows[i].bit_count()

    def min_degree(self) -> int:
        return min(row.bit_count() for row in self.rows)

    def neighbors(self, i: int) -> frozenset[int]:
        """Vertices adjacent to i; never contains i itself."""
        self._check_vertex(i)
        return frozenset(bits(self.rows[i]))

    def edges(self) -> Iterator[tuple[int, int]]:
        """All edges as (u, v) with u < v, in lexicographic order."""
        for u in range(self.n):
            for v in bits(self.rows[u] & ~((1 << (u + 1)) - 1)):
                yield (u, v)

    def with_edge_removed(self, u: int, v: int) -> "Graph":
        """Copy of this graph without the edge (u, v); the original is unchanged."""
        if not self.has_edge(u, v):
            raise ValueError(f"edge ({u}, {v}) not present")
        rows = list(self.rows)
        rows[u] &= ~(1 << v)
        rows[v] &= ~(1 << u)
        return Graph(tuple(rows))

    def subset_mask(self, members: Iterable[int]) -> int:
        """Validated bitmask for a vertex subset."""
        mask = 0
        for v in members:
            self._check_vertex(v)
            mask |= 1 << v
        return mask

    def _check_vertex(self, v: int) -> None:
        check_int(v, "vertex", 0, self.n - 1)


def check_vertex_count(n) -> int:
    """n, if it is an int in 1..MAX_VERTICES; checked before anything is sized by it."""
    if check_int(n, "vertex count", 1) > MAX_VERTICES:
        raise ValueError(f"graph declares {n} nodes, above the limit of {MAX_VERTICES}")
    return n


def new_graph(n: int, edges: Iterable[tuple[int, int]] = ()) -> Graph:
    """Build a graph on n <= MAX_VERTICES vertices from unordered pairs; duplicates collapse.

    Every pair must hold two ints before the edge rule checks any of them.
    """
    check_vertex_count(n)
    ends = []
    for pair in edges:
        u, v = pair
        if not (isinstance(u, int) and isinstance(v, int)) or bool in (type(u), type(v)):
            raise ValueError(f"edge {pair!r} must be a pair of integers")
        ends += u, v
    return _graph_from_ends(n, ends)


def _graph_from_ends(n: int, ends: list[int]) -> Graph:
    """The graph on n vertices with edges (ends[0], ends[1]), (ends[2], ends[3]), ... under
    the one edge rule: edge by edge, a self-loop is refused before an end out of range."""
    rows = [0] * n
    pairs = iter(ends)
    for u, v in zip(pairs, pairs):
        if u == v:
            raise ValueError(f"self-loop ({u}, {v}) not allowed")
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge ({u}, {v}) out of range for n={n}")
        rows[u] |= 1 << v
        rows[v] |= 1 << u
    return Graph(tuple(rows))


def max_clique(g: Graph) -> frozenset[int]:
    """Exact maximum clique by branch and bound (Carraghan & Pardalos, 1990).

    Cliques grow from the lowest remaining candidate, so they are met in
    lexicographic order of their sorted vertex tuples.  A branch stops once
    its clique plus all its candidates cannot beat the best size, and only a
    strictly larger clique replaces the best, so among all maximum cliques
    the lexicographically smallest is returned.  Limited to n <= MAX_EXACT_N.
    """
    check_exact_n(g.n, "max_clique")
    rows = g.rows
    best: list[int] = []

    def grow(chosen: list[int], cand: int) -> None:
        if len(chosen) > len(best):
            best[:] = chosen
        while cand and len(chosen) + cand.bit_count() > len(best):
            low = cand & -cand
            cand ^= low
            v = low.bit_length() - 1
            grow(chosen + [v], cand & rows[v])

    grow([], g.full_mask)
    return frozenset(best)


def induced_edge_count(g: Graph, members: Iterable[int]) -> int:
    """Number of edges of g with both endpoints in the given subset."""
    mask = g.subset_mask(members)
    return sum((g.rows[i] & mask).bit_count() for i in bits(mask)) // 2


def check_exact_n(n: int, what: str) -> None:
    """Refuse n above MAX_EXACT_N before any search or 2^n table starts."""
    if n > MAX_EXACT_N:
        raise ValueError(
            f"{what} searches all 2^n vertex subsets; "
            f"n={n} exceeds the supported limit of {MAX_EXACT_N}"
        )


def densest_subset_of_size(g: Graph, k: int) -> tuple[frozenset[int], int]:
    """Exactly maximize the induced edge count over all k-subsets.

    Returns the maximizer and its edge count; ties break to the
    lexicographically smallest subset.  edges[m] is the induced edge count
    of every vertex mask m, with vertex v at bit n-1-v, built by doubling:
    the masks with top bit j are those below it plus bit j's edges into
    their lower bits.  A larger mask then means a lexicographically smaller
    set of the same size, so the answer is the last k-member mask attaining
    the maximum.  Limited to n <= MAX_EXACT_N.
    """
    check_int(k, "subset size", 1, g.n)
    n = g.n
    check_exact_n(n, "densest_subset_of_size")
    size = 1 << n
    edges = np.zeros(size, dtype=np.uint8)  # at most C(20, 2) = 190
    members = np.zeros(size, dtype=np.uint8)  # the size of each mask
    for j in range(n):
        v = n - 1 - j
        # neighbours u > v of vertex v sit at the bits n-1-u below j
        lower = sum(1 << (n - 1 - u) for u in bits(g.rows[v] >> (v + 1) << (v + 1)))
        half = 1 << j
        below = np.arange(half, dtype=np.uint32)
        below &= lower
        np.add(edges[:half], np.bitwise_count(below), out=edges[half:2 * half])
        np.add(members[:half], 1, out=members[half:2 * half])
    # score is count + 1 on the k-subsets and 0 elsewhere
    np.add(edges, 1, out=edges)
    np.multiply(edges, members == k, out=edges)
    last = size - 1 - int(np.argmax(edges[::-1]))
    return frozenset(n - 1 - b for b in bits(last)), int(edges[last]) - 1


# ---------------------------------------------------------------------------
# File formats: edge-list text and JSON
# ---------------------------------------------------------------------------

def format_edge_list(g: Graph) -> str:
    """Edge-list text: first line n, then one 'u v' line per edge, sorted."""
    lines = [str(g.n)]
    for u, row in enumerate(g.rows):
        # one join a row: u's lines after the first start at the separator
        tail = f"\n{u} ".join(map(str, bits(row >> (u + 1) << (u + 1))))
        if tail:
            lines.append(f"{u} {tail}")
    return "\n".join(lines) + "\n"


def parse_edge_list(text: str) -> Graph:
    """Parse edge-list text; '#' starts a comment, blank lines are skipped.

    A header vertex count above MAX_VERTICES is rejected at once.  Each line
    is split once and an edge line's two ends are kept flat; the edge rule
    of _graph_from_ends runs after every line has parsed, so a format error
    on any line is reported before a bad edge on an earlier one.
    """
    n = None
    ends = []  # u0, v0, u1, v1, ...
    for lineno, raw in enumerate(text.splitlines(), start=1):
        fields = raw.partition("#")[0].split()
        try:
            if len(fields) == 2 and n is not None:
                ends.append(int(fields[0]))
                ends.append(int(fields[1]))
                continue
            values = [int(f) for f in fields]
        except ValueError as exc:
            raise ValueError(f"line {lineno}: expected integers, got {raw!r}") from exc
        if not values:
            continue
        if n is not None:
            raise ValueError(f"line {lineno}: expected 'u v', got {raw!r}")
        if len(values) != 1:
            raise ValueError(f"line {lineno}: expected a single vertex count, got {raw!r}")
        n = check_vertex_count(values[0])
    if n is None:
        raise ValueError("empty edge-list input")
    return _graph_from_ends(n, ends)


def graph_to_json_dict(g: Graph) -> dict:
    return {"n": g.n, "edges": [[u, v] for u, v in g.edges()]}


def graph_from_json_dict(data: dict) -> Graph:
    check_fields(data, "graph JSON", ("n", "edges"))
    n, edges = data["n"], data["edges"]
    check_vertex_count(n)
    if not isinstance(edges, list) or not all(isinstance(e, list) and len(e) == 2 for e in edges):
        raise ValueError("graph JSON 'edges' must be an array of [u, v] arrays")
    return new_graph(n, edges)


def read_input(path, parse):
    """parse applied to the text of the file at path: the one reader of every input file.

    The reading twin of write_text: the file is opened unbuffered in binary,
    read whole and decoded as strict UTF-8, with no text layer and no locale
    lookup.  Line ends are kept as they are.  Any ValueError from the bytes
    or from parse (JSON syntax, nesting too deep, shape or range) is raised
    as ValueError("<path>: <message>"); an OSError passes unchanged.
    """
    with open(path, "rb", buffering=0) as f:
        data = f.readall()
    try:
        return parse(data.decode("utf-8"))
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc
    except RecursionError:
        raise ValueError(f"{path}: nested too deeply to parse") from None


def write_text(path, text: str) -> None:
    """Write text to path as UTF-8, rewriting an existing file in place.

    A new file is created with mode 0o666 less the umask.  An existing
    regular file is overwritten from its start and then cut to the bytes
    written, also when a write fails partway.  Opening without O_TRUNC
    saves time only on an existing non-empty file: on ext4, truncating it
    to zero frees its block and starts writeback at close.  A device or
    FIFO (/dev/null, /dev/stdout) is written and never truncated.

    Nothing is fsynced, and a rewrite is not ordered before the change of
    length: after a crash, or to a concurrent reader, a rewritten file can
    hold old and new bytes mixed, where a truncating write would leave the
    new content or an empty file.
    """
    data = memoryview(text.encode("utf-8"))
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    written = 0
    try:
        while written < len(data):
            written += os.write(fd, data[written:])
    finally:
        try:
            if stat.S_ISREG(os.fstat(fd).st_mode):
                os.ftruncate(fd, written)
        finally:
            os.close(fd)


def write_edge_list(g: Graph, path) -> None:
    write_text(path, format_edge_list(g))


def load_graph(path) -> Graph:
    """Read a graph file in either edge-list or JSON form (sniffed by content).

    The file is read by read_input, so every error about its bytes or
    content starts with its path.  Files declaring more than MAX_VERTICES
    vertices are rejected before the graph is built.
    """
    return read_input(path, _parse_graph)


def _parse_graph(text: str) -> Graph:
    if text.lstrip()[:1] == "{":
        return graph_from_json_dict(json.loads(text))
    return parse_edge_list(text)
