"""Immutable simple undirected graphs with bitset adjacency rows.

Vertices are the integers 0..n-1.  Row i is an integer whose bit j is set
iff (i, j) is an edge.  This keeps adjacency queries O(1) and lets the
subset-heavy callers (clique search, robustness certification) manipulate
whole vertex sets with single bitwise operations.  Vertex subsets cross the
public API as frozensets or iterables of ints; beyond a Graph's own rows, no
mask leaves the graph code.
"""

from __future__ import annotations

import json
import os
import re
import stat
import sys
from dataclasses import dataclass
from itertools import islice
from numbers import Real
from typing import Iterable, Iterator, Optional

import numpy as np

# Loaders refuse larger declared vertex counts before sizing anything by
# them; 2^14 agents over a 500-step simulation is a trace of about 66 MB.
MAX_VERTICES = 1 << 14

# The only limit of the exact searches over all 2^n vertex subsets (the
# certifier, densest_subset_of_size and max_clique): over the 2^20 subsets of
# n = 20 the first two peak at 3.6 and 5.0 MiB under tracemalloc.
MAX_EXACT_N = 20

# read_input refuses a longer threat or config file before parsing it.  A
# threat with a behaviour of three full-precision parameters for each of
# MAX_VERTICES vertices takes 2.0 MB as compact JSON and 2.6 MB indented.
MAX_INPUT_BYTES = 1 << 22

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
    # float first: the Real ABC check alone costs about 1 us a call.  A numpy
    # scalar is compared as its Python value: a float16 would cast the bound to inf.
    if (type(value) is bool or not isinstance(value, (float, Real))
            or not abs(value.item() if isinstance(value, np.generic) else value) <= _FLOAT_MAX):
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


def set_bit_columns(rows: Iterable[int], n: int) -> np.ndarray:
    """The indices of the set bits of each row in turn, ascending within a row.

    The rows, each below 2**n, are packed (n + 7) // 8 bytes each and only
    their nonzero bytes are unpacked, so past the packing the cost follows
    the set bits, not n.
    """
    nbytes = (n + 7) >> 3
    packed = np.frombuffer(b"".join(row.to_bytes(nbytes, "little") for row in rows), np.uint8)
    # flatnonzero of a bool array: on uint8 it takes numpy's slower generic path
    at = np.flatnonzero(packed != 0)
    # bit 8k + b of the unpacked nonzero bytes is bit b of byte at[k]
    set_bits = np.flatnonzero(np.unpackbits(packed[at], bitorder="little").view(bool))
    return (at % nbytes * 8)[set_bits >> 3] + (set_bits & 7)


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

    def has_edge(self, u: int, v: int) -> bool:
        self._check_vertex(u)
        self._check_vertex(v)
        return bool(self.rows[u] >> v & 1)

    def degree(self, i: int) -> int:
        self._check_vertex(i)
        return self.rows[i].bit_count()

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
    if not isinstance(edges, Iterable):  # a lone number or None
        raise ValueError(f"edges must be pairs of integers, got {edges!r}")
    ends = []
    for pair in edges:
        try:
            u, v = pair
        except (TypeError, ValueError):  # not iterable, or not two items
            u = v = None
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

    grow([], (1 << g.n) - 1)
    return frozenset(best)


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
    edges = np.zeros(size, dtype=np.uint8)  # C(n, 2) + 1 at most: fits uint8 up to n = 23
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

# Bits of the rows format_edge_list unpacks at once, n a row, so that its
# arrays and the ends it lists stay O(this) at any n.
_WRITE_BLOCK_BITS = 1 << 17
# Characters write_text encodes at once, so a file's UTF-8 copy is held a slice at a time.
_WRITE_SLICE_CHARS = 1 << 20


def format_edge_list(g: Graph) -> str:
    """Edge-list text: first line n, then one 'u v' line per edge, sorted.

    Rows are read in blocks of about _WRITE_BLOCK_BITS bits: set_bit_columns
    finds each block's edges, which are listed by precomputed vertex labels,
    and the block's lines are joined before the next block is read.  So
    next to the text only one block's arrays and lines are alive, never an
    int or a line for every edge.
    """
    n = g.n
    labels = np.array([str(v) for v in range(n)], dtype=object)
    step = max(1, _WRITE_BLOCK_BITS // n)
    blocks = [str(n)]
    for u0 in range(0, n, step):
        upper = [row >> s << s for s, row in enumerate(g.rows[u0:u0 + step], u0 + 1)]  # columns above u
        ends = iter(labels[set_bit_columns(upper, n)].tolist())  # the labels themselves: no int a bit
        # one join a row: u's lines after the first start at the separator
        lines = [f"{u} " + f"\n{u} ".join(islice(ends, row.bit_count()))
                 for u, row in enumerate(upper, u0) if row]
        if lines:
            blocks.append("\n".join(lines))
    blocks.append("")
    return "\n".join(blocks)


def parse_edge_list(text: str) -> Graph:
    """Parse edge-list text; '#' starts a comment, blank lines are skipped.

    The line parser: a header vertex count above MAX_VERTICES is rejected
    at once, and the edge rule of _graph_from_ends runs after every line has
    parsed, so a format error on any line is reported before a bad edge on
    an earlier one.  load_graph reads files by the same rules a block at a
    time.
    """
    n, ends, _ = _parse_lines(text, None, 0)
    if n is None:
        raise ValueError("empty edge-list input")
    return _graph_from_ends(n, ends)


def _parse_lines(text: str, n: Optional[int], lineno: int) -> tuple[Optional[int], list[int], int]:
    """(n, ends, lineno) after the lines of text, numbered on from lineno.

    n is the vertex count once the header is read (None before it), ends
    the two ends of each edge line, flat, and lineno the number of the
    last line.  Each line is split once; a format error is raised at its line.
    """
    ends = []  # u0, v0, u1, v1, ...
    for lineno, raw in enumerate(text.splitlines(), start=lineno + 1):
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
    return n, ends, lineno


def parse_json(text: str):
    """The value of JSON text: parse_edge_list's twin, refusing a key given twice in an object."""
    try:
        return json.loads(text, object_pairs_hook=_dict_of_unique_keys)
    except RecursionError:
        raise ValueError("nested too deeply to parse") from None


def _dict_of_unique_keys(pairs: list) -> dict:
    if len(data := dict(pairs)) < len(pairs):
        seen = set()  # names the first key given twice: set.add returns None
        key = next(key for key, _ in pairs if key in seen or seen.add(key))
        raise ValueError(f"a JSON object names a key twice: {key!r}")
    return data


def graph_from_json_dict(data: dict) -> Graph:
    check_fields(data, "graph JSON", ("n", "edges"))
    n, edges = data["n"], data["edges"]
    check_vertex_count(n)
    if not isinstance(edges, list) or not all(isinstance(e, list) and len(e) == 2 for e in edges):
        raise ValueError("graph JSON 'edges' must be an array of [u, v] arrays")
    return new_graph(n, edges)


def read_input(path, parse):
    """parse applied to the text of the file at path: the reader of every input
    file but the graph files of load_graph.

    The reading twin of write_text: the file is opened unbuffered in binary,
    read whole and decoded as strict UTF-8, with no text layer and no locale
    lookup.  A file of more than MAX_INPUT_BYTES is refused after reading
    one byte past the limit, so an endless input such as /dev/zero is
    refused too.  One leading byte-order mark is skipped; line ends are kept
    as they are.  Any ValueError from the bytes or from parse (JSON syntax
    or nesting, a repeated key, shape or range, the length) is raised as
    ValueError("<path>: <message>"); an OSError passes unchanged.
    """
    return _read_file(path, lambda f: parse(_decode(*_skip_bom(_read_capped(f)))))


def _read_capped(f) -> bytes:
    """All of f's bytes, or ValueError if there are more than MAX_INPUT_BYTES."""
    data, eof = _read_head(f, MAX_INPUT_BYTES + 1)
    if not eof:
        raise ValueError(f"longer than the {MAX_INPUT_BYTES}-byte limit of an input file")
    return data


def _read_file(path, read):
    """read applied to the file at path, opened unbuffered in binary, each
    ValueError raised as ValueError("<path>: <message>")."""
    with open(path, "rb", buffering=0) as f:
        try:
            return read(f)
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from exc


_BOM = b"\xef\xbb\xbf"  # U+FEFF in UTF-8


def _skip_bom(data: bytes) -> tuple[bytes, int]:
    """data without one leading byte-order mark, and the offset of what is left."""
    return (data[3:], 3) if data.startswith(_BOM) else (data, 0)


def _decode(data: bytes, offset: int = 0) -> str:
    """data decoded as strict UTF-8; bytes that are not UTF-8 raise ValueError with
    their position in the file, data being its bytes from offset on."""
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        # str(exc)'s wording, counted from the start of the file
        start, end = exc.start + offset, exc.end + offset
        where = (f"byte 0x{data[exc.start]:02x} in position {start}" if end - start == 1
                 else f"bytes in position {start}-{end - 1}")
        raise ValueError(f"'utf-8' codec can't decode {where}: {exc.reason}") from exc


def write_text(path, text: str) -> None:
    """Write text to path as UTF-8, rewriting an existing file in place.

    The text is encoded and written _WRITE_SLICE_CHARS characters at a
    time; a text of one slice is encoded whole, without a copy.  A new file
    is created with mode 0o666 less the umask.  An existing regular file is
    overwritten from its start and then cut to the bytes written, also when
    an encode or a write fails partway.  Opening without O_TRUNC saves time
    only on an existing non-empty file: on ext4, truncating it to zero frees
    its block and starts writeback at close.  A device or FIFO (/dev/null,
    /dev/stdout) is written and never truncated.

    Nothing is fsynced, and a rewrite is not ordered before the change of
    length: after a crash, or to a concurrent reader, a rewritten file can
    hold old and new bytes mixed, where a truncating write would leave the
    new content or an empty file.
    """
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    written = 0
    try:
        for start in range(0, len(text), _WRITE_SLICE_CHARS):
            data = memoryview(text[start:start + _WRITE_SLICE_CHARS].encode("utf-8"))
            while data:
                written += (count := os.write(fd, data))
                data = data[count:]
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

    Read by _read_file, so every error about the file's bytes or content
    starts with its path.  One leading byte-order mark is skipped.  A file
    whose first block (_READ_BLOCK_BYTES) starts with '{' after whitespace
    is read whole as JSON; any other is an edge list, read a block at a
    time by _read_edge_list.  Files declaring more than MAX_VERTICES
    vertices are rejected before the graph is built.
    """
    return _read_file(path, _read_graph)


def _read_graph(f) -> Graph:
    data, eof = _read_head(f, _READ_BLOCK_BYTES)
    data, offset = _skip_bom(data)
    if str(data, "utf-8", "replace").lstrip()[:1] == "{":
        text = _decode(data if eof else data + f.readall(), offset)
        return graph_from_json_dict(parse_json(text))
    return _read_edge_list(f, data, eof, offset)


# Bytes the edge-list reader holds of a file at once: a block is cut after
# its last line break, so a line must fit in one.
_READ_BLOCK_BYTES = 1 << 20
# The line breaks str.splitlines knows besides "\n", in UTF-8: each is a
# whole character, so a block cut after one decodes on its own.
_OTHER_BREAKS = (b"\r", b"\x0b", b"\x0c", b"\x1c", b"\x1d", b"\x1e",
                 b"\xc2\x85", b"\xe2\x80\xa8", b"\xe2\x80\xa9")
# A header line, after blank lines, that the line parser reads as int(token).
_PLAIN_HEADER = re.compile(rb"[ \n]*([0-9]{1,18}) *(?:\n|\Z)")
_DIGITS = b"0123456789"
_DIGITS_TO_ZEROS = bytes.maketrans(_DIGITS, b"0" * 10)
# Up to this many vertices the reader's rows are a bool matrix, a byte a
# pair (16 MiB here); above it, packed bits, which np.bitwise_or.at fills
# about eight times slower.
_BOOL_ROWS_N = 1 << 12


def _read_head(f, limit: int) -> tuple[bytes, bool]:
    """The first limit bytes of f, and whether f has ended.  A small file is
    read by the size it has: no limit-sized buffer is allocated for it."""
    size = os.fstat(f.fileno()).st_size  # 0 for a pipe or a device
    return _read_block(f, b"", size + 1 if 0 < size < limit else limit, limit)


def _read_block(f, carry: bytes, step: int, limit: int) -> tuple[bytes, bool]:
    """carry and the next bytes of f, up to limit in all, read at most step
    bytes a call, and whether f has ended."""
    parts = [carry] if carry else []
    size = len(carry)
    while size < limit:
        part = f.read(min(step, limit - size))
        if not part:
            return b"".join(parts), True
        parts.append(part)
        size += len(part)
    return b"".join(parts), False


def _read_edge_list(f, data: bytes, eof: bool, offset: int) -> Graph:
    """The graph of an edge list: data, at offset in the file, then the rest of f.

    The file is read in blocks of at most _READ_BLOCK_BYTES, each cut after
    its last line break; a line that does not fit in a block is refused.  A
    plain block, one of whole 'u v' lines as format_edge_list writes them
    (_plain_ends), is parsed by np.fromstring and its edges are checked by
    array; any other block, and a plain block holding a faulty edge, is
    decoded and read by the line parser, _parse_lines, with its true line
    numbers.  So the rules, messages and line numbers are the line parser's.
    A block's bytes and lines are checked before the next block is read; the
    first edge that breaks the edge rule is named by _graph_from_ends after
    the last block, as parse_edge_list does.  Besides one block, the reader
    holds the rows: a bool matrix of n bytes a row up to _BOOL_ROWS_N
    vertices, n / 8 bytes a row above.
    """
    n = rows = fault = None
    lineno = 0  # the lines before data
    while data:
        cut = len(data) if eof else data.rfind(b"\n") + 1 or _last_break_end(data)
        if not cut:
            raise ValueError(f"line {lineno + 1}: longer than a block of {_READ_BLOCK_BYTES} bytes")
        body, data = data[:cut], data[cut:]
        if n is None and (header := _PLAIN_HEADER.match(body)):
            n = check_vertex_count(int(header[1]))
            rows = _new_rows(n)
            lineno += body.count(b"\n", 0, header.end())
            offset += header.end()
            body = body[header.end():]
        ends = None if n is None else _plain_ends(body)
        if ends is not None:
            lineno += ends.size >> 1  # a line an edge
            if fault is None:
                fault = _add_edges(rows, n, ends, lambda: _parse_lines(body.decode("ascii"), n, 0)[1])
        else:
            n, listed, lineno = _parse_lines(_decode(body, offset), n, lineno)
            if rows is None and n is not None:
                rows = _new_rows(n)
            if fault is None and listed:
                try:
                    ends = np.array(listed, np.int64)
                except OverflowError:
                    ends = None
                fault = _add_edges(rows, n, ends, lambda: listed)
        offset += len(body)
        if eof:
            break
        data, eof = _read_block(f, data, _READ_BLOCK_BYTES, _READ_BLOCK_BYTES)
    if n is None:
        raise ValueError("empty edge-list input")
    if fault:
        raise ValueError(fault)
    return _graph_from_rows(rows)


def _last_break_end(data: bytes) -> int:
    """The end of the last line break in data other than "\n", or 0 if none.

    A break is not looked for in the last byte: a final "\r" may be the
    start of "\r\n".
    """
    return max((at + len(brk) for brk in _OTHER_BREAKS
                if (at := data.rfind(brk, 0, len(data) - 1)) >= 0), default=0)


def _plain_ends(body: bytes) -> Optional[np.ndarray]:
    """The ends of body's edges, flat, if body is plain, else None.

    Plain is whole lines 'u v' of one space between two runs of at most 18
    ASCII digits, as format_edge_list writes them: np.fromstring reads
    their tokens as int() does, and their format is sure to be right.  The
    bytes that are not digits must alternate ' ' and '\n', so that each
    line has two tokens; np.fromstring must find a token before each of
    them, so that no token is empty; and no 19 digits may run on (int()
    refuses more than about 4,300, and int64 holds 18).
    """
    gaps = body.translate(None, _DIGITS)
    if gaps != b" \n" * (len(gaps) >> 1) or b"0" * 19 in body.translate(_DIGITS_TO_ZEROS):
        return None
    ends = np.fromstring(body, np.int64, sep=" ")
    return ends if ends.size == len(gaps) else None


def _new_rows(n: int) -> np.ndarray:
    """Empty rows for n vertices, each padded to whole 64-bit words."""
    width = -(-n // 64) * 64
    return np.zeros((n, width), bool) if n <= _BOOL_ROWS_N else np.zeros((n, width >> 3), np.uint8)


def _add_edges(rows: np.ndarray, n: int, ends: Optional[np.ndarray], listed) -> Optional[str]:
    """OR the edges (ends[0], ends[1]), (ends[2], ends[3]), ... into rows, both
    ways, and return None; or, if one breaks the edge rule, add none and
    return the message naming the first.

    ends is None when an end does not fit int64.  listed() gives the ends
    as the line parser reads them, for _graph_from_ends to name the edge.
    """
    # an end out of range, a negative one too, reads as an unsigned number of at least n
    if ends is None or ends.size and (ends.view(np.uint64).max() >= n or (ends[0::2] == ends[1::2]).any()):
        try:
            _graph_from_ends(n, listed())
        except ValueError as exc:
            return str(exc)
    u, v = ends[0::2], ends[1::2]
    if rows.dtype == bool:
        rows[u, v] = True
        rows[v, u] = True
    else:  # bit v of row u is bit v & 7 of byte u * width + v >> 3
        heads, tails = np.concatenate((u, v)), np.concatenate((v, u))
        np.bitwise_or.at(rows.reshape(-1), heads * rows.shape[1] + (tails >> 3),
                         np.left_shift(1, tails & 7).astype(np.uint8))
    return None


def _graph_from_rows(rows: np.ndarray) -> Graph:
    """The graph of the reader's rows, which are used up: past one word a
    row, they are read into ints a block at a time from the last, and each
    block is cut off the matrix once read, so the matrix and the ints
    together stay near the size of one of them."""
    if rows.dtype == bool and rows.shape[1] == 64:  # one word a row
        return Graph(tuple(np.packbits(rows, axis=1, bitorder="little").view("<u8").ravel().tolist()))
    step = max(1, _READ_BLOCK_BYTES // rows.shape[1])
    blocks = []
    for end in range(len(rows), 0, -step):
        start = max(0, end - step)
        block = rows[start:end]
        if block.dtype == bool:
            block = np.packbits(block, axis=1, bitorder="little")
        blocks.append([int.from_bytes(row, "little") for row in block])
        del block  # no view of rows may be alive when it is resized
        rows.resize((start, rows.shape[1]), refcheck=False)
    return Graph(tuple(row for block in reversed(blocks) for row in block))
