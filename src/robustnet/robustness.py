"""Exact r-reachability and r-robustness certification plus edge lower bounds.

A vertex subset S is r-reachable when some member has at least r neighbors
outside S.  A graph is r-robust when, for every pair of disjoint nonempty
vertex subsets, at least one side is r-reachable; the maximum attainable
level on n vertices is ceil(n/2).

The certifier works on two tables over all 2^n vertex masks: reach[m], the
reachability of subset m, and best[m], the smallest reach over the nonempty
submasks of m, which one min-zeta (subset-sum) transform computes from
reach in O(n 2^n).  For a fixed S1 the best partner S2 is best[V - S1], so

    r_max = min over nonempty proper S1 of max(reach[S1], best[V - S1]),

and the graph is r-robust exactly when no S1 has both values below r.
Both questions are answered from the same tables; the witness is read
from them in the canonical order described at _violating_pair.  The tables
are built for a stack of graphs on one n at a time, so robustness_levels
certifies many graphs with one pass of the same kernel.  The half of the
reach build that does not depend on the graph (each mask part's
complements and the -32 term of non-members) is made on first use of each
n and cached read-only: about 42 KB at n = 16, 0.8 MB at n = 20 and
1.5 MB if every n up to MAX_EXACT_N is used.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .graph import (MAX_EXACT_N, Graph, bits, check_exact_n, check_int,
                    densest_subset_of_size, max_clique)

ODD_CASE = "odd-case"
EVEN_CASE = "even-case"
GENERAL_COROLLARY = "general-corollary"
MIN_DEGREE = "min-degree"

_NONE = np.int8(127)  # table entry of the empty mask, above every reach
_LOW_BITS = 5  # mask bits whose transform passes run on the transposed table
_CHUNK = 1 << 17  # entries in one vertex chunk of the reach build
_BLOCK = 1 << 12  # S1 masks screened per round of the witness search

WitnessPair = tuple[frozenset[int], frozenset[int]]


@dataclass(frozen=True)
class RobustnessCertificate:
    """Exact maximum robustness with a witness pair proving it is maximal.

    The witness is a disjoint nonempty pair in which neither side is
    (r_max + 1)-reachable; it is absent only for the single-vertex graph,
    where no valid pair exists and r_max = 1 is adopted from the ceil(n/2)
    ceiling convention.  pairs_examined counts the S1 candidates evaluated
    (diagnostics): every nonempty proper subset, 2^n - 2, and 0 for n = 1.
    """

    r_max: int
    witness: Optional[WitnessPair]
    pairs_examined: int

    def to_json_dict(self) -> dict:
        witness = None
        if self.witness is not None:
            s1, s2 = self.witness
            witness = {"s1": sorted(s1), "s2": sorted(s2)}
        return {
            "r_max": self.r_max,
            "witness": witness,
            "pairs_examined": self.pairs_examined,
        }

    def to_json_text(self) -> str:
        """Exactly json.dumps(self.to_json_dict(), indent=2) + "\\n", built
        directly: json.dumps with an indent always runs the pure-Python encoder."""
        witness = "null"
        if self.witness is not None:
            s1, s2 = (_json_int_list(sorted(side)) for side in self.witness)
            witness = f'{{\n    "s1": {s1},\n    "s2": {s2}\n  }}'
        return (f'{{\n  "r_max": {self.r_max},\n  "witness": {witness},\n'
                f'  "pairs_examined": {self.pairs_examined}\n}}\n')


def _json_int_list(values) -> str:
    """A list of ints as json.dumps(..., indent=2) writes it at depth 2."""
    if not values:
        return "[]"
    return "[\n      " + ",\n      ".join(map(str, values)) + "\n    ]"


@dataclass(frozen=True)
class BoundReport:
    """Lower bound on the edge count of any r-robust graph on n vertices."""

    n: int
    r: int
    bound: int
    kind: str


@dataclass(frozen=True)
class LemmaCheck:
    """One structural requirement: found must be at least required."""

    name: str
    required: int
    found: int
    witness: frozenset[int]

    @property
    def passed(self) -> bool:
        return self.found >= self.required


@dataclass(frozen=True)
class StructuralReport:
    n: int
    r: int
    checks: tuple[LemmaCheck, ...]

    @property
    def all_passed(self) -> bool:
        return all(check.passed for check in self.checks)


def reachability(g: Graph, members) -> int:
    """Largest r for which the subset is r-reachable.

    Equals the maximum, over the subset's members, of the number of their
    neighbors outside the subset.  The empty set is rejected.
    """
    mask = g.subset_mask(members)
    if mask == 0:
        raise ValueError("reachability of the empty set is undefined")
    return max((g.rows[v] & ~mask).bit_count() for v in bits(mask))


def _min_zeta(table, positions) -> None:
    """In place: table[..., m] becomes the minimum of table[..., :] over the
    submasks of m that differ from m only at the given bit positions of the
    last axis's index."""
    lead = table.shape[:-1]
    for p in positions:
        pairs = table.reshape(*lead, -1, 2, 1 << p)
        np.minimum(pairs[..., 1, :], pairs[..., 0, :], out=pairs[..., 1, :])


@functools.cache
def _reach_terms(n: int):
    """The half of the reach build that does not depend on the graph.

    For the low k = min(n, _LOW_BITS) bits of a mask and for the rest, a
    pair (outside, penalty): outside[j] is the complement, within that
    part's bits, of the part's j-th value (contiguous int32), and
    penalty[v, j] is -32 where vertex v lies in outside[j] and 0 elsewhere
    (int8).  Both are read-only, and made on the first call for each n.
    """
    k = min(n, _LOW_BITS)
    vertex = np.left_shift(1, np.arange(n, dtype=np.int32))[:, None]
    terms = []
    for part in (np.arange(1 << k, dtype=np.int32), np.arange(0, 1 << n, 1 << k, dtype=np.int32)):
        outside = part[::-1].copy()
        penalty = np.where(vertex & outside, np.int8(-32), np.int8(0))
        outside.flags.writeable = penalty.flags.writeable = False
        terms.append((outside, penalty))
    return tuple(terms)


def _subset_tables(rows):
    """reach, best and pair tables over every vertex mask m, as (B, 2^n) int8
    arrays, for a (B, n) stack of adjacency rows of B graphs on n vertices.

    reach[b, m] is the reachability of subset m in graph b and best[b, m]
    the smallest reach over the nonempty submasks of m; entry 0 of both is
    _NONE.  pair[b, m] is max(reach[b, m], best[b, ~m]), the best pair with
    S1 = m.

    Mask m is split into its low k bits and the rest.  Vertex v's count of
    neighbors outside m is the sum of a term over each part, so each vertex
    adds one outer sum of two short vectors; a non-member also gets -32 on
    its own part, which keeps it below every member.  The complements and
    the -32 terms do not depend on the graph: _reach_terms makes them
    read-only on the first call for each n and keeps them (about 42 KB at
    n = 16), so a call only counts each row's neighbors in them.  The
    tables are built transposed, as [low, high], so that the transform
    passes over the low bits run along whole rows; those over the high bits
    then run in mask order, along 2^k or more entries.
    """
    rows = np.array(rows, dtype=np.int32)[:, :, None]
    graphs, n = rows.shape[:2]
    k = min(n, _LOW_BITS)
    # counts are at most n - 1 < 32, so count - 32 fits int8
    low, high = (np.bitwise_count(rows & outside).view(np.int8) + penalty
                 for outside, penalty in _reach_terms(n))
    step = max(1, _CHUNK // (graphs << n))
    chunks = ((low[:, s:s + step, :, None] + high[:, s:s + step, None, :]).max(axis=1)
              for s in range(0, n, step))
    reach = next(chunks)
    for chunk in chunks:
        np.maximum(reach, chunk, out=reach)
    reach[:, 0, 0] = _NONE
    best = reach.copy()
    _min_zeta(best.reshape(graphs, -1), range(n - k, n))
    reach = reach.transpose(0, 2, 1).reshape(graphs, -1)
    best = best.transpose(0, 2, 1).reshape(graphs, -1)
    _min_zeta(best, range(k, n))
    # best[~m] reads best backwards: copied as byte-swapped words of up to 8
    # bytes in reverse order, faster than through a negative stride
    pair = best.view(f"u{min(8, 1 << n)}")[:, ::-1].byteswap().view(np.int8)
    np.maximum(pair, reach, out=pair)
    return reach, best, pair


def _violating_pair(reach, best, pair, t: int):
    """First (S1, S2) mask pair, in the canonical order, with both reaches <= t.

    The order is S1 ascending, then S2 ascending over the submasks of
    allowed(S1), the complement of S1 above its lowest bit.  S1 qualifies
    when reach[S1] <= t and best[allowed(S1)] <= t; since allowed(S1) lies
    in the complement, pair[S1] <= t screens candidates first, a block of
    masks at a time.  S2 is then the first submask of allowed(S1) with
    reach <= t, which best[allowed(S1)] <= t guarantees to exist.  Returns
    None when no pair exists.
    """
    full = reach.size - 1
    reach, best = memoryview(reach), memoryview(best)
    for start in range(0, full + 1, _BLOCK):
        for i in (pair[start:start + _BLOCK] <= t).nonzero()[0].tolist():
            s1 = start + i
            allowed = (full ^ s1) & -((s1 & -s1) << 1)
            if best[allowed] <= t:
                s2 = 0
                while True:
                    s2 = (s2 - allowed) & allowed  # next submask, ascending
                    if reach[s2] <= t:
                        return s1, s2
    return None


def _masks_to_witness(pair) -> Optional[WitnessPair]:
    if pair is None:
        return None
    m1, m2 = pair
    return frozenset(bits(m1)), frozenset(bits(m2))


def is_r_robust(g: Graph, r: int) -> tuple[bool, Optional[WitnessPair]]:
    """Decide r-robustness; on failure also return a violating pair.

    The witness is the first pair, in the canonical enumeration order, in
    which neither side is r-reachable.  r = 0 is vacuously satisfied by any
    graph, as is every level on the single-vertex graph (no pair exists).
    """
    if check_int(r, "robustness level") == 0:
        return True, None
    check_exact_n(g.n, "exact certification")
    reach, best, pair = (table[0] for table in _subset_tables([g.rows]))
    # reach never exceeds n - 1, so clamping keeps the int8 comparison exact
    masks = _violating_pair(reach, best, pair, min(r - 1, g.n))
    return masks is None, _masks_to_witness(masks)


def max_robustness(g: Graph) -> RobustnessCertificate:
    """Certify the exact maximum r for which the graph is r-robust.

    r_max is the minimum, over disjoint nonempty pairs, of the larger side
    reachability.  The witness is the first pair in the canonical
    enumeration order that attains it, which is the pair is_r_robust reports
    at level r_max + 1, so certificates are reproducible.
    """
    check_exact_n(g.n, "exact certification")
    reach, best, pair = (table[0] for table in _subset_tables([g.rows]))
    # The ceil(n/2) ceiling binds only at n = 1, where no disjoint nonempty
    # pair exists and every pair entry is _NONE.
    r_max = min(int(pair.min()), (g.n + 1) // 2)
    return RobustnessCertificate(
        r_max=r_max,
        witness=_masks_to_witness(_violating_pair(reach, best, pair, r_max)),
        pairs_examined=reach.size - 2,
    )


def robustness_levels(graphs) -> list[int]:
    """r_max of each graph in a sequence of graphs on the same n, no witness.

    Equals [max_robustness(g).r_max for g in graphs], with the same
    single-vertex convention and capability limit, but certifies the stack
    with one pass of the subset-table kernel per slice of B graphs, where
    B * 2^n <= 2^MAX_EXACT_N: no slice takes more memory than one
    certification at the limit, however many graphs are given.
    """
    if not graphs:
        return []
    n = graphs[0].n
    if any(g.n != n for g in graphs):
        raise ValueError("robustness_levels needs graphs with one vertex count")
    check_exact_n(n, "exact certification")
    step = (1 << MAX_EXACT_N) >> n
    levels = []
    for start in range(0, len(graphs), step):
        rows = [g.rows for g in graphs[start:start + step]]
        levels += _subset_tables(rows)[2].min(axis=1).tolist()
    return np.minimum(levels, (n + 1) // 2).tolist()


def edge_lower_bound(n: int, r: int) -> BoundReport:
    """Fewest edges any r-robust graph on n vertices can have.

    n = 2r-1 and n = 2r get the tight extremal bounds.  For n > 2r the
    bound is the larger of the general 3r(r-1)/2 bound, valid for every
    r-robust graph regardless of size, and ceil(rn/2) from the minimum
    degree: in the pair S1 = {v}, S2 = V - {v}, S2 is at most 1-reachable,
    and only through v's edges, so deg(v) >= r.  Neither is claimed tight.
    """
    check_int(n, "vertex count of an r-robust graph", 2 * check_int(r, "robustness level", 1) - 1)
    if n == 2 * r - 1:
        return BoundReport(n=n, r=r, bound=3 * r * (r - 1) // 2, kind=ODD_CASE)
    if n == 2 * r:
        return BoundReport(n=n, r=r, bound=(r * (3 * r - 2) + 2) // 2, kind=EVEN_CASE)
    general, degree = 3 * r * (r - 1) // 2, (r * n + 1) // 2
    if degree > general:
        return BoundReport(n=n, r=r, bound=degree, kind=MIN_DEGREE)
    return BoundReport(n=n, r=r, bound=general, kind=GENERAL_COROLLARY)


def check_structural_lemmas(g: Graph) -> StructuralReport:
    """Clique and dense-subgraph structure of an r-robust graph at the ceiling r = ceil(n/2).

    On 2r-1 >= 3 vertices: an (r+1)-clique.  On 2r vertices: a floor((r+4)/2)-clique
    and an (r+1)-vertex induced subgraph with at least floor((r^2+2)/2) edges.  The
    single vertex, 1-robust only by convention, gets no check.  Each check is an
    unconditional search reported with its witness.  Limited to n <= MAX_EXACT_N.
    """
    check_exact_n(g.n, "check_structural_lemmas")
    r = (g.n + 1) // 2
    clique = max_clique(g)
    if g.n % 2:
        checks = (LemmaCheck("clique", r + 1, len(clique), clique),) if r > 1 else ()
    else:
        subset, count = densest_subset_of_size(g, r + 1)
        checks = (LemmaCheck("clique", (r + 4) // 2, len(clique), clique),
                  LemmaCheck("dense-subset", (r * r + 2) // 2, count, subset))
    return StructuralReport(n=g.n, r=r, checks=checks)
