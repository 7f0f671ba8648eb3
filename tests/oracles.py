"""Naive reference implementations used to cross-check the optimized code.

The oracle_* functions enumerate subsets explicitly through itertools and
plain Python sets: no bitmasks, no pruning, no memoization, no early exits.
Deliberately slow and obviously correct.

The scan_* functions are the canonical-order reference for certificates:
the pruned level scan with a binary search over r that the certifier used
before its subset-table kernel.  They fix which witness pair is reported.

loop_wmsr_step is the per-agent Python W-MSR update that preceded the
vectorised one; it fixes every bit of an update's result.
"""

from itertools import combinations

import numpy as np
from hypothesis import strategies as st

from robustnet import new_graph
from robustnet.graph import bits


def all_nonempty_subsets(n):
    for k in range(1, n + 1):
        for combo in combinations(range(n), k):
            yield frozenset(combo)


def disjoint_pairs(n):
    """Every unordered pair of disjoint nonempty subsets, exactly once."""
    subsets = list(all_nonempty_subsets(n))
    for a in subsets:
        for b in subsets:
            if not (a & b) and min(a) < min(b):
                yield a, b


def subset_reachability(g, s):
    return max(len(g.neighbors(i) - s) for i in s)


def oracle_r_max(g):
    if g.n == 1:
        return 1  # no pair exists; ceiling convention
    return min(
        max(subset_reachability(g, a), subset_reachability(g, b))
        for a, b in disjoint_pairs(g.n)
    )


def oracle_is_r_robust(g, r):
    if r == 0:
        return True
    return all(
        max(subset_reachability(g, a), subset_reachability(g, b)) >= r
        for a, b in disjoint_pairs(g.n)
    )


def _scan_reach(rows, mask):
    best = 0
    outside = ~mask
    remaining = mask
    while remaining:
        low = remaining & -remaining
        remaining ^= low
        d = (rows[low.bit_length() - 1] & outside).bit_count()
        if d > best:
            best = d
    return best


def _level_scan(g, r, memo):
    """First pair, in the canonical order, with both sides below level r.

    S1 ascends over all nonempty masks; within it S2 ascends over the
    submasks of the complement above S1's smallest member, so each
    unordered pair is visited once.  Returns (robust, masks, pairs).
    """
    if r <= 0:
        return True, None, 0
    rows = g.rows
    full = g.full_mask
    pairs = 0
    for m1 in range(1, full + 1):
        r1 = memo[m1]
        if r1 == 0xFF:
            r1 = memo[m1] = _scan_reach(rows, m1)
        if r1 >= r:
            continue
        low = (m1 & -m1).bit_length() - 1
        allowed = ~m1 & full & ~((1 << (low + 1)) - 1)
        s2 = 0
        while True:
            s2 = (s2 - allowed) & allowed
            if not s2:
                break
            pairs += 1
            r2 = memo[s2]
            if r2 == 0xFF:
                r2 = memo[s2] = _scan_reach(rows, s2)
            if r2 < r:
                return False, (m1, s2), pairs
    return True, None, pairs


def _witness(masks):
    if masks is None:
        return None
    return frozenset(bits(masks[0])), frozenset(bits(masks[1]))


def scan_is_r_robust(g, r):
    """(verdict, witness) as is_r_robust must report them."""
    if r == 0:
        return True, None
    robust, masks, _ = _level_scan(g, r, bytearray(b"\xff") * (1 << g.n))
    return robust, _witness(masks)


def scan_max_robustness(g):
    """(r_max, witness) as max_robustness must report them: a binary search
    over levels capped at min(ceil(n/2), min degree), then the first
    violating pair at level r_max + 1."""
    if g.n == 1:
        return 1, None
    memo = bytearray(b"\xff") * (1 << g.n)
    outcomes = {}

    def scan(level):
        robust, masks, _ = _level_scan(g, level, memo)
        outcomes[level] = (robust, masks)
        return robust

    cap = min((g.n + 1) // 2, g.min_degree())
    r_max = 0
    if cap >= 1:
        if scan(cap):
            r_max = cap
        else:
            lo, hi = 0, cap - 1
            while lo < hi:
                mid = (lo + hi + 1) // 2
                if scan(mid):
                    lo = mid
                else:
                    hi = mid - 1
            r_max = lo
    if (r_max + 1) not in outcomes:
        scan(r_max + 1)
    robust_above, masks = outcomes[r_max + 1]
    assert not robust_above
    return r_max, _witness(masks)


def loop_wmsr_step(g, states, f, normal):
    """W-MSR one agent at a time: sort each side, list.remove the extremes.

    The survivors are added by the builtin sum, left to right in neighbor
    order: they are numpy scalars, which the compensated summation newer
    Pythons use for exact floats never applies to.
    """
    x = np.asarray(states, dtype=float)
    neighbor_lists = [list(bits(row)) for row in g.rows]
    out = x.copy()
    for i in sorted(set(normal)):
        own = x[i]
        vals = [x[j] for j in neighbor_lists[i]]
        above = sorted((v for v in vals if v > own), reverse=True)
        below = sorted(v for v in vals if v < own)
        kept = list(vals)
        for v in above[:f]:
            kept.remove(v)
        for v in below[:f]:
            kept.remove(v)
        out[i] = (own + sum(kept)) / (len(kept) + 1)
    return out


def oracle_densest_subset(g, k):
    best_set = None
    best_count = -1
    for combo in combinations(range(g.n), k):
        count = sum(1 for u, v in combinations(combo, 2) if g.has_edge(u, v))
        if count > best_count:
            best_set, best_count = frozenset(combo), count
    return best_set, best_count


def has_clique_of_size(g, k):
    if k <= 0:
        return True
    if k > g.n:
        return False
    return any(
        all(g.has_edge(u, v) for u, v in combinations(combo, 2))
        for combo in combinations(range(g.n), k)
    )


def oracle_max_clique_size(g):
    for k in range(g.n, 1, -1):
        if has_clique_of_size(g, k):
            return k
    return 1


def random_graph(rng, n, p):
    edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p]
    return new_graph(n, edges)


@st.composite
def small_graphs(draw, max_vertices):
    """Hypothesis strategy: 1..max_vertices vertices, each pair an edge or not."""
    n = draw(st.integers(1, max_vertices))
    pairs = list(combinations(range(n), 2))
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return new_graph(n, [pair for pair, kept in zip(pairs, keep) if kept])


def complete_graph(n):
    return new_graph(n, list(combinations(range(n), 2)))


def cycle_graph(n):
    return new_graph(n, [(i, (i + 1) % n) for i in range(n)])


def path_graph(n):
    return new_graph(n, [(i, i + 1) for i in range(n - 1)])
