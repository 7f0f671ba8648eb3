"""Naive reference implementations used to cross-check the optimized code.

The oracle_* functions enumerate subsets explicitly through itertools and
plain Python sets: no bitmasks, no pruning, no early exits.  The only
memoization is one reachability per nonempty subset, kept in a dict keyed
by frozenset, so each pair costs two lookups.  Deliberately slow and
obviously correct.

The scan_* functions are the canonical-order reference for certificates:
the pruned level scan with a binary search over r that the certifier used
before its subset-table kernel.  They fix which witness pair is reported.

loop_wmsr_step is the per-agent Python W-MSR update that preceded the
vectorised one; it fixes every bit of an update's result.

loop_densest_subset is the loop over all k-combinations that preceded the
induced-edge table; it fixes which maximizer is reported.

listcomp_erdos_renyi and loop_run_experiment are the edge-list G(n, p)
sampler and the one-attempt-at-a-time sweep that preceded the row-filling
sampler and the chunked sweep; they fix every graph and every record.

loop_format_edge_list is the edge-list writer that preceded the one join a
row: an f-string per edge from Graph.edges().  It fixes every byte written.

oracle_parse_edge_list is the edge-list parser that preceded the one-pass
reader: a list of ints per line, a (u, v) tuple per edge, and new_graph to
check and place them.  It fixes every graph and every error message.
edge_list_texts draws the texts it is compared on.

DEFAULT_SWEEP_SHA256 is the sha256 of each CSV of the default
ExperimentConfig() sweep, which every sweep path must reproduce.
"""

import random
from itertools import combinations

import numpy as np
from hypothesis import strategies as st

from robustnet import (
    ExperimentRecord,
    SummaryRow,
    derive_seed,
    edge_lower_bound,
    max_robustness,
    new_graph,
)
from robustnet.experiment import NODE_OFFSET_CHOICES
from robustnet.graph import bits, check_vertex_count

DEFAULT_SWEEP_SHA256 = {
    "records.csv": "972cd2a1f06b859138ad6f530de900748e6c8423e72d73148ad9c1e20c8fcf68",
    "summary.csv": "cd993f8c9920f49ddec7b5ed334d473419fe2e78ccff8c85e48610e3fc4b2b96",
}


def all_nonempty_subsets(n):
    for k in range(1, n + 1):
        for combo in combinations(range(n), k):
            yield frozenset(combo)


def disjoint_pairs(n):
    """Every unordered pair of disjoint nonempty subsets, exactly once: S2
    ranges over the nonempty subsets of the vertices outside S1 above min(S1)."""
    for a in all_nonempty_subsets(n):
        rest = [v for v in range(min(a) + 1, n) if v not in a]
        for k in range(1, len(rest) + 1):
            for b in combinations(rest, k):
                yield a, frozenset(b)


def subset_reachability(g, s):
    return max(len(g.neighbors(i) - s) for i in s)


def subset_reachabilities(g):
    """Reachability of every nonempty subset, keyed by frozenset."""
    return {s: subset_reachability(g, s) for s in all_nonempty_subsets(g.n)}


def oracle_r_max(g):
    if g.n == 1:
        return 1  # no pair exists; ceiling convention
    reach = subset_reachabilities(g)
    return min(max(reach[a], reach[b]) for a, b in disjoint_pairs(g.n))


def oracle_is_r_robust(g, r):
    if r == 0:
        return True
    reach = subset_reachabilities(g)
    return all(max(reach[a], reach[b]) >= r for a, b in disjoint_pairs(g.n))


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


def listcomp_erdos_renyi(n, p, seed):
    """erdos_renyi before it filled rows directly: an edge list from one
    random.Random(seed) draw per pair (i, j), i < j, in lexicographic
    order, passed to new_graph."""
    return random_graph(random.Random(seed), n, p)


def loop_run_experiment(config):
    """(records, summary) as run_experiment must return them: each attempt
    drawn by listcomp_erdos_renyi and certified by max_robustness alone."""
    records = []
    summary = []
    offsets = [o for o in NODE_OFFSET_CHOICES if o in config.node_offsets]
    for r in sorted(set(config.r_values)):
        for offset in offsets:
            n = 2 * r - 1 if offset == "2r-1" else 2 * r
            bound = edge_lower_bound(n, r).bound
            accepted_total = 0
            min_edges = None
            for p in sorted(set(config.p_values)):
                accepted = 0
                attempt = 0
                while accepted < config.samples_per_p and attempt < config.max_attempts:
                    seed = derive_seed(config.master_seed, r, n, p, attempt)
                    g = listcomp_erdos_renyi(n, p, seed)
                    cert = max_robustness(g)
                    ok = cert.r_max == r
                    records.append(
                        ExperimentRecord(
                            r=r, n=n, p=p, seed=seed,
                            edge_count=g.edge_count, r_max=cert.r_max, accepted=ok,
                        )
                    )
                    if ok:
                        accepted += 1
                        if min_edges is None or g.edge_count < min_edges:
                            min_edges = g.edge_count
                    attempt += 1
                accepted_total += accepted
            summary.append(
                SummaryRow(
                    r=r,
                    n=n,
                    min_edges_found=min_edges,
                    bound=bound,
                    gap=None if min_edges is None else min_edges - bound,
                    accepted=accepted_total,
                    requested=config.samples_per_p * len(set(config.p_values)),
                )
            )
    return records, summary


def loop_densest_subset(g, k):
    """Exhaustively maximize the induced edge count over all k-subsets.

    Returns the maximizer and its edge count.  Subsets are generated in
    lexicographic order and only strict improvements replace the incumbent,
    so ties break to the lexicographically smallest subset.
    """
    if not isinstance(k, int) or not 1 <= k <= g.n:
        raise ValueError(f"subset size {k!r} out of range for n={g.n}")
    rows = g.rows
    best_set: tuple[int, ...] = ()
    best_count = -1
    for combo in combinations(range(g.n), k):
        mask = 0
        for v in combo:
            mask |= 1 << v
        count = sum((rows[v] & mask).bit_count() for v in combo) // 2
        if count > best_count:
            best_set, best_count = combo, count
    return frozenset(best_set), best_count


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


def oracle_max_clique(g):
    """The first clique in itertools.combinations order at the largest size."""
    for k in range(g.n, 0, -1):
        for combo in combinations(range(g.n), k):
            if all(g.has_edge(u, v) for u, v in combinations(combo, 2)):
                return frozenset(combo)


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


def loop_format_edge_list(g):
    lines = [str(g.n)]
    lines.extend(f"{u} {v}" for u, v in g.edges())
    return "\n".join(lines) + "\n"


def oracle_parse_edge_list(text):
    n = None
    edges = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        try:
            values = [int(f) for f in fields]
        except ValueError as exc:
            raise ValueError(f"line {lineno}: expected integers, got {raw!r}") from exc
        if n is None:
            if len(values) != 1:
                raise ValueError(f"line {lineno}: expected a single vertex count, got {raw!r}")
            n = check_vertex_count(values[0])
        elif len(values) == 2:
            edges.append((values[0], values[1]))
        else:
            raise ValueError(f"line {lineno}: expected 'u v', got {raw!r}")
    if n is None:
        raise ValueError("empty edge-list input")
    return new_graph(n, edges)


# tokens int() reads in unusual ways, tokens it refuses, and header counts out of range
_ODD_TOKENS = ["+1", "-1", "1_0", "\u0663", "007", "x", "1.5", "0x1", "1e2", "_1", "0", "16385"]
_LINE_ENDS = ["\n", "\r\n", "\r", "\x0b", "\x1c", "\u2028"]


@st.composite
def edge_list_texts(draw):
    """Hypothesis strategy: edge-list-like text, mostly well formed.

    After up to two blank or comment lines comes a header, mostly a count
    in 1..5, then lines that are mostly two vertices in -1..5 (so
    self-loops and out-of-range ends are common) and otherwise 1 to 3
    tokens, odd ones included.  Tokens are separated by spaces and tabs, a
    line may carry a '#' comment, and lines end in any of the line breaks
    str.splitlines knows.  One text in ten is shuffled, so its header may
    come late or not at all.
    """
    def pick(options):
        return draw(st.sampled_from(options))

    def vertex():
        return str(draw(st.integers(-1, 5)))

    def token():
        return vertex() if draw(st.booleans()) else pick(_ODD_TOKENS)

    def line(tokens, count):
        text = pick(["", "", " ", "\t"]) + tokens()
        for _ in range(count - 1):
            text += pick([" ", "  ", "\t", " \t "]) + tokens()
        return text + pick(["", "", "", "# note", "#", "  # 0 1", "#\t1 2 3"])

    def blank():
        return pick(["", "  ", "\t", "# only a comment"])

    def usually():  # true in about four draws of five
        return draw(st.integers(0, 4)) > 0

    lines = [blank() for _ in range(draw(st.integers(0, 2)))]
    lines.append(str(draw(st.integers(1, 5))) if usually() else line(token, draw(st.integers(1, 3))))
    for _ in range(draw(st.integers(0, 8))):
        if usually():
            lines.append(line(vertex, 2))
        else:
            lines.append(line(token, draw(st.integers(1, 3))) if draw(st.booleans()) else blank())
    if draw(st.integers(0, 9)) == 0:
        lines = draw(st.permutations(lines))
    ends = [pick(_LINE_ENDS) for _ in lines]
    if draw(st.booleans()):
        ends[-1] = ""  # no final line break
    return "".join(text + end for text, end in zip(lines, ends))
