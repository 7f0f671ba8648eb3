import itertools
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from robustnet import (
    MAX_VERTICES,
    edge_lower_bound,
    erdos_renyi,
    format_edge_list,
    max_robustness,
    new_graph,
    sparsest_even,
    sparsest_odd,
    tree_graph,
)
from robustnet import construct

from oracles import listcomp_erdos_renyi


def test_sparsest_odd_edge_counts():
    for r in range(1, 8):
        g = sparsest_odd(r)
        assert g.n == 2 * r - 1
        assert g.edge_count == 3 * r * (r - 1) // 2
        assert g.edge_count == edge_lower_bound(g.n, r).bound


def test_sparsest_even_edge_counts():
    for r in range(1, 8):
        g = sparsest_even(r)
        assert g.n == 2 * r
        assert g.edge_count == (r * (3 * r - 2) + 2) // 2
        assert g.edge_count == edge_lower_bound(g.n, r).bound


def test_sparsest_degenerate_sizes():
    assert sparsest_odd(1).n == 1 and sparsest_odd(1).edge_count == 0
    k2 = sparsest_even(1)
    assert k2.n == 2 and k2.edge_count == 1  # no pairs removed when delta = 0
    assert max_robustness(k2).r_max == 1
    with pytest.raises(ValueError):
        sparsest_odd(0)
    with pytest.raises(ValueError):
        sparsest_even(0)


def test_sparsest_even_pairing_is_fixed():
    g = sparsest_even(5)  # delta = 4: pairs (0,1) and (2,3) lose their edge
    assert not g.has_edge(0, 1)
    assert not g.has_edge(2, 3)
    assert g.has_edge(0, 2) and g.has_edge(1, 3) and g.has_edge(4, 0)
    assert all(g.has_edge(4, j) for j in range(10) if j != 4)


def test_sparsest_structure():
    g = sparsest_odd(4)  # hubs 0..2, tail 3..6 a path
    for hub in range(3):
        assert g.degree(hub) == g.n - 1
    assert g.has_edge(3, 4) and g.has_edge(4, 5) and g.has_edge(5, 6)
    assert not g.has_edge(3, 5)
    # outside the even construction's hub set there are no edges at all
    ge = sparsest_even(4)
    for u in range(4, 8):
        for v in range(u + 1, 8):
            assert not ge.has_edge(u, v)


def test_constructions_certify_at_the_ceiling():
    for r in range(1, 5):
        assert max_robustness(sparsest_odd(r)).r_max == r
        assert max_robustness(sparsest_even(r)).r_max == r


def test_tree_shape_does_not_matter():
    for r in range(2, 6):
        variants = [
            sparsest_odd(r, "path"),
            sparsest_odd(r, "star"),
            sparsest_odd(r, "random", seed=r),
        ]
        counts = {g.edge_count for g in variants}
        assert counts == {3 * r * (r - 1) // 2}
        for g in variants:
            assert max_robustness(g).r_max == r


def test_alternative_pair_choices_also_work():
    # the builder pins pairs (0,1), (2,3), ... but any disjoint pairing of
    # delta hub vertices is claimed valid; certify one alternative per r
    for r in range(3, 7):
        delta = r - 1 if r % 2 else r - 2
        pairs = [(r - 2 - k, r - 1 - k) for k in range(0, delta, 2)]  # from the top
        g = new_graph(2 * r, [(i, j) for i in range(r) for j in range(2 * r) if j != i])
        for a, b in pairs:
            g = g.with_edge_removed(a, b)
        assert g.edge_count == (r * (3 * r - 2) + 2) // 2
        assert max_robustness(g).r_max == r


def test_erdos_renyi_extremes():
    assert erdos_renyi(5, 0.0, 1).edge_count == 0
    assert erdos_renyi(5, 1.0, 1).edge_count == 10
    assert erdos_renyi(1, 0.5, 1).n == 1
    with pytest.raises(ValueError):
        erdos_renyi(5, 1.5, 1)
    with pytest.raises(ValueError):
        erdos_renyi(0, 0.5, 1)


def test_erdos_renyi_matches_edge_list_sampler():
    rng = random.Random(6151)
    for i in range(2000):
        n = rng.randint(1, 16)
        p = (0.0, 1.0)[i % 2] if i % 10 < 2 else rng.random()
        seed = rng.getrandbits(64)
        assert erdos_renyi(n, p, seed) == listcomp_erdos_renyi(n, p, seed)


# the smallest graph the word-level sampler draws
FIRST_WORD_N = next(n for n in range(2, 1000) if n * (n - 1) // 2 >= construct.WORD_SAMPLER_PAIRS)
# the most rows one block takes: rows times its first row's pairs is at most BLOCK_PAIRS
ONE_BLOCK_N = max(n for n in range(8, 1000, 8) if n * (n - 1) <= construct.BLOCK_PAIRS)
EDGE_PS = (0, 1, 0.0, 1.0, 5e-324, 1 - 2**-53, 0.3183098861837907)
SEEDS = (0, -5, 2**32, 2**64 + 1, 0x9E3779B97F4A7C15)


@pytest.mark.parametrize("n", [FIRST_WORD_N - 1, FIRST_WORD_N, ONE_BLOCK_N - 1, ONE_BLOCK_N,
                               ONE_BLOCK_N + 1, ONE_BLOCK_N + 2])
def test_both_sampler_paths_match_edge_list_sampler(n):
    # the word-level draw must follow CPython's random(), word order included
    for p, seed in zip(EDGE_PS, itertools.cycle(SEEDS)):
        assert erdos_renyi(n, p, seed) == listcomp_erdos_renyi(n, p, seed), (p, seed)
    for seed in SEEDS:
        assert erdos_renyi(n, 0.5, seed) == listcomp_erdos_renyi(n, 0.5, seed), seed


def test_word_sampler_compares_each_draw_exactly():
    # p half a step above the first pair's draw, then equal to it; a Fraction
    # 2**-80 above it is the same float; numpy rounds the draw to p's float32
    # or float16, which lie above it
    first = random.Random(1).random()
    assert first < 0.5  # so first + 2**-54 is a float
    for p, edge in ((first + 2**-54, True), (first, False),
                    (Fraction(first) + Fraction(1, 2**80), True), (Fraction(first), False),
                    (np.float32(first), False), (np.float16(first), False)):
        g = erdos_renyi(FIRST_WORD_N, p, 1)
        assert g.has_edge(0, 1) is edge
        assert g == listcomp_erdos_renyi(FIRST_WORD_N, p, 1)


@pytest.mark.parametrize("p", [np.float16(0.5), np.uint8(1), np.float32(0.3), Fraction(1, 3)],
                         ids=["float16", "uint8", "float32", "Fraction"])
def test_both_sampler_paths_take_any_real_p(p):
    for n in (FIRST_WORD_N - 1, FIRST_WORD_N):
        assert erdos_renyi(n, p, 7) == listcomp_erdos_renyi(n, p, 7)


def test_word_sampler_matches_edge_list_sampler_at_n_1000():
    assert erdos_renyi(1000, 0.05, 2**64 + 1) == listcomp_erdos_renyi(1000, 0.05, 2**64 + 1)


def test_word_sampler_matches_edge_list_sampler_over_many_blocks(monkeypatch):
    # 64-pair blocks: most hold the minimum 8 rows, and the tails every width
    monkeypatch.setattr(construct, "BLOCK_PAIRS", 64)
    rng = random.Random(8311)
    for n in (FIRST_WORD_N, FIRST_WORD_N + 1, 53, 64, 65, 71, 100):
        p = rng.random()
        seed = rng.getrandbits(64)
        assert erdos_renyi(n, p, seed) == listcomp_erdos_renyi(n, p, seed), (n, p, seed)


def test_erdos_renyi_memory_stays_within_its_blocks():
    # drawing all 2M pairs at once would take 16 MiB for each uint64 temporary;
    # the packed matrix and the rows take about 1 MiB
    erdos_renyi(2000, 0.5, 1)
    tracemalloc.start()
    try:
        erdos_renyi(2000, 0.5, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 << 20


@pytest.mark.parametrize("n", [9, FIRST_WORD_N])
def test_a_seed_and_its_negation_draw_the_same_graph(n):
    # random.Random seeds from |seed|
    for seed in (1, 2**32, 2**64 + 1):
        assert erdos_renyi(n, 0.5, -seed) == erdos_renyi(n, 0.5, seed)
        assert tree_graph(n, "random", -seed) == tree_graph(n, "random", seed)
        assert sparsest_odd(5, "random", -seed) == sparsest_odd(5, "random", seed)


def test_erdos_renyi_rejects_bool_vertex_count():
    with pytest.raises(ValueError):
        erdos_renyi(True, 0.5, 1)


def test_builders_refuse_bool_and_non_numbers():
    for build_bad in (
        lambda: sparsest_odd(True),
        lambda: sparsest_even(True),
        lambda: tree_graph(True),
        lambda: erdos_renyi(5, True, 1),
        lambda: erdos_renyi(5, "0.5", 1),
        lambda: erdos_renyi(5, float("nan"), 1),
    ):
        with pytest.raises(ValueError):
            build_bad()


@pytest.mark.parametrize("seed", [True, 2.5, "abc", [1], None])
def test_builders_check_their_seeds(seed):
    # a bool is not read as 0 or 1, and None would draw a new graph on every call
    for build_bad in (
        lambda: erdos_renyi(5, 0.5, seed),
        lambda: tree_graph(5, "random", seed),
        lambda: sparsest_odd(3, "random", seed),
    ):
        with pytest.raises(ValueError, match="seed must be an integer"):
            build_bad()


def test_erdos_renyi_determinism():
    a = format_edge_list(erdos_renyi(9, 0.8, 42))
    b = format_edge_list(erdos_renyi(9, 0.8, 42))
    assert a == b
    assert format_edge_list(erdos_renyi(9, 0.5, 1)) != format_edge_list(erdos_renyi(9, 0.5, 2))


def test_erdos_renyi_edge_count_concentration():
    # Binomial(36, 0.8) leaves [18, 36] with probability ~1.3e-5; over these
    # 200 fixed seeds every draw lands inside (deterministic, frozen check).
    counts = [erdos_renyi(9, 0.8, seed).edge_count for seed in range(200)]
    assert all(18 <= c <= 36 for c in counts)
    assert min(counts) == 23 and max(counts) == 35


def _is_connected(g):
    seen = {0}
    frontier = [0]
    while frontier:
        nxt = []
        for u in frontier:
            for v in g.neighbors(u):
                if v not in seen:
                    seen.add(v)
                    nxt.append(v)
        frontier = nxt
    return len(seen) == g.n


def test_tree_graph_shapes():
    for n in (1, 2, 5, 9):
        for shape, seed in (("path", None), ("star", None), ("random", 7)):
            t = tree_graph(n, shape, seed)
            assert t.edge_count == n - 1
            assert _is_connected(t)
    assert tree_graph(6, "star").degree(0) == 5
    same = format_edge_list(tree_graph(9, "random", 3))
    assert same == format_edge_list(tree_graph(9, "random", 3))
    with pytest.raises(ValueError):
        tree_graph(4, "random")  # seed required


def test_builders_check_tree_shape_and_seed_at_every_size():
    for build_bad in (
        lambda: sparsest_odd(3, "loop"),
        lambda: sparsest_odd(1, "loop"),
        lambda: tree_graph(1, "loop"),
        lambda: tree_graph(1, "random"),  # seed required, as for any size
        lambda: sparsest_odd(3, "path", seed=5),  # a seed the shape would ignore
        lambda: tree_graph(4, "star", seed=[1]),
    ):
        with pytest.raises(ValueError):
            build_bad()


@pytest.mark.parametrize("build_over_limit", [
    lambda: sparsest_odd(MAX_VERTICES // 2 + 1),
    lambda: sparsest_even(MAX_VERTICES // 2 + 1),
    lambda: erdos_renyi(MAX_VERTICES + 1, 0.5, 1),
    lambda: tree_graph(10**9),
    lambda: new_graph(MAX_VERTICES + 1),
], ids=["sparsest-odd", "sparsest-even", "erdos-renyi", "tree", "new-graph"])
def test_builders_refuse_vertex_counts_above_max_vertices(build_over_limit):
    with pytest.raises(ValueError, match=f"limit of {MAX_VERTICES}"):
        build_over_limit()


def test_sparsest_even_at_max_vertices():
    r = MAX_VERTICES // 2
    g = sparsest_even(r)
    assert g.n == MAX_VERTICES
    assert g.edge_count == (r * (3 * r - 2) + 2) // 2


def test_builders_build_at_the_vertex_limit():
    # sparsest_even at the limit is checked above; G(n, p) at the limit would
    # draw n(n - 1)/2 numbers
    assert sparsest_odd(MAX_VERTICES // 2).n == MAX_VERTICES - 1
    assert tree_graph(MAX_VERTICES, "random", 1).n == MAX_VERTICES


def test_random_tree_uses_seed_stream():
    shapes = {format_edge_list(tree_graph(8, "random", seed)) for seed in range(12)}
    assert len(shapes) > 1  # different seeds explore different trees
