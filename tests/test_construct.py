import dataclasses
import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from robustnet import (
    MAX_VERTICES,
    ConstructionRecipe,
    build,
    edge_lower_bound,
    erdos_renyi,
    format_edge_list,
    max_robustness,
    new_graph,
    sparsest_even,
    sparsest_odd,
    tree_graph,
)

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


def test_recipe_validation():
    ConstructionRecipe(kind="sparsest-odd", r=3)
    ConstructionRecipe(kind="erdos-renyi", n=5, p=0.5, seed=1)
    ConstructionRecipe(kind="tree", n=5, tree_shape="random", seed=2)


_ER = dict(kind="erdos-renyi", n=5, p=0.5, seed=1)
_RANDOM_TREE = dict(kind="tree", n=5, tree_shape="random", seed=2)

# (a valid recipe's fields, the changes that make it invalid)
_BAD_RECIPES = [
    (dict(kind="tree", n=3), dict(kind="nope")),
    (dict(kind="sparsest-odd", r=5), dict(r=None, n=5)),  # takes r, not n
    (dict(kind="sparsest-odd", r=3), dict(n=5)),
    (dict(kind="sparsest-even", r=2), dict(seed=1)),  # not randomized
    (dict(kind="sparsest-even", r=2), dict(tree_shape="path")),
    (_ER, dict(p=None)),
    (_ER, dict(seed=None)),
    (_ER, dict(p=2.0)),
    (_RANDOM_TREE, dict(seed=None)),
    (dict(kind="tree", n=5), dict(tree_shape="zigzag")),
    (dict(kind="sparsest-odd", r=3), dict(r=0)),
    (dict(kind="sparsest-even", r=2), dict(r=True)),
    (dict(kind="tree", n=5), dict(n=True)),
    (_ER, dict(p=True)),
    (_ER, dict(p="0.5")),
    (_ER, dict(seed=True)),
    (_RANDOM_TREE, dict(seed=1.0)),
    # one past the vertex count the build accepts
    (dict(kind="sparsest-odd", r=3), dict(r=MAX_VERTICES // 2 + 1)),
    (dict(kind="sparsest-even", r=2), dict(r=MAX_VERTICES // 2 + 1)),
    (_ER, dict(n=MAX_VERTICES + 1)),
    (dict(kind="tree", n=5), dict(n=MAX_VERTICES + 1)),
]


@pytest.mark.parametrize("valid, bad", _BAD_RECIPES, ids=repr)
def test_recipe_is_checked_however_it_is_made(valid, bad):
    with pytest.raises(ValueError):
        ConstructionRecipe(**{**valid, **bad})
    with pytest.raises(ValueError):
        ConstructionRecipe.from_json_dict({**valid, **bad})
    with pytest.raises(ValueError):
        dataclasses.replace(ConstructionRecipe(**valid), **bad)


def test_recipe_json_round_trip():
    recipe = ConstructionRecipe(kind="erdos-renyi", n=9, p=0.8, seed=5)
    data = recipe.to_json_dict()
    assert data == {"kind": "erdos-renyi", "n": 9, "p": 0.8, "seed": 5}
    assert ConstructionRecipe.from_json_dict(data) == recipe
    with pytest.raises(ValueError):
        ConstructionRecipe.from_json_dict({"kind": "tree", "n": 3, "extra": 1})
    with pytest.raises(ValueError):
        ConstructionRecipe.from_json_dict({"n": 3})


def test_recipe_from_json_refuses_non_objects_and_unknown_keys():
    for data, message in (
        (["tree"], "recipe JSON must be a JSON object"),
        ("tree", "recipe JSON must be a JSON object"),
        ({"kind": "tree", "n": 3, "depth": 2}, "recipe JSON has unknown key 'depth'"),
        ({"n": 3}, "recipe JSON is missing 'kind'"),
        ({"kind": "erdos-renyi", "n": 5, "p": 0.5, "seed": [1]}, "seed must be an integer"),
    ):
        with pytest.raises(ValueError, match=message):
            ConstructionRecipe.from_json_dict(data)


def _recipes():
    """Hypothesis strategy: recipes that validate, every kind and shape."""
    shaped = st.one_of(
        st.tuples(st.sampled_from([None, "path", "star"]), st.none()),
        st.tuples(st.just("random"), st.integers(-2**70, 2**70)),
    )
    sizes = st.integers(1, MAX_VERTICES // 2)  # every kind builds at most 2 * size vertices
    return st.one_of(
        st.builds(lambda r, ts: ConstructionRecipe("sparsest-odd", r=r, tree_shape=ts[0], seed=ts[1]),
                  sizes, shaped),
        st.builds(lambda r: ConstructionRecipe("sparsest-even", r=r), sizes),
        st.builds(lambda n, p, seed: ConstructionRecipe("erdos-renyi", n=n, p=p, seed=seed),
                  sizes, st.floats(0.0, 1.0), st.integers(-2**70, 2**70)),
        st.builds(lambda n, ts: ConstructionRecipe("tree", n=n, tree_shape=ts[0], seed=ts[1]),
                  sizes, shaped),
    )


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(_recipes())
def test_recipe_json_round_trip_property(recipe):
    assert ConstructionRecipe.from_json_dict(json.loads(json.dumps(recipe.to_json_dict()))) == recipe


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


def test_recipes_build_at_the_vertex_limit():
    for recipe in (
        ConstructionRecipe(kind="sparsest-odd", r=MAX_VERTICES // 2),  # 2r - 1 vertices
        ConstructionRecipe(kind="sparsest-even", r=MAX_VERTICES // 2),
        ConstructionRecipe(kind="tree", n=MAX_VERTICES, tree_shape="random", seed=1),
    ):
        assert build(recipe).n >= MAX_VERTICES - 1
    # G(n, p) at the limit draws n(n - 1)/2 numbers, so only its recipe is made
    ConstructionRecipe(kind="erdos-renyi", n=MAX_VERTICES, p=0.5, seed=1)


def test_build_dispatch():
    cases = [
        (ConstructionRecipe(kind="sparsest-odd", r=4), sparsest_odd(4)),
        (ConstructionRecipe(kind="sparsest-even", r=3), sparsest_even(3)),
        (ConstructionRecipe(kind="erdos-renyi", n=8, p=0.6, seed=9), erdos_renyi(8, 0.6, 9)),
        (ConstructionRecipe(kind="tree", n=6, tree_shape="star"), tree_graph(6, "star")),
    ]
    for recipe, expected in cases:
        assert build(recipe) == expected


def test_random_tree_uses_seed_stream():
    shapes = {format_edge_list(tree_graph(8, "random", seed)) for seed in range(12)}
    assert len(shapes) > 1  # different seeds explore different trees
