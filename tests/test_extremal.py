"""Every graph on at most 7 vertices against the paper's bounds, the six
extremal graphs at n = 8, and two extremal graphs at n = 9 that the paper's
constructions do not build.

The networkx graph atlas lists all 1,253 graphs with at most 7 vertices,
one per isomorphism class, so counts over it are counts of non-isomorphic
graphs.
"""

from collections import defaultdict
from itertools import combinations

import pytest

from robustnet import (check_structural_lemmas, edge_lower_bound, is_r_robust, max_robustness,
                       new_graph, robustness_levels, sparsest_even, sparsest_odd)

nx = pytest.importorskip("networkx")


def _to_networkx(g):
    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(g.edges())
    return h


@pytest.fixture(scope="module")
def atlas():
    """{n: [(graph, r_max), ...]} over the atlas graphs with n >= 2."""
    by_n = defaultdict(list)
    for h in nx.graph_atlas_g():
        if h.number_of_nodes() >= 2:
            by_n[h.number_of_nodes()].append(new_graph(h.number_of_nodes(), h.edges()))
    return {n: list(zip(graphs, robustness_levels(graphs))) for n, graphs in by_n.items()}


def test_the_atlas_is_complete(atlas):
    assert {n: len(certified) for n, certified in atlas.items()} == {
        2: 2, 3: 4, 4: 11, 5: 34, 6: 156, 7: 1044}


def test_ceiling_robust_graphs_meet_the_bounds_and_are_few(atlas):
    extremal = {}
    for n, certified in atlas.items():
        r = (n + 1) // 2  # n is 2r - 1 or 2r
        edge_counts = [g.edge_count for g, r_max in certified if r_max == r]
        bound = edge_lower_bound(n, r).bound
        assert min(edge_counts) == bound
        extremal[n, r] = [g for g, r_max in certified if r_max == r and g.edge_count == bound]
    assert {key: len(graphs) for key, graphs in extremal.items()} == {
        (2, 1): 1, (3, 2): 1, (4, 2): 1, (5, 3): 1, (6, 3): 1, (7, 4): 2}
    # the paper's constructions are one extremal family among several: at
    # (7, 4) the path-tailed and the star-tailed sparsest_odd(4) both meet the bound
    shapes = [_to_networkx(sparsest_odd(4, shape)) for shape in ("path", "star")]
    for g in extremal[7, 4]:
        assert sum(nx.is_isomorphic(_to_networkx(g), h) for h in shapes) == 1


def test_ceiling_robust_graphs_at_odd_n_have_a_universal_vertex(atlas):
    for n in (3, 5, 7):
        robust = [g for g, r_max in atlas[n] if r_max == (n + 1) // 2]
        assert robust
        for g in robust:
            assert any(g.degree(v) == n - 1 for v in range(n))


def test_no_robust_graph_beyond_2r_vertices_goes_below_the_bound(atlas):
    minima = {}
    for n, certified in atlas.items():
        for r in range(1, (n + 1) // 2):  # every r with n > 2r
            minima[n, r] = min(g.edge_count for g, r_max in certified if r_max >= r)
            assert minima[n, r] >= edge_lower_bound(n, r).bound
    assert {key: minima[key] for key in ((5, 2), (6, 2), (7, 2), (7, 3))} == {
        (5, 2): 6, (6, 2): 8, (7, 2): 10, (7, 3): 14}


# Two of the four 30-edge 5-robust graphs on 9 vertices, found by an
# exhaustive search over their sparse complements; the other two are the
# path- and star-tailed sparsest_odd(5).
FORK_TAILED_HUB = new_graph(9, [*((u, v) for u in range(4) for v in range(u + 1, 9)),
                                (4, 5), (5, 6), (6, 7), (6, 8)])
# complement: the triangle 0-1-2 with the pendant edges 0-3, 1-4 and 2-5
THREE_UNIVERSAL = new_graph(9, set(combinations(range(9), 2))
                            - {(0, 1), (0, 2), (1, 2), (0, 3), (1, 4), (2, 5)})


@pytest.mark.parametrize("g, universal", [(FORK_TAILED_HUB, [0, 1, 2, 3]),
                                          (THREE_UNIVERSAL, [6, 7, 8])],
                         ids=["fork-tailed-hub", "three-universal"])
def test_extremal_graphs_beyond_the_constructions(g, universal):
    assert [v for v in range(9) if g.degree(v) == 8] == universal
    assert g.edge_count == edge_lower_bound(9, 5).bound == 30
    assert max_robustness(g).r_max == 5
    [clique] = check_structural_lemmas(g).checks
    assert (clique.name, clique.required, clique.found) == ("clique", 6, 6)
    for u, v in g.edges():
        assert not is_r_robust(g.with_edge_removed(u, v), 5)[0]


# The 21-edge 4-robust graphs on 8 vertices, one per isomorphism class, each
# given by the 7 edges it lacks.  Certifying all C(28, 7) = 1,184,040 such
# complements with robustness_levels finds 46,620 labelled graphs in exactly
# these 6 classes; the first is the class of sparsest_even(4).
EXTREMAL_8 = [
    new_graph(8, set(combinations(range(8), 2)) - set(missing)) for missing in (
        [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (4, 5)],
        [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 4), (5, 6)],
        [(0, 1), (0, 2), (0, 3), (1, 2), (1, 4), (3, 4), (5, 6)],
        [(0, 1), (0, 2), (0, 3), (1, 2), (3, 4), (3, 5), (4, 5)],
        [(0, 1), (0, 2), (0, 3), (1, 2), (3, 4), (3, 5), (4, 6)],
        [(0, 1), (0, 2), (0, 3), (1, 2), (4, 5), (4, 6), (5, 6)],
    )
]


@pytest.mark.parametrize("g", EXTREMAL_8, ids=[f"class-{i}" for i in range(1, 7)])
def test_extremal_graphs_at_n8(g):
    # no universal vertex is asserted: the even case does not promise one
    assert g.edge_count == edge_lower_bound(8, 4).bound == 21
    assert max_robustness(g).r_max == 4
    report = check_structural_lemmas(g)
    assert report.all_passed
    assert [check.found for check in report.checks] == [4, 9]
    for u, v in g.edges():
        assert not is_r_robust(g.with_edge_removed(u, v), 4)[0]


def test_extremal_graphs_at_n8_are_six_classes():
    shapes = [_to_networkx(g) for g in EXTREMAL_8]
    assert not any(nx.is_isomorphic(a, b) for a, b in combinations(shapes, 2))
    assert [nx.is_isomorphic(h, _to_networkx(sparsest_even(4))) for h in shapes] \
        == [True] + [False] * 5
