import json
import math
import random
import re
import tracemalloc
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from robustnet import (
    MAX_EXACT_N,
    MAX_VERTICES,
    Graph,
    densest_subset_of_size,
    erdos_renyi,
    format_edge_list,
    graph_from_json_dict,
    graph_to_json_dict,
    induced_edge_count,
    load_graph,
    max_clique,
    new_graph,
    parse_edge_list,
    sparsest_even,
    sparsest_odd,
    tree_graph,
    write_edge_list,
)
from robustnet.construct import TREE_SHAPES
from robustnet.graph import bits, check_fields, check_int, check_number, read_input

from oracles import (
    complete_graph,
    cycle_graph,
    edge_list_texts,
    has_clique_of_size,
    loop_densest_subset,
    loop_format_edge_list,
    oracle_densest_subset,
    oracle_max_clique,
    oracle_parse_edge_list,
    path_graph,
    random_graph,
    small_graphs,
)


def test_new_graph_basics():
    g = new_graph(2, [(0, 1)])
    assert g.edge_count == 1
    assert g.has_edge(0, 1) and g.has_edge(1, 0)

    tri = new_graph(3, [(0, 1), (1, 2), (0, 2)])
    assert all(tri.degree(i) == 2 for i in range(3))

    dup = new_graph(3, [(0, 1), (1, 0)])
    assert dup.edge_count == 1


def test_graph_size_is_the_length_of_its_rows():
    g = Graph((0b10, 0b01))
    assert g.n == 2 and list(g.edges()) == [(0, 1)] and format_edge_list(g) == "2\n0 1\n"
    with pytest.raises(TypeError):
        Graph(3, (0b110, 0b101))  # no vertex count to disagree with the rows


def _tree_options(data, what):
    shape = data.draw(st.sampled_from(TREE_SHAPES), label=f"{what} shape")
    seed = data.draw(st.integers(-5, 5), label=f"{what} seed") if shape == "random" else None
    return shape, seed


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_constructors_make_symmetric_loop_free_in_range_rows(data):
    # Graph(rows) checks nothing, so each constructor is what keeps its rows well formed
    n = data.draw(st.integers(1, 24), label="n")
    pairs = data.draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
                               .filter(lambda e: e[0] != e[1]), max_size=40), label="edges")
    r = data.draw(st.integers(1, 12), label="r")
    text = "".join(f"{u} {v}\n" for u, v in pairs)
    graphs = {
        "new_graph": new_graph(n, pairs),
        "parse_edge_list": parse_edge_list(f"{n}\n{text}"),
        "graph_from_json_dict": graph_from_json_dict({"n": n, "edges": [list(e) for e in pairs]}),
        "sparsest_odd": sparsest_odd(r, *_tree_options(data, "sparsest_odd")),
        "sparsest_even": sparsest_even(r),
        "erdos_renyi": erdos_renyi(n, data.draw(st.floats(0, 1), label="p"),
                                   data.draw(st.integers(0, 99), label="seed")),
        "tree_graph": tree_graph(n, *_tree_options(data, "tree_graph")),
    }
    for name, g in list(graphs.items()):
        if g.edge_count:
            u, v = data.draw(st.sampled_from(list(g.edges())), label=f"{name} edge")
            graphs[f"{name}.with_edge_removed"] = g.with_edge_removed(u, v)
    for name, g in graphs.items():
        for u, row in enumerate(g.rows):
            assert 0 <= row < 1 << g.n, (name, u)  # in range
            assert not row >> u & 1, (name, u)  # loop-free
            assert all(g.rows[v] >> u & 1 for v in bits(row)), (name, u)  # symmetric


def test_new_graph_rejects_bad_input():
    with pytest.raises(ValueError):
        new_graph(0)
    with pytest.raises(ValueError):
        new_graph(3, [(0, 3)])
    with pytest.raises(ValueError):
        new_graph(3, [(1, 1)])
    with pytest.raises(ValueError):
        new_graph(3, [(0, "1")])
    with pytest.raises(ValueError):
        new_graph("3", [])


def test_new_graph_reports_the_first_faulty_edge():
    # every pair's int check comes first; then, edge by edge, a self-loop before a range error
    with pytest.raises(ValueError, match=r"^edge \(0, 3\) out of range for n=3$"):
        new_graph(3, [(0, 3), (1, 1)])
    with pytest.raises(ValueError, match=r"^self-loop \(1, 1\) not allowed$"):
        new_graph(3, [(1, 1), (0, 3)])
    with pytest.raises(ValueError, match=r"^self-loop \(4, 4\) not allowed$"):
        new_graph(3, [(4, 4)])
    with pytest.raises(ValueError, match=r"^edge \(0, '1'\) must be a pair of integers$"):
        new_graph(3, [(1, 1), (0, "1")])


def test_check_int_accepts_only_ints_in_range():
    assert check_int(0, "count") == 0
    assert check_int(7, "size", 1, 7) == 7
    assert check_int(-5, "seed", None) == -5
    for bad, least, most, message in (
        (True, 0, None, "non-negative integer"),
        (False, None, None, "must be an integer"),
        (-1, 0, None, "non-negative integer"),
        (0, 1, None, "positive integer"),
        (2.0, 1, None, "positive integer"),
        ("3", 1, None, "positive integer"),
        (4, 5, None, r"integer >= 5"),
        (3, 0, 2, "out of range 0..2"),
        (True, 0, 2, "out of range"),
        (None, 0, 2, "out of range"),
    ):
        with pytest.raises(ValueError, match=message):
            check_int(bad, "value", least, most)


def test_check_number_accepts_finite_reals_unchanged():
    assert type(check_number(1, "p")) is int  # no float conversion: p = 1 keeps its seeds
    assert check_number(-2.5, "p") == -2.5
    for bad in (True, False, math.nan, math.inf, -math.inf, 10 ** 400, "0.5", None, [0.5]):
        with pytest.raises(ValueError, match="p must be a finite number"):
            check_number(bad, "p")


def test_check_fields_refuses_non_objects_missing_and_unknown_keys():
    data = {"n": 1, "edges": []}
    assert check_fields(data, "graph", ("n", "edges")) is data
    assert check_fields(data, "graph", ("n",), ("edges", "extra")) is data
    for bad, message in (
        ([1], "graph must be a JSON object, got list"),
        (None, "graph must be a JSON object, got NoneType"),
        ({"edges": []}, "graph is missing 'n'"),
        ({}, "graph is missing 'n'"),
        ({**data, "m": 2, "k": 3}, "graph has unknown key 'm'"),
    ):
        with pytest.raises(ValueError, match=message):
            check_fields(bad, "graph", ("n", "edges"))


def test_new_graph_rejects_bool_vertex_count():
    with pytest.raises(ValueError):
        new_graph(True)


def test_new_graph_rejects_bool_vertices():
    for edge in ((True, 2), (2, True), (False, 1)):
        with pytest.raises(ValueError):
            new_graph(3, [edge])
    with pytest.raises(ValueError):
        complete_graph(3).neighbors(True)


def test_neighbors():
    tri = complete_graph(3)
    assert tri.neighbors(0) == {1, 2}
    path = path_graph(3)
    assert path.neighbors(1) == {0, 2}
    isolated = new_graph(2)
    assert isolated.neighbors(0) == frozenset()
    with pytest.raises(ValueError):
        tri.neighbors(3)


def test_neighbor_symmetry_and_irreflexivity():
    rng = random.Random(11)
    for _ in range(30):
        g = random_graph(rng, rng.randint(1, 10), rng.random())
        for i in range(g.n):
            nbrs = g.neighbors(i)
            assert i not in nbrs
            for j in nbrs:
                assert i in g.neighbors(j)
        assert sum(g.degree(i) for i in range(g.n)) == 2 * g.edge_count


def test_edges_iterator_sorted():
    g = new_graph(4, [(2, 3), (0, 2), (0, 1)])
    assert list(g.edges()) == [(0, 1), (0, 2), (2, 3)]


def test_with_edge_removed():
    tri = complete_graph(3)
    path = tri.with_edge_removed(0, 1)
    assert path.edge_count == 2
    assert tri.edge_count == 3  # original untouched
    single = new_graph(2, [(0, 1)])
    assert single.with_edge_removed(0, 1).edge_count == 0
    with pytest.raises(ValueError):
        path.with_edge_removed(0, 1)


def test_max_clique_small_graphs():
    assert max_clique(complete_graph(5)) == {0, 1, 2, 3, 4}
    assert max_clique(cycle_graph(4)) == {0, 1}  # triangle-free, lexicographic pair
    assert max_clique(new_graph(3)) == {0}
    assert len(max_clique(sparsest_even(5))) >= 4


def test_max_clique_is_pairwise_adjacent():
    rng = random.Random(23)
    for _ in range(25):
        g = random_graph(rng, rng.randint(1, 12), rng.random())
        clique = max_clique(g)
        for u, v in combinations(sorted(clique), 2):
            assert g.has_edge(u, v)


def test_max_clique_matches_exhaustive_scan():
    # the same clique, not only the same size: the lexicographically first maximum one
    rng = random.Random(37)
    for _ in range(220):
        g = random_graph(rng, rng.randint(1, 10), rng.random())
        assert max_clique(g) == oracle_max_clique(g)
    # a couple at the n = 12 end
    for seed in (1, 2):
        g = random_graph(random.Random(seed), 12, 0.6)
        size = len(max_clique(g))
        assert not has_clique_of_size(g, size + 1)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(small_graphs(12))
def test_max_clique_matches_networkx(g):
    nx = pytest.importorskip("networkx")
    G = nx.Graph()
    G.add_nodes_from(range(g.n))
    G.add_edges_from(g.edges())
    clique = max_clique(g)
    assert len(clique) == max(len(c) for c in nx.find_cliques(G))
    assert all(g.has_edge(u, v) for u, v in combinations(sorted(clique), 2))


def test_max_clique_refuses_n_above_exact_limit():
    # refused before any search, however easy or hard the graph
    for g in (new_graph(MAX_EXACT_N + 1), sparsest_odd(1000)):
        with pytest.raises(ValueError, match=f"limit of {MAX_EXACT_N}"):
            max_clique(g)


def test_max_clique_lexicographic_tie_break():
    # two disjoint triangles; {0, 1, 2} wins the tie
    g = new_graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
    assert max_clique(g) == {0, 1, 2}


def test_induced_edge_count():
    k5 = complete_graph(5)
    assert induced_edge_count(k5, {0, 1, 2}) == 3
    assert induced_edge_count(k5, {0}) == 0
    assert induced_edge_count(k5, set()) == 0
    # hub block of the even construction plus one outside vertex
    assert induced_edge_count(sparsest_even(5), {0, 1, 2, 3, 4, 5}) == 13


def test_induced_edge_count_full_set_is_edge_count():
    rng = random.Random(5)
    for _ in range(20):
        g = random_graph(rng, rng.randint(1, 10), rng.random())
        assert induced_edge_count(g, range(g.n)) == g.edge_count


def test_densest_subset_examples():
    subset, count = densest_subset_of_size(complete_graph(5), 3)
    assert count == 3 and subset == {0, 1, 2}
    subset, count = densest_subset_of_size(path_graph(3), 2)
    assert count == 1 and subset == {0, 1}
    subset, count = densest_subset_of_size(sparsest_even(5), 6)
    assert count >= 13
    with pytest.raises(ValueError):
        densest_subset_of_size(path_graph(3), 0)
    with pytest.raises(ValueError):
        densest_subset_of_size(path_graph(3), 4)


def test_densest_subset_matches_oracle():
    rng = random.Random(71)
    for _ in range(25):
        g = random_graph(rng, rng.randint(1, 10), rng.random())
        k = rng.randint(1, g.n)
        subset, count = densest_subset_of_size(g, k)
        oracle_set, oracle_count = oracle_densest_subset(g, k)
        assert count == oracle_count
        assert subset == oracle_set  # both use lexicographic first-maximizer


def _assert_densest_matches_loop(g):
    for k in range(1, g.n + 1):
        assert densest_subset_of_size(g, k) == loop_densest_subset(g, k)


def test_densest_subset_matches_loop_on_seeded_graphs():
    # the loop costs C(n, k) per call, so the n = 12..14 end gets fewer graphs
    rng = random.Random(5021)
    for i in range(1950):
        _assert_densest_matches_loop(random_graph(rng, 1 + i % 11, rng.random()))
    for i in range(51):
        _assert_densest_matches_loop(random_graph(rng, 12 + i % 3, rng.random()))


def test_densest_subset_matches_loop_when_subsets_tie():
    for n in range(1, 13):
        star = new_graph(n, [(0, v) for v in range(1, n)])
        for g in (complete_graph(n), new_graph(n), star):
            _assert_densest_matches_loop(g)
        if n >= 3:
            _assert_densest_matches_loop(cycle_graph(n))
    assert densest_subset_of_size(new_graph(6), 3) == ({0, 1, 2}, 0)
    assert densest_subset_of_size(cycle_graph(6), 3) == ({0, 1, 2}, 2)


def test_densest_subset_matches_loop_on_sparsest_even():
    for r in range(1, 9):
        g = sparsest_even(r)
        assert densest_subset_of_size(g, r + 1) == loop_densest_subset(g, r + 1)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(small_graphs(10))
def test_densest_subset_matches_loop_property(g):
    _assert_densest_matches_loop(g)


def test_densest_subset_rejects_bool_size():
    with pytest.raises(ValueError):
        densest_subset_of_size(path_graph(3), True)


def _traced_memory(run):
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()


def test_densest_subset_memory_at_the_limit():
    g = random_graph(random.Random(20), MAX_EXACT_N, 0.5)
    found = []
    current, peak = _traced_memory(lambda: found.append(densest_subset_of_size(g, 11)))
    assert peak <= 8 << 20  # 8 bytes per subset; two uint8 tables are 2 MiB
    assert current < 1 << 16  # no 2^n table outlives the call
    subset, count = found[0]
    assert len(subset) == 11 and count == induced_edge_count(g, subset)


def test_densest_subset_refuses_n_above_limit_before_building():
    big = new_graph(MAX_EXACT_N + 1)

    def refuse():
        with pytest.raises(ValueError, match=f"limit of {MAX_EXACT_N}"):
            densest_subset_of_size(big, 2)

    # one uint8 table over 2^21 masks would be 2 MiB
    assert _traced_memory(refuse)[1] < 1 << 16


def test_edge_list_round_trip():
    g = new_graph(5, [(0, 1), (2, 4), (1, 3)])
    assert format_edge_list(g) == "5\n0 1\n1 3\n2 4\n"
    again = parse_edge_list(format_edge_list(g))
    assert again == g


@pytest.mark.parametrize("build", [
    lambda: erdos_renyi(1000, 0.05, 5),
    lambda: erdos_renyi(199, 0.9, 3),
    lambda: new_graph(300),
    lambda: new_graph(1),
], ids=["G(1000,0.05)", "G(199,0.9)", "edgeless", "one-vertex"])
def test_format_edge_list_matches_loop_writer_on_large_graphs(build):
    g = build()
    assert format_edge_list(g) == loop_format_edge_list(g)


def test_edge_list_comments_and_blanks():
    text = "# header comment\n\n4\n0 1  # trailing comment\n\n2 3\n"
    g = parse_edge_list(text)
    assert g.n == 4 and g.edge_count == 2


# each message as the parser that built a (u, v) list and called new_graph gave it
@pytest.mark.parametrize("text, message", [
    ("", "empty edge-list input"),
    ("3\n0 1 2\n", "line 2: expected 'u v', got '0 1 2'"),
    ("3\n0 x\n", "line 2: expected integers, got '0 x'"),
    ("2 2\n", "line 1: expected a single vertex count, got '2 2'"),
    ("3\n0 3\n", "edge (0, 3) out of range for n=3"),
    ("3\n1 1\n", "self-loop (1, 1) not allowed"),
    ("3\n0 5\n0 1 2\n", "line 3: expected 'u v', got '0 1 2'"),  # a format error on any line first
    ("3\n0 1\n5 5\n", "self-loop (5, 5) not allowed"),  # then, per edge, a self-loop before a range
    ("16385\n", "graph declares 16385 nodes, above the limit of 16384"),
])
def test_edge_list_errors(text, message):
    with pytest.raises(ValueError) as err:
        parse_edge_list(text)
    assert str(err.value) == message


def _outcome(parse, text):
    try:
        return parse(text)
    except ValueError as exc:
        return str(exc)


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(edge_list_texts())
def test_edge_list_parser_matches_its_oracle(text):
    assert _outcome(parse_edge_list, text) == _outcome(oracle_parse_edge_list, text)


def test_read_input_decodes_utf8_and_keeps_line_ends(tmp_path):
    path = tmp_path / "g.edges"
    path.write_bytes("# caf\u00e9\r\n3\r0 1\n".encode("utf-8"))
    assert read_input(path, str) == "# caf\u00e9\r\n3\r0 1\n"
    assert load_graph(path) == new_graph(3, [(0, 1)])
    named = f"^{re.escape(str(path))}: "
    with pytest.raises(ValueError, match=named + "invalid literal for int"):
        read_input(path, int)
    path.write_bytes(b"3\n0 1 # \xff\n")
    with pytest.raises(ValueError, match=named + "'utf-8' codec can't decode byte 0xff") as err:
        read_input(path, str)
    assert not isinstance(err.value, UnicodeDecodeError)
    with pytest.raises(FileNotFoundError, match="missing"):
        read_input(tmp_path / "missing", str)
    with pytest.raises(IsADirectoryError):
        read_input(tmp_path, str)


def test_json_round_trip():
    g = new_graph(4, [(0, 3), (1, 2)])
    data = graph_to_json_dict(g)
    assert data == {"n": 4, "edges": [[0, 3], [1, 2]]}
    assert graph_from_json_dict(json.loads(json.dumps(data))) == g
    with pytest.raises(ValueError):
        graph_from_json_dict({"edges": []})


def test_loaders_reject_vertex_counts_above_max_vertices(tmp_path):
    for n in (MAX_VERTICES, MAX_VERTICES + 1):
        edge_file = tmp_path / f"g{n}.edges"
        edge_file.write_text(f"{n}\n0 1\n")
        json_file = tmp_path / f"g{n}.json"
        json_file.write_text(json.dumps({"n": n, "edges": []}))
        loads = (
            lambda: parse_edge_list(edge_file.read_text()),
            lambda: graph_from_json_dict(json.loads(json_file.read_text())),
            lambda: load_graph(edge_file),
            lambda: load_graph(json_file),
        )
        for load in loads:
            if n == MAX_VERTICES:
                assert load().n == n
            else:
                with pytest.raises(ValueError, match=f"limit of {MAX_VERTICES}"):
                    load()


def test_load_graph_sniffs_format(tmp_path):
    g = new_graph(3, [(0, 1), (1, 2)])
    edge_file = tmp_path / "g.edges"
    write_edge_list(g, edge_file)
    assert load_graph(edge_file) == g
    json_file = tmp_path / "g.json"
    json_file.write_text(json.dumps(graph_to_json_dict(g)))
    assert load_graph(json_file) == g


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(small_graphs(12))
def test_graph_files_round_trip(g):
    assert graph_from_json_dict(json.loads(json.dumps(graph_to_json_dict(g)))) == g
    assert parse_edge_list(format_edge_list(g)) == g
    assert format_edge_list(g) == loop_format_edge_list(g)
