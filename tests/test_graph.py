import json
import math
import os
import random
import re
import sys
import warnings
from fractions import Fraction
from itertools import combinations
from unittest import mock

import numpy as np
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
    load_graph,
    max_clique,
    new_graph,
    parse_edge_list,
    sparsest_even,
    sparsest_odd,
    tree_graph,
    write_edge_list,
)
import robustnet.graph as graph_module
from robustnet.construct import TREE_SHAPES
from robustnet.graph import (MAX_INPUT_BYTES, bits, check_fields, check_int, check_number,
                             parse_json, read_input)

from oracles import (
    complete_graph,
    cycle_graph,
    edge_list_texts,
    graph_to_json_dict,
    has_clique_of_size,
    induced_edge_count,
    loop_densest_subset,
    loop_format_edge_list,
    oracle_densest_subset,
    oracle_max_clique,
    oracle_parse_edge_list,
    path_graph,
    random_graph,
    small_graphs,
    traced_memory,
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
    # an edge that is not a pair at all is refused by the same rule
    with pytest.raises(ValueError, match=r"^edge 5 must be a pair of integers$"):
        new_graph(3, [(1, 1), 5])
    with pytest.raises(ValueError, match=r"^edge \(0, 1, 2\) must be a pair of integers$"):
        new_graph(3, [(1, 1), (0, 1, 2)])


def test_new_graph_refuses_edges_that_are_not_iterable():
    for bad in (5, None, 2.5):
        with pytest.raises(ValueError, match=rf"^edges must be pairs of integers, got {bad!r}$"):
            new_graph(3, bad)


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
    just_above = int(sys.float_info.max) + 1  # float() would round it down to the bound
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a numpy scalar is read with no cast warning
        for good in (np.float16(65504), np.float32(0.3), np.finfo(np.float32).max, np.uint8(1)):
            assert check_number(good, "p") is good
        for bad in (True, False, math.nan, math.inf, -math.inf, 10 ** 400, "0.5", None, [0.5],
                    np.float16("inf"), np.float32("nan"), np.bool_(True), just_above, -just_above,
                    Fraction(10 ** 400)):
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


def test_densest_subset_memory_at_the_limit():
    g = random_graph(random.Random(20), MAX_EXACT_N, 0.5)
    found = []
    current, peak = traced_memory(lambda: found.append(densest_subset_of_size(g, 11)))
    assert peak <= 8 << 20  # 8 bytes per subset; two uint8 tables are 2 MiB
    assert current < 1 << 16  # no 2^n table outlives the call
    subset, count = found[0]
    assert len(subset) == 11 and count == induced_edge_count(g, subset)


def test_densest_subset_counts_every_edge_at_the_limit():
    # the uint8 count table holds C(n, 2) + 1 only up to n = 23
    subset, count = densest_subset_of_size(complete_graph(MAX_EXACT_N), MAX_EXACT_N)
    assert subset == frozenset(range(MAX_EXACT_N))
    assert count == MAX_EXACT_N * (MAX_EXACT_N - 1) // 2


def test_densest_subset_refuses_n_above_limit_before_building():
    big = new_graph(MAX_EXACT_N + 1)

    def refuse():
        with pytest.raises(ValueError, match=f"limit of {MAX_EXACT_N}"):
            densest_subset_of_size(big, 2)

    # one uint8 table over 2^21 masks would be 2 MiB
    assert traced_memory(refuse)[1] < 1 << 16


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
    # row blocks of 65 rows: most hold no edge, and the last row none either
    lambda: new_graph(2000, [(0, 1999), (700, 701), (700, 1999), (1500, 1998), (1998, 1999)]),
], ids=["G(1000,0.05)", "G(199,0.9)", "edgeless", "one-vertex", "sparse-blocks"])
def test_format_edge_list_matches_loop_writer_on_large_graphs(build):
    g = build()
    assert format_edge_list(g) == loop_format_edge_list(g)


def test_format_edge_list_memory_stays_within_its_blocks():
    # the text and its blocks' lines take twice its length; reading every row
    # at once would add tens of MB of column ints for the million edges
    g = erdos_renyi(2000, 0.5, 1)
    texts = []
    peak = traced_memory(lambda: texts.append(format_edge_list(g)))[1]
    assert texts[0].count("\n") == g.edge_count + 1
    assert peak < 2 * len(texts[0]) + (4 << 20)


def test_edge_list_comments_and_blanks():
    text = "# header comment\n\n4\n0 1  # trailing comment\n\n2 3\n"
    g = parse_edge_list(text)
    assert g.n == 4 and g.edge_count == 2


# each message as the parser that built a (u, v) list and called new_graph gave it
@pytest.mark.parametrize("text, message", [
    ("", "empty edge-list input"),
    ("3\n0 1 2\n", "line 2: expected 'u v', got '0 1 2'"),
    ("3\n0 x\n", "line 2: expected integers, got '0 x'"),
    ("0x10\n", "line 1: expected integers, got '0x10'"),
    ("3\n0 1e3\n", "line 2: expected integers, got '0 1e3'"),
    ("3\n1.0 2\n", "line 2: expected integers, got '1.0 2'"),
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


# a field is read by Python's int(): a sign, underscores between digits and the
# decimal digits of any script are accepted
@pytest.mark.parametrize("text, edges", [
    ("+3\n0 +2\n", (3, [(0, 2)])),
    ("1_6\n0 1_5\n", (16, [(0, 15)])),
    ("\u0663\n0 \u0662\n", (3, [(0, 2)])),
])
def test_edge_list_fields_are_read_by_int(text, edges):
    assert parse_edge_list(text) == new_graph(*edges)


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


def test_read_input_refuses_a_file_past_its_byte_limit(tmp_path):
    path = tmp_path / "t.json"
    text = '{"F": 0}'
    path.write_bytes(text.encode("ascii") + b" " * (MAX_INPUT_BYTES - len(text)))
    assert read_input(path, parse_json) == {"F": 0}
    with path.open("ab") as f:
        f.write(b" ")
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: longer than the "
                                         f"{MAX_INPUT_BYTES}-byte limit of an input file$"):
        read_input(path, parse_json)


@pytest.mark.skipif(not os.path.exists("/dev/zero"), reason="needs /dev/zero")
def test_read_input_refuses_an_endless_input():
    # read whole, /dev/zero would take every byte of memory there is
    found = []
    peak = traced_memory(lambda: found.append(pytest.raises(ValueError, read_input, "/dev/zero", str)))[1]
    assert str(found[0].value) == f"/dev/zero: longer than the {MAX_INPUT_BYTES}-byte limit of an input file"
    assert peak < MAX_INPUT_BYTES + (1 << 20)


def test_a_threat_for_every_vertex_fits_within_the_input_limit(tmp_path):
    spec = {"kind": "sinusoid", "amplitude": 1.2345678901234567, "offset": -0.1234567890123456,
            "period": 20.123456789012345}
    threat = {"scope": "F-total", "F": MAX_VERTICES,
              "behaviors": {str(v): spec for v in range(MAX_VERTICES)}}
    path = tmp_path / "t.json"
    path.write_text(json.dumps(threat, indent=2))
    assert read_input(path, parse_json) == threat


def _file_outcome(path, text):
    """load_graph of text written to path as UTF-8: the graph, or the message after the path."""
    path.write_bytes(text.encode("utf-8"))
    try:
        return load_graph(path)
    except ValueError as exc:
        message = str(exc)
        assert message.startswith(f"{path}: ")
        return message[len(f"{path}: "):]


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(edge_list_texts())
def test_edge_list_files_read_as_the_line_parser_reads_their_text(tmp_path_factory, text):
    path = tmp_path_factory.mktemp("door") / "g.edges"
    assert _file_outcome(path, text) == _outcome(parse_edge_list, text)


# lines that take a block off the plain path, or into the line parser's errors
_ODD_LINES = ["", "# note", "3 4  # note", "1  2", " 1 2", "1 2 ", "5\t6", "7 8\r", "+1 2",
              "1 1", "0 99", "x", "1 2 3", "7", "000000000000000000001 2", "99999999999999999999 0"]


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_blocks_of_plain_and_other_lines_read_as_one_text(tmp_path_factory, data):
    # blocks of 48 bytes: every text is cut into many, plain ones and others mixed,
    # with rows both as a bool matrix and as packed bits
    n = data.draw(st.integers(1, 40), label="n")
    lines = [f"{u} {v}" for u, v in data.draw(st.lists(st.tuples(
        st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda e: e[0] != e[1]), max_size=60),
        label="edges")]
    for _ in range(data.draw(st.integers(0, 3), label="odd lines")):
        at = data.draw(st.integers(0, len(lines)), label="at")
        lines.insert(at, data.draw(st.sampled_from(_ODD_LINES), label="odd line"))
    end = data.draw(st.sampled_from(["\n", "\n", "\r\n", "\r"]), label="line end")
    text = f"{n}{end}" + "".join(line + end for line in lines)
    path = tmp_path_factory.mktemp("blocks") / "g.edges"
    bool_rows_n = data.draw(st.sampled_from([0, MAX_VERTICES]), label="bool rows up to")
    with mock.patch.object(graph_module, "_READ_BLOCK_BYTES", 48), \
            mock.patch.object(graph_module, "_BOOL_ROWS_N", bool_rows_n):
        assert _file_outcome(path, text) == _outcome(parse_edge_list, text)


def _large_edge_list():
    """The edge list of G(800, 0.5): about 1.4 MiB, two blocks."""
    text = format_edge_list(erdos_renyi(800, 0.5, 4))
    assert len(text) > graph_module._READ_BLOCK_BYTES
    return text


def test_a_bad_token_in_the_second_block_reports_its_line(tmp_path):
    lines = _large_edge_list().split("\n")
    at = len(lines) - 1000  # line at + 1, in the second block
    lines[at] = "12 x"
    text = "\n".join(lines)
    message = f"line {at + 1}: expected integers, got '12 x'"
    assert _outcome(parse_edge_list, text) == message
    assert _file_outcome(tmp_path / "g.edges", text) == message


def test_a_bad_edge_in_the_first_block_is_named_after_a_bad_line_in_the_second(tmp_path):
    lines = _large_edge_list().split("\n")
    lines[5], lines[-1000] = "7 7", "1 2 3"
    text = "\n".join(lines)
    assert _file_outcome(tmp_path / "g.edges", text) == f"line {len(lines) - 999}: expected 'u v', got '1 2 3'"
    lines[-1000] = "1 2"
    text = "\n".join(lines)
    assert _file_outcome(tmp_path / "g.edges", text) == "self-loop (7, 7) not allowed"


def test_a_line_may_cross_the_first_read_but_not_fill_a_block(tmp_path):
    block = graph_module._READ_BLOCK_BYTES
    head = "4\n" + "0 1\n" * ((block - 100) // 4)
    spaces = " " * 5000  # from before the first block's end to past it
    text = head + "2" + spaces + "3\n1 2\n"
    assert _file_outcome(tmp_path / "g.edges", text) == new_graph(4, [(0, 1), (2, 3), (1, 2)])
    # a line of a block or more is refused with its number
    text = head + "2" + " " * block + "3\n"
    assert _file_outcome(tmp_path / "g.edges", text) == (
        f"line {head.count(chr(10)) + 1}: longer than a block of {block} bytes")


def test_a_file_with_other_line_breaks_is_cut_at_them(tmp_path):
    text = _large_edge_list()
    for end in ("\r", "\u2028"):
        assert _file_outcome(tmp_path / "g.edges", text.replace("\n", end)) == parse_edge_list(text)


@pytest.mark.skipif(not os.path.exists("/dev/zero"), reason="needs /dev/zero")
def test_an_endless_line_fails_within_its_first_block():
    with pytest.raises(ValueError, match="^/dev/zero: line 1: longer than a block"):
        load_graph("/dev/zero")


def test_bytes_that_are_not_utf8_are_placed_in_the_file(tmp_path):
    lines = _large_edge_list().split("\n")
    path = tmp_path / "g.edges"
    for bad in (b"\xff", b"\xe2\x80"):  # one bad byte; a character cut short by the end
        data = "\n".join(lines).encode("ascii") + b"# " + bad
        path.write_bytes(data)
        with pytest.raises(UnicodeDecodeError) as whole:
            data.decode("utf-8")
        with pytest.raises(ValueError) as err:
            load_graph(path)
        assert str(err.value) == f"{path}: {whole.value}"


def test_loading_a_large_edge_list_holds_one_block_and_the_rows(tmp_path):
    # the line parser held the text, a list of its lines and an int an end: 142 MiB;
    # the block reader holds a block, its ends and the rows, a byte a pair (4 MiB)
    g = erdos_renyi(2000, 0.5, 1)
    path = tmp_path / "g.edges"
    write_edge_list(g, path)
    loaded = []
    peak = traced_memory(lambda: loaded.append(load_graph(path)))[1]
    assert loaded[0] == g
    assert peak < 20 << 20


def test_loading_at_the_vertex_limit_releases_the_rows_as_it_makes_ints(tmp_path):
    # a sparse edge list of MAX_VERTICES vertices, as large as G(16384, 0.001)'s:
    # the packed rows take 32 MiB and the row ints 33.6 MiB; holding both at
    # once peaked at 67.6 MiB
    n = MAX_VERTICES
    rng = np.random.default_rng(1)
    ends = rng.integers(0, n, size=(140_000, 2))
    ends = ends[ends[:, 0] != ends[:, 1]]
    ends[:n, 0] = np.arange(n)  # every row reaches a high column
    ends[:n, 1] = n - 1 - np.arange(n)
    ends = ends[ends[:, 0] != ends[:, 1]]
    path = tmp_path / "g.edges"
    path.write_text(f"{n}\n" + "".join(f"{u} {v}\n" for u, v in ends.tolist()))
    loaded = []
    peak = traced_memory(lambda: loaded.append(load_graph(path)))[1]
    assert loaded[0] == new_graph(n, ends.tolist())
    assert peak < 48 << 20


def test_packed_rows_hold_the_same_graph(tmp_path):
    g = erdos_renyi(graph_module._BOOL_ROWS_N + 100, 0.002, 3)
    path = tmp_path / "g.edges"
    write_edge_list(g, path)
    assert load_graph(path) == g


@pytest.mark.parametrize("data, outcome", [
    (b"\xef\xbb\xbf3\n0 1\n", new_graph(3, [(0, 1)])),
    (b"\xef\xbb\xbf", "empty edge-list input"),
    (b'\xef\xbb\xbf {"n": 2, "edges": [[0, 1]]}', new_graph(2, [(0, 1)])),
    # one mark is skipped, not two
    (b"\xef\xbb\xbf\xef\xbb\xbf3\n", "line 1: expected integers, got '\\ufeff3'"),
    (b'\xef\xbb\xbf\xef\xbb\xbf{"n": 2, "edges": []}', "line 1: expected integers, got "
                                                    "'\\ufeff{\"n\": 2, \"edges\": []}'"),
    # bytes are placed in the file, the mark included
    (b"\xef\xbb\xbf3\n\xff", "'utf-8' codec can't decode byte 0xff in position 5: invalid start byte"),
])
def test_one_leading_byte_order_mark_is_skipped(tmp_path, data, outcome):
    path = tmp_path / "g"
    path.write_bytes(data)
    try:
        result = load_graph(path)
    except ValueError as exc:
        result = str(exc).removeprefix(f"{path}: ")
    assert result == outcome
    # read_input, the door of threat and config files, skips the same mark
    if isinstance(outcome, str) and "decode" in outcome:
        with pytest.raises(ValueError, match="in position 5"):
            read_input(path, str)
    else:
        assert read_input(path, str) == data.decode("utf-8")[1:]


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
