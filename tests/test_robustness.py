import json
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import robustnet.robustness
from robustnet import (
    check_structural_lemmas,
    edge_lower_bound,
    erdos_renyi,
    is_r_robust,
    max_robustness,
    new_graph,
    reachability,
    robustness_levels,
    sparsest_even,
    sparsest_odd,
    tree_graph,
)
from robustnet.graph import MAX_EXACT_N, bits
from robustnet.robustness import (_CHUNK, EVEN_CASE, GENERAL_COROLLARY, MIN_DEGREE, ODD_CASE,
                                  _NONE, RobustnessCertificate, _reach_terms, _subset_tables,
                                  _violating_pair)

from oracles import (
    complete_graph,
    cycle_graph,
    loop_densest_subset,
    oracle_is_r_robust,
    oracle_r_max,
    path_graph,
    random_graph,
    scan_is_r_robust,
    scan_max_robustness,
    small_graphs,
    subset_reachability,
    traced_memory,
)


def test_reachability_examples():
    assert reachability(complete_graph(5), {0}) == 4
    assert reachability(cycle_graph(4), {0, 1}) == 1
    assert reachability(cycle_graph(4), set(range(4))) == 0
    with pytest.raises(ValueError):
        reachability(complete_graph(3), set())
    with pytest.raises(ValueError):
        reachability(complete_graph(3), {5})


def test_reachability_reads_members_as_checked_vertices():
    # duplicates collapse; a member out of range, or a bool, is refused as a vertex
    assert reachability(cycle_graph(4), [0, 1, 0, 1]) == 1
    with pytest.raises(ValueError, match=r"^vertex 5 out of range 0\.\.2$"):
        reachability(complete_graph(3), [0, 5])
    with pytest.raises(ValueError, match=r"^vertex True out of range 0\.\.2$"):
        reachability(complete_graph(3), [True])


def test_reachability_matches_oracle():
    rng = random.Random(3)
    for _ in range(40):
        g = random_graph(rng, rng.randint(2, 9), rng.random())
        members = frozenset(v for v in range(g.n) if rng.random() < 0.5) or frozenset({0})
        assert reachability(g, members) == subset_reachability(g, members)


def test_is_r_robust_examples():
    ok, witness = is_r_robust(complete_graph(5), 3)
    assert ok and witness is None

    ok, witness = is_r_robust(cycle_graph(4), 2)
    assert not ok
    assert witness == ({0, 1}, {2, 3})  # first violating pair in enumeration order

    # connected trees are 1-robust
    for n in range(2, 9):
        assert is_r_robust(path_graph(n), 1)[0]
        assert is_r_robust(tree_graph(n, "star"), 1)[0]


def test_is_r_robust_edge_cases():
    g = path_graph(3)
    assert is_r_robust(g, 0) == (True, None)
    with pytest.raises(ValueError):
        is_r_robust(g, -1)
    # the single-vertex graph has no disjoint pair: every level is vacuous
    single = new_graph(1)
    assert is_r_robust(single, 5) == (True, None)


def test_is_r_robust_monotone_in_r():
    rng = random.Random(17)
    for _ in range(20):
        g = random_graph(rng, rng.randint(2, 8), rng.random())
        ceiling = (g.n + 1) // 2
        verdicts = [is_r_robust(g, r)[0] for r in range(ceiling + 2)]
        assert verdicts == sorted(verdicts, reverse=True)


def test_max_robustness_goldens():
    assert max_robustness(complete_graph(5)).r_max == 3
    cert = max_robustness(path_graph(3))
    assert cert.r_max == 1
    assert cert.witness == ({0}, {2})
    cert = max_robustness(cycle_graph(4))
    assert cert.r_max == 1
    assert cert.witness == ({0, 1}, {2, 3})
    assert max_robustness(sparsest_odd(3)).r_max == 3


def test_max_robustness_single_vertex_convention():
    cert = max_robustness(new_graph(1))
    assert cert.r_max == 1
    assert cert.witness is None
    assert cert.pairs_examined == 0
    assert cert.to_json_dict() == {"r_max": 1, "witness": None, "pairs_examined": 0}


def test_certificate_witness_properties():
    rng = random.Random(29)
    for _ in range(30):
        g = random_graph(rng, rng.randint(2, 9), rng.random())
        cert = max_robustness(g)
        assert cert.pairs_examined > 0
        s1, s2 = cert.witness
        assert s1 and s2 and not (s1 & s2)
        r1 = subset_reachability(g, s1)
        r2 = subset_reachability(g, s2)
        assert r1 <= cert.r_max and r2 <= cert.r_max
        # the witness realizes the minimum over pairs
        assert max(r1, r2) == cert.r_max


def test_certificate_json_schema():
    cert = max_robustness(cycle_graph(4))
    data = cert.to_json_dict()
    assert set(data) == {"r_max", "witness", "pairs_examined"}
    assert data["witness"] == {"s1": [0, 1], "s2": [2, 3]}


def test_certificate_text_is_the_indented_json_dump():
    graphs = [new_graph(1), new_graph(2)]  # the null witness, then the smallest pair
    graphs += [build(r) for r in range(1, 9) for build in (sparsest_odd, sparsest_even)]
    graphs += [erdos_renyi(n, p, 1000 * n + int(100 * p)) for n in range(2, 15) for p in (0.3, 0.7, 0.95)]
    certs = [max_robustness(g) for g in graphs]
    certs.append(RobustnessCertificate(1, (frozenset(), frozenset({0})), 0))  # built by hand: an empty side
    for cert in certs:
        assert cert.to_json_text() == json.dumps(cert.to_json_dict(), indent=2) + "\n"


def test_robustness_ceiling():
    rng = random.Random(41)
    for _ in range(30):
        g = random_graph(rng, rng.randint(1, 9), rng.random())
        assert max_robustness(g).r_max <= (g.n + 1) // 2
    for n in range(1, 11):
        assert max_robustness(complete_graph(n)).r_max == (n + 1) // 2


def test_adding_edges_never_hurts():
    rng = random.Random(53)
    for _ in range(6):
        g = random_graph(rng, rng.randint(2, 7), 0.4)
        base = max_robustness(g).r_max
        for u in range(g.n):
            for v in range(u + 1, g.n):
                if not g.has_edge(u, v):
                    bigger = new_graph(g.n, list(g.edges()) + [(u, v)])
                    assert max_robustness(bigger).r_max >= base


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(small_graphs(10), st.data())
def test_adding_an_edge_never_lowers_r_max_property(g, data):
    missing = [(u, v) for u in range(g.n) for v in range(u + 1, g.n) if not g.has_edge(u, v)]
    if missing:
        u, v = data.draw(st.sampled_from(missing))
        bigger = new_graph(g.n, [*g.edges(), (u, v)])
        assert max_robustness(bigger).r_max >= max_robustness(g).r_max


def test_degree_necessity():
    rng = random.Random(61)
    for _ in range(25):
        g = random_graph(rng, rng.randint(2, 9), rng.random())
        cert = max_robustness(g)
        if g.n > cert.r_max:
            assert min(row.bit_count() for row in g.rows) >= cert.r_max


def test_certifier_matches_oracle_quick():
    # the full >= 500-instance sweep lives in the acceptance suite
    rng = random.Random(97)
    for _ in range(80):
        g = random_graph(rng, rng.randint(1, 8), rng.random())
        cert = max_robustness(g)
        assert cert.r_max == oracle_r_max(g)
        assert oracle_is_r_robust(g, cert.r_max)
        if g.n > 1:
            assert not oracle_is_r_robust(g, cert.r_max + 1)


def test_capability_limit():
    big = new_graph(MAX_EXACT_N + 1)
    with pytest.raises(ValueError):
        is_r_robust(big, 1)
    with pytest.raises(ValueError):
        max_robustness(big)


def test_witness_walk_ends_after_the_last_submask():
    # best promises S1 = {0} a partner with reach 0 that reach does not hold:
    # the walk tries {1}, {2} and {1, 2}, then raises instead of wrapping round
    reach, best, pair = (np.array(table, dtype=np.int8) for table in
                         ([127, 0, 2, 2, 2, 2, 2, 2], [127] + [0] * 7, [0] * 8))
    with pytest.raises(RuntimeError, match=r"S1 = \[0\]"):
        _violating_pair(reach, best, pair, 0)


def _assert_matches_scan(g):
    cert = max_robustness(g)
    assert (cert.r_max, cert.witness) == scan_max_robustness(g)
    for r in range((g.n + 1) // 2 + 2):
        assert is_r_robust(g, r) == scan_is_r_robust(g, r)


def test_certificates_match_scan_reference_on_random_graphs():
    rng = random.Random(2409)
    for i in range(440):
        _assert_matches_scan(random_graph(rng, 1 + i % 11, rng.random()))


def test_certificates_match_scan_reference_on_extremal_graphs():
    for r in range(1, 6):
        for g in (sparsest_odd(r), sparsest_even(r)):
            _assert_matches_scan(g)
            for u, v in g.edges():
                _assert_matches_scan(g.with_edge_removed(u, v))


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(small_graphs(9))
def test_certificates_match_scan_reference_property(g):
    _assert_matches_scan(g)


def _assert_levels_match(graphs):
    expected = [max_robustness(g).r_max for g in graphs]
    assert robustness_levels(graphs) == expected
    return expected


def test_robustness_levels_match_certificates_on_seeded_stacks():
    rng = random.Random(3301)
    for n in range(1, 13):
        for size in range(1 + n % 3, 41, 3):  # every B = 1..40 across the n
            graphs = [random_graph(rng, n, rng.random()) for _ in range(size)]
            levels = _assert_levels_match(graphs)
            assert levels[:2] == [scan_max_robustness(g)[0] for g in graphs[:2]]


def test_robustness_levels_match_certificates_on_complete_and_edgeless_stacks():
    for n in range(1, 13):
        assert _assert_levels_match([complete_graph(n)] * 3) == [(n + 1) // 2] * 3
        assert _assert_levels_match([new_graph(n)] * 2) == [1 if n == 1 else 0] * 2
        assert _assert_levels_match([new_graph(n), complete_graph(n)])[1] == (n + 1) // 2


def test_robustness_levels_match_certificates_on_extremal_graphs():
    for r in range(1, 6):
        for g in (sparsest_odd(r), sparsest_even(r)):
            graphs = [g] + [g.with_edge_removed(u, v) for u, v in g.edges()]
            levels = _assert_levels_match(graphs)
            assert levels == [scan_max_robustness(h)[0] for h in graphs]
            assert levels[0] == r


def test_slicing_moves_memory_never_output(monkeypatch):
    # the default takes each stack in one slice; 1 << 14 entries give 32 to 2
    # graphs a slice at n = 9..13, and 1 gives one graph a slice and one vertex a chunk
    rng = random.Random(1913)
    for n in range(9, 14):
        graphs = [random_graph(rng, n, rng.random()) for _ in range(53)]
        default = robustness_levels(graphs)
        assert default == [max_robustness(g).r_max for g in graphs]
        for budget in (1 << 14, 1):
            with monkeypatch.context() as m:
                m.setattr(robustnet.robustness, "_CHUNK", budget)
                assert robustness_levels(graphs) == default


def test_robustness_levels_input_rules():
    assert robustness_levels([]) == []
    with pytest.raises(ValueError, match="one vertex count"):
        robustness_levels([complete_graph(3), complete_graph(4)])
    big = new_graph(MAX_EXACT_N + 1)

    def refuse():
        with pytest.raises(ValueError, match=r"2\^n"):
            robustness_levels([big, big])

    assert traced_memory(refuse)[1] < 1 << 20


def _submasks(m):
    s = m
    while s:
        yield s
        s = (s - 1) & m


def test_subset_tables_match_reachability_entry_by_entry():
    # a transform fault can leave r_max right on nearly every graph, so every entry is checked
    rng = random.Random(6151)
    cases = {}
    for n in range(1, 11):
        graphs = [random_graph(rng, n, k / 5) for k in range(6)]
        full = (1 << n) - 1
        expected = []
        for g in graphs:
            want = [_NONE] + [reachability(g, bits(m)) for m in range(1, full + 1)]
            least = [_NONE] + [min(want[s] for s in _submasks(m)) for m in range(1, full + 1)]
            expected.append([want, least, [max(want[m], least[full ^ m]) for m in range(full + 1)]])
        cases[n] = graphs, expected
    # n ascending, then descending with stacks of 1 and 6 graphs, so that
    # per-n state served for the wrong n or stack size shows
    order = [(n, 6) for n in range(1, 11)] + [(n, b) for n in range(10, 0, -1) for b in (1, 6)]
    for n, size in order:
        graphs, expected = cases[n]
        tables = _subset_tables([g.rows for g in graphs[:size]])
        assert [table.shape for table in tables] == [(size, 1 << n)] * 3
        for b in range(size):
            assert [table[b].tolist() for table in tables] == expected[b]


def test_reach_terms_are_made_once_per_n_and_read_only():
    _reach_terms.cache_clear()
    big = new_graph(MAX_EXACT_N + 1)
    with pytest.raises(ValueError, match=r"2\^n"):
        max_robustness(big)
    assert _reach_terms.cache_info().currsize == 0  # refused before any entry is made
    max_robustness(sparsest_odd(4))
    is_r_robust(path_graph(7), 2)
    assert _reach_terms.cache_info().currsize == 1  # two graphs on n = 7 share one entry
    for array in (array for part in _reach_terms(7) for array in part):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 0
    assert sum(array.nbytes for part in _reach_terms(MAX_EXACT_N) for array in part) < 1 << 20


def test_pairs_examined_counts_s1_candidates():
    for n in range(2, 9):
        assert max_robustness(path_graph(n)).pairs_examined == 2 ** n - 2


def test_certifier_memory_stays_within_16_bytes_per_subset():
    g = sparsest_even(8)  # n = 16: 2^16 subsets
    for run in (lambda: max_robustness(g), lambda: is_r_robust(g, 8), lambda: is_r_robust(g, 9)):
        run()  # first calls may fill interpreter caches
        current, peak = traced_memory(run)
        assert peak <= 1 << 20
        assert current < 1 << 16  # no subset table outlives the call


def test_reach_build_holds_one_chunk_at_a_time():
    # one chunk of at most _CHUNK entries (one vertex's 2^n when that is more)
    # besides at most three tables' worth of 2^n entries (reach, the chunk's
    # maximum and the per-vertex terms): a one-shot build at n = 16, two
    # vertices a chunk at n = 20 or a chunk held past its fold go over
    for g in (sparsest_even(8), erdos_renyi(MAX_EXACT_N, 0.8, 1)):
        size = 1 << g.n
        _subset_tables([g.rows])  # first calls may fill interpreter caches
        peak = traced_memory(lambda: _subset_tables([g.rows]))[1]
        assert peak <= max(_CHUNK, size) + 3 * size


def test_chunking_moves_memory_never_output(monkeypatch):
    # one vertex a chunk against the default's one to nine chunks a build
    rng = random.Random(1618)
    for n in (16, 17, 18):
        graphs = [random_graph(rng, n, p) for p in (0.3, 0.6, 0.9)]
        for stack in ([graphs[1].rows], [g.rows for g in graphs]):
            default = _subset_tables(stack)
            with monkeypatch.context() as m:
                m.setattr(robustnet.robustness, "_CHUNK", 1)
                single = _subset_tables(stack)
            for table, expected in zip(default, single):
                assert table.tobytes() == expected.tobytes()


def test_robustness_levels_memory_does_not_grow_with_the_stack():
    # at n = 20 each slice holds one graph, so 16 graphs peak like one certification
    rng = random.Random(2020)
    graphs = [random_graph(rng, MAX_EXACT_N, 0.75) for _ in range(16)]
    expected = [max_robustness(g).r_max for g in graphs]
    single = traced_memory(lambda: max_robustness(graphs[0]))[1]
    levels = []
    peak = traced_memory(lambda: levels.extend(robustness_levels(graphs)))[1]
    assert levels == expected
    assert peak <= single + (1 << 18)


def test_capability_limit_is_checked_before_tables_are_built():
    big = new_graph(MAX_EXACT_N + 1)

    def refuse():
        with pytest.raises(ValueError, match=r"2\^n"):
            is_r_robust(big, 1)
        with pytest.raises(ValueError, match=r"2\^n"):
            max_robustness(big)

    assert traced_memory(refuse)[1] < 1 << 20


def test_edge_lower_bound_values():
    assert edge_lower_bound(13, 7).bound == 63
    assert edge_lower_bound(13, 7).kind == ODD_CASE
    assert edge_lower_bound(14, 7).bound == 67
    assert edge_lower_bound(14, 7).kind == EVEN_CASE
    assert edge_lower_bound(10, 5).bound == 33
    assert edge_lower_bound(5, 3).bound == 9
    # n = 2r hits the even-case formula even at r = 1 (single edge is forced)
    report = edge_lower_bound(2, 1)
    assert report.bound == 1 and report.kind == EVEN_CASE
    assert edge_lower_bound(1, 1).bound == 0
    # past n = 2r the larger of 3r(r - 1)/2 and ceil(rn/2) (every degree is at least r)
    report = edge_lower_bound(9, 3)
    assert report.bound == 14 and report.kind == MIN_DEGREE
    report = edge_lower_bound(9, 4)  # the two terms tie at 18
    assert report.bound == 18 and report.kind == GENERAL_COROLLARY
    report = edge_lower_bound(11, 5)
    assert report.bound == 30 and report.kind == GENERAL_COROLLARY


def test_edge_lower_bound_errors():
    with pytest.raises(ValueError):
        edge_lower_bound(4, 3)  # below 2r-1 no r-robust graph exists
    with pytest.raises(ValueError):
        edge_lower_bound(5, 0)


def test_bound_soundness_on_certified_graphs():
    rng = random.Random(113)
    for _ in range(40):
        g = random_graph(rng, rng.randint(2, 9), rng.random())
        cert = max_robustness(g)
        if cert.r_max >= 1:
            assert g.edge_count >= edge_lower_bound(g.n, cert.r_max).bound


def test_structural_checks_odd_case():
    report = check_structural_lemmas(sparsest_odd(4))
    assert report.all_passed
    (clique,) = report.checks
    assert clique.name == "clique"
    assert clique.required == 5 and clique.found >= 5


def test_ceiling_robust_draws_at_odd_n_have_a_universal_vertex():
    # the odd-case lemma: an r-robust graph on 2r - 1 vertices (r >= 2) has a
    # vertex of degree n - 1; dense draws are ceiling-robust often enough to test it
    robust = []

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(st.sampled_from((3, 5, 7, 9, 11, 13, 15)), st.floats(0.85, 0.95),
           st.integers(0, 2**32 - 1))
    def check(n, p, seed):
        g = erdos_renyi(n, p, seed)
        if max_robustness(g).r_max == (n + 1) // 2:
            robust.append(n)
            assert any(g.degree(v) == n - 1 for v in range(n))

    check()
    # not vacuous: about half the draws reach the ceiling, at every n
    assert len(robust) >= 80 and set(robust) == {3, 5, 7, 9, 11, 13, 15}


def test_structural_checks_even_case():
    report = check_structural_lemmas(sparsest_even(5))
    assert report.all_passed
    clique, dense = report.checks
    assert clique.required == 4 and clique.found >= 4
    assert dense.name == "dense-subset"
    assert dense.required == 13 and dense.found >= 13
    assert len(dense.witness) == 6


def test_structural_checks_complete_graph():
    report = check_structural_lemmas(complete_graph(5))
    assert report.all_passed  # a 5-clique certainly contains a 4-clique


def test_structural_checks_report_failure():
    # a path on 5 vertices is nowhere near 3-robust; the checks just report it
    report = check_structural_lemmas(path_graph(5))
    assert not report.all_passed


def test_structural_checks_match_loop_densest_subset(monkeypatch):
    def found_and_witness(report):
        return [(check.name, check.found, check.witness) for check in report.checks]

    for r in range(2, 11):
        for g in (sparsest_odd(r), sparsest_even(r)):
            table = found_and_witness(check_structural_lemmas(g))
            with monkeypatch.context() as patch:
                patch.setattr("robustnet.robustness.densest_subset_of_size", loop_densest_subset)
                assert found_and_witness(check_structural_lemmas(g)) == table


def test_is_r_robust_rejects_bool_level():
    with pytest.raises(ValueError):
        is_r_robust(path_graph(4), True)


def test_edge_lower_bound_rejects_bool_level():
    with pytest.raises(ValueError):
        edge_lower_bound(1, True)
    with pytest.raises(ValueError):
        edge_lower_bound(True, 1)


def test_structural_checks_are_chosen_by_n_alone():
    # the level is the ceiling (n + 1) // 2; the single vertex is 1-robust only by convention
    assert check_structural_lemmas(new_graph(1)).checks == ()
    for n in range(2, MAX_EXACT_N + 1):
        r = (n + 1) // 2
        report = check_structural_lemmas(sparsest_odd(r) if n % 2 else sparsest_even(r))
        assert (report.n, report.r) == (n, r) and report.all_passed
        required = [(check.name, check.required) for check in report.checks]
        if n % 2:
            assert required == [("clique", r + 1)]
        else:
            assert required == [("clique", (r + 4) // 2), ("dense-subset", (r * r + 2) // 2)]


def test_structural_checks_wrong_n():
    with pytest.raises(ValueError, match=f"limit of {MAX_EXACT_N}"):
        check_structural_lemmas(sparsest_odd((MAX_EXACT_N + 1) // 2 + 1))  # the first odd n above the limit
