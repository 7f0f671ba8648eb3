"""Acceptance suite: one test per shipped guarantee, each printing a
PASS/FAIL line (run with -s to watch them stream).

Covers the bound table, exact certification of both extremal families,
per-edge minimality, structural subgraph requirements, certifier-vs-oracle
equivalence, the resilient-consensus study and its negative control, the
reproducible random-graph experiment, and the robustness ceiling.
"""

import random
from contextlib import contextmanager

from robustnet import (
    ExperimentConfig,
    ThreatModel,
    check_structural_lemmas,
    check_validity,
    constant,
    edge_lower_bound,
    is_r_robust,
    max_robustness,
    records_to_csv_text,
    run_experiment,
    simulate,
    sparsest_even,
    sparsest_odd,
    summary_to_csv_text,
)
from robustnet.cli import main

from oracles import complete_graph, cycle_graph, oracle_r_max, random_graph


@contextmanager
def criterion(name):
    try:
        yield
    except BaseException:
        print(f"[FAIL] {name}")
        raise
    print(f"[PASS] {name}")


def test_criterion_1_bound_formulas(capsys):
    with criterion("1 bound formulas reproduce the published values"):
        for n, r, expected in [(13, 7, 63), (14, 7, 67), (10, 5, 33), (5, 3, 9)]:
            assert edge_lower_bound(n, r).bound == expected
        assert main(["bounds", "--r-min", "1", "--r-max", "7", "--format", "csv",
                     "--quiet"]) == 0
        rows = capsys.readouterr().out.strip().splitlines()[1:]
        table = {(int(n), int(r)): int(bound)
                 for r, n, bound, _ in (row.split(",") for row in rows)}
        assert table[(13, 7)] == 63
        assert table[(14, 7)] == 67
        assert table[(10, 5)] == 33
        assert table[(5, 3)] == 9


def test_criterion_2_constructions_certify_exactly():
    with criterion("2 both constructions certify r_max = r with exact edge counts, r = 1..6"):
        for r in range(1, 7):
            odd = sparsest_odd(r)
            assert odd.n == 2 * r - 1
            assert odd.edge_count == 3 * r * (r - 1) // 2
            assert max_robustness(odd).r_max == r

            even = sparsest_even(r)
            assert even.n == 2 * r
            assert even.edge_count == (r * (3 * r - 2) + 2) // 2
            assert max_robustness(even).r_max == r


def test_criterion_3_every_edge_is_necessary():
    with criterion("3 removing any single edge drops r_max below r, r = 2..5"):
        for r in range(2, 6):
            for g in (sparsest_odd(r), sparsest_even(r)):
                for u, v in list(g.edges()):
                    robust, witness = is_r_robust(g.with_edge_removed(u, v), r)
                    assert not robust, (r, g.n, (u, v))
                    assert witness is not None


def test_criterion_4_structural_requirements():
    with criterion("4 clique and dense-subgraph structure holds on both constructions, r = 2..6"):
        for r in range(2, 7):
            odd_report = check_structural_lemmas(sparsest_odd(r))
            assert odd_report.all_passed, (r, odd_report)
            even_report = check_structural_lemmas(sparsest_even(r))
            assert even_report.all_passed, (r, even_report)
            clique, dense = even_report.checks
            assert clique.found >= (r + 4) // 2
            assert dense.found >= (r * r + 2) // 2


def test_criterion_5_certifier_matches_naive_oracle():
    with criterion("5 pruned certifier equals the naive oracle on >= 500 random graphs, n <= 10"):
        rng = random.Random(20240)
        disagreements = 0
        checked = 0
        for _ in range(500):
            g = random_graph(rng, rng.randint(1, 9), rng.random())
            if max_robustness(g).r_max != oracle_r_max(g):
                disagreements += 1
            checked += 1
        for seed in range(20):  # include the n = 10 boundary
            g = random_graph(random.Random(seed), 10, 0.3 + 0.03 * seed)
            if max_robustness(g).r_max != oracle_r_max(g):
                disagreements += 1
            checked += 1
        assert checked >= 500
        assert disagreements == 0


def _consensus_study(g, trials=100):
    ok = 0
    for trial in range(trials):
        rng = random.Random(7919 * trial + 13)
        malicious = frozenset(rng.sample(range(g.n), 3))  # any 3-subset is 3-local
        threat = ThreatModel(
            scope="F-local",
            f=3,
            malicious=malicious,
            behaviors={m: constant(150.0 + 40.0 * k)
                       for k, m in enumerate(sorted(malicious))},
        )
        initial = [rng.uniform(-100.0, 100.0) for _ in range(g.n)]
        trace = simulate(g, threat, initial, max_steps=500, tol=1e-6)
        verdict = check_validity(trace)
        if verdict.agreement and verdict.validity:
            ok += 1
    return ok


def test_criterion_6_consensus_study():
    with criterion("6 100/100 trials agree within the initial hull on both 7-robust graphs"):
        assert _consensus_study(sparsest_odd(7)) == 100
        assert _consensus_study(sparsest_even(7)) == 100


def test_criterion_7_negative_control():
    with criterion("7 a 1-robust graph with F=1 breaks the guarantee"):
        g = cycle_graph(4)
        threat = ThreatModel(
            scope="F-local", f=1, malicious=frozenset({3}),
            behaviors={3: lambda t: 10.0 + 5.0 * t},
        )
        rng = random.Random(0)
        initial = [rng.uniform(-100.0, 100.0) for _ in range(3)] + [10.0]
        trace = simulate(g, threat, initial, max_steps=500, tol=1e-6)
        verdict = check_validity(trace)
        assert not (verdict.agreement and verdict.validity)


def test_criterion_8_experiment_harness(tmp_path):
    with criterion("8 experiment: zero bound violations, tight minima for r <= 3, byte-stable replay"):
        config = ExperimentConfig(
            r_values=(1, 2, 3, 4, 5),
            samples_per_p=10,
            p_values=(0.7, 0.75, 0.8, 0.85, 0.9),
            node_offsets=("2r-1", "2r"),
            master_seed=0,
            max_attempts=5000,
        )
        records, summary = run_experiment(config)
        for rec in records:
            assert rec.accepted == (rec.r_max == rec.r)
            if rec.accepted:
                assert rec.edge_count >= edge_lower_bound(rec.n, rec.r).bound, rec
        for row in summary:
            assert not row.shortfall, row
            assert row.gap is not None and row.gap >= 0
            if row.r <= 3:
                assert row.min_edges_found == row.bound, row
        records_again, summary_again = run_experiment(config)
        assert records_to_csv_text(records) == records_to_csv_text(records_again)
        assert summary_to_csv_text(summary) == summary_to_csv_text(summary_again)


def test_criterion_9_robustness_ceiling():
    with criterion("9 r_max never exceeds ceil(n/2); complete graphs reach it up to n = 12"):
        for n in range(1, 13):
            assert max_robustness(complete_graph(n)).r_max == (n + 1) // 2
        rng = random.Random(555)
        for _ in range(100):
            g = random_graph(rng, rng.randint(1, 10), rng.random())
            assert max_robustness(g).r_max <= (g.n + 1) // 2
