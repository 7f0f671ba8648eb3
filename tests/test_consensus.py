import math
import random

import numpy as np
import pytest

from robustnet import (
    SimulationTrace,
    ThreatModel,
    behavior_from_spec,
    check_validity,
    constant,
    linear_ramp,
    new_graph,
    nominal_step,
    random_walk,
    simulate,
    sinusoid,
    sparsest_odd,
    trace_sidecar_dict,
    trace_to_csv_text,
    wmsr_step,
    write_trace,
)

from oracles import complete_graph, cycle_graph, path_graph, random_graph


def no_threat(f=0):
    return ThreatModel(scope="F-total", f=f, malicious=frozenset(), behaviors={})


def constant_threat(scope, f, values):
    return ThreatModel(
        scope=scope,
        f=f,
        malicious=frozenset(values),
        behaviors={v: constant(value) for v, value in values.items()},
    )


# ---------------------------------------------------------------------------
# behaviors
# ---------------------------------------------------------------------------

def test_behavior_library():
    assert constant(3.5)(0) == 3.5 and constant(3.5)(99) == 3.5
    ramp = linear_ramp(1.0, 2.0)
    assert ramp(0) == 1.0 and ramp(10) == 21.0
    wave = sinusoid(5.0, 2.0, 8.0)
    assert wave(0) == pytest.approx(5.0)
    assert wave(2) == pytest.approx(7.0)  # quarter period
    with pytest.raises(ValueError):
        sinusoid(0.0, 1.0, 0.0)


def test_random_walk_is_order_independent():
    walk = random_walk(0.0, 1.0, seed=5)
    late = walk(7)
    early = walk(3)
    fresh = random_walk(0.0, 1.0, seed=5)
    assert [fresh(t) for t in range(8)][3] == early
    assert fresh(7) == late
    assert abs(walk(4) - walk(3)) == 1.0


def test_behavior_from_spec():
    assert behavior_from_spec({"kind": "constant", "value": 2.0})(9) == 2.0
    assert behavior_from_spec({"kind": "ramp", "slope": 1.5})(2) == 3.0
    assert behavior_from_spec({"kind": "sinusoid", "amplitude": 1.0})(0) == pytest.approx(0.0)
    walk_spec = {"kind": "random-walk", "seed": 3}
    assert behavior_from_spec(walk_spec)(5) == behavior_from_spec(walk_spec)(5)
    with pytest.raises(ValueError):
        behavior_from_spec({"kind": "constant"})
    with pytest.raises(ValueError):
        behavior_from_spec({"kind": "chaos"})
    with pytest.raises(ValueError):
        behavior_from_spec("constant")
    for bad in (math.nan, math.inf, -math.inf, "150", None, True):
        with pytest.raises(ValueError, match="finite number"):
            behavior_from_spec({"kind": "constant", "value": bad})
    with pytest.raises(ValueError, match="'slope'"):
        behavior_from_spec({"kind": "ramp", "slope": math.inf})
    with pytest.raises(ValueError, match="'amplitude'"):
        behavior_from_spec({"kind": "sinusoid", "amplitude": math.nan})
    with pytest.raises(ValueError, match="'step'"):
        behavior_from_spec({"kind": "random-walk", "step": -math.inf})


# ---------------------------------------------------------------------------
# update rules
# ---------------------------------------------------------------------------

def test_nominal_step_examples():
    tri = complete_graph(3)
    assert np.allclose(nominal_step(tri, [7.0, 7.0, 7.0]), [7.0, 7.0, 7.0])
    k2 = new_graph(2, [(0, 1)])
    assert np.allclose(nominal_step(k2, [0.0, 10.0]), [5.0, 5.0])
    assert np.allclose(nominal_step(path_graph(3), [0.0, 3.0, 9.0]), [1.5, 4.0, 6.0])
    with pytest.raises(ValueError):
        nominal_step(k2, [1.0, 2.0, 3.0])


def test_wmsr_step_trims_both_sides():
    # star center 0 with neighbor values {1, 3, 9} and own value 5:
    # F=1 drops 9 (largest above) and 1 (smallest below), keeping 3
    star = new_graph(4, [(0, 1), (0, 2), (0, 3)])
    states = [5.0, 1.0, 3.0, 9.0]
    out = wmsr_step(star, states, 1, {0})
    assert out[0] == pytest.approx(4.0)
    assert list(out[1:]) == [1.0, 3.0, 9.0]  # only vertex 0 updated


def test_wmsr_step_f0_equals_nominal():
    rng = random.Random(8)
    for _ in range(10):
        g = random_graph(rng, rng.randint(2, 8), 0.6)
        states = [rng.uniform(-5, 5) for _ in range(g.n)]
        assert np.allclose(
            wmsr_step(g, states, 0, range(g.n)), nominal_step(g, states)
        )


def test_wmsr_step_ties_are_retained():
    tri = complete_graph(3)
    out = wmsr_step(tri, [4.0, 4.0, 4.0], 1, {0, 1, 2})
    assert np.allclose(out, 4.0)


def test_wmsr_step_drops_all_strictly_greater_when_fewer_than_f():
    star = new_graph(3, [(0, 1), (0, 2)])
    # only one value above own; F=2 removes just that one, symmetric below
    out = wmsr_step(star, [5.0, 9.0, 5.0], 2, {0})
    assert out[0] == pytest.approx(5.0)
    with pytest.raises(ValueError):
        wmsr_step(star, [0.0, 0.0, 0.0], -1, {0})
    with pytest.raises(ValueError, match="non-negative integer"):
        wmsr_step(star, [0.0, 0.0, 0.0], True, {0})


# ---------------------------------------------------------------------------
# threat models
# ---------------------------------------------------------------------------

def test_threat_validation():
    g = sparsest_odd(3)
    constant_threat("F-local", 1, {0: 50.0}).validate(g)

    with pytest.raises(ValueError, match="F-total violated"):
        constant_threat("F-total", 1, {0: 1.0, 1: 1.0}).validate(g)
    with pytest.raises(ValueError, match="F-local violated: vertex"):
        constant_threat("F-local", 1, {0: 1.0, 1: 1.0}).validate(g)
    with pytest.raises(ValueError, match="no behavior|have no behavior"):
        ThreatModel("F-total", 1, frozenset({0}), {}).validate(g)
    with pytest.raises(ValueError, match="out of range"):
        constant_threat("F-total", 9, {12: 1.0}).validate(g)
    with pytest.raises(ValueError, match="scope"):
        constant_threat("F-global", 1, {0: 1.0}).validate(g)
    with pytest.raises(ValueError, match="non-negative integer"):
        constant_threat("F-local", True, {0: 50.0}).validate(g)


def test_threat_from_json():
    data = {
        "scope": "F-local",
        "F": 2,
        "malicious": [1, 4],
        "behavior": {"kind": "constant", "value": 100.0},
        "behaviors": {"4": {"kind": "ramp", "slope": -1.0}},
    }
    threat = ThreatModel.from_json_dict(data)
    assert threat.f == 2 and threat.malicious == {1, 4}
    assert threat.behaviors[1](7) == 100.0
    assert threat.behaviors[4](7) == -7.0
    with pytest.raises(ValueError):
        ThreatModel.from_json_dict({"scope": "F-total", "F": 1})
    with pytest.raises(ValueError):
        ThreatModel.from_json_dict({"scope": "F-total", "F": 1, "malicious": [0]})


# ---------------------------------------------------------------------------
# simulation
# ---------------------------------------------------------------------------

def test_simulate_nominal_convergence():
    g = sparsest_odd(3)
    rng = random.Random(2)
    initial = [rng.uniform(-100, 100) for _ in range(g.n)]
    trace = simulate(g, no_threat(), initial)
    assert trace.converged_at is not None
    lo, hi = trace.safety_interval
    assert lo == min(initial) and hi == max(initial)
    assert lo <= trace.consensus_value <= hi
    assert np.array_equal(trace.states[0], initial)


def test_simulate_all_equal_initial_converges_immediately():
    trace = simulate(path_graph(4), no_threat(), [2.0, 2.0, 2.0, 2.0])
    assert trace.converged_at == 0
    assert trace.consensus_value == 2.0
    assert trace.states.shape == (1, 4)


def test_simulate_outlier_broadcaster_is_ignored():
    # two normal agents on a triangle discard the +1000 broadcaster each step
    tri = complete_graph(3)
    threat = constant_threat("F-total", 1, {2: 1000.0})
    trace = simulate(tri, threat, [0.0, 10.0, 1000.0])
    assert trace.converged_at is not None
    assert 0.0 <= trace.consensus_value <= 10.0
    normal_states = trace.states[:, [0, 1]]
    assert normal_states.min() >= 0.0 - 1e-9
    assert normal_states.max() <= 10.0 + 1e-9
    # the malicious column pins to its trajectory
    assert np.all(trace.states[1:, 2] == 1000.0)


def test_simulate_below_threshold_robustness_fails():
    # C4 is only 1-robust: with F=1 W-MSR trims away both neighbors and
    # every normal agent freezes, so agreement never happens
    threat = ThreatModel("F-local", 1, frozenset({3}), {3: linear_ramp(10.0, 5.0)})
    initial = [-50.0, 0.0, 50.0, 10.0]
    trace = simulate(cycle_graph(4), threat, initial, max_steps=200)
    verdict = check_validity(trace)
    assert not verdict.agreement
    assert trace.converged_at is None
    assert trace.states.shape == (201, 4)


def test_simulate_rejects_bad_input():
    g = path_graph(3)
    with pytest.raises(ValueError):
        simulate(g, no_threat(), [0.0, 1.0])
    with pytest.raises(ValueError):
        simulate(g, no_threat(), [0.0, 1.0, 2.0], max_steps=0)
    with pytest.raises(ValueError):
        simulate(g, no_threat(), [0.0, 1.0, 2.0], tol=0.0)
    with pytest.raises(ValueError, match="F-total violated"):
        simulate(g, constant_threat("F-total", 0, {0: 5.0}), [0.0, 1.0, 2.0])
    all_bad = constant_threat("F-total", 3, {0: 1.0, 1: 1.0, 2: 1.0})
    with pytest.raises(ValueError, match="normal agent"):
        simulate(g, all_bad, [0.0, 1.0, 2.0])
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="initial states must be finite"):
            simulate(g, no_threat(), [0.0, bad, 2.0])
    # finite at t = 0 and 1, infinite from t = 2 on
    overflow = ThreatModel("F-total", 1, frozenset({0}), {0: linear_ramp(0.0, 1e308)})
    with pytest.raises(ValueError, match="non-finite value inf at t=2"):
        simulate(g, overflow, [0.0, 1.0, 2.0])
    with pytest.raises(ValueError, match="vertex 0 gave non-finite value nan"):
        simulate(g, constant_threat("F-total", 1, {0: math.nan}), [0.0, 1.0, 2.0])


def test_containment_in_previous_step_hull():
    # regardless of robustness, a normal update is a convex combination of
    # values visible at the previous step
    rng = random.Random(31)
    for _ in range(10):
        g = random_graph(rng, rng.randint(3, 8), 0.5)
        malicious = frozenset({rng.randrange(g.n)})
        threat = ThreatModel(
            "F-total", 1, malicious,
            {v: random_walk(rng.uniform(-50, 50), 3.0, rng.randrange(999)) for v in malicious},
        )
        initial = [rng.uniform(-100, 100) for _ in range(g.n)]
        for m in malicious:
            initial[m] = threat.behaviors[m](0)
        trace = simulate(g, threat, initial, max_steps=40, tol=1e-12)
        normal = sorted(trace.normal)
        for t in range(1, trace.states.shape[0]):
            prev = trace.states[t - 1]
            now = trace.states[t][normal]
            assert now.min() >= prev.min() - 1e-9
            assert now.max() <= prev.max() + 1e-9


def test_guarantee_at_threshold_small():
    # 3-robust graph, F=1 local adversary: every seeded trial must agree
    # within the initial normal hull (the full-size study is in acceptance)
    g = sparsest_odd(3)
    for trial in range(20):
        rng = random.Random(1000 + trial)
        malicious = rng.randrange(g.n)
        threat = ThreatModel("F-local", 1, frozenset({malicious}),
                             {malicious: constant(500.0)})
        initial = [rng.uniform(-100, 100) for _ in range(g.n)]
        initial[malicious] = 500.0
        trace = simulate(g, threat, initial)
        verdict = check_validity(trace)
        assert verdict.agreement and verdict.validity
        lo, hi = trace.safety_interval
        assert lo - 1e-9 <= trace.consensus_value <= hi + 1e-9


def test_permutation_equivariance():
    rng = random.Random(77)
    g = random_graph(rng, 7, 0.5)
    perm = list(range(7))
    rng.shuffle(perm)  # perm[i] is the new label of old vertex i
    relabeled = new_graph(7, [(perm[u], perm[v]) for u, v in g.edges()])
    initial = [rng.uniform(-10, 10) for _ in range(7)]
    threat = ThreatModel("F-total", 1, frozenset({2}), {2: constant(40.0)})
    threat_p = ThreatModel("F-total", 1, frozenset({perm[2]}), {perm[2]: constant(40.0)})
    initial_p = [0.0] * 7
    for i in range(7):
        initial_p[perm[i]] = initial[i]
    trace = simulate(g, threat, initial, max_steps=30, tol=1e-12)
    trace_p = simulate(relabeled, threat_p, initial_p, max_steps=30, tol=1e-12)
    assert trace.states.shape == trace_p.states.shape
    for t in range(trace.states.shape[0]):
        for i in range(7):
            assert trace_p.states[t][perm[i]] == pytest.approx(trace.states[t][i], abs=1e-9)


def test_affine_equivariance():
    # x -> a*x + b with trajectories transformed identically scales the trace
    g = sparsest_odd(3)
    a, b = 2.5, -7.0
    threat = ThreatModel("F-local", 1, frozenset({4}), {4: linear_ramp(120.0, 1.0)})
    threat_t = ThreatModel("F-local", 1, frozenset({4}),
                           {4: lambda t: a * (120.0 + 1.0 * t) + b})
    rng = random.Random(13)
    initial = [rng.uniform(-100, 100) for _ in range(g.n)]
    initial[4] = 120.0
    scaled = [a * x + b for x in initial]
    trace = simulate(g, threat, initial, max_steps=60, tol=1e-9)
    trace_t = simulate(g, threat_t, scaled, max_steps=60, tol=1e-9 * a)
    assert trace.states.shape == trace_t.states.shape
    assert np.allclose(a * trace.states + b, trace_t.states, atol=1e-9)


# ---------------------------------------------------------------------------
# verdicts and export
# ---------------------------------------------------------------------------

def test_check_validity_flags_hull_escape():
    trace = SimulationTrace(
        states=np.array([[0.0, 10.0], [20.0, 10.0]]),
        normal=frozenset({0, 1}),
        malicious=frozenset(),
        converged_at=None,
        consensus_value=None,
        safety_interval=(0.0, 10.0),
    )
    verdict = check_validity(trace)
    assert not verdict.agreement
    assert not verdict.validity
    assert verdict.final_disagreement == 10.0
    assert set(verdict.to_json_dict()) == {"agreement", "validity", "final_disagreement"}


def test_trace_export(tmp_path):
    g = path_graph(3)
    trace = simulate(g, no_threat(), [0.0, 3.0, 9.0], max_steps=5, tol=1e-3)
    text = trace_to_csv_text(trace)
    lines = text.strip().split("\n")
    assert lines[0] == "t,agent_0,agent_1,agent_2"
    assert len(lines) == trace.states.shape[0] + 1
    assert lines[1] == "0,0.0,3.0,9.0"

    sidecar = trace_sidecar_dict(trace)
    assert set(sidecar) == {"normal", "malicious", "converged_at",
                            "consensus_value", "safety_interval"}
    assert sidecar["normal"] == [0, 1, 2]
    assert sidecar["safety_interval"] == [0.0, 9.0]

    csv_path, json_path = write_trace(trace, tmp_path / "run")
    assert csv_path.read_text() == text
    assert json_path.exists()


def test_sinusoid_behavior_in_simulation():
    g = sparsest_odd(3)
    threat = ThreatModel("F-local", 1, frozenset({0}),
                         {0: sinusoid(0.0, 200.0, 10.0)})
    rng = random.Random(4)
    initial = [rng.uniform(-100, 100) for _ in range(g.n)]
    initial[0] = 0.0
    trace = simulate(g, threat, initial)
    verdict = check_validity(trace)
    assert verdict.agreement and verdict.validity
    assert math.isclose(trace.states[3][0], 200.0 * math.sin(2 * math.pi * 3 / 10.0))
