import dataclasses
import hashlib
import math
import random
import re
from pathlib import Path
from types import MappingProxyType

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from robustnet import (
    MAX_VERTICES,
    SimulationTrace,
    ThreatModel,
    behavior_from_spec,
    check_validity,
    constant,
    erdos_renyi,
    linear_ramp,
    new_graph,
    random_walk,
    simulate,
    sinusoid,
    sparsest_even,
    sparsest_odd,
    trace_sidecar_dict,
    trace_to_csv_text,
)
from robustnet.consensus import BEHAVIOR_KINDS, HULL_TOL, _neighbor_table

from oracles import (
    complete_graph,
    cycle_graph,
    kernel_wmsr_step,
    loop_wmsr_step,
    path_graph,
    random_graph,
    small_graphs,
    traced_memory,
)


def no_threat(f=0):
    return ThreatModel(scope="F-total", f=f, behaviors={})


def constant_threat(scope, f, values):
    return ThreatModel(
        scope=scope,
        f=f,
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
    for period in (0.0, float("nan")):
        with pytest.raises(ValueError, match="sinusoid period must be positive"):
            sinusoid(0.0, 1.0, period)


# each builder with valid arguments, keyed by parameter name
_BUILDERS = {
    constant: {"value": 1.0},
    linear_ramp: {"start": 0.0, "slope": 1.0},
    sinusoid: {"offset": 0.0, "amplitude": 1.0, "period": 20.0},
    random_walk: {"start": 0.0, "step": 1.0, "seed": 3},
}


@pytest.mark.parametrize("build", _BUILDERS, ids=[build.__name__ for build in _BUILDERS])
def test_builders_refuse_a_parameter_that_is_not_a_finite_number(build):
    # the rule holds from Python as from JSON: constant("150") is refused like {"value": "150"}
    params = _BUILDERS[build]
    build(**params)
    for name in params.keys() - {"seed"}:
        # a period not above 0, NaN and -inf included, gets sinusoid's own message
        bads = ("20", True, math.inf) if name == "period" else ("150", True, math.nan, math.inf, -math.inf)
        for bad in bads:
            with pytest.raises(ValueError, match=f"behavior parameter '{name}' must be a finite number"):
                build(**{**params, name: bad})
    if build is sinusoid:
        with pytest.raises(ValueError, match="sinusoid period must be positive"):
            sinusoid(0.0, 1.0, -math.inf)


def test_random_walk_is_order_independent():
    walk = random_walk(0.0, 1.0, seed=5)
    late = walk(7)
    early = walk(3)
    fresh = random_walk(0.0, 1.0, seed=5)
    assert [fresh(t) for t in range(8)][3] == early
    assert fresh(7) == late
    assert abs(walk(4) - walk(3)) == 1.0


def test_random_walk_seed_must_be_an_integer():
    assert random_walk(0.0, 1.0, -3)(4) == random_walk(0.0, 1.0, -3)(4)
    for bad in (True, [1], 1.0, "1"):
        with pytest.raises(ValueError, match="random-walk seed must be an integer"):
            random_walk(0.0, 1.0, bad)


def test_behavior_from_spec_refuses_parameters_the_kind_does_not_take():
    for spec, message in (
        ({"kind": "sinusoid", "amplitude": 1.0, "peroid": 5}, "sinusoid behavior has unknown key 'peroid'"),
        ({"kind": "ramp", "slope": 1.0, "period": 5}, "ramp behavior has unknown key 'period'"),
        ({"kind": "ramp"}, "ramp behavior is missing 'slope'"),
        ({"value": 1.0}, "behavior spec is missing 'kind'"),
        ({"kind": ["constant"], "value": 1.0}, "behavior kind must be one of"),
    ):
        with pytest.raises(ValueError, match=message):
            behavior_from_spec(spec)


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
    for bad in (math.nan, math.inf, -math.inf, "150", None, True, 10 ** 400):
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
    # F = 0 keeps every value: plain uniform-weight averaging
    tri = complete_graph(3)
    assert np.allclose(kernel_wmsr_step(tri, [7.0, 7.0, 7.0], 0, range(3)), [7.0, 7.0, 7.0])
    k2 = new_graph(2, [(0, 1)])
    assert np.allclose(kernel_wmsr_step(k2, [0.0, 10.0], 0, range(2)), [5.0, 5.0])
    assert np.allclose(kernel_wmsr_step(path_graph(3), [0.0, 3.0, 9.0], 0, range(3)), [1.5, 4.0, 6.0])
    with pytest.raises(ValueError, match="expected 2 agent states"):
        simulate(k2, no_threat(), [1.0, 2.0, 3.0])


def test_wmsr_step_trims_both_sides():
    # star center 0 with neighbor values {1, 3, 9} and own value 5:
    # F=1 drops 9 (largest above) and 1 (smallest below), keeping 3
    star = new_graph(4, [(0, 1), (0, 2), (0, 3)])
    states = [5.0, 1.0, 3.0, 9.0]
    out = kernel_wmsr_step(star, states, 1, {0})
    assert out[0] == pytest.approx(4.0)
    assert list(out[1:]) == [1.0, 3.0, 9.0]  # only vertex 0 updated


def _reprs(states):
    return [repr(v) for v in np.asarray(states).tolist()]


# A small pool makes ties frequent, so both which tied extreme is dropped
# and the order of the survivors' sum show in the last bits and zero signs.
TIE_POOL = (0.0, -0.0, 1.0, -1.0, 2.5, 3.0, 0.1, 0.2, 1e300, -1e300)


def _pool_states(rng, n):
    return [rng.choice(TIE_POOL) if rng.random() < 0.7 else rng.uniform(-5, 5) for _ in range(n)]


def test_wmsr_step_matches_loop_oracle_bit_for_bit():
    rng = random.Random(404)
    for _ in range(2000):
        n = rng.randint(1, 18)
        g = random_graph(rng, n, rng.random())
        states = _pool_states(rng, n)
        f = rng.randint(0, 5)
        normal = [i for i in range(n) if rng.random() < 0.7]
        assert _reprs(kernel_wmsr_step(g, states, f, normal)) == _reprs(loop_wmsr_step(g, states, f, normal))


def test_wmsr_step_matches_loop_oracle_at_the_edges():
    single = new_graph(1)
    for state in (-0.0, 0.0, 5.0):
        for f in (0, 1):
            for normal in ((), (0,)):
                assert (_reprs(kernel_wmsr_step(single, [state], f, normal))
                        == _reprs(loop_wmsr_step(single, [state], f, normal)))
    rng = random.Random(405)
    g = random_graph(rng, 9, 0.5)
    states = _pool_states(rng, 9)
    assert _reprs(kernel_wmsr_step(g, states, 2, [])) == _reprs(states)
    sparse = erdos_renyi(1000, 0.01, 406)
    states = _pool_states(rng, 1000)
    normal = [i for i in range(1000) if rng.random() < 0.9]
    for f in (0, 2):
        assert (_reprs(kernel_wmsr_step(sparse, states, f, normal))
                == _reprs(loop_wmsr_step(sparse, states, f, normal)))


def test_wmsr_step_matches_loop_oracle_for_a_lone_hub():
    # a block of one agent is where np.add.reduce would sum its terms pairwise
    rng = random.Random(408)
    for n in range(10, 61):
        hub = new_graph(n, [(0, j) for j in range(1, n)])
        for _ in range(20):
            states = [rng.uniform(-1.0, 1.0) * 10.0 ** rng.randint(-8, 8) for _ in range(n)]
            f = rng.randint(0, 3)
            assert _reprs(kernel_wmsr_step(hub, states, f, [0])) == _reprs(loop_wmsr_step(hub, states, f, [0]))


def test_wmsr_step_matches_loop_oracle_over_blocks_of_different_widths():
    g = erdos_renyi(1000, 0.05, 409)
    rng = random.Random(409)
    states = [rng.choice(TIE_POOL) if rng.random() < 0.2 else rng.uniform(-100.0, 100.0) for _ in range(1000)]
    normal = [i for i in range(1000) if rng.random() < 0.95]
    widths = [idx.shape[1] for _, idx, _ in _neighbor_table(g, normal)]
    assert len(widths) == 8 and len(set(widths)) == 8
    assert _reprs(kernel_wmsr_step(g, states, 3, normal)) == _reprs(loop_wmsr_step(g, states, 3, normal))


def test_wmsr_step_matches_loop_oracle_when_every_survivor_is_negative_zero():
    # hub h has a neighbor at 5.0, one at -5.0 and h + 1 more at -0.0, so
    # rows of eight widths share a block; Python's sum of the survivors is +0.0
    hubs = [11 * h for h in range(8)]
    g = new_graph(88, [(hub, hub + j) for h, hub in enumerate(hubs) for j in range(1, h + 4)])
    for own in (0.0, -0.0):
        states = [-0.0] * 88
        for hub in hubs:
            states[hub], states[hub + 1], states[hub + 2] = own, 5.0, -5.0
        for f in (1, 2):
            out = kernel_wmsr_step(g, states, f, hubs)
            assert _reprs(out) == _reprs(loop_wmsr_step(g, states, f, hubs))
            assert _reprs(out[hubs]) == ["0.0"] * 8


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_wmsr_step_matches_loop_oracle_on_non_finite_states():
    # simulate refuses these, but the update kernel still follows the loop:
    # NaN is neither above nor below and always kept, infinities are trimmed
    pool = (math.nan, math.inf, -math.inf, 1.7e308, -1.7e308, 0.0, -0.0, 1.0)
    rng = random.Random(407)
    for _ in range(300):
        n = rng.randint(1, 12)
        g = random_graph(rng, n, rng.random())
        states = [rng.choice(pool) for _ in range(n)]
        f = rng.randint(0, 3)
        assert (_reprs(kernel_wmsr_step(g, states, f, range(n)))
                == _reprs(loop_wmsr_step(g, states, f, range(n))))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_wmsr_step_stays_in_normal_hull_under_f_local(data):
    # with at most F malicious neighbors, every value W-MSR keeps is bounded
    # by the agent's own value and its normal neighbors' values
    g = data.draw(small_graphs(10))
    malicious = frozenset(data.draw(st.sets(st.integers(0, g.n - 1), max_size=g.n - 1)))
    normal = [i for i in range(g.n) if i not in malicious]
    f = max(len(g.neighbors(i) & malicious) for i in normal) + data.draw(st.integers(0, 1))
    states = data.draw(st.lists(st.floats(-1e6, 1e6), min_size=g.n, max_size=g.n))
    for m in malicious:
        states[m] = data.draw(st.floats(-1e12, 1e12))
    ThreatModel("F-local", f, {m: constant(states[m]) for m in malicious}).validate(g)
    out = kernel_wmsr_step(g, states, f, normal)
    for i in normal:
        hull = [states[i]] + [states[j] for j in g.neighbors(i) if j not in malicious]
        lo, hi = min(hull), max(hull)
        slack = 1e-12 * max(1.0, abs(lo), abs(hi))
        assert lo - slack <= out[i] <= hi + slack


def test_wmsr_step_ties_are_retained():
    tri = complete_graph(3)
    out = kernel_wmsr_step(tri, [4.0, 4.0, 4.0], 1, {0, 1, 2})
    assert np.allclose(out, 4.0)


def test_wmsr_step_drops_all_strictly_greater_when_fewer_than_f():
    star = new_graph(3, [(0, 1), (0, 2)])
    # only one value above own; F=2 removes just that one, symmetric below
    out = kernel_wmsr_step(star, [5.0, 9.0, 5.0], 2, {0})
    assert out[0] == pytest.approx(5.0)


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
    with pytest.raises(ValueError, match="out of range"):
        constant_threat("F-total", 9, {12: 1.0}).validate(g)
    with pytest.raises(ValueError, match="scope"):
        constant_threat("F-global", 1, {0: 1.0}).validate(g)
    with pytest.raises(ValueError, match="non-negative integer"):
        constant_threat("F-local", True, {0: 50.0}).validate(g)
    # True would index every agent; "a" would not sort among the vertices
    for bad in (True, False, "a", 1.0):
        with pytest.raises(ValueError, match="malicious vertex"):
            constant_threat("F-total", 2, {bad: 1.0, 1: 1.0}).validate(g)


def _threat_json(**changes):
    """A valid F-total threat's JSON with changes; a change to None drops that key."""
    data = {"scope": "F-total", "F": 1, "malicious": [0],
            "behavior": {"kind": "constant", "value": 1.0}, **changes}
    return {key: value for key, value in data.items() if value is not None}


# (fields that break a valid threat, the same break in its JSON); none needs a graph.
# None: a break only JSON can make, since Python names the malicious set by its behaviors.
_BAD_THREATS = [
    (dict(scope="F-global"), dict(scope="F-global")),
    (dict(f=True), dict(F=True)),
    (dict(f=-1), dict(F=-1)),
    (dict(behaviors={0: constant(1.0), 1: constant(1.0)}), dict(malicious=[0, 1])),  # F-total violated
    (None, dict(behavior=None)),  # no behavior
    *[(dict(behaviors={bad: constant(1.0)}), dict(malicious=[bad])) for bad in (True, False, "a", 1.0, -1)],
    (None, dict(malicious=5)),  # not an array of vertices
    (dict(behaviors=[0]), dict(behaviors=[0])),  # not a map of behaviors
    (dict(behaviors={0: 5.0}), dict(behavior=5.0)),  # not a trajectory
]


@pytest.mark.parametrize("fields, json_fields", _BAD_THREATS,
                         ids=[repr(json_fields) for _, json_fields in _BAD_THREATS])
def test_threat_is_checked_however_it_is_made(fields, json_fields):
    valid = constant_threat("F-total", 1, {0: 1.0})
    assert ThreatModel.from_json_dict(_threat_json()).malicious == valid.malicious
    with pytest.raises(ValueError):
        ThreatModel.from_json_dict(_threat_json(**json_fields))
    if fields is None:
        return
    with pytest.raises(ValueError):
        ThreatModel(**{"scope": valid.scope, "f": valid.f, "behaviors": valid.behaviors, **fields})
    with pytest.raises(ValueError):
        dataclasses.replace(valid, **fields)


def test_threat_malicious_set_is_its_behaviors_keys():
    # a vertex with a trajectory is malicious, however the threat is built
    behaviors = {0: constant(5.0), 3: constant(99.0)}
    threat = ThreatModel("F-total", 2, behaviors)
    assert threat.malicious == {0, 3} and isinstance(threat.malicious, frozenset)
    trace = simulate(cycle_graph(5), threat, [0.0, 1.0, 2.0, 3.0, 4.0], max_steps=5)
    assert trace.malicious == {0, 3}
    assert trace.states[0].tolist() == [5.0, 1.0, 2.0, 99.0, 4.0]
    with pytest.raises(ValueError, match="F-total violated: 2 malicious agents exceed F=1"):
        ThreatModel("F-total", 1, behaviors)
    with pytest.raises(ValueError, match="declared with init=False"):
        dataclasses.replace(threat, malicious=frozenset({0}))


def test_threat_keeps_its_own_behaviors():
    # a later change to the caller's dict must not reach the checked threat
    d = {0: constant(5.0)}
    t = ThreatModel("F-total", 1, d)
    d[1] = constant(9.0)
    d[2] = 5.0
    assert dict(t.behaviors).keys() == {0} and t.malicious == {0}
    with pytest.raises(TypeError):
        t.behaviors[1] = constant(9.0)
    # replace, equality and the JSON reader see the same behaviours as before
    assert dataclasses.replace(t) == t == ThreatModel("F-total", 1, {0: t.behaviors[0]})
    assert dataclasses.replace(t, f=2).behaviors == t.behaviors
    parsed = ThreatModel.from_json_dict({"scope": "F-total", "F": 1, "malicious": [0],
                                         "behavior": {"kind": "constant", "value": 5.0}})
    assert parsed.malicious == {0} and parsed.behaviors[0](3) == 5.0


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
    with pytest.raises(ValueError, match=r"malicious vertices \[0\] have no behavior"):
        ThreatModel.from_json_dict({"scope": "F-total", "F": 1, "malicious": [0]})
    for malicious in ([True], [1, True], ["a", 1], [0.0]):
        with pytest.raises(ValueError, match="malicious vertex"):
            ThreatModel.from_json_dict({**data, "malicious": malicious})


def test_threat_from_json_refuses_stray_keys_and_shapes():
    data = {"scope": "F-local", "F": 2, "malicious": [1, 4],
            "behavior": {"kind": "constant", "value": 100.0}}
    for change, message in (
        ({"behaviors": {"2": {"kind": "constant", "value": 1.0}}}, "unknown key '2'"),
        ({"behaviors": {"04": {"kind": "constant", "value": 1.0}}}, "unknown key '04'"),
        ({"behaviors": [{"kind": "constant", "value": 1.0}]}, "'behaviors' map .* got list"),
        ({"malicious": 1}, "'malicious' must be an array"),
        ({"budget": 2}, "threat spec has unknown key 'budget'"),
    ):
        with pytest.raises(ValueError, match=message):
            ThreatModel.from_json_dict({**data, **change})
    with pytest.raises(ValueError, match="threat spec must be a JSON object"):
        ThreatModel.from_json_dict([data])


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
    assert np.all(trace.states[:, 2] == 1000.0)


def test_simulate_sets_malicious_states_from_t0():
    # a malicious agent follows its trajectory at t = 0 too; its entry of initial is ignored
    threat = ThreatModel("F-total", 1, {3: linear_ramp(10.0, 5.0)})
    trace = simulate(cycle_graph(4), threat, [-50.0, 0.0, 50.0, math.nan], max_steps=5)
    assert trace.states[:, 3].tolist() == [10.0 + 5.0 * t for t in range(6)]
    assert trace.safety_interval == (-50.0, 50.0)
    agreeing = simulate(cycle_graph(4), threat, [-50.0, 0.0, 50.0, 10.0], max_steps=5)
    assert np.array_equal(trace.states, agreeing.states)


def test_simulate_below_threshold_robustness_fails():
    # C4 is only 1-robust: with F=1 W-MSR trims away both neighbors and
    # every normal agent freezes, so agreement never happens
    threat = ThreatModel("F-local", 1, {3: linear_ramp(10.0, 5.0)})
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
    for steps in (True, 2.0):
        with pytest.raises(ValueError, match="max_steps"):
            simulate(g, no_threat(), [0.0, 1.0, 2.0], max_steps=steps)
    # an infinite tolerance would report agreement at t = 0
    for tol in (math.inf, math.nan, True, "1e-6"):
        with pytest.raises(ValueError, match="tolerance"):
            simulate(g, no_threat(), [0.0, 1.0, 2.0], tol=tol)
    with pytest.raises(ValueError, match="F-total violated"):
        simulate(g, constant_threat("F-total", 0, {0: 5.0}), [0.0, 1.0, 2.0])
    all_bad = constant_threat("F-total", 3, {0: 1.0, 1: 1.0, 2: 1.0})
    with pytest.raises(ValueError, match="normal agent"):
        simulate(g, all_bad, [0.0, 1.0, 2.0])
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="initial states must be finite"):
            simulate(g, no_threat(), [0.0, bad, 2.0])
    # finite at t = 0 and 1, infinite from t = 2 on
    overflow = ThreatModel("F-total", 1, {0: linear_ramp(0.0, 1e308)})
    with pytest.raises(ValueError, match="non-finite value inf at t=2"):
        simulate(g, overflow, [0.0, 1.0, 2.0])
    with pytest.raises(ValueError, match="vertex 0 gave non-finite value nan"):
        simulate(g, ThreatModel("F-total", 1, {0: lambda t: math.nan}), [0.0, 1.0, 2.0])


def test_state_vectors_must_hold_real_numbers():
    g = path_graph(3)
    threat = constant_threat("F-local", 1, {1: 2.0})
    for bad in (["1", True, "3"], [1.0, 2.0, "3"], [0.0, np.True_, 2.0], [1.0, None, 2.0], [1.0, 2j, 3.0],
                np.array([True, False, True]), np.array(["1", "2", "3"]), np.array([1.0, 2.0, 3.0], dtype=object)):
        with pytest.raises(ValueError, match="agent states must be real numbers"):
            simulate(g, threat, bad)
    # every real type is still read, numpy's included
    for good in ([0, 1.0, 2], (0.0, np.float32(1.0), np.int64(2)), np.array([0, 1, 2]), np.array([0.0, 1.0, 2.0])):
        assert _reprs(simulate(g, no_threat(), good, max_steps=1).states[1]) == ["0.5", "1.0", "1.5"]
        assert simulate(g, threat, good).states[0].tolist() == [0.0, 2.0, 2.0]


def test_state_vectors_may_be_any_iterable():
    g, threat = sparsest_odd(3), ThreatModel("F-local", 1, {})
    expected = simulate(g, threat, [float(i) for i in range(5)]).states.tobytes()
    for states in (tuple(float(i) for i in range(5)), (float(i) for i in range(5)),
                   iter([float(i) for i in range(5)]), {i: float(i) for i in range(5)}.values()):
        assert simulate(g, threat, states).states.tobytes() == expected
    for bad in ((True for _ in range(5)), (str(i) for i in range(5))):
        with pytest.raises(ValueError, match="agent states must be real numbers"):
            simulate(g, threat, bad)


def test_states_that_are_not_iterable_raise_value_error():
    g, threat = sparsest_odd(3), ThreatModel("F-local", 1, {})
    for bad in (5.0, None, 3, np.float64(1.0)):
        with pytest.raises(ValueError, match="agent states must be numbers in a sequence"):
            simulate(g, threat, bad)


def test_states_in_a_mapping_or_a_set_are_refused():
    # a dict iterates over its keys and a set in hash order: neither is the agents' order
    g, threat = sparsest_odd(2), ThreatModel("F-total", 0, {})
    states = {0: 50.0, 1: -20.0, 2: 7.0}
    for bad in (states, states.keys(), states.items(), MappingProxyType(states),
                {50.0, -20.0, 7.0}, frozenset({50.0, -20.0, 7.0})):
        with pytest.raises(ValueError, match="agent states must be numbers in a sequence"):
            simulate(g, threat, bad)
    assert simulate(g, threat, states.values()).states[0].tolist() == [50.0, -20.0, 7.0]


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
def test_simulate_rejects_update_overflow():
    # every state is finite, but the sum of the neighbors' values is not
    with pytest.raises(ValueError, match="non-finite normal state at t=1"):
        simulate(complete_graph(4), no_threat(), [1.7e308, 1.7e308, 1.6e308, 1.7e308])


def test_simulate_memory_is_linear_in_edges():
    n = 8192
    ring = new_graph(n, [(i, (i + d) % n) for i in range(n) for d in (1, 2)])
    initial = [float(i % 7) for i in range(n)]
    traces = []
    peak = traced_memory(lambda: traces.append(simulate(ring, no_threat(1), initial, max_steps=10)))[1]
    assert traces[0].states.shape == (11, n)
    assert peak < 8 << 20  # an n x n bool array alone would take 64 MiB


def test_neighbor_table_of_an_edgeless_graph_is_small():
    updating = list(range(MAX_VERTICES))
    table = []
    peak = traced_memory(lambda: table.extend(_neighbor_table(new_graph(MAX_VERTICES), updating)))[1]
    assert sorted(v for block, _, _ in table for v in block.tolist()) == updating
    assert all(idx.shape == (len(block), 0) for block, idx, _ in table)
    assert peak <= 2 << 20  # unpacking whole rows takes (128, n) bytes a block: 4.8 MiB


def test_simulate_bounds_the_trace():
    # (max_steps + 1) * n states at most: 500 steps at MAX_VERTICES agents, about 66 MB
    g = new_graph(MAX_VERTICES)
    initial = [0.0] * MAX_VERTICES
    with pytest.raises(ValueError, match="max_steps"):
        simulate(g, no_threat(), initial, max_steps=501)
    assert simulate(g, no_threat(), initial, max_steps=500).converged_at == 0
    with pytest.raises(ValueError, match="max_steps"):
        simulate(path_graph(3), no_threat(), [0.0, 1.0, 2.0], max_steps=167 * MAX_VERTICES)


def ring_lattice(n):
    return new_graph(n, [(i, (i + d) % n) for i in range(n) for d in (1, 2)])


@pytest.mark.parametrize("n, initial, max_steps, tol, steps", [
    # a ramp on a ring flattens far too slowly to converge: every step is used
    (8192, [float(i) for i in range(8192)], 100, 1e-6, 100),
    # a period-32 sawtooth converges long before max_steps
    (1024, [float(i % 32) for i in range(1024)], 1000, 1e-3, 256),
])
def test_simulate_holds_each_step_once(n, initial, max_steps, tol, steps):
    ring = ring_lattice(n)
    traces = []
    peak = traced_memory(
        lambda: traces.append(simulate(ring, no_threat(), initial, max_steps=max_steps, tol=tol)))[1]
    trace = traces[0]
    assert trace.states.shape == (steps + 1, n)
    assert trace.converged_at == (None if steps == max_steps else steps)
    assert trace.states.flags.c_contiguous and trace.states.base is None
    # a list of rows stacked at the end peaks at about twice the trace
    assert peak <= 1.3 * trace.states.nbytes


def test_containment_in_previous_step_hull():
    # regardless of robustness, a normal update is a convex combination of
    # values visible at the previous step
    rng = random.Random(31)
    for _ in range(10):
        g = random_graph(rng, rng.randint(3, 8), 0.5)
        malicious = frozenset({rng.randrange(g.n)})
        threat = ThreatModel(
            "F-total", 1, {v: random_walk(rng.uniform(-50, 50), 3.0, rng.randrange(999)) for v in malicious},
        )
        initial = [rng.uniform(-100, 100) for _ in range(g.n)]
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
        threat = ThreatModel("F-local", 1, {malicious: constant(500.0)})
        initial = [rng.uniform(-100, 100) for _ in range(g.n)]
        initial[malicious] = 500.0
        trace = simulate(g, threat, initial)
        verdict = check_validity(trace)
        assert verdict.agreement and verdict.validity
        lo, hi = trace.safety_interval
        assert lo - 1e-9 <= trace.consensus_value <= hi + 1e-9


_VALUES = st.floats(-1e3, 1e3)
_BEHAVIOR_SPECS = st.one_of(
    st.fixed_dictionaries({"kind": st.just("constant"), "value": _VALUES}),
    st.fixed_dictionaries({"kind": st.just("ramp"), "start": _VALUES, "slope": st.floats(-50, 50)}),
    st.fixed_dictionaries({"kind": st.just("sinusoid"), "offset": _VALUES, "amplitude": _VALUES,
                           "period": st.floats(1, 50)}),
    st.fixed_dictionaries({"kind": st.just("random-walk"), "start": _VALUES,
                           "step": st.floats(0, 50), "seed": st.integers(0, 2**32)}),
)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_wmsr_runs_stay_in_normal_hull_on_robust_graphs(data):
    # LeBlanc et al., IEEE JSAC 31(4), 2013: on a (2F+1)-robust graph with an F-local
    # adversary, every normal state of the whole run stays in the normal initial hull
    r, g = data.draw(st.one_of(
        st.integers(1, 7).map(lambda r: (r, sparsest_odd(r))),
        st.integers(1, 7).map(lambda r: (r, sparsest_even(r))),
    ))
    f = data.draw(st.integers(0, (r - 1) // 2))
    malicious = sorted(data.draw(st.sets(st.integers(0, g.n - 1), max_size=f)))
    specs = data.draw(st.lists(_BEHAVIOR_SPECS, min_size=len(malicious), max_size=len(malicious)))
    threat = ThreatModel("F-local", f, {m: behavior_from_spec(spec) for m, spec in zip(malicious, specs)})
    rng = random.Random(data.draw(st.integers(0, 2**32)))
    initial = [rng.uniform(-100, 100) for _ in range(g.n)]
    assert check_validity(simulate(g, threat, initial, max_steps=200)).validity


def test_permutation_equivariance():
    rng = random.Random(77)
    g = random_graph(rng, 7, 0.5)
    perm = list(range(7))
    rng.shuffle(perm)  # perm[i] is the new label of old vertex i
    relabeled = new_graph(7, [(perm[u], perm[v]) for u, v in g.edges()])
    initial = [rng.uniform(-10, 10) for _ in range(7)]
    threat = ThreatModel("F-total", 1, {2: constant(40.0)})
    threat_p = ThreatModel("F-total", 1, {perm[2]: constant(40.0)})
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
    threat = ThreatModel("F-local", 1, {4: linear_ramp(120.0, 1.0)})
    threat_t = ThreatModel("F-local", 1, {4: lambda t: a * (120.0 + 1.0 * t) + b})
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
    # agent 0 leaves the hull [0, 10] of row 0, which the trace derives itself
    trace = SimulationTrace(states=np.array([[0.0, 10.0], [20.0, 10.0]]), malicious=frozenset(), converged_at=None)
    assert trace.safety_interval == (0.0, 10.0)
    verdict = check_validity(trace)
    assert not verdict.agreement
    assert not verdict.validity
    assert verdict.final_disagreement == 10.0
    assert list(dataclasses.asdict(verdict)) == ["agreement", "validity", "final_disagreement"]


def _copied_verdict(trace):
    # the verdict read from a copy of the trace's normal columns
    sub = trace.states[:, sorted(trace.normal)]
    lo, hi = trace.safety_interval
    return ((sub >= lo - HULL_TOL).all() and (sub <= hi + HULL_TOL).all(), sub[-1].max() - sub[-1].min())


def test_check_validity_matches_the_copied_columns():
    rng = np.random.default_rng(7)
    for steps, n in ((1, 1), (3, 2), (12, 9), (40, 33)):
        states = rng.uniform(-1.0, 1.0, (steps, n))
        malicious = frozenset(rng.choice(n, n // 3, replace=False).tolist())
        for row, col, value in ((0, 0, 0.0), (steps - 1, n - 1, 1.0 + HULL_TOL), (steps // 2, 0, math.nan),
                                (steps - 1, 0, -1.0 - HULL_TOL / 2), (0, n - 1, 5.0)):
            states[row, col] = value
            trace = SimulationTrace(states=states.copy(), malicious=malicious, converged_at=None)
            verdict = check_validity(trace)
            validity, final = _copied_verdict(trace)
            assert verdict.validity == validity
            assert np.float64(verdict.final_disagreement).tobytes() == np.float64(final).tobytes()
    # a NaN in a normal column fails validity; one in a malicious column does not count
    states = np.zeros((3, 3))
    states[1, 0] = math.nan
    assert not check_validity(SimulationTrace(states, frozenset(), None)).validity
    assert check_validity(SimulationTrace(states, frozenset({0}), None)).validity


def test_check_validity_reads_the_trace_in_place():
    n = 8192
    states = np.random.default_rng(3).uniform(0.0, 1.0, (201, n))  # 12.6 MiB
    trace = SimulationTrace(states=states, malicious=frozenset({0, 77, 4000}), converged_at=None)
    check_validity(trace)  # first calls may fill interpreter caches
    verdicts = []
    peak = traced_memory(lambda: verdicts.append(check_validity(trace)))[1]
    verdict = verdicts[0]
    assert (verdict.validity, verdict.final_disagreement) == _copied_verdict(trace)
    # the first call made the normal set (about 140 B a vertex as Python ints); the
    # extremes and their normal entries take 56 B a vertex, a copy of the columns 1,608 B
    assert peak <= 256 * n


def test_trace_csv_text_peaks_near_the_lines_and_the_text():
    states = np.random.default_rng(5).uniform(-100.0, 100.0, (201, 1024))
    trace = SimulationTrace(states=states, malicious=frozenset(), converged_at=None)
    texts = []
    peak = traced_memory(lambda: texts.append(trace_to_csv_text(trace)))[1]
    (text,) = texts
    assert text.endswith("\n") and text.count("\n") == 202
    # the row strings and the joined text, each about the text's size; adding the
    # last newline after the join would copy the whole text once more (3x)
    assert peak <= 2.2 * len(text)


def test_trace_normal_is_every_vertex_not_malicious():
    trace = SimulationTrace(states=np.zeros((2, 4)), malicious=frozenset({1, 3}), converged_at=None)
    assert trace.normal == frozenset({0, 2})
    assert trace_sidecar_dict(trace)["normal"] == [0, 2]


def test_trace_derives_its_normal_set_once():
    trace = simulate(sparsest_odd(3), constant_threat("F-local", 1, {0: 9.0}), [1.0, 2.0, 3.0, 4.0, 5.0])
    normal = trace.normal
    assert normal is trace.normal
    check_validity(trace)
    trace_sidecar_dict(trace)
    assert trace.normal is normal and normal == frozenset({1, 2, 3, 4})


def test_trace_derives_its_hull_and_consensus_value_from_its_states():
    # row 0's normal states 1.0 and 3.0 span the hull; malicious vertex 1 is outside it
    states = np.array([[3.0, -50.0, 1.0], [2.0, 60.0, 2.5], [2.25, 70.0, 2.25]])
    trace = SimulationTrace(states=states, malicious=frozenset({1}), converged_at=2)
    assert trace.safety_interval == (1.0, 3.0)
    assert trace.consensus_value == 2.25
    assert trace_sidecar_dict(trace)["safety_interval"] == [1.0, 3.0]
    assert SimulationTrace(states, frozenset({1}), None).consensus_value is None
    # Python's min and max keep the first of equal zeros, as the sidecar always has
    for row, first in (([0.0, -0.0], 1.0), ([-0.0, 0.0], -1.0)):
        lo, hi = SimulationTrace(np.array([row]), frozenset(), None).safety_interval
        assert lo == hi == 0.0 and math.copysign(1.0, lo) == math.copysign(1.0, hi) == first


def test_trace_export():
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


def test_trace_csv_is_repr_of_every_float():
    states = np.array([[0.0, -0.0, 1e-300], [2.0, -3.0, 0.1 + 0.2], [1e300, 5e-324, -7.0]])
    trace = SimulationTrace(states=states, malicious=frozenset(), converged_at=None)
    expected = "t,agent_0,agent_1,agent_2\n" + "".join(
        str(t) + "," + ",".join(repr(float(v)) for v in row) + "\n"
        for t, row in enumerate(states)
    )
    assert trace_to_csv_text(trace) == expected
    assert expected.split("\n")[1:3] == ["0,0.0,-0.0,1e-300", "1,2.0,-3.0,0.30000000000000004"]


# Each behaviour kind's parameters in the pinned runs below
PINNED_BEHAVIORS = {
    "constant": {"kind": "constant", "value": 250.0},
    "ramp": {"kind": "ramp", "start": -50.0, "slope": 1.5},
    "sinusoid": {"kind": "sinusoid", "amplitude": 200.0, "period": 7.0},
    "random-walk": {"kind": "random-walk", "step": 2.0, "seed": 11},
}

# sha256 of trace_to_csv_text of each pinned run, recorded from the
# update before it was reworked: a change in the last bit of any state
# anywhere in a run shows here
PINNED_TRACE_SHA256 = {
    "odd-constant": "78a35053a4c98c64fb075905a2d1b74708579df103ced75d794587a8a9ade549",
    "odd-ramp": "d94b737b1299826b936154b68bc189c0f951f5528d1ab8872c6734f5a8645fc9",
    "odd-sinusoid": "95de25c3633f1e285a153e0d545761a78b63f195ec9a26a738950d2467c78b63",
    "odd-random-walk": "90c749b1595b436816eebac25a6d32de59ced27faa432ed839059acb0c7707b2",
    "even-constant": "37627d9c7094bf370a6bc48ed195f5db3c52a2e0f6fcb06e11aeefae90de89d1",
    "even-ramp": "9d45f1e1ae95e8dfa4a2b341e5c0506288700a64a1bf8e6b90df8372cdbba9a7",
    "even-sinusoid": "21e62e5534ed0b950906d8bfbfcbacd060d755ae5c294494ada14a1512de96d1",
    "even-random-walk": "9de08e8c3093162df9db6e6cb4be6ada9eafc2d14d915c772d05fa10928dbf94",
    "erdos-renyi-1000": "44dab9f56eed2529cb68202439dd3a5b583fa035232ca2402fe9b780debf8722",
}


def _pinned_runs():
    """(name, graph, threat spec, initial states): each behaviour kind on
    sparsest_odd(7) and sparsest_even(7), and three kinds on
    erdos_renyi(1000, 0.05, 5), all F-local with F = 3."""
    for label, g in (("odd", sparsest_odd(7)), ("even", sparsest_even(7))):
        for k, kind in enumerate(BEHAVIOR_KINDS):
            rng = random.Random(100 * k + g.n)
            spec = {"scope": "F-local", "F": 3, "malicious": rng.sample(range(g.n), 3),
                    "behavior": PINNED_BEHAVIORS[kind]}
            yield f"{label}-{kind}", g, spec, [rng.uniform(-100.0, 100.0) for _ in range(g.n)]
    rng = random.Random(1000)
    g = erdos_renyi(1000, 0.05, 5)
    malicious = rng.sample(range(g.n), 3)
    spec = {"scope": "F-local", "F": 3, "malicious": malicious,
            "behaviors": {str(m): PINNED_BEHAVIORS[kind]
                          for m, kind in zip(malicious, ("constant", "ramp", "random-walk"))}}
    yield "erdos-renyi-1000", g, spec, [rng.uniform(-100.0, 100.0) for _ in range(g.n)]


def test_traces_match_pinned_digests():
    digests = {}
    for name, g, spec, initial in _pinned_runs():
        trace = simulate(g, ThreatModel.from_json_dict(spec), initial)
        assert trace.converged_at is not None
        digests[name] = hashlib.sha256(trace_to_csv_text(trace).encode()).hexdigest()
    assert digests == PINNED_TRACE_SHA256


def test_sinusoid_behavior_in_simulation():
    g = sparsest_odd(3)
    threat = ThreatModel("F-local", 1, {0: sinusoid(0.0, 200.0, 10.0)})
    rng = random.Random(4)
    initial = [rng.uniform(-100, 100) for _ in range(g.n)]
    initial[0] = 0.0
    trace = simulate(g, threat, initial)
    verdict = check_validity(trace)
    assert verdict.agreement and verdict.validity
    assert math.isclose(trace.states[3][0], 200.0 * math.sin(2 * math.pi * 3 / 10.0))


def test_readme_library_example_runs(capsys):
    # the README's one python block runs as written, so its signatures cannot drift from the code
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    (block,) = re.findall(r"^```python\n(.*?)^```$", readme, re.M | re.S)
    exec(compile(block, "README.md", "exec"), {})
    assert "Verdict(agreement=True, validity=True," in capsys.readouterr().out
