"""Discrete-time resilient consensus: nominal averaging and W-MSR updates.

Agents hold scalar states and update synchronously.  Nominal agents average
their own value with all neighbor values under uniform weights
1/(degree+1), which satisfies the usual weight conditions (zero outside the
closed neighborhood, a positive floor, rows summing to one).  W-MSR agents
first discard up to F neighbor values strictly above their own (largest
first) and up to F strictly below (smallest first) before averaging, which
is what buys tolerance to misbehaving neighbors on sufficiently robust
graphs.

Misbehaving agents are modeled as broadcast-malicious: they ignore the
update rule and follow an arbitrary trajectory, but send the same value to
every neighbor.  Equivocating adversaries that tell different neighbors
different values are deliberately out of scope.
"""

from __future__ import annotations

import json
import math
import random
from collections.abc import Mapping
from dataclasses import dataclass
from numbers import Real
from pathlib import Path
from typing import Callable, Optional

import numpy as np

from .graph import (MAX_VERTICES, Graph, bits, check_fields, check_int, check_number,
                    write_text)

Behavior = Callable[[int], float]

F_TOTAL = "F-total"
F_LOCAL = "F-local"
SCOPES = (F_TOTAL, F_LOCAL)

# check_validity's slack on each side of the safety interval, for rounding in the averages
HULL_TOL = 1e-9

# Most states a trace may hold, (max_steps + 1) * n: those of MAX_VERTICES
# agents over 500 steps, about 66 MB of float64.
MAX_TRACE_STATES = 501 * MAX_VERTICES

# ---------------------------------------------------------------------------
# Misbehavior trajectory library (all broadcast the same value to everyone)
# ---------------------------------------------------------------------------

def constant(value: float) -> Behavior:
    return lambda t: float(value)


def linear_ramp(start: float, slope: float) -> Behavior:
    return lambda t: float(start) + float(slope) * t


def sinusoid(offset: float, amplitude: float, period: float) -> Behavior:
    if not period > 0:  # NaN too: every value of its wave would be NaN
        raise ValueError(f"sinusoid period must be positive, got {period!r}")
    return lambda t: float(offset) + float(amplitude) * math.sin(2.0 * math.pi * t / period)


def random_walk(start: float, step: float, seed: int) -> Behavior:
    """Seeded +-step walk; the value at t is independent of query order."""
    values = [float(start)]
    rng = random.Random(check_int(seed, "random-walk seed", None))

    def at(t: int) -> float:
        check_int(t, "time step")
        while len(values) <= t:
            values.append(values[-1] + (step if rng.random() < 0.5 else -step))
        return values[t]

    return at


# kind -> (builder, required parameters, defaults of the rest); keys are parameter names
_BEHAVIORS = {
    "constant": (constant, ("value",), {}),
    "ramp": (linear_ramp, ("slope",), {"start": 0.0}),
    "sinusoid": (sinusoid, ("amplitude",), {"offset": 0.0, "period": 20.0}),
    "random-walk": (random_walk, (), {"start": 0.0, "step": 1.0, "seed": 0}),
}
BEHAVIOR_KINDS = tuple(_BEHAVIORS)


def behavior_from_spec(spec: dict) -> Behavior:
    """Build a trajectory from a JSON-style spec: {"kind": ..., params...}.

    Numeric parameters must be finite numbers: a NaN or infinite adversary
    value would poison the trimmed averages instead of being trimmed.  A
    parameter the kind does not take is refused.
    """
    kind = check_fields(spec, "behavior spec", ("kind",), spec)["kind"]  # params: per kind below
    if kind not in BEHAVIOR_KINDS:
        raise ValueError(f"behavior kind must be one of {BEHAVIOR_KINDS}, got {kind!r}")
    build, required, defaults = _BEHAVIORS[kind]
    params = {**defaults, **check_fields(spec, f"{kind} behavior", ("kind", *required), defaults)}
    del params["kind"]
    for name, value in params.items():
        if name != "seed":  # random_walk checks its own seed
            check_number(value, f"behavior parameter {name!r}")
    return build(**params)


def _vertex_set(vertices) -> frozenset[int]:
    """vertices, a list, tuple, set or frozenset, as a frozenset; each entry is checked
    before the set is made, so True and 1 cannot collapse into one vertex."""
    if not isinstance(vertices, (list, tuple, set, frozenset)):
        raise ValueError(f"threat 'malicious' must be an array, got {vertices!r}")
    return frozenset([check_int(v, "malicious vertex") for v in vertices])


@dataclass(frozen=True)
class ThreatModel:
    """Adversary scope and budget, the compromised set, and its trajectories.

    Everything that does not depend on a graph is checked when the threat
    is made; :meth:`validate` checks the rest against a graph.
    """

    scope: str
    f: int
    malicious: frozenset[int]
    behaviors: Mapping[int, Behavior]

    def __post_init__(self) -> None:
        if self.scope not in SCOPES:
            raise ValueError(f"threat scope must be one of {SCOPES}, got {self.scope!r}")
        check_int(self.f, "threat budget F")
        object.__setattr__(self, "malicious", _vertex_set(self.malicious))
        if not isinstance(self.behaviors, Mapping):
            raise ValueError(f"threat behaviors must be a mapping, got {self.behaviors!r}")
        missing = [v for v in sorted(self.malicious) if v not in self.behaviors]
        if missing:
            raise ValueError(f"malicious vertices {missing} have no behavior")
        if self.scope == F_TOTAL and len(self.malicious) > self.f:
            raise ValueError(
                f"F-total violated: {len(self.malicious)} malicious agents exceed F={self.f}"
            )

    def validate(self, g: Graph) -> None:
        """Raise ValueError if a malicious vertex is not in g or g violates F-local."""
        malicious_mask = 0
        for v in self.malicious:
            malicious_mask |= 1 << check_int(v, "malicious vertex", 0, g.n - 1)
        if self.scope == F_LOCAL:
            for i in range(g.n):
                if i in self.malicious:
                    continue
                count = (g.rows[i] & malicious_mask).bit_count()
                if count > self.f:
                    raise ValueError(
                        f"F-local violated: vertex {i} has {count} malicious neighbors, "
                        f"more than F={self.f}"
                    )

    @classmethod
    def from_json_dict(cls, data: dict) -> "ThreatModel":
        """Parse {"scope", "F", "malicious", "behavior" and/or "behaviors"}.

        "behavior" applies to every malicious vertex; entries in the
        "behaviors" map (keyed by malicious vertex, as a string) override it.
        """
        check_fields(data, "threat spec", ("scope", "F", "malicious"), ("behavior", "behaviors"))
        malicious = _vertex_set(data["malicious"])
        default = behavior_from_spec(data["behavior"]) if "behavior" in data else None
        per_vertex = check_fields(data.get("behaviors", {}), "'behaviors' map of malicious vertices",
                                  optional=[str(v) for v in malicious])
        behaviors = {} if default is None else dict.fromkeys(malicious, default)
        behaviors.update((int(key), behavior_from_spec(spec)) for key, spec in per_vertex.items())
        return cls(scope=data["scope"], f=data["F"], malicious=malicious, behaviors=behaviors)


@dataclass(frozen=True)
class SimulationTrace:
    """Recorded run: row t of states is the full network state at time t."""

    states: np.ndarray
    malicious: frozenset[int]
    converged_at: Optional[int]
    consensus_value: Optional[float]
    safety_interval: tuple[float, float]

    @property
    def normal(self) -> frozenset[int]:
        return frozenset(range(self.states.shape[1])) - self.malicious


@dataclass(frozen=True)
class Verdict:
    """Outcome of a run: did normal agents agree, and did they stay valid."""

    agreement: bool
    validity: bool
    final_disagreement: float

    def to_json_dict(self) -> dict:
        return {
            "agreement": self.agreement,
            "validity": self.validity,
            "final_disagreement": self.final_disagreement,
        }


def _as_state_vector(g: Graph, states) -> np.ndarray:
    """states as a float vector of g.n agent states.

    Every entry must be a real number and not a bool, the rule
    check_number applies to every other numeric input: an ndarray by its
    dtype, anything else by one pass over the types of its entries (a
    string or a bool would otherwise be parsed as a number).
    """
    kinds = [states.dtype.type] if isinstance(states, np.ndarray) else dict.fromkeys(map(type, states))
    for kind in kinds:
        if kind is bool or not issubclass(kind, Real):
            raise ValueError(f"agent states must be real numbers, got a {kind.__name__}")
    x = np.asarray(states, dtype=float)
    if x.shape != (g.n,):
        raise ValueError(f"expected {g.n} agent states, got shape {x.shape}")
    return x


def nominal_step(g: Graph, states) -> np.ndarray:
    """One synchronous uniform-weight averaging update for every agent."""
    return wmsr_step(g, states, 0, range(g.n))


def wmsr_step(g: Graph, states, f: int, normal) -> np.ndarray:
    """One W-MSR update on the given vertices; all others pass through.

    Each updating agent discards up to f neighbor values strictly greater
    than its own (largest first) and up to f strictly smaller (smallest
    first), then averages the survivors together with its own value.
    Values equal to its own always survive.  Among tied extremes the one
    of lowest vertex index is dropped first, and the survivors are summed
    left to right in vertex order, which fixes every bit of the result.
    f = 0 is plain uniform-weight averaging (:func:`nominal_step`).
    """
    check_int(f, "trim parameter F")
    x = _as_state_vector(g, states)
    updating = list(bits(g.subset_mask(normal)))  # range-validates the update set
    return _wmsr_update(x, _neighbor_table(g, updating), f)


# Updating vertices are handled this many at a time, so the update's
# temporaries stay O(max degree * _BLOCK) whatever n is.
_BLOCK = 128

NeighborTable = list[tuple[np.ndarray, np.ndarray, np.ndarray]]


def _neighbor_table(g: Graph, updating) -> NeighborTable:
    """Padded neighbor indices of the updating vertices, in blocks.

    Each block is (vertices, idx, valid): up to _BLOCK updating vertices,
    an intp table whose row r lists the neighbors of vertices[r] in
    ascending order and is padded with vertices[r] itself, and a mask that
    is False on the padding.  Vertices are blocked in order of decreasing
    degree and each block is as wide as its largest degree, so the tables
    take O(edges + max degree * _BLOCK) memory even on a star.  A block of
    edgeless vertices packs nothing, and otherwise only the nonzero bytes
    of the packed rows are unpacked, so past packing n / 8 bytes per
    vertex of positive degree the build costs O(edges), not O(n) per
    vertex.
    """
    rows = g.rows
    verts = np.asarray(updating, dtype=np.intp)
    degrees = np.array([rows[i].bit_count() for i in updating], dtype=np.intp)
    order = np.argsort(-degrees, kind="stable")
    nbytes = (g.n + 7) // 8
    table = []
    for start in range(0, len(order), _BLOCK):
        pick = order[start:start + _BLOCK]
        block = verts[pick]
        deg = degrees[pick]
        idx = np.repeat(block[:, None], deg[0], axis=1)
        valid = np.arange(deg[0]) < deg[:, None]
        if deg[0]:
            packed = np.frombuffer(b"".join(rows[i].to_bytes(nbytes, "little") for i in block.tolist()),
                                   dtype=np.uint8)
            at = np.flatnonzero(packed)
            # bit 8j + b of the unpacked nonzero bytes is bit b of byte at[j]
            set_bits = np.flatnonzero(np.unpackbits(packed[at], bitorder="little"))
            # bytes and bits ascend row by row, so each row's first deg slots get its neighbors in order
            idx[valid] = (at % nbytes * 8)[set_bits >> 3] + (set_bits & 7)
        table.append((block, idx, valid))
    return table


# Row numbers of a block's stacked keys, sliced per block
_KEY_ROWS = np.arange(2 * _BLOCK)


def _wmsr_update(x: np.ndarray, table: NeighborTable, f: int, out: Optional[np.ndarray] = None) -> np.ndarray:
    """W-MSR update of the vertices in table, written into out.

    out defaults to a copy of x; a given out keeps its other entries and
    must not overlap x.
    Each agent's values are keyed twice, as they are for the side above
    its own value and negated for the side below, and f passes replace
    the largest key of every row with -inf.  A pass only takes a value
    beyond the agent's own while one is left on that side, and argmax
    takes the first of equal keys, the lowest neighbor, as list.remove
    would.  (A NaN may use up a pass, but it is always kept, so the
    result is NaN either way.)  The survivors are then added left to
    right, everything else contributing -0.0 (the exact additive
    identity), and +0.0 is added to each sum, so each equals Python's
    sum over the survivors bit for bit: the two differ only when every
    term is -0.0, where Python's integer start gives +0.0.  np.sum would
    add pairwise, and np.add.reduce does so even over a single row.
    """
    if out is None:
        out = x.copy()
    for block, idx, valid in table:
        k, width = idx.shape
        own = x[block]
        v = x[idx]  # padding holds own, which is neither above nor below it
        column = own[:, None]
        above = v > column
        below = v < column
        key = np.concatenate((v, -v))
        rows = _KEY_ROWS[:2 * k]
        for _ in range(min(f, width)):
            key[rows, key.argmax(axis=1)] = -np.inf
        taken = key == -np.inf
        kept = valid & ~((above & taken[:k]) | (below & taken[k:]))
        terms = np.where(kept, v, -0.0)
        np.add.accumulate(terms, axis=1, out=terms)
        total = terms[:, -1] + 0.0 if width else 0.0
        out[block] = (own + total) / (kept.sum(axis=1) + 1)
    return out


def simulate(
    g: Graph,
    threat: ThreatModel,
    initial,
    max_steps: int = 500,
    tol: float = 1e-6,
) -> SimulationTrace:
    """Run W-MSR consensus under the given threat model.

    Row t of the trace holds every agent's state at time t, t = 0
    included: misbehaving vertices take their trajectory value at t, and
    normal vertices start from their entries of initial (the malicious
    entries of initial are ignored) and then apply the W-MSR update
    (parameter F from the threat) to the previous row.  The run stops at
    the first step where the spread of normal states drops below tol,
    recorded as converged_at, or after max_steps updates.  The safety
    interval is the closed hull of the normal agents' initial states.  A
    non-finite normal initial state, trajectory value or updated normal
    state (a sum of huge states can overflow) raises ValueError, as does
    a max_steps whose trace could exceed MAX_TRACE_STATES states.
    """
    check_int(max_steps, "max_steps", 1, MAX_TRACE_STATES // g.n - 1)
    if not check_number(tol, "tolerance") > 0:
        raise ValueError(f"tolerance must be positive, got {tol!r}")
    threat.validate(g)
    x0 = _as_state_vector(g, initial)
    order = [v for v in range(g.n) if v not in threat.malicious]
    if not order:
        raise ValueError("at least one normal agent is required")
    table = _neighbor_table(g, order)
    idx = np.array(order, dtype=np.intp)
    trajectories = [(m, threat.behaviors[m]) for m in sorted(threat.malicious)]
    # One trace buffer, grown and finally cut in place (ndarray.resize reallocs).
    states = np.empty((min(max_steps, 8) + 1, g.n))
    states[0] = x0
    t = 0
    while True:
        for m, behavior in trajectories:
            value = float(behavior(t))
            if not math.isfinite(value):
                raise ValueError(f"behavior of vertex {m} gave non-finite value {value!r} at t={t}")
            states[t, m] = value
        ns = states[t][idx]
        hi, lo = ns.max(), ns.min()  # a NaN reaches both, an infinity one of them
        if not (math.isfinite(hi) and math.isfinite(lo)):
            raise ValueError(f"W-MSR update gave a non-finite normal state at t={t}" if t
                             else "initial states must be finite numbers")
        converged = float(hi - lo) < tol
        if converged or t == max_steps:
            break
        t += 1
        if t == len(states):  # refcheck=False: no view of states is alive here
            states.resize((min(max_steps + 1, t + 1 + t // 8), g.n), refcheck=False)
        # every entry the update skips is malicious, and is set at the top of the next pass
        _wmsr_update(states[t - 1], table, threat.f, out=states[t])
    states.resize((t + 1, g.n), refcheck=False)
    first = states[0, idx].tolist()  # Python's min keeps the first of 0.0 and -0.0; np.min may not
    return SimulationTrace(
        states=states,
        malicious=threat.malicious,
        converged_at=t if converged else None,
        consensus_value=float(ns.mean()) if converged else None,
        safety_interval=(min(first), max(first)),
    )


def check_validity(trace: SimulationTrace) -> Verdict:
    """Judge a completed run: agreement, hull validity, final disagreement.

    Validity holds when every normal state at every recorded step lies in
    the safety interval widened by HULL_TOL on both sides.
    """
    idx = sorted(trace.normal)
    lo, hi = trace.safety_interval
    sub = trace.states[:, idx]
    validity = bool((sub >= lo - HULL_TOL).all() and (sub <= hi + HULL_TOL).all())
    final = float(sub[-1].max() - sub[-1].min())
    return Verdict(
        agreement=trace.converged_at is not None,
        validity=validity,
        final_disagreement=final,
    )


# ---------------------------------------------------------------------------
# Trace export: CSV matrix plus a JSON sidecar (the plot-ready artifact)
# ---------------------------------------------------------------------------

def trace_to_csv_text(trace: SimulationTrace) -> str:
    n = trace.states.shape[1]
    lines = ["t," + ",".join(f"agent_{i}" for i in range(n))]
    for t, row in enumerate(trace.states):
        lines.append(str(t) + "," + ",".join(map(repr, row.tolist())))
    return "\n".join(lines) + "\n"


def trace_sidecar_dict(trace: SimulationTrace) -> dict:
    return {
        "normal": sorted(trace.normal),
        "malicious": sorted(trace.malicious),
        "converged_at": trace.converged_at,
        "consensus_value": trace.consensus_value,
        "safety_interval": [trace.safety_interval[0], trace.safety_interval[1]],
    }


def write_trace(trace: SimulationTrace, prefix) -> tuple[Path, Path]:
    """Write <prefix>.csv and <prefix>.json; returns both paths."""
    csv_path = Path(f"{prefix}.csv")
    json_path = Path(f"{prefix}.json")
    write_text(csv_path, trace_to_csv_text(trace))
    write_text(json_path, json.dumps(trace_sidecar_dict(trace), indent=2) + "\n")
    return csv_path, json_path
