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

import functools
import math
import random
from collections.abc import Mapping, Set
from dataclasses import dataclass, field
from numbers import Real
from types import MappingProxyType
from typing import Callable, Optional

import numpy as np

from .graph import MAX_VERTICES, Graph, check_fields, check_int, check_number, set_bit_columns

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
# Misbehavior trajectory library (all broadcast the same value to everyone).
# Every numeric parameter must be a finite number: a NaN or infinite
# adversary value would poison the trimmed averages instead of being trimmed.
# ---------------------------------------------------------------------------

def _parameter(value, name: str):
    return check_number(value, f"behavior parameter {name!r}")


def constant(value: float) -> Behavior:
    value = float(_parameter(value, "value"))
    return lambda t: value


def linear_ramp(start: float, slope: float) -> Behavior:
    start, slope = float(_parameter(start, "start")), float(_parameter(slope, "slope"))
    return lambda t: start + slope * t


def sinusoid(offset: float, amplitude: float, period: float) -> Behavior:
    offset, amplitude = float(_parameter(offset, "offset")), float(_parameter(amplitude, "amplitude"))
    if isinstance(period, Real) and not period > 0:  # NaN too: every value of its wave would be NaN
        raise ValueError(f"sinusoid period must be positive, got {period!r}")
    _parameter(period, "period")  # what is left to refuse: a non-number, True or +inf
    return lambda t: offset + amplitude * math.sin(2.0 * math.pi * t / period)


def random_walk(start: float, step: float, seed: int) -> Behavior:
    """Seeded +-step walk; the value at t is independent of query order."""
    values = [float(_parameter(start, "start"))]
    _parameter(step, "step")
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

    A parameter the kind does not take is refused; the builder checks the rest.
    """
    kind = check_fields(spec, "behavior spec", ("kind",), spec)["kind"]  # params: per kind below
    if kind not in BEHAVIOR_KINDS:
        raise ValueError(f"behavior kind must be one of {BEHAVIOR_KINDS}, got {kind!r}")
    build, required, defaults = _BEHAVIORS[kind]
    params = {**defaults, **check_fields(spec, f"{kind} behavior", ("kind", *required), defaults)}
    del params["kind"]
    return build(**params)


def _vertex_set(vertices) -> frozenset[int]:
    """vertices, a JSON array, as a frozenset; each entry is checked before
    the set is made, so True and 1 cannot collapse into one vertex."""
    if not isinstance(vertices, list):
        raise ValueError(f"threat 'malicious' must be an array, got {vertices!r}")
    return frozenset([check_int(v, "malicious vertex") for v in vertices])


@dataclass(frozen=True)
class ThreatModel:
    """Adversary scope and budget, and the trajectory of each malicious vertex:
    the malicious set is the key set of behaviors, which is kept as a
    read-only copy, so a later change to the caller's mapping cannot slip
    past the checks.  Everything that does not depend on a graph is checked
    when the threat is made; :meth:`validate` checks the rest against a graph.
    """

    scope: str
    f: int
    behaviors: Mapping[int, Behavior]
    malicious: frozenset[int] = field(init=False)

    def __post_init__(self) -> None:
        if self.scope not in SCOPES:
            raise ValueError(f"threat scope must be one of {SCOPES}, got {self.scope!r}")
        check_int(self.f, "threat budget F")
        if not isinstance(self.behaviors, Mapping):
            raise ValueError(f"threat behaviors must be a mapping, got {self.behaviors!r}")
        object.__setattr__(self, "behaviors", MappingProxyType(dict(self.behaviors)))
        object.__setattr__(self, "malicious",
                           frozenset([check_int(v, "malicious vertex") for v in self.behaviors]))
        for v, behavior in self.behaviors.items():
            if not callable(behavior):
                raise ValueError(f"behavior of malicious vertex {v} must be callable, got {behavior!r}")
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
        missing = sorted(malicious - behaviors.keys())
        if missing:
            raise ValueError(f"malicious vertices {missing} have no behavior")
        return cls(scope=data["scope"], f=data["F"], behaviors=behaviors)


@dataclass(frozen=True)
class SimulationTrace:
    """Recorded run: row t of states is the full network state at time t."""

    states: np.ndarray
    malicious: frozenset[int]
    converged_at: Optional[int]  # the first step whose normal states agreed within tol, or None

    @functools.cached_property  # made once: the column count and malicious never change
    def normal(self) -> frozenset[int]:
        return frozenset(range(self.states.shape[1])) - self.malicious

    @property
    def safety_interval(self) -> tuple[float, float]:
        """The closed hull of the normal agents' states at t = 0."""
        first = self.states[0, sorted(self.normal)].tolist()  # min keeps the first of 0.0 and -0.0
        return min(first), max(first)

    @property
    def consensus_value(self) -> Optional[float]:
        """The mean normal state of the last row once converged, else None."""
        return None if self.converged_at is None else float(self.states[-1, sorted(self.normal)].mean())


@dataclass(frozen=True)
class Verdict:
    """Outcome of a run: did normal agents agree, and did they stay valid."""

    agreement: bool
    validity: bool
    final_disagreement: float


def _as_state_vector(g: Graph, states) -> np.ndarray:
    """states as a float vector of g.n agent states.

    Every entry must be a real number and not a bool, the rule
    check_number applies to every other numeric input: an ndarray by its
    dtype, any other iterable, read once into a list, by the types of its
    entries (a string or a bool would otherwise be parsed as a number).
    Anything not iterable (a lone number or None), a mapping or a set is refused.
    """
    if isinstance(states, np.ndarray):
        kinds = [states.dtype.type]
    else:
        try:
            items = iter(states)
        except TypeError:  # a lone number or None
            items = None
        if items is None or isinstance(states, (Mapping, Set)):  # keys or hash order: not the agents'
            raise ValueError(f"agent states must be numbers in a sequence, got {states!r}")
        states = list(items)  # the type pass would spend a generator, and np.asarray cannot read a dict view
        kinds = dict.fromkeys(map(type, states))
    for kind in kinds:
        if kind is bool or not issubclass(kind, Real):
            raise ValueError(f"agent states must be real numbers, got a {kind.__name__}")
    x = np.asarray(states, dtype=float)
    if x.shape != (g.n,):
        raise ValueError(f"expected {g.n} agent states, got shape {x.shape}")
    return x


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
    table = []
    for start in range(0, len(order), _BLOCK):
        pick = order[start:start + _BLOCK]
        block = verts[pick]
        deg = degrees[pick]
        idx = np.repeat(block[:, None], deg[0], axis=1)
        valid = np.arange(deg[0]) < deg[:, None]
        if deg[0]:
            # bits ascend row by row, so each row's first deg slots get its neighbors in order
            idx[valid] = set_bit_columns([rows[i] for i in block.tolist()], g.n)
        table.append((block, idx, valid))
    return table


# Row numbers of a block's stacked keys, sliced per block
_KEY_ROWS = np.arange(2 * _BLOCK)


def _wmsr_update(x: np.ndarray, table: NeighborTable, f: int, out: np.ndarray) -> np.ndarray:
    """W-MSR update of the vertices in table, written into out, whose
    other entries are kept; out must not overlap x.

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
    recorded as converged_at, or after max_steps updates.  A non-finite
    normal initial state, trajectory value or updated normal state (a sum
    of huge states can overflow) raises ValueError, as do a trajectory
    that raises ValueError (named with its vertex and step) and a max_steps
    whose trace could exceed MAX_TRACE_STATES states.
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
            try:
                value = float(behavior(t))
            except ValueError as exc:  # math.sin(inf), say, which no spec check foresees
                raise ValueError(f"behavior of vertex {m} failed at t={t}: {exc}") from exc
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
    return SimulationTrace(states=states, malicious=threat.malicious, converged_at=t if converged else None)


def check_validity(trace: SimulationTrace) -> Verdict:
    """Judge a completed run: agreement, hull validity, final disagreement.

    Validity holds when every normal state at every recorded step lies in
    the safety interval widened by HULL_TOL on both sides.
    """
    idx = sorted(trace.normal)
    lo, hi = trace.safety_interval
    # judged by each column's extremes, so no normal column of the trace is copied
    low, high, last = (row[idx] for row in (trace.states.min(axis=0), trace.states.max(axis=0),
                                            trace.states[-1]))
    validity = bool((low >= lo - HULL_TOL).all() and (high <= hi + HULL_TOL).all())
    final = float(last.max() - last.min())
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
    return "\n".join([*lines, ""])  # the last newline inside the join, not a copy of the text


def trace_sidecar_dict(trace: SimulationTrace) -> dict:
    return {
        "normal": sorted(trace.normal),
        "malicious": sorted(trace.malicious),
        "converged_at": trace.converged_at,
        "consensus_value": trace.consensus_value,
        "safety_interval": list(trace.safety_interval),
    }

