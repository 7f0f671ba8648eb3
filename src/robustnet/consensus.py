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
from dataclasses import dataclass
from numbers import Real
from pathlib import Path
from typing import Callable, Mapping, Optional

import numpy as np

from .graph import Graph, bits

Behavior = Callable[[int], float]

F_TOTAL = "F-total"
F_LOCAL = "F-local"
SCOPES = (F_TOTAL, F_LOCAL)

BEHAVIOR_KINDS = ("constant", "ramp", "sinusoid", "random-walk")


# ---------------------------------------------------------------------------
# Misbehavior trajectory library (all broadcast the same value to everyone)
# ---------------------------------------------------------------------------

def constant(value: float) -> Behavior:
    return lambda t: float(value)


def linear_ramp(start: float, slope: float) -> Behavior:
    return lambda t: float(start) + float(slope) * t


def sinusoid(offset: float, amplitude: float, period: float) -> Behavior:
    if period <= 0:
        raise ValueError(f"sinusoid period must be positive, got {period!r}")
    return lambda t: float(offset) + float(amplitude) * math.sin(2.0 * math.pi * t / period)


def random_walk(start: float, step: float, seed: int) -> Behavior:
    """Seeded +-step walk; the value at t is independent of query order."""
    values = [float(start)]
    rng = random.Random(seed)

    def at(t: int) -> float:
        if t < 0:
            raise ValueError("time step must be non-negative")
        while len(values) <= t:
            values.append(values[-1] + (step if rng.random() < 0.5 else -step))
        return values[t]

    return at


_NUMERIC_PARAMS = ("value", "start", "slope", "offset", "amplitude", "period", "step")


def behavior_from_spec(spec: dict) -> Behavior:
    """Build a trajectory from a JSON-style spec: {"kind": ..., params...}.

    Numeric parameters must be finite numbers: a NaN or infinite adversary
    value would poison the trimmed averages instead of being trimmed.
    """
    if not isinstance(spec, dict):
        raise ValueError(f"behavior spec must be an object, got {spec!r}")
    kind = spec.get("kind")
    for name in _NUMERIC_PARAMS:
        value = spec.get(name, 0.0)
        if isinstance(value, bool) or not isinstance(value, Real) or not math.isfinite(value):
            raise ValueError(f"behavior parameter {name!r} must be a finite number, got {value!r}")
    try:
        if kind == "constant":
            return constant(spec["value"])
        if kind == "ramp":
            return linear_ramp(spec.get("start", 0.0), spec["slope"])
        if kind == "sinusoid":
            return sinusoid(spec.get("offset", 0.0), spec["amplitude"], spec.get("period", 20.0))
        if kind == "random-walk":
            return random_walk(spec.get("start", 0.0), spec.get("step", 1.0), spec.get("seed", 0))
    except KeyError as exc:
        raise ValueError(f"behavior kind {kind!r} is missing parameter {exc.args[0]!r}") from exc
    raise ValueError(f"behavior kind must be one of {BEHAVIOR_KINDS}, got {kind!r}")


@dataclass(frozen=True)
class ThreatModel:
    """Adversary scope and budget, the compromised set, and its trajectories."""

    scope: str
    f: int
    malicious: frozenset[int]
    behaviors: Mapping[int, Behavior]

    def validate(self, g: Graph) -> None:
        """Raise ValueError naming the violated condition, if any."""
        if self.scope not in SCOPES:
            raise ValueError(f"threat scope must be one of {SCOPES}, got {self.scope!r}")
        if isinstance(self.f, bool) or not isinstance(self.f, int) or self.f < 0:
            raise ValueError(f"threat budget F must be a non-negative integer, got {self.f!r}")
        for v in sorted(self.malicious):
            if not isinstance(v, int) or not 0 <= v < g.n:
                raise ValueError(f"malicious vertex {v!r} out of range for n={g.n}")
        missing = [v for v in sorted(self.malicious) if v not in self.behaviors]
        if missing:
            raise ValueError(f"malicious vertices {missing} have no behavior")
        if self.scope == F_TOTAL and len(self.malicious) > self.f:
            raise ValueError(
                f"F-total violated: {len(self.malicious)} malicious agents exceed F={self.f}"
            )
        if self.scope == F_LOCAL:
            malicious_mask = g.subset_mask(self.malicious)
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
        "behaviors" map (keyed by vertex as a string) override it.
        """
        try:
            scope = data["scope"]
            f = data["F"]
            malicious = frozenset(data["malicious"])
        except (KeyError, TypeError) as exc:
            raise ValueError("threat spec requires 'scope', 'F', and 'malicious'") from exc
        default_spec = data.get("behavior")
        per_vertex = data.get("behaviors", {})
        behaviors = {}
        for v in sorted(malicious):
            spec = per_vertex.get(str(v), default_spec)
            if spec is None:
                raise ValueError(f"no behavior given for malicious vertex {v}")
            behaviors[v] = behavior_from_spec(spec)
        return cls(scope=scope, f=f, malicious=malicious, behaviors=behaviors)


@dataclass(frozen=True)
class SimulationTrace:
    """Recorded run: row t of states is the full network state at time t."""

    states: np.ndarray
    normal: frozenset[int]
    malicious: frozenset[int]
    converged_at: Optional[int]
    consensus_value: Optional[float]
    safety_interval: tuple[float, float]


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
    if isinstance(f, bool) or not isinstance(f, int) or f < 0:
        raise ValueError(f"trim parameter F must be a non-negative integer, got {f!r}")
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
    take O(edges + max degree * _BLOCK) memory even on a star.
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
        packed = b"".join(rows[i].to_bytes(nbytes, "little") for i in block.tolist())
        adjacency = np.unpackbits(
            np.frombuffer(packed, dtype=np.uint8).reshape(len(block), nbytes),
            axis=1, bitorder="little",
        )
        row, nbr = np.nonzero(adjacency)  # row-major, so neighbors ascend per row
        deg = degrees[pick]
        pos = np.arange(len(nbr)) - np.repeat(np.cumsum(deg) - deg, deg)
        idx = np.repeat(block[:, None], deg[0], axis=1)
        valid = np.zeros(idx.shape, dtype=bool)
        idx[row, pos] = nbr
        valid[row, pos] = True
        table.append((block, idx, valid))
    return table


def _wmsr_update(x: np.ndarray, table: NeighborTable, f: int) -> np.ndarray:
    """W-MSR update of the vertices in table; every other entry of x is copied.

    Each agent's values are keyed twice, as they are for the side above
    its own value and negated for the side below, and f passes replace
    the largest key of every row with -inf.  A pass only takes a value
    beyond the agent's own while one is left on that side, and argmax
    takes the first of equal keys, the lowest neighbor, as list.remove
    would.  (A NaN may use up a pass, but it is always kept, so the
    result is NaN either way.)  The survivors are then added left to
    right from +0.0, everything else contributing -0.0 (the exact
    additive identity), so each sum equals Python's sum over the
    survivors bit for bit; np.sum would add pairwise and change the last
    bits.
    """
    out = x.copy()
    for block, idx, valid in table:
        k = len(block)
        own = x[block][:, None]
        v = x[idx]  # padding holds own, which is neither above nor below it
        above = v > own
        below = v < own
        key = np.concatenate((v, -v))
        rows = np.arange(2 * k)
        for _ in range(min(f, idx.shape[1])):
            key[rows, key.argmax(axis=1)] = -np.inf
        taken = key == -np.inf
        kept = valid & ~((above & taken[:k]) | (below & taken[k:]))
        terms = np.full((k, idx.shape[1] + 1), -0.0)
        terms[:, 0] = 0.0
        np.copyto(terms[:, 1:], v, where=kept)
        np.add.accumulate(terms, axis=1, out=terms)
        out[block] = (own[:, 0] + terms[:, -1]) / (kept.sum(axis=1) + 1)
    return out


def simulate(
    g: Graph,
    threat: ThreatModel,
    initial,
    max_steps: int = 500,
    tol: float = 1e-6,
) -> SimulationTrace:
    """Run W-MSR consensus under the given threat model.

    Row 0 of the trace is the supplied initial condition.  For each later
    step, misbehaving vertices take their trajectory value at t while
    normal vertices apply the W-MSR update (parameter F from the threat) to
    the previous row.  The run stops at the first step where the spread of
    normal states drops below tol, recorded as converged_at, or after
    max_steps updates.  The safety interval is the closed hull of the
    normal agents' initial states.  A non-finite initial state, trajectory
    value or updated normal state (a sum of huge states can overflow)
    raises ValueError.
    """
    if not isinstance(max_steps, int) or max_steps < 1:
        raise ValueError(f"max_steps must be a positive integer, got {max_steps!r}")
    if not tol > 0:
        raise ValueError(f"tolerance must be positive, got {tol!r}")
    threat.validate(g)
    x0 = _as_state_vector(g, initial)
    if not np.isfinite(x0).all():
        raise ValueError("initial states must be finite numbers")
    normal = frozenset(range(g.n)) - threat.malicious
    if not normal:
        raise ValueError("at least one normal agent is required")
    idx = sorted(normal)
    table = _neighbor_table(g, idx)
    rows = [x0.copy()]
    lo = float(min(x0[i] for i in idx))
    hi = float(max(x0[i] for i in idx))
    converged_at = 0 if hi - lo < tol else None
    t = 0
    while converged_at is None and t < max_steps:
        t += 1
        nxt = _wmsr_update(rows[-1], table, threat.f)
        for m in threat.malicious:
            value = float(threat.behaviors[m](t))
            if not math.isfinite(value):
                raise ValueError(f"behavior of vertex {m} gave non-finite value {value!r} at t={t}")
            nxt[m] = value
        rows.append(nxt)
        ns = nxt[idx]
        if not np.isfinite(ns).all():
            raise ValueError(f"W-MSR update gave a non-finite normal state at t={t}")
        if float(ns.max() - ns.min()) < tol:
            converged_at = t
    states = np.vstack(rows)
    consensus_value = None
    if converged_at is not None:
        consensus_value = float(states[converged_at][idx].mean())
    return SimulationTrace(
        states=states,
        normal=normal,
        malicious=threat.malicious,
        converged_at=converged_at,
        consensus_value=consensus_value,
        safety_interval=(lo, hi),
    )


def check_validity(trace: SimulationTrace, normal=None, tol: float = 1e-9) -> Verdict:
    """Judge a completed run: agreement, hull validity, final disagreement.

    Validity holds when every normal state at every recorded step lies in
    the safety interval widened by tol on both sides (the small default
    absorbs floating-point rounding of the convex averages).
    """
    idx = sorted(trace.normal if normal is None else normal)
    lo, hi = trace.safety_interval
    sub = trace.states[:, idx]
    validity = bool((sub >= lo - tol).all() and (sub <= hi + tol).all())
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
    csv_path.write_text(trace_to_csv_text(trace))
    json_path.write_text(json.dumps(trace_sidecar_dict(trace), indent=2) + "\n")
    return csv_path, json_path
