"""The three benchmark workloads: inputs, timed passes and output checks.

Each workload builds its inputs from the workload seed in ``setup`` and
then runs timed passes of one or more phases.  A pass is a fixed batch of
operations; its duration covers only the calls into the program, and its
outputs are checked after the clock stops.  Every operation's checks
count as one attempted check, failed if any part fails or the operation
raises; each whole-pass check (goldens, digests, CSV headers) counts as
one more.

Why these workloads:

* ``certify`` gives the n = 13..16 robustness kernel most of the work and
  the consensus layer none: ``robustnet certify`` through ``cli.main`` on
  the extremal graphs and seeded Erdos-Renyi graphs, plus edge-necessity
  decisions through ``is_r_robust``, which stop at the first violating
  pair instead of optimising r.
* ``sweep`` is the default experiment's grid, one ``run_experiment`` call
  per (r, n, p) cell with a small sample target and attempt budget:
  hundreds of small (n <= 12) certifications and graph draws per pass, so
  per-call overhead dominates rather than the n = 16 kernel.  Its second
  phase serialises the CSV artifacts.
* ``consensus`` gives ``wmsr_step`` most of the work and the robustness
  layer none: the criterion-6 study on tiny graphs, the four adversary
  behaviours taking turns over the trials, plus simulations on n = 1000
  random graphs, since batching tiny runs and vectorising large ones pull
  in different directions.
"""

from __future__ import annotations

import hashlib
import json
import random
import statistics
from contextlib import nullcontext
from pathlib import Path

# Workload sizes.  "toy" keeps every phase and metric but shrinks the inputs
# so the self-test finishes in seconds; goldens apply to "full" only.
SIZES = {
    "full": {
        "certify_extremal": (7, 8),
        "certify_n": (13, 14, 15, 16),
        "certify_p": (0.5, 0.7, 0.85, 0.95),
        "certify_draws": 6,
        "edge_r": (6, 7, 8),
        "sweep_config": {},
        "cell_samples": 5,
        "cell_attempts": 10,
        "study_r": 7,
        "study_f": 3,
        "study_trials": 100,
        "large_n": 1000,
        "large_p": (0.03, 0.04, 0.05),
    },
    "toy": {
        "certify_extremal": (3,),
        "certify_n": (6, 7),
        "certify_p": (0.5, 0.9),
        "certify_draws": 1,
        "edge_r": (2, 3),
        "sweep_config": {"r_values": [1, 2, 3], "samples_per_p": 2},
        "cell_samples": 2,
        "cell_attempts": 4,
        "study_r": 7,
        "study_f": 3,
        "study_trials": 4,
        "large_n": 120,
        "large_p": (0.3,),
    },
}

BEHAVIOR_KINDS = ("constant", "ramp", "sinusoid", "random-walk")
MAX_STEPS = 500
TOL = 1e-6
HULL_SLACK = 1e-9


def derive_seed(seed: int, *parts) -> int:
    """Input seed for one generated item: sha256 of the workload seed and
    the item's coordinates, first 8 bytes big-endian."""
    key = ":".join(str(x) for x in (seed,) + parts).encode()
    return int.from_bytes(hashlib.sha256(key).digest()[:8], "big")


def median(values):
    return statistics.median(values) if values else 0.0


def percentile(values, q):
    """q-th percentile (25, 50 or 75) by statistics.quantiles."""
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=4, method="inclusive")[q // 25 - 1]


# ---------------------------------------------------------------------------
# Independent output checks (no program code involved)
# ---------------------------------------------------------------------------

def parse_edge_text(text: str) -> tuple[int, list[int]]:
    lines = [ln.split("#", 1)[0].strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln]
    n = int(lines[0])
    rows = [0] * n
    for ln in lines[1:]:
        u, v = map(int, ln.split())
        rows[u] |= 1 << v
        rows[v] |= 1 << u
    return n, rows


def reach(rows, members) -> int:
    """Largest count of neighbours outside the subset over its members."""
    mask = 0
    for v in members:
        mask |= 1 << v
    return max((rows[v] & ~mask).bit_count() for v in members)


def witness_ok(n, rows, s1, s2, limit) -> bool:
    """A disjoint nonempty in-range pair in which neither side reaches above limit."""
    s1, s2 = list(s1), list(s2)
    return (bool(s1) and bool(s2) and not set(s1) & set(s2)
            and all(0 <= v < n for v in s1 + s2)
            and reach(rows, s1) <= limit and reach(rows, s2) <= limit)


class Ledger:
    """Operations attempted and failed, with the first few failure reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def record(self, ok: bool, reason: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.reasons) < 20:
                self.reasons.append(reason)

    def verify(self, reason: str, check, *args) -> bool:
        """Record ``check(*args)``; a check that raises on malformed output fails."""
        try:
            ok = bool(check(*args))
        except Exception as exc:  # the run must go on and report the failure
            ok, reason = False, f"{reason}: {exc!r}"
        self.record(ok, reason)
        return ok


class Workload:
    """Base: ``phases`` is a tuple of (phase name, share of the run)."""

    name = ""
    phases: tuple = ()

    def __init__(self, seed: int, size: str, work: Path, goldens: dict, clock):
        self.seed = seed
        self.clock = clock
        self.params = SIZES[size]
        self.work = work / self.name
        self.goldens = goldens.get(self.name) if size == "full" and seed == 0 else None
        self.ledger = Ledger()
        self.observed: dict = {}
        self.reset_samples()

    def reset_samples(self) -> None:
        self.times: dict[str, dict] = {}

    def add(self, kind: str, op, t0: float, t1: float) -> None:
        """One timed run of operation ``op`` (the same op recurs each pass),
        as ``clock.now()`` readings."""
        self.times.setdefault(kind, {}).setdefault(op, []).append((t0, t1))

    def typical(self, kind: str, scale) -> tuple[list[float], int]:
        """Median time of each operation over the passes, in seconds by
        ``scale(t0, t1)``, in operation order, and the number of samples
        behind them."""
        per_op = self.times.get(kind, {})
        return ([median([scale(*iv) for iv in v]) for v in per_op.values()],
                sum(len(v) for v in per_op.values()))

    def pass_cost(self) -> float:
        """Seconds of a typical pass of every phase at reference speed: the
        sum over operations of their median time."""
        return sum(median([self.clock.scaled(*iv) for iv in v])
                   for per_op in self.times.values() for v in per_op.values())

    def median_by_op(self, limit: int = 128) -> dict:
        """Median time per operation in ms at reference speed, for kinds
        with few operations."""
        return {kind: {str(op): 1e3 * median([self.clock.scaled(*iv) for iv in v])
                       for op, v in per_op.items()}
                for kind, per_op in self.times.items() if len(per_op) <= limit}

    def run_pass(self, rn, phase: str, tracer=None) -> float:
        """Run one pass of a phase; return its timed duration in seconds."""
        return getattr(self, "pass_" + phase)(rn, tracer)

    def finish(self, rn) -> None:
        """Checks that run once after the timed window (none by default)."""


def _op_span(tracer, name, n=None):
    """The benchmark's own per-operation span (the root of its layer spans)."""
    return nullcontext() if tracer is None else tracer.span(name, n)


# ---------------------------------------------------------------------------
# certify
# ---------------------------------------------------------------------------

class Certify(Workload):
    name = "certify"
    phases = (("certify", 0.8), ("edges", 0.2))

    def setup(self, rn) -> None:
        p = self.params
        graphs = []
        for r in p["certify_extremal"]:
            graphs.append((f"sparsest_odd_{r}", r, rn.construct.sparsest_odd(r)))
            graphs.append((f"sparsest_even_{r}", r, rn.construct.sparsest_even(r)))
        for n in p["certify_n"]:
            for q in p["certify_p"]:
                for k in range(p["certify_draws"]):
                    g = rn.construct.erdos_renyi(n, q, derive_seed(self.seed, "certify", n, q, k))
                    graphs.append((f"er_n{n}_p{q}_k{k}", None, g))
        graph_dir = self.work / "graphs"
        graph_dir.mkdir(parents=True, exist_ok=True)
        self.graphs = []
        for label, r, g in graphs:
            path = graph_dir / f"{label}.edges"
            text = rn.graph.format_edge_list(g)
            path.write_text(text)
            self.graphs.append((label, r, str(path), str(graph_dir / f"{label}.cert.json")))
        self.edge_bases = []
        for r in p["edge_r"]:
            for build in (rn.construct.sparsest_odd, rn.construct.sparsest_even):
                g = build(r)
                self.edge_bases.append((r, g, list(g.edges())))

    def pass_certify(self, rn, tracer) -> float:
        results = []
        total = 0.0
        for label, r, path, out in self.graphs:
            with _op_span(tracer, "bench.certify"):
                t0 = self.clock.now()
                try:
                    code = rn.cli.main(["certify", path, "--output", out, "--quiet"])
                except Exception as exc:  # a crash is one failed operation
                    code = repr(exc)
                t1 = self.clock.now()
            total += t1 - t0
            self.add("certify", label, t0, t1)
            results.append((label, r, path, out, code))
        self._check_certify(results)
        return total

    def _check_certify(self, results) -> None:
        self.observed["certificates"] = {}
        for label, r, path, out, code in results:
            self.ledger.verify(f"certify {label} (exit {code})", self._certificate_ok,
                               label, r, path, out, code)

    def _certificate_ok(self, label, r, path, out, code) -> bool:
        if code != 0:
            return False
        cert = json.loads(Path(out).read_text())
        n, rows = parse_edge_text(Path(path).read_text())
        r_max, w = cert["r_max"], cert["witness"]
        entry = [r_max, w["s1"], w["s2"]]
        self.observed["certificates"][label] = entry
        ceiling = min(min(row.bit_count() for row in rows), (n + 1) // 2)
        golden = (self.goldens or {}).get("certificates", {}).get(label, entry)
        return (isinstance(r_max, int) and 0 <= r_max <= ceiling
                and witness_ok(n, rows, w["s1"], w["s2"], r_max)
                and (r is None or r_max == r) and entry == golden)

    def pass_edges(self, rn, tracer) -> float:
        results = []
        total = 0.0
        for r, g, edges in self.edge_bases:
            for u, v in edges:
                with _op_span(tracer, "bench.edge_check", g.n):
                    t0 = self.clock.now()
                    try:
                        robust, witness = rn.robustness.is_r_robust(g.with_edge_removed(u, v), r)
                    except Exception as exc:
                        robust, witness = repr(exc), None
                    t1 = self.clock.now()
                total += t1 - t0
                self.add("edges", (g.n, u, v), t0, t1)
                results.append((r, g, u, v, robust, witness))
        for r, g, u, v, robust, witness in results:
            self.ledger.verify(f"edge ({u},{v}) of n={g.n} r={r}: {robust}",
                               _deletion_ok, r, g, u, v, robust, witness)
        return total

    def end_to_end(self, scale) -> dict:
        graphs, n_graphs = self.typical("certify", scale)
        edges, n_edges = self.typical("edges", scale)
        ms = [1e3 * x for x in graphs]
        return {
            "ops_per_s": (len(graphs) / sum(graphs), "1/s", n_graphs, "certify_graphs_per_s"),
            "op_p50_ms": (percentile(ms, 50), "ms", n_graphs, "certify_p50_ms"),
            "op_p75_ms": (percentile(ms, 75), "ms", n_graphs, "certify_p75_ms"),
            "aux_op_ms": (1e3 * sum(edges) / len(edges), "ms", n_edges,
                          "1000 / edge_checks_per_s"),
        }


def _deletion_ok(r, g, u, v, robust, witness) -> bool:
    """g minus (u, v) is not r-robust, and the witness shows it."""
    rows = list(g.rows)
    rows[u] &= ~(1 << v)
    rows[v] &= ~(1 << u)
    return robust is False and witness_ok(g.n, rows, witness[0], witness[1], r - 1)


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

RECORD_HEADER = "r,n,p,seed,edge_count,r_max,accepted"
SUMMARY_HEADER = "r,n,min_edges_found,bound,gap,accepted,requested,shortfall"


def _bound(n: int, r: int) -> int:
    if n == 2 * r:
        return (r * (3 * r - 2) + 2) // 2
    return 3 * r * (r - 1) // 2


class Sweep(Workload):
    """Timed: the default sweep's grid, one ``run_experiment`` call per
    (r, n, p) cell with a small sample target and attempt budget, so each
    call is short and recurs every pass; the CSV export of a pass's
    records.  At seed 0 (full size) the default sweep itself also runs
    once, after the timed window, for its goldens."""

    name = "sweep"
    phases = (("sweep", 0.75), ("csv", 0.25))

    def setup(self, rn) -> None:
        p = self.params
        self.work.mkdir(parents=True, exist_ok=True)
        default = dict(p["sweep_config"], master_seed=self.seed)
        grid = rn.experiment.ExperimentConfig.from_json_dict(default)
        cells = [dict(r_values=[r], node_offsets=[offset], p_values=[q],
                      samples_per_p=p["cell_samples"], max_attempts=p["cell_attempts"],
                      master_seed=self.seed)
                 for r in sorted(grid.r_values) for offset in grid.node_offsets
                 for q in sorted(grid.p_values)]
        path = self.work / "configs.json"
        path.write_text(json.dumps({"default": default, "cells": cells}, indent=1) + "\n")
        configs = json.loads(path.read_text())
        from_json = rn.experiment.ExperimentConfig.from_json_dict
        self.default_config = from_json(configs["default"])
        self.cells = [from_json(c) for c in configs["cells"]]

    def pass_sweep(self, rn, tracer) -> float:
        results = []
        total = 0.0
        for i, config in enumerate(self.cells):
            with _op_span(tracer, "bench.sweep_cell"):
                t0 = self.clock.now()
                try:
                    out = rn.experiment.run_experiment(config)
                except Exception as exc:
                    out = repr(exc)
                t1 = self.clock.now()
            total += t1 - t0
            self.add("sweep", i, t0, t1)
            results.append(out)
        records, summary = [], []
        self.cell_attempts = []
        for config, out in zip(self.cells, results):
            if self.ledger.verify(f"sweep cell {config}: {out}", self._cell_ok, rn, config, out):
                records += out[0]
                summary += out[1]
            self.cell_attempts.append(len(out[0]) if isinstance(out, tuple) else 0)
        self.result = (records, summary)
        self.attempts = len(records)
        self.observed["attempts"] = self.attempts
        self.observed["accepted"] = sum(rec.accepted for rec in records)
        return total

    def _cell_ok(self, rn, config, out) -> bool:
        """One cell's records and summary row, as CSV text, meet criterion 8."""
        records, summary = out
        ledger = Ledger()
        self._check(rn.experiment.records_to_csv_text(records),
                    rn.experiment.summary_to_csv_text(summary), ledger, config.samples_per_p)
        return ledger.failed == 0 and len(summary) == 1

    def pass_csv(self, rn, tracer) -> float:
        records, summary = self.result
        with _op_span(tracer, "bench.csv"):
            t0 = self.clock.now()
            texts = (rn.experiment.records_to_csv_text(records),
                     rn.experiment.summary_to_csv_text(summary))
            t1 = self.clock.now()
        self.add("csv", "export", t0, t1)
        self.ledger.verify("csv export of a pass", self._export_ok, texts, records, summary)
        return t1 - t0

    @staticmethod
    def _export_ok(texts, records, summary) -> bool:
        """Header plus one line per record and per summary row, in order."""
        lines, rows = texts[0].splitlines(), texts[1].splitlines()
        return (lines[0] == RECORD_HEADER and rows[0] == SUMMARY_HEADER
                and len(lines) == len(records) + 1 and len(rows) == len(summary) + 1
                and all(line.split(",")[3] == str(rec.seed) for line, rec in zip(lines[1:], records))
                and all(row.split(",")[:2] == [str(s.r), str(s.n)] for row, s in zip(rows[1:], summary)))

    def finish(self, rn) -> None:
        """At seed 0: the default sweep, its CSV artifacts and their goldens."""
        if self.goldens is None:
            return
        t0 = self.clock.now()
        records, summary = rn.experiment.run_experiment(self.default_config)
        records_csv = rn.experiment.records_to_csv_text(records)
        summary_csv = rn.experiment.summary_to_csv_text(summary)
        self.observed["default_sweep_s"] = self.clock.now() - t0
        (self.work / "records.csv").write_text(records_csv)
        (self.work / "summary.csv").write_text(summary_csv)
        digests = self._check(records_csv, summary_csv, self.ledger,
                              self.default_config.samples_per_p * len(self.default_config.p_values))
        self.observed["default_sweep"] = digests
        for key, value in self.goldens.items():
            self.ledger.record(digests[key] == value, f"sweep {key}: {digests[key]} != {value}")

    def _check(self, records_csv: str, summary_csv: str, ledger, requested: int) -> dict:
        """Criterion-8 invariants on the CSV artifacts; returns their digests."""
        lines = records_csv.splitlines()
        rows = summary_csv.splitlines()
        ledger.record(lines[:1] == [RECORD_HEADER], "records.csv header")
        ledger.record(rows[:1] == [SUMMARY_HEADER], "summary.csv header")
        attempts: dict = {}
        cells: dict = {}
        for line in lines[1:]:
            ledger.verify(f"sweep record {line}", self._record_ok, line, attempts, cells)
        ledger.record(len(rows) - 1 == len(cells), "one summary row per (r, n)")
        shortfalls = []
        for row in rows[1:]:
            ledger.verify(f"summary row {row}", self._summary_ok, row, cells, shortfalls, requested)
        return {
            "records_sha256": hashlib.sha256(records_csv.encode()).hexdigest(),
            "summary_sha256": hashlib.sha256(summary_csv.encode()).hexdigest(),
            "attempts": len(lines) - 1,
            "accepted": sum(cell["accepted"] for cell in cells.values()),
            "shortfalls": shortfalls,
        }

    def _record_ok(self, line, attempts, cells) -> bool:
        r, n, p, seed, edges, r_max, accepted = line.split(",")
        r, n, edges, r_max = int(r), int(n), int(edges), int(r_max)
        attempt = attempts.get((r, n, p), 0)
        attempts[r, n, p] = attempt + 1
        cell = cells.setdefault((r, n), {"accepted": 0, "min": None})
        if accepted == "true":
            cell["accepted"] += 1
            cell["min"] = edges if cell["min"] is None else min(cell["min"], edges)
        return (accepted in ("true", "false")
                and (accepted == "true") == (r_max == r)
                and 0 <= r_max <= (n + 1) // 2
                and (accepted == "false" or edges >= _bound(n, r))
                and int(seed) == derive_seed(self.seed, r, n, p, attempt))

    @staticmethod
    def _summary_ok(row, cells, shortfalls, expected) -> bool:
        r, n, min_edges, bound, gap, accepted, requested, shortfall = row.split(",")
        r, n, accepted, requested = int(r), int(n), int(accepted), int(requested)
        if shortfall == "true":
            shortfalls.append([r, n, accepted, requested])
        found = cells[r, n]["min"]
        return (int(bound) == _bound(n, r) and accepted == cells[r, n]["accepted"]
                and requested == expected
                and min_edges == ("" if found is None else str(found))
                and gap == ("" if found is None else str(found - _bound(n, r)))
                and (gap == "" or int(gap) >= 0)
                and shortfall == ("true" if accepted < requested else "false"))

    def end_to_end(self, scale) -> dict:
        cells, n_cells = self.typical("sweep", scale)
        (export,), n_exports = self.typical("csv", scale)
        ms = [1e3 * t / a for t, a in zip(cells, self.cell_attempts) if a]
        return {
            "ops_per_s": (self.attempts / sum(cells), "1/s", n_cells, "sweep_attempts_per_s"),
            "op_p50_ms": (percentile(ms, 50), "ms", n_cells, "time per attempt, median over grid cells"),
            "op_p75_ms": (percentile(ms, 75), "ms", n_cells, "time per attempt, 75th pct over grid cells"),
            "aux_op_ms": (1e6 * export / self.attempts, "ms", n_exports,
                          "records + summary CSV export, per 1000 records"),
        }


# ---------------------------------------------------------------------------
# consensus
# ---------------------------------------------------------------------------

def behavior_spec(kind: str, k: int, seed: int) -> dict:
    """Trajectory of the k-th malicious agent; all start outside [-100, 100]."""
    start = 150.0 + 40.0 * k
    if kind == "constant":
        return {"kind": "constant", "value": start}
    if kind == "ramp":
        return {"kind": "ramp", "start": start, "slope": 3.0 if k % 2 else -3.0}
    if kind == "sinusoid":
        return {"kind": "sinusoid", "offset": 0.0, "amplitude": start, "period": 10.0 + k}
    return {"kind": "random-walk", "start": -start, "step": 5.0, "seed": seed}


def _trace_ok(trace, verdict) -> bool:
    """The program's verdict says agreement and validity, and the trace agrees:
    it stops at convergence, normal states stay in their initial hull and
    end within the tolerance."""
    if not (verdict.agreement and verdict.validity):
        return False
    t = trace.converged_at
    idx = sorted(trace.normal)
    lo, hi = trace.safety_interval
    sub = trace.states[:, idx]
    return (trace.states.shape[0] == t + 1
            and lo == float(sub[0].min()) and hi == float(sub[0].max())
            and float(sub[t].max() - sub[t].min()) < TOL
            and bool((sub >= lo - HULL_SLACK).all() and (sub <= hi + HULL_SLACK).all()))


def _large_ok(g, trace, verdict, text) -> bool:
    """A valid trace whose CSV has a row per step and starts at the initial state."""
    lines = text.splitlines()
    return (_trace_ok(trace, verdict)
            and len(lines) == trace.converged_at + 2
            and lines[0] == "t," + ",".join(f"agent_{i}" for i in range(g.n))
            and [float(v) for v in lines[1].split(",")[1:]] == list(trace.states[0]))


class Consensus(Workload):
    name = "consensus"
    phases = (("study", 0.35), ("large", 0.65))

    def setup(self, rn) -> None:
        p = self.params
        self.work.mkdir(parents=True, exist_ok=True)
        f = p["study_f"]
        self.study = []  # (graph, spec, initial)
        specs = []
        for label, g in (("odd", rn.construct.sparsest_odd(p["study_r"])),
                         ("even", rn.construct.sparsest_even(p["study_r"]))):
            for trial in range(p["study_trials"]):
                rng = random.Random(derive_seed(self.seed, "study", label, trial))
                malicious = sorted(rng.sample(range(g.n), f))
                initial = [rng.uniform(-100.0, 100.0) for _ in range(g.n)]
                kind = BEHAVIOR_KINDS[trial % len(BEHAVIOR_KINDS)]
                spec = {"scope": "F-local", "F": f, "malicious": malicious,
                        "behaviors": {str(m): behavior_spec(kind, k, derive_seed(self.seed, label, trial, m))
                                      for k, m in enumerate(malicious)}}
                self.study.append((g, spec, initial))
                specs.append({"graph": label, "trial": trial, "threat": spec})
        (self.work / "study.json").write_text(json.dumps(specs))
        self.large = []
        for q in p["large_p"]:
            rng = random.Random(derive_seed(self.seed, "large", q))
            g = rn.construct.erdos_renyi(p["large_n"], q, derive_seed(self.seed, "large-graph", q))
            malicious = sorted(rng.sample(range(g.n), 2 + rng.randrange(2)))
            spec = {"scope": "F-local", "F": f, "malicious": malicious,
                    "behaviors": {str(m): behavior_spec(BEHAVIOR_KINDS[(k + 1) % 4], k, rng.randrange(2**32))
                                  for k, m in enumerate(malicious)}}
            initial = [rng.uniform(-100.0, 100.0) for _ in range(g.n)]
            rn.graph.write_edge_list(g, self.work / f"large_p{q}.edges")
            (self.work / f"large_p{q}.threat.json").write_text(json.dumps(spec))
            self.large.append((g, spec, initial))

    @staticmethod
    def _initial(threat, initial):
        x = list(initial)
        for m in threat.malicious:
            x[m] = threat.behaviors[m](0)
        return x

    def pass_study(self, rn, tracer) -> float:
        results = []
        total = 0.0
        for i, (g, spec, initial) in enumerate(self.study):
            with _op_span(tracer, "bench.trial", g.n):
                t0 = self.clock.now()
                try:
                    threat = rn.consensus.ThreatModel.from_json_dict(spec)
                    x0 = self._initial(threat, initial)
                    trace = rn.consensus.simulate(g, threat, x0, max_steps=MAX_STEPS, tol=TOL)
                    verdict = rn.consensus.check_validity(trace)
                except Exception as exc:
                    trace, verdict = None, repr(exc)
                t1 = self.clock.now()
            total += t1 - t0
            self.add("study", i, t0, t1)
            results.append((trace, verdict))
        steps = 0
        for trace, verdict in results:
            if self.ledger.verify(f"study trial: {verdict}", _trace_ok, trace, verdict):
                steps += trace.converged_at
        self._check_steps("study_steps", steps)
        return total

    def pass_large(self, rn, tracer) -> float:
        total = 0.0
        steps = 0
        for i, (g, spec, initial) in enumerate(self.large):
            with _op_span(tracer, "bench.large", g.n):
                t0 = self.clock.now()
                try:
                    threat = rn.consensus.ThreatModel.from_json_dict(spec)
                    trace = rn.consensus.simulate(g, threat, self._initial(threat, initial),
                                                  max_steps=MAX_STEPS, tol=TOL)
                    verdict = rn.consensus.check_validity(trace)
                    text = rn.consensus.trace_to_csv_text(trace)
                except Exception as exc:
                    trace, verdict, text = None, repr(exc), ""
                t1 = self.clock.now()
            total += t1 - t0
            self.add("large", i, t0, t1)
            if self.ledger.verify(f"large simulation n={g.n}: {verdict}",
                                  _large_ok, g, trace, verdict, text):
                steps += trace.converged_at
        self._check_steps("large_steps", steps)
        return total

    def _check_steps(self, key: str, steps: int) -> None:
        self.observed[key] = steps
        if self.goldens is not None:
            self.ledger.record(steps == self.goldens[key], f"{key} {steps} != {self.goldens[key]}")

    def end_to_end(self, scale) -> dict:
        trials, n_trials = self.typical("study", scale)
        large, n_large = self.typical("large", scale)
        ms = [1e3 * x for x in trials]
        return {
            "ops_per_s": (len(trials) / sum(trials), "1/s", n_trials, "study_trials_per_s"),
            "op_p50_ms": (percentile(ms, 50), "ms", n_trials, "study trial latency"),
            "op_p75_ms": (percentile(ms, 75), "ms", n_trials, "study trial latency"),
            "aux_op_ms": (1e3 * sum(large) / len(large), "ms", n_large,
                          "1000 * large_sim_s (mean over the three simulations)"),
        }


WORKLOADS = {w.name: w for w in (Certify, Sweep, Consensus)}
