"""Benchmark entry point: one workload per process, one JSON line of results.

    python3 bench/run.py --workload certify --seed 0 --seconds 30 --trace 0

Runs from the root of a source checkout and imports ``robustnet`` from its
``src/`` directory; it exits with code 2, printing no result, when that
package is missing.  Inputs are derived from ``--seed``.  The run sets up
its inputs ``SETUP_REPS`` times, spread over the run (``setup_s`` is the
median), and runs timed passes of the workload's phases, interleaved so
that each gets its share of ``--seconds``, and checks every output.  Each operation's time is
its median over the passes, at a reference machine speed (``clock.py``);
the record keeps the raw figures too.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` first runs the
same passes untraced for half of ``--seconds`` as the reference, then
installs the span wrappers of ``tracing.py`` and runs one pass of each
phase traced, and prints the per-layer metrics.  The last line of standard
output is the result object; the full record (environment, sample counts,
observed goldens) is written under ``.bench_work/results/`` and traced
spans under ``.bench_work/spans/``.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import platform
import resource
import sys
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from clock import REFERENCE_S, Clock  # noqa: E402
from tracing import SpanStats, Tracer  # noqa: E402
from workloads import WORKLOADS, median  # noqa: E402

SETUP_REPS = 11
MIN_PASSES = 2
HASH_SEED = "0"
PACKAGE_MODULES = ("graph", "construct", "robustness", "consensus", "experiment", "cli")
CERTIFY_SIZES = range(9, 17)
WMSR_SIZES = ((13, "n13"), (14, "n14"), (1000, "n1000"))


def pin_hash_seed() -> None:
    """Re-execute this process (same pid, no child) with PYTHONHASHSEED pinned.

    String hashing is randomised per process, and the program's speed
    depends on the resulting dict and set layouts: the same consensus pass
    took 1.54-1.99 s at its fastest across four processes with random hash
    seeds, and 1.59-1.64 s across four with PYTHONHASHSEED=0.  Pinning it
    makes runs of the same code comparable.
    """
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        sys.stdout.flush()
        env = dict(os.environ, PYTHONHASHSEED=HASH_SEED)
        os.execve(sys.executable, [sys.executable, *sys.orig_argv[1:]], env)


def fresh_import():
    """Import robustnet and its modules anew, as a new process would."""
    for key in [k for k in sys.modules if k == "robustnet" or k.startswith("robustnet.")]:
        del sys.modules[key]
    rn = importlib.import_module("robustnet")
    for name in PACKAGE_MODULES:
        importlib.import_module("robustnet." + name)
    return rn


def measure(workload, rn, seconds: float, set_up) -> tuple[dict, object]:
    """Timed passes for ``seconds``; pass times by phase, and the package.

    The next pass is always of the phase furthest behind its share of the
    time spent so far, so the phases interleave and every operation's
    samples spread over the whole run.  Another pass starts only if the
    last pass of its phase would still end within ``seconds``, except that
    every phase runs at least ``MIN_PASSES`` times.  The remaining
    ``SETUP_REPS - 1`` set-ups (``set_up()`` returns the package it
    imported) are spread evenly over the window, which is extended by
    their duration, so ``setup_s`` also samples the whole run.
    """
    durations = {phase: [] for phase, _ in workload.phases}
    spent = dict.fromkeys(durations, 0.0)
    last = dict.fromkeys(durations, 0.0)
    start = perf_counter()
    end = start + seconds
    done = 1
    while True:
        if done < SETUP_REPS and perf_counter() >= start + seconds * done / SETUP_REPS:
            t0 = perf_counter()
            rn = set_up()
            done += 1
            start += perf_counter() - t0
            end += perf_counter() - t0
            continue
        phase = min(workload.phases, key=lambda ps: spent[ps[0]] / ps[1])[0]
        if len(durations[phase]) >= MIN_PASSES and perf_counter() + last[phase] > end:
            if all(len(runs) >= MIN_PASSES for runs in durations.values()):
                break
            phase = min(durations, key=lambda name: len(durations[name]))
        t0 = perf_counter()
        durations[phase].append(workload.run_pass(rn, phase))
        last[phase] = perf_counter() - t0
        spent[phase] += last[phase]
    for _ in range(done, SETUP_REPS):
        rn = set_up()
    return durations, rn


def per_layer_metrics(stats: SpanStats, counters: dict, observed: dict) -> dict:
    """Per-layer metrics from one traced pass of each phase: (value, unit)."""
    m = {}
    name = "robustness.max_robustness"
    m[name + ".calls"] = (stats.calls[name], "count")
    m[name + ".busy_s"] = (stats.busy[name], "s")
    for n in CERTIFY_SIZES:
        m[f"{name}.ms_per_call.n{n}"] = (stats.per_call(name, n, 1e3), "ms")
        m[f"{name}.calls.n{n}"] = (stats.calls_by_n[name, n], "count")
    m["robustness.pairs_examined"] = (counters.get("robustness.pairs_examined", 0), "count")
    m["robustness.is_r_robust.calls"] = (stats.calls["robustness.is_r_robust"], "count")
    m["robustness.is_r_robust.busy_s"] = (stats.busy["robustness.is_r_robust"], "s")
    for name in ("graph.max_clique", "graph.densest_subset_of_size",
                 "graph.load_graph", "graph.with_edge_removed"):
        m[name + ".busy_s"] = (stats.busy[name], "s")
    m["construct.erdos_renyi.calls"] = (stats.calls["construct.erdos_renyi"], "count")
    m["construct.erdos_renyi.busy_s"] = (stats.busy["construct.erdos_renyi"], "s")
    m["experiment.run_experiment.self_s"] = (stats.self_time["experiment.run_experiment"], "s")
    m["experiment.csv.busy_s"] = (
        stats.busy["experiment.csv.records"] + stats.busy["experiment.csv.summary"], "s")
    attempts = observed.get("attempts", 0)
    m["experiment.attempts"] = (attempts, "count")
    m["experiment.accept_ratio"] = (observed.get("accepted", 0) / attempts if attempts else 0.0, "ratio")
    m["cli.certify.self_s"] = (stats.self_time["cli.certify"], "s")
    name = "consensus.wmsr_step"
    m[name + ".calls"] = (stats.calls[name], "count")
    m[name + ".busy_s"] = (stats.busy[name], "s")
    for n, label in WMSR_SIZES:
        m[f"{name}.us_per_call.{label}"] = (stats.per_call(name, n, 1e6), "us")
        m[f"{name}.calls.{label}"] = (stats.calls_by_n[name, n], "count")
    m["consensus.simulate.self_s"] = (stats.self_time["consensus.simulate"], "s")
    m["consensus.check_validity.busy_s"] = (stats.busy["consensus.check_validity"], "s")
    m["consensus.trace_csv.busy_s"] = (stats.busy["consensus.trace_csv"], "s")
    m["consensus.steps"] = (observed.get("study_steps", 0) + observed.get("large_steps", 0), "count")
    return m


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def git_sha():
    """HEAD commit read from .git without running git; None outside a clone."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(args) -> dict:
    import numpy

    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "robustnet").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "git_sha": git_sha(),
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "pythonhashseed": os.environ.get("PYTHONHASHSEED"),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": args.size,
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "toy"), default="full",
                        help="toy shrinks every input (for the self-test)")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "robustnet" / "__init__.py").is_file():
        print(f"error: no robustnet sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import numpy  # noqa: F401  (a dependency: loaded once, outside setup timing)

    goldens_path = BENCH / "goldens.json"
    goldens = json.loads(goldens_path.read_text()) if goldens_path.is_file() else {}
    work = ROOT / ".bench_work"
    clock = Clock()
    workload = WORKLOADS[args.workload](args.seed, args.size, work, goldens, clock)
    setups = []

    def set_up():
        """One timed set-up: a fresh import of robustnet and the inputs."""
        t0 = clock.now()
        rn = fresh_import()
        workload.setup(rn)
        setups.append((t0, clock.now()))
        return rn

    with clock:
        rn = set_up()
        if Path(rn.__file__).resolve().parent != (src / "robustnet").resolve():
            print(f"error: imported robustnet from {rn.__file__}, not {src}", file=sys.stderr)
            return 2
        durations, rn = measure(workload, rn, args.seconds / 2 if args.trace else args.seconds,
                                set_up)
        rss_mb = peak_rss_mb()
        if not args.trace:
            workload.finish(rn)
        if args.trace:
            reference = workload.pass_cost()
            workload.reset_samples()
            tracer = Tracer(clock.now)
            with tracer:
                with tracer.span("bench.setup"):
                    workload.setup(rn)
                for phase, _ in workload.phases:
                    workload.run_pass(rn, phase, tracer)

    passes = {phase: len(runs) for phase, runs in durations.items()}
    raw = {}
    if args.trace:
        stats = SpanStats(tracer.spans, clock.scaled)
        metrics = per_layer_metrics(stats, tracer.counters, workload.observed)
        metrics["trace.overhead_frac"] = (workload.pass_cost() / reference - 1.0, "ratio")
        metrics["trace.untraced_s"] = (reference, "s")
        samples = {}
        aliases = {}
        spans_dir = work / "spans"
        spans_dir.mkdir(parents=True, exist_ok=True)
        tracer.write(spans_dir / f"{args.workload}-seed{args.seed}-{args.size}.json")
    else:
        e2e = workload.end_to_end(clock.scaled)
        e2e["setup_s"] = (median([clock.scaled(*iv) for iv in setups]), "s", len(setups),
                          "median of fresh import + input build/write")
        e2e["peak_rss_mb"] = (rss_mb, "MB", 1, "ru_maxrss of this process after the timed window")
        metrics = {k: (v[0], v[1]) for k, v in e2e.items()}
        samples = {k: v[2] for k, v in e2e.items()}
        aliases = {k: v[3] for k, v in e2e.items()}
        raw = {k: v[0] for k, v in workload.end_to_end(lambda t0, t1: t1 - t0).items()}
        raw["setup_s"] = median([t1 - t0 for t0, t1 in setups])

    ledger = workload.ledger
    failed_frac = ledger.failed / ledger.attempted if ledger.attempted else 1.0
    result = {
        "correct": ledger.failed == 0 and ledger.attempted > 0,
        "attempted": max(ledger.attempted, 1),
        "failed": ledger.failed if ledger.attempted else 1,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in sorted(metrics.items())},
    }
    record = {
        "environment": environment(args),
        "result": result,
        "failed_frac": failed_frac,
        "failure_reasons": ledger.reasons,
        "samples": samples,
        "aliases": aliases,
        "passes": passes,
        "pass_seconds": durations,
        "raw_metrics": raw,
        "calibration": {"reference_ms": 1e3 * REFERENCE_S, "samples": len(clock.kernel_s),
                        "kernel_ms_min": 1e3 * min(clock.kernel_s),
                        "kernel_ms_median": 1e3 * median(clock.kernel_s),
                        "kernel_ms_max": 1e3 * max(clock.kernel_s)},
        "observed": workload.observed,
        "median_ms_by_op": workload.median_by_op(),
    }
    results_dir = work / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}-{args.size}.json"
    (results_dir / name).write_text(json.dumps(record, indent=1) + "\n")

    for key, (value, unit) in sorted(metrics.items()):
        extra = f"  n={samples[key]}  [{aliases[key]}]" if key in samples else ""
        print(f"{key:48s} {value:>16.6g} {unit}{extra}")
    print(f"{'failed_frac':48s} {failed_frac:>16.6g} ratio  ({ledger.failed}/{ledger.attempted})")
    for reason in ledger.reasons:
        print(f"FAILED: {reason}", file=sys.stderr)
    print("environment " + json.dumps(record["environment"], sort_keys=True))
    print("observed " + json.dumps({k: v for k, v in workload.observed.items() if k != "certificates"},
                                   sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    pin_hash_seed()
    sys.exit(main())
