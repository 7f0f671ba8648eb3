"""Command-line front end: construct, certify, simulate, experiment, bounds.

Exit codes: 0 when the subcommand's success condition holds, 1 when a run
completes but its property fails (simulate without agreement+validity), and
2 for input or usage errors.  Machine-readable artifacts are written before
property-failure exits so a red run still leaves its data behind.  Each
subcommand writes its files and settles its exit code before it reads
--quiet, so --quiet changes neither; the report after that, edge bound and
structure checks included, is computed only when it is printed.  Only this
module names output files; graph.write_text writes every one of them.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import inspect
import json
import random
import sys
from pathlib import Path

from .construct import KINDS, TREE_SHAPES
from .consensus import (ThreatModel, check_validity, simulate, trace_sidecar_dict,
                        trace_to_csv_text)
from .experiment import (
    ExperimentConfig,
    records_to_csv_text,
    run_experiment,
    summary_to_csv_text,
)
from .graph import MAX_VERTICES, check_int, load_graph, parse_json, read_input, write_edge_list, write_text
from .robustness import check_structural_lemmas, edge_lower_bound, max_robustness


def cmd_construct(args) -> int:
    builder = KINDS[args.kind]
    options = {key: value for key in ("r", "n", "p", "seed", "tree_shape")
               if (value := getattr(args, key)) is not None}
    try:  # the builder's signature states which options its kind takes
        inspect.signature(builder).bind(**options)
    except TypeError as exc:
        raise ValueError(f"--kind {args.kind}: {exc}") from None
    g = builder(**options)
    name = "-".join([args.kind, *(str(value) if key == "tree_shape" else f"{key}{value}"
                                  for key, value in options.items())])
    out = Path(args.output or f"{name}.edges")
    write_edge_list(g, out)
    if args.quiet:
        return 0
    print(f"wrote {out}")
    print(f"n={g.n} edges={g.edge_count}")
    if args.r is not None:
        report = edge_lower_bound(g.n, args.r)
        print(f"edge lower bound for {args.r}-robust on n={g.n}: {report.bound} ({report.kind})")
    return 0


def cmd_certify(args) -> int:
    g = load_graph(args.graph)
    cert = max_robustness(g)
    report_path = Path(args.output or f"{args.graph}.cert.json")
    write_text(report_path, cert.to_json_text())
    if args.quiet:
        return 0
    print(f"r_max={cert.r_max} (ceiling {(g.n + 1) // 2} for n={g.n})")
    if g.n == 1:
        print("single-vertex convention: r_max=1, no witness pair exists")
    if cert.witness is not None:
        s1, s2 = cert.witness
        print(f"witness: s1={sorted(s1)} s2={sorted(s2)}")
    if cert.r_max >= 1:
        bound = edge_lower_bound(g.n, cert.r_max)
        print(f"edges={g.edge_count} vs lower bound {bound.bound} ({bound.kind}), "
              f"slack {g.edge_count - bound.bound}")
        if cert.r_max == (g.n + 1) // 2:
            for check in check_structural_lemmas(g).checks:
                status = "pass" if check.passed else "FAIL"
                print(f"structure {check.name}: found {check.found}, "
                      f"required {check.required}: {status}")
    print(f"pairs examined: {cert.pairs_examined}")
    print(f"certificate written to {report_path}")
    return 0


def cmd_simulate(args) -> int:
    g = load_graph(args.graph)
    threat = read_input(args.threat, lambda text: ThreatModel.from_json_dict(parse_json(text)))
    rng = random.Random(args.seed)
    initial = [0.0 if i in threat.malicious else rng.uniform(-100.0, 100.0) for i in range(g.n)]
    trace = simulate(g, threat, initial, max_steps=args.steps, tol=args.tol)
    csv_path, sidecar_path, verdict_path = (Path(f"{args.out_prefix}{suffix}")
                                            for suffix in (".csv", ".json", ".verdict.json"))
    write_text(csv_path, trace_to_csv_text(trace))
    write_text(sidecar_path, json.dumps(trace_sidecar_dict(trace), indent=2) + "\n")
    verdict = check_validity(trace)
    write_text(verdict_path, json.dumps(dataclasses.asdict(verdict), indent=2) + "\n")
    code = 0 if verdict.agreement and verdict.validity else 1
    if args.quiet:
        return code
    print(f"trace written to {csv_path} (sidecar {sidecar_path}, verdict {verdict_path})")
    print(f"agreement={verdict.agreement} validity={verdict.validity}")
    print(f"converged_at={trace.converged_at} consensus_value={trace.consensus_value}")
    lo, hi = trace.safety_interval
    print(f"safety interval [{lo}, {hi}], final disagreement {verdict.final_disagreement}")
    return code


def _list_of(kind):
    """argparse type: comma-separated values of kind, blank entries skipped."""
    def parse(text: str) -> list:
        return [kind(part.strip()) for part in text.split(",") if part.strip()]
    parse.__name__ = f"{kind.__name__} list"  # argparse's error reads "invalid int list value"
    return parse


def number(text: str):
    """int(text) if that parses, else float(text): a flag's 1 is a config file's 1."""
    try:
        return int(text)
    except ValueError:
        return float(text)


def cmd_experiment(args) -> int:
    config = (read_input(args.config, lambda text: ExperimentConfig.from_json_dict(parse_json(text)))
              if args.config else ExperimentConfig())
    flags = {name: value for name in ExperimentConfig.__dataclass_fields__
             if (value := getattr(args, name)) is not None}
    config = dataclasses.replace(config, **flags)
    out_dir = Path(config.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    records, summary = run_experiment(config)
    records_path = out_dir / "records.csv"
    summary_path = out_dir / "summary.csv"
    write_text(records_path, records_to_csv_text(records))
    write_text(summary_path, summary_to_csv_text(summary))
    if args.quiet:
        return 0
    for row in summary:
        min_edges = "-" if row.min_edges_found is None else row.min_edges_found
        gap = "-" if row.gap is None else row.gap
        flag = "  SHORTFALL" if row.shortfall else ""
        print(f"r={row.r} n={row.n:2d}: min_edges={min_edges} bound={row.bound} gap={gap} "
              f"accepted {row.accepted}/{row.requested}{flag}")
    print(f"records written to {records_path}, summary to {summary_path}")
    return 0


def cmd_bounds(args) -> int:
    largest = MAX_VERTICES // 2  # the largest r whose 2r-vertex graph can be built
    check_int(args.r_max, "--r-max", check_int(args.r_min, "--r-min", 1, largest), largest)
    reports = []
    for r in range(args.r_min, args.r_max + 1):
        reports.append(edge_lower_bound(2 * r - 1, r))
        reports.append(edge_lower_bound(2 * r, r))
    if args.format == "json":
        text = json.dumps([dataclasses.asdict(b) for b in reports], indent=2) + "\n"
    else:  # one template lays out the header and every row
        row = "{},{},{},{}\n" if args.format == "csv" else "{:>3} {:>4} {:>7}  {}\n"
        text = row.format("r", "n", "bound", "kind") + "".join(
            row.format(b.r, b.n, b.bound, b.kind) for b in reports)
    if args.output:
        write_text(args.output, text)
        if not args.quiet:
            print(f"bounds written to {args.output}")
    else:  # the table is the artifact: printed even under --quiet
        print(text, end="")
    return 0


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argparse tree, built once per process; parsing never changes it."""
    parser = argparse.ArgumentParser(
        prog="robustnet",
        description="Construct, certify, and exercise maximally robust communication graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # allow_abbrev=False: each option has one name (`experiment --output` is not --output-dir)

    p_construct = sub.add_parser("construct", allow_abbrev=False,
                                 help="build a graph and write its edge list")
    p_construct.add_argument("--kind", required=True, choices=KINDS)
    p_construct.add_argument("--r", type=int, default=None, help="robustness target (extremal kinds)")
    p_construct.add_argument("--n", type=int, default=None, help="vertex count (random kinds)")
    p_construct.add_argument("--p", type=float, default=None, help="edge probability (erdos-renyi)")
    p_construct.add_argument("--seed", type=int, default=None, help="seed of the randomized kinds")
    p_construct.add_argument("--tree-shape", choices=TREE_SHAPES, default=None)
    p_construct.add_argument("--output", default=None, help="edge-list path")

    p_certify = sub.add_parser("certify", allow_abbrev=False,
                               help="certify exact maximum robustness of a graph file")
    p_certify.add_argument("graph", help="edge-list or JSON graph file")
    p_certify.add_argument("--output", default=None, help="certificate path (default GRAPH.cert.json)")

    p_sim = sub.add_parser("simulate", allow_abbrev=False,
                           help="run W-MSR consensus under a threat model")
    p_sim.add_argument("graph", help="edge-list or JSON graph file")
    p_sim.add_argument("--threat", required=True, help="threat model JSON file")
    p_sim.add_argument("--seed", type=int, default=0, help="seed of the normal initial states")
    p_sim.add_argument("--steps", type=int, default=500, help="maximum update steps")
    p_sim.add_argument("--tol", type=float, default=1e-6, help="convergence spread tolerance")
    p_sim.add_argument("--out-prefix", default="simulation", help="prefix for trace/verdict files")

    # every flag defaults to None and, when given, replaces the config field of its name
    p_exp = sub.add_parser("experiment", allow_abbrev=False,
                           help="run the bound-tightness random-graph sweep")
    p_exp.add_argument("--config", default=None, help="experiment config JSON file")
    p_exp.add_argument("--r-values", type=_list_of(int), default=None)
    p_exp.add_argument("--samples-per-p", type=int, default=None)
    p_exp.add_argument("--p-values", type=_list_of(number), default=None)
    p_exp.add_argument("--node-offsets", type=_list_of(str), default=None)
    p_exp.add_argument("--master-seed", type=int, default=None)
    p_exp.add_argument("--max-attempts", type=int, default=None)
    p_exp.add_argument("--output-dir", default=None)

    p_bounds = sub.add_parser("bounds", allow_abbrev=False,
                              help="print the edge lower-bound table for a range of r")
    p_bounds.add_argument("--r-min", type=int, default=1)
    p_bounds.add_argument("--r-max", type=int, default=10)
    p_bounds.add_argument("--format", choices=("csv", "json"), default=None,
                          help="machine-readable table format")
    p_bounds.add_argument("--output", default=None, help="table path (default stdout)")

    for command in sub.choices.values():
        command.add_argument("--quiet", action="store_true", help="suppress informational output")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:  # found by name at each call, so a cmd_* replaced on this module is the one run
        return globals()[f"cmd_{args.command}"](args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
