"""In-memory span tracing installed from outside the program.

The benchmark never edits ``src/``.  For a traced run it replaces public
functions of ``robustnet`` with thin wrappers that record one span per
call: ``[span_id, parent_id, root_id, name, t_start, t_end, n]``.  A
function that one module imports from another lives under several module
attributes (``robustnet.experiment.max_robustness`` is the same object as
``robustnet.robustness.max_robustness``), so every ``robustnet`` module
attribute bound to the original object is replaced, and restored when the
run ends.  A target that no longer exists is skipped: its counts read 0.

The parent of a span is the span open when it started (the program is
single-threaded), and the root is the outermost open span, which is the
benchmark's own per-operation span.  Self time is a span's duration minus
the durations of its direct children; children never overlap because calls
nest.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter


def _size_of_graph_arg(args, kwargs):
    g = args[0] if args else kwargs.get("g")
    return getattr(g, "n", None)


# span name -> (module that defines it, attribute path, size extractor)
TARGETS = {
    "robustness.max_robustness": ("robustnet.robustness", "max_robustness", _size_of_graph_arg),
    "robustness.is_r_robust": ("robustnet.robustness", "is_r_robust", _size_of_graph_arg),
    "robustness.check_structural_lemmas": ("robustnet.robustness", "check_structural_lemmas", None),
    "graph.max_clique": ("robustnet.graph", "max_clique", None),
    "graph.densest_subset_of_size": ("robustnet.graph", "densest_subset_of_size", None),
    "graph.load_graph": ("robustnet.graph", "load_graph", None),
    "graph.with_edge_removed": ("robustnet.graph", "Graph.with_edge_removed", None),
    "construct.erdos_renyi": ("robustnet.construct", "erdos_renyi", None),
    "experiment.run_experiment": ("robustnet.experiment", "run_experiment", None),
    "experiment.csv.records": ("robustnet.experiment", "records_to_csv_text", None),
    "experiment.csv.summary": ("robustnet.experiment", "summary_to_csv_text", None),
    "cli.certify": ("robustnet.cli", "cmd_certify", None),
    "consensus.simulate": ("robustnet.consensus", "simulate", None),
    "consensus.wmsr_step": ("robustnet.consensus", "wmsr_step", _size_of_graph_arg),
    "consensus.check_validity": ("robustnet.consensus", "check_validity", None),
    "consensus.trace_csv": ("robustnet.consensus", "trace_to_csv_text", None),
}


class Tracer:
    """Records spans and result counters in memory; one per traced run."""

    def __init__(self, now=perf_counter):
        self.now = now
        self.spans: list[list] = []
        self.counters: dict[str, int] = defaultdict(int)
        self._open: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str, n=None):
        """A span opened by the benchmark itself around one of its operations."""
        record = self._begin(name, n)
        try:
            yield record
        finally:
            self._end(record)

    def _begin(self, name, n):
        parent = self._open[-1] if self._open else -1
        root = self._open[0] if self._open else len(self.spans)
        record = [len(self.spans), parent, root, name, 0.0, 0.0, n]
        self.spans.append(record)
        self._open.append(record[0])
        record[4] = self.now()
        return record

    def _end(self, record):
        record[5] = self.now()
        self._open.pop()

    def wrap(self, name, fn, size=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record = tracer._begin(name, size(args, kwargs) if size else None)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._end(record)
            if name == "robustness.max_robustness":
                tracer.counters["robustness.pairs_examined"] += result.pairs_examined
            return result

        return traced

    def install(self) -> None:
        """Wrap every target under every robustnet module name bound to it."""
        modules = [m for key, m in sys.modules.items()
                   if m is not None and (key == "robustnet" or key.startswith("robustnet."))]
        for name, (module_name, path, size) in TARGETS.items():
            try:
                owner = importlib.import_module(module_name)
            except ImportError:
                continue
            holder_path, _, attr = path.rpartition(".")
            holder = owner
            for part in filter(None, holder_path.split(".")):
                holder = getattr(holder, part, None)
            original = getattr(holder, attr, None) if holder is not None else None
            if original is None:
                continue
            wrapped = self.wrap(name, original, size)
            if holder is not owner:  # a method: patch the class once
                self._patch(holder, attr, wrapped)
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, wrapped)

    def _patch(self, obj, attr, value):
        self._patches.append((obj, attr, getattr(obj, attr)))
        setattr(obj, attr, value)

    def uninstall(self) -> None:
        for obj, attr, original in reversed(self._patches):
            setattr(obj, attr, original)
        self._patches.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def write(self, path) -> None:
        columns = ["id", "parent", "root", "name", "t0", "t1", "n"]
        with open(path, "w") as fh:
            json.dump({"columns": columns, "spans": self.spans,
                       "counters": dict(self.counters)}, fh)


class SpanStats:
    """Aggregates over recorded spans: calls, busy and self time, per size.

    ``scale(t0, t1)`` turns a span's interval into the duration reported;
    a span's self time (its duration minus its direct children's) is taken
    on the raw clock and converted with the span's own scale factor.
    """

    def __init__(self, spans, scale):
        self.calls = defaultdict(int)
        self.busy = defaultdict(float)
        self.self_time = defaultdict(float)
        self.calls_by_n = defaultdict(int)
        self.busy_by_n = defaultdict(float)
        child_time = defaultdict(float)
        for sid, parent, _root, name, t0, t1, n in spans:
            if parent >= 0:
                child_time[parent] += t1 - t0
        for sid, parent, _root, name, t0, t1, n in spans:
            duration = scale(t0, t1)
            self.calls[name] += 1
            self.busy[name] += duration
            if t1 > t0:
                self.self_time[name] += (t1 - t0 - child_time[sid]) * duration / (t1 - t0)
            if n is not None:
                self.calls_by_n[name, n] += 1
                self.busy_by_n[name, n] += duration

    def per_call(self, name, n, scale):
        calls = self.calls_by_n[name, n]
        return self.busy_by_n[name, n] / calls * scale if calls else 0.0
