"""Bound-tightness sweep: sample seeded random graphs, certify them exactly,
and compare the sparsest accepted graphs against the edge lower bounds.

For each robustness target r and each node count n in {2r-1, 2r}, graphs are
drawn from G(n, p) for every configured p until the requested number of
samples certifies at exactly r_max = r (the ceiling for those node counts)
or the attempt budget runs out.  Every attempt becomes one record; the
summary row per (r, n) reports the minimum accepted edge count against the
theoretical bound.

Per-attempt seeds derive from the master seed through a stable hash, so a
config replays to byte-identical CSV artifacts regardless of platform or
execution order.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Optional

from .construct import erdos_renyi
from .graph import MAX_EXACT_N, check_fields, check_int
from .robustness import edge_lower_bound, robustness_levels

DEFAULT_R_VALUES = (1, 2, 3, 4, 5, 6)
DEFAULT_P_VALUES = (0.7, 0.75, 0.8, 0.85, 0.9)
NODE_OFFSET_CHOICES = ("2r-1", "2r")

RECORD_COLUMNS = ("r", "n", "p", "seed", "edge_count", "r_max", "accepted")
SUMMARY_COLUMNS = ("r", "n", "min_edges_found", "bound", "gap", "accepted", "requested", "shortfall")


def derive_seed(master_seed: int, r: int, n: int, p: float, attempt: int) -> int:
    """Stable per-attempt seed: the first 8 bytes, big-endian, of
    sha256("{master_seed}:{r}:{n}:{p!r}:{attempt}")."""
    return _cell_seeds(master_seed, r, n, p)(attempt)


def _cell_seeds(master_seed: int, r: int, n: int, p: float):
    """derive_seed of the (r, n, p) cell as a function of the attempt: the
    key's prefix "{master_seed}:{r}:{n}:{p!r}:" is hashed once, and each
    attempt hashes a copy of that state on."""
    cell = hashlib.sha256(f"{master_seed}:{r}:{n}:{p!r}:".encode("ascii"))

    def seed(attempt: int) -> int:
        key = cell.copy()
        key.update(f"{attempt}".encode("ascii"))
        return int.from_bytes(key.digest()[:8], "big")

    return seed


@dataclass(frozen=True)
class ExperimentConfig:
    """Sweep parameters, checked when the config is made (dataclasses.replace too);
    each value array may be a list or a tuple and is stored as a tuple."""

    r_values: tuple[int, ...] = DEFAULT_R_VALUES
    samples_per_p: int = 10
    p_values: tuple[float, ...] = DEFAULT_P_VALUES
    node_offsets: tuple[str, ...] = NODE_OFFSET_CHOICES
    master_seed: int = 0
    max_attempts: int = 5000
    output_dir: str = "."

    def __post_init__(self) -> None:
        for key in ("r_values", "p_values", "node_offsets"):
            values = getattr(self, key)
            if not isinstance(values, (list, tuple)) or not values:
                raise ValueError(f"{key} must be a JSON array of at least one value, got {values!r}")
            object.__setattr__(self, key, tuple(values))
        for r in self.r_values:
            if 2 * check_int(r, "robustness target", 1) > MAX_EXACT_N:
                raise ValueError(
                    f"r={r} needs certification at n={2 * r}, "
                    f"beyond the capability limit {MAX_EXACT_N}"
                )
        check_int(self.samples_per_p, "samples_per_p", 1)
        for p in self.p_values:
            # p's repr is written to records.csv and hashed into every seed: np.float64(0.9)
            # or Fraction(9, 10) would change both, so only int and float are taken
            if type(p) not in (int, float) or not 0.0 < p <= 1.0:
                raise ValueError(f"edge probabilities must be ints or floats in (0, 1], got {p!r}")
        if len(set(map(repr, self.p_values))) != len(set(self.p_values)):
            raise ValueError(f"p values list one number two ways, as 1 and 1.0: {self.p_values!r}")
        for offset in self.node_offsets:
            if offset not in NODE_OFFSET_CHOICES:
                raise ValueError(f"node offsets must be among {NODE_OFFSET_CHOICES}, got {offset!r}")
        check_int(self.max_attempts, "max_attempts", 1)
        check_int(self.master_seed, "master_seed", None)
        if not isinstance(self.output_dir, str):
            raise ValueError(f"output_dir must be a string, got {self.output_dir!r}")

    @classmethod
    def from_json_dict(cls, data: dict) -> "ExperimentConfig":
        return cls(**check_fields(data, "experiment config", optional=cls.__dataclass_fields__))


@dataclass(frozen=True)
class ExperimentRecord:
    r: int
    n: int
    p: float
    seed: int
    edge_count: int
    r_max: int
    accepted: bool  # r_max == r, stored: the CSV writer reads it once per record


@dataclass(frozen=True)
class SummaryRow:
    r: int
    n: int
    min_edges_found: Optional[int]
    bound: int
    accepted: int
    requested: int

    @property
    def gap(self) -> Optional[int]:
        return None if self.min_edges_found is None else self.min_edges_found - self.bound

    @property
    def shortfall(self) -> bool:
        return self.accepted < self.requested


def _certified_draws(config: ExperimentConfig, r: int, n: int, p: float):
    """The records of one (r, n, p) cell's attempts, in attempt order, up to
    the samples_per_p-th accepted one or the end of the attempt budget.

    The draws are certified in chunks by one robustness_levels call each.
    The first chunk is samples_per_p attempts.  Each later one is the
    attempts still expected at the acceptance rate seen so far,
    ceil(need * attempts / accepted), or twice the previous chunk while
    none is accepted; it is never more than twice the previous chunk or the
    attempts left.  Draws certified past the last accepted one are dropped.
    robustness_levels slices each chunk by the certifier's table budget, so
    memory does not grow with the chunk.
    """
    seed_of = _cell_seeds(config.master_seed, r, n, p)
    attempt = accepted = 0
    chunk = config.samples_per_p
    while attempt < config.max_attempts:
        chunk = min(chunk, config.max_attempts - attempt)
        seeds = [seed_of(a) for a in range(attempt, attempt + chunk)]
        graphs = [erdos_renyi(n, p, seed) for seed in seeds]
        for seed, g, r_max in zip(seeds, graphs, robustness_levels(graphs)):
            yield ExperimentRecord(r=r, n=n, p=p, seed=seed, edge_count=g.edge_count,
                                   r_max=r_max, accepted=r_max == r)
            if r_max == r:
                accepted += 1
                if accepted == config.samples_per_p:
                    return
        attempt += chunk
        need = config.samples_per_p - accepted
        chunk = min(2 * chunk, -(-need * attempt // accepted)) if accepted else 2 * chunk


def run_experiment(config: ExperimentConfig) -> tuple[list[ExperimentRecord], list[SummaryRow]]:
    """Run the sweep; returns (per-attempt records, per-(r, n) summary rows).

    Output ordering is canonical: ascending (r, n, p, attempt), independent
    of how the config lists its values.  Attempt budgets that run out leave
    a shortfall flag on the summary row rather than looping forever.

    Attempts are certified in chunks (see _certified_draws), but the records
    are those of one attempt at a time.  Each summary row is computed from
    its (r, n) cell's records once the cell ends.
    """
    records: list[ExperimentRecord] = []
    summary: list[SummaryRow] = []
    ps = sorted(set(config.p_values))
    for r in sorted(set(config.r_values)):
        for n in sorted({2 * r - 1 if offset == "2r-1" else 2 * r for offset in config.node_offsets}):
            cell_start = len(records)
            for p in ps:
                records += _certified_draws(config, r, n, p)
            edge_counts = [rec.edge_count for rec in records[cell_start:] if rec.accepted]
            summary.append(
                SummaryRow(
                    r=r,
                    n=n,
                    min_edges_found=min(edge_counts, default=None),
                    bound=edge_lower_bound(n, r).bound,
                    accepted=len(edge_counts),
                    requested=config.samples_per_p * len(ps),
                )
            )
    return records, summary


def records_to_csv_text(records: list[ExperimentRecord]) -> str:
    lines = [",".join(RECORD_COLUMNS)]
    # a cell's "r,n,p," is formatted once; it is matched by the identity of
    # the r, n and p objects, so 1 and 1.0, or True and 1, never share one
    cell = prefix = None
    for rec in records:
        if cell is None or rec.r is not cell[0] or rec.n is not cell[1] or rec.p is not cell[2]:
            cell = (rec.r, rec.n, rec.p)
            prefix = f"{rec.r},{rec.n},{rec.p!r},"
        lines.append(
            f"{prefix}{rec.seed},{rec.edge_count},{rec.r_max},{'true' if rec.accepted else 'false'}"
        )
    return "\n".join([*lines, ""])


def summary_to_csv_text(rows: list[SummaryRow]) -> str:
    lines = [",".join(SUMMARY_COLUMNS)]
    for row in rows:
        min_edges = "" if row.min_edges_found is None else str(row.min_edges_found)
        gap = "" if row.gap is None else str(row.gap)
        lines.append(
            f"{row.r},{row.n},{min_edges},{row.bound},{gap},{row.accepted},{row.requested},"
            f"{'true' if row.shortfall else 'false'}"
        )
    return "\n".join([*lines, ""])
