"""Reproducible experiment batches over the random constructions.

A TrialConfig pins everything: theorem kind, sizes, probability (explicit
or via a scale factor against the theorem's natural exponent), seeds, and
budgets.  Trial i uses seed base_seed + i, each trial owns its own PRNG
stream, and records serialise to canonical JSON lines, so identical
configs produce byte-identical output.  Wall-clock timings are kept on
the in-memory records but left out of the canonical JSONL precisely to
preserve that byte-identity (opt in with include_timings).
"""

from __future__ import annotations

import json
import time
from collections import Counter
from dataclasses import dataclass, field, fields
from itertools import combinations
from typing import Iterator, TextIO

from . import __version__
from .colouring import SearchBudget, colouring_search
from .graphs import InputError, count_graph_cycles
from .hypergraphs import UniformHypergraph, system_of_copies
from .params import THEOREMS, probability_exponent
from .sampling import (
    DELETION_OK,
    PRNG_NAME,
    PRNG_VERSION,
    delete_short_cycles,
    sample_gnp,
    sample_subset,
)

SCHEMA_VERSION = "v1"


@dataclass(frozen=True)
class TrialConfig:
    theorem: str  # "cycles" | "ap" | "cliques"
    n: int
    k: int
    r: int = 2
    g: int | None = None  # girth target; cycles default to k
    p: float | None = None  # explicit sampling probability
    scale_c: float | None = None  # p = scale_c * n**(-exponent)
    seed: int = 0
    trials: int = 1
    deletion_cap: float | None = None  # default 0.1 * p * (universe size)
    search_budget: int | None = None  # colouring-search nodes; None skips

    def __post_init__(self):
        if self.theorem not in THEOREMS:
            raise InputError(f"unknown theorem kind {self.theorem!r}")
        if self.n < 1:
            raise InputError("n must be positive")
        if self.k < 3:
            raise InputError("pattern size k must be >= 3")
        if self.trials < 0:
            raise InputError("trial count must be non-negative")
        if (self.p is None) == (self.scale_c is None):
            raise InputError("set exactly one of p and scale_c")
        p = self.resolved_p()
        if not 0 <= p <= 1:
            raise InputError(f"probability must lie in [0, 1], got {p}")
        if (g := self.resolved_g()) < 2 or self.r < 1:
            raise InputError(
                f"need g >= 2 and r >= 1, got g={g} and r={self.r}")
        if not 0 <= (cap := self.resolved_cap()) < float("inf"):  # NaN fails
            raise InputError(f"need a finite deletion cap >= 0, got {cap}")

    def resolved_p(self) -> float:
        if self.p is not None:
            return float(self.p)
        expo = probability_exponent(self.theorem, self.k)
        return float(self.scale_c) * float(self.n) ** -float(expo)

    def resolved_g(self) -> int:
        if self.g is not None:
            return self.g
        return self.k if self.theorem == "cycles" else 3

    def resolved_cap(self) -> float:
        if self.deletion_cap is not None:
            return float(self.deletion_cap)
        # the universe: {1..n} for ap, else the edge slots of the base graph
        size = self.n if self.theorem == "ap" else self.n * (self.n - 1) // 2
        return 0.1 * self.resolved_p() * size

    def echo(self) -> dict:
        return {
            "schema": SCHEMA_VERSION,
            "tool": "ramseykit",
            "tool_version": __version__,
            "prng": f"{PRNG_NAME}:{PRNG_VERSION}",
            "theorem": self.theorem,
            "n": self.n,
            "k": self.k,
            "r": self.r,
            "g": self.resolved_g(),
            "p": self.resolved_p(),
            "p_explicit": self.p,
            "scale_c": self.scale_c,
            "seed": self.seed,
            "trials": self.trials,
            "deletion_cap": self.resolved_cap(),
            "search_budget": self.search_budget,
        }

    @classmethod
    def from_echo(cls, echo: dict) -> TrialConfig:
        """The config an `echo()` describes: its resolved g and cap rebuild
        the same echo, and `p` is read from `p_explicit`."""
        return cls(**{f.name: echo["p_explicit" if f.name == "p" else f.name]
                      for f in fields(cls)})


@dataclass(frozen=True)
class ExperimentRecord:
    type: str  # "trial" | "summary"
    config: dict
    trial: int | None = None
    seed: int | None = None
    sample_size: int | None = None
    system_edges: int | None = None
    cycle_counts: dict | None = None  # {"2": X_2, ...}
    deletion_status: str | None = None
    removed: tuple | None = None
    survivor_edges: int | None = None
    girth_ok: bool | None = None
    search_status: str | None = None
    error: str | None = None
    aggregates: dict | None = None
    wall_time: float | None = field(default=None, compare=False)

    def to_json(self, include_timings: bool = False) -> dict:
        """The set fields; `wall_time` only when timings are asked for."""
        return {name: value for name, value in vars(self).items()
                if value is not None
                and (include_timings or name != "wall_time")}

    def to_line(self, include_timings: bool = False) -> str:
        return json.dumps(self.to_json(include_timings), sort_keys=True,
                          separators=(",", ":"), allow_nan=False)


def _ap_system_of_subset(n: int, k: int, subset: set[int]) -> UniformHypergraph:
    """k-term APs of {1..n} lying inside `subset`, universe = subset."""
    members = sorted(subset)
    edges = []
    for a, b in combinations(members, 2):
        d = b - a
        last = a + (k - 1) * d
        if last > n:
            continue
        terms = [a + i * d for i in range(k)]
        if all(t in subset for t in terms[2:]):
            edges.append(tuple(terms))
    return UniformHypergraph(k, tuple(members), tuple(sorted(edges)))


def _search_status(config: TrialConfig,
                   system: UniformHypergraph | None) -> str | None:
    """Status of the budgeted colouring search of `system`; None when there
    is no budget or no system to search."""
    if system is None or not config.search_budget:
        return None
    return colouring_search(system, config.r,
                            SearchBudget(config.search_budget)).status


def _run_one_trial(config: TrialConfig, index: int) -> ExperimentRecord:
    seed = config.seed + index
    p = config.resolved_p()
    g = config.resolved_g()
    started = time.monotonic()

    base = dict(type="trial", config=config.echo(), trial=index, seed=seed)

    if config.theorem == "cycles":
        graph = sample_gnp(config.n, p, seed)
        counts = {str(j): count_graph_cycles(graph, j) for j in range(3, g)}
        copies = (system_of_copies("cycle", graph, config.k)
                  if config.search_budget else None)
        return ExperimentRecord(
            **base, sample_size=graph.num_edges, cycle_counts=counts,
            girth_ok=not any(counts.values()),  # no cycle of length 3..g-1
            search_status=_search_status(config, copies),
            wall_time=time.monotonic() - started)

    if config.theorem == "ap":
        subset = sample_subset(config.n, p, seed)
        hg = _ap_system_of_subset(config.n, config.k, subset)
        sample_size = len(subset)
    else:  # cliques
        graph = sample_gnp(config.n, p, seed)
        hg = system_of_copies("clique", graph, config.k)
        sample_size = graph.num_edges

    deletion = delete_short_cycles(hg, g, config.resolved_cap())
    counts = {str(j): c for j, c in sorted(deletion.census.counts.items())}
    ok = deletion.status == DELETION_OK  # a satisfied sparsity verdict
    return ExperimentRecord(
        **base, sample_size=sample_size, system_edges=hg.num_edges,
        cycle_counts=counts, deletion_status=deletion.status,
        removed=deletion.removed, girth_ok=True if ok else None,
        survivor_edges=deletion.survivor.num_edges if ok else None,
        search_status=_search_status(config, deletion.survivor),
        wall_time=time.monotonic() - started)


def run_trials(config: TrialConfig) -> Iterator[ExperimentRecord]:
    """Run the batch; yields one record per trial then a summary record
    computed from the trials that finished.

    Per-trial failures become records with an `error` field and never
    abort the batch.
    """
    done: list[ExperimentRecord] = []
    for i in range(config.trials):
        try:
            record = _run_one_trial(config, i)
        except Exception as exc:  # noqa: BLE001 - recorded, not raised
            record = ExperimentRecord(
                type="trial", config=config.echo(), trial=i,
                seed=config.seed + i, error=f"{type(exc).__name__}: {exc}")
        else:
            done.append(record)
        yield record

    cycles = Counter()
    for record in done:
        cycles.update(record.cycle_counts)  # unlike +, keeps zero counts
    aggregates = {
        "trials": config.trials,
        "errors": config.trials - len(done),
        "deletion_ok": sum(r.deletion_status == DELETION_OK for r in done),
        "girth_ok": sum(bool(r.girth_ok) for r in done),
        "mean_sample_size":
            sum(r.sample_size for r in done) / len(done) if done else None,
        "mean_cycle_counts": {j: c / len(done)
                              for j, c in sorted(cycles.items())},
    }
    yield ExperimentRecord(type="summary", config=config.echo(),
                           aggregates=aggregates)


def write_records(records, stream: TextIO, include_timings: bool = False) -> int:
    lines = 0
    for record in records:
        stream.write(record.to_line(include_timings) + "\n")
        lines += 1
    return lines
