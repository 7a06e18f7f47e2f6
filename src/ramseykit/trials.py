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
from dataclasses import dataclass, field
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

    def resolved_p(self) -> float:
        if self.p is not None:
            return float(self.p)
        expo = probability_exponent(self.theorem, self.k)
        return float(self.scale_c) * float(self.n) ** -float(expo)

    def resolved_g(self) -> int:
        if self.g is not None:
            return self.g
        return self.k if self.theorem == "cycles" else 3

    def universe_size(self) -> int:
        if self.theorem == "ap":
            return self.n
        return self.n * (self.n - 1) // 2  # edge slots of the base graph

    def resolved_cap(self) -> float:
        if self.deletion_cap is not None:
            return float(self.deletion_cap)
        return 0.1 * self.resolved_p() * self.universe_size()

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
        out = {"type": self.type, "config": self.config}
        for name in ("trial", "seed", "sample_size", "system_edges",
                     "cycle_counts", "deletion_status", "survivor_edges",
                     "girth_ok", "search_status", "error", "aggregates"):
            value = getattr(self, name)
            if value is not None:
                out[name] = value
        if self.removed is not None:
            out["removed"] = list(self.removed)
        if include_timings and self.wall_time is not None:
            out["wall_time"] = self.wall_time
        return out

    def to_line(self, include_timings: bool = False) -> str:
        return json.dumps(self.to_json(include_timings), sort_keys=True,
                          separators=(",", ":"))


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


def _run_one_trial(config: TrialConfig, index: int) -> ExperimentRecord:
    seed = config.seed + index
    p = config.resolved_p()
    g = config.resolved_g()
    started = time.monotonic()

    base = dict(type="trial", config=config.echo(), trial=index, seed=seed)

    if config.theorem == "cycles":
        graph = sample_gnp(config.n, p, seed)
        counts = {str(j): count_graph_cycles(graph, j) for j in range(3, g)}
        girth_ok = not any(counts.values())  # no cycle of length 3..g-1
        search_status = None
        if config.search_budget:
            hg = system_of_copies("cycle", graph, config.k)
            search_status = colouring_search(
                hg, config.r, SearchBudget(config.search_budget)).status
        return ExperimentRecord(
            **base, sample_size=graph.num_edges, cycle_counts=counts,
            girth_ok=girth_ok, search_status=search_status,
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
    girth_ok = None
    survivor_edges = None
    search_status = None
    if deletion.status == DELETION_OK:
        girth_ok = True  # declared only on a satisfied sparsity verdict
        survivor_edges = deletion.survivor.num_edges
        if config.search_budget:
            search_status = colouring_search(
                deletion.survivor, config.r,
                SearchBudget(config.search_budget)).status
    return ExperimentRecord(
        **base, sample_size=sample_size, system_edges=hg.num_edges,
        cycle_counts=counts, deletion_status=deletion.status,
        removed=deletion.removed, survivor_edges=survivor_edges,
        girth_ok=girth_ok, search_status=search_status,
        wall_time=time.monotonic() - started)


def run_trials(config: TrialConfig) -> Iterator[ExperimentRecord]:
    """Run the batch; yields one record per trial then a summary record.

    Per-trial failures become records with an `error` field and never
    abort the batch.
    """
    totals: dict[str, float] = {}
    counts: dict[str, int] = {"trials": 0, "errors": 0,
                              "deletion_ok": 0, "girth_ok": 0}
    cycle_totals: dict[str, int] = {}
    for i in range(config.trials):
        try:
            record = _run_one_trial(config, i)
        except Exception as exc:  # noqa: BLE001 - recorded, not raised
            record = ExperimentRecord(
                type="trial", config=config.echo(), trial=i,
                seed=config.seed + i, error=f"{type(exc).__name__}: {exc}")
        counts["trials"] += 1
        if record.error is not None:
            counts["errors"] += 1
        else:
            totals["sample_size"] = totals.get("sample_size", 0) \
                + record.sample_size
            if record.deletion_status == DELETION_OK:
                counts["deletion_ok"] += 1
            if record.girth_ok:
                counts["girth_ok"] += 1
            for j, c in (record.cycle_counts or {}).items():
                cycle_totals[j] = cycle_totals.get(j, 0) + c
        yield record

    done = counts["trials"] - counts["errors"]
    aggregates = {
        "trials": counts["trials"],
        "errors": counts["errors"],
        "deletion_ok": counts["deletion_ok"],
        "girth_ok": counts["girth_ok"],
        "mean_sample_size": (totals.get("sample_size", 0) / done) if done else None,
        "mean_cycle_counts": {j: c / done for j, c in sorted(cycle_totals.items())}
        if done else {},
    }
    yield ExperimentRecord(type="summary", config=config.echo(),
                           aggregates=aggregates)


def write_records(records, stream: TextIO, include_timings: bool = False) -> int:
    lines = 0
    for record in records:
        stream.write(record.to_line(include_timings) + "\n")
        lines += 1
    return lines
