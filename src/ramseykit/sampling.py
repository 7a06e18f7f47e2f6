"""Seeded samplers and the short-cycle deletion step.

All randomness flows through CPython's random.Random (MT19937), whose
output stream for random() is pinned across platforms and versions; the
algorithm name and version tag below are embedded in experiment records so
a record always names the generator that produced it.
"""

from __future__ import annotations

import random
import warnings
from collections import Counter
from dataclasses import dataclass

from .graphs import Graph, InputError, girth_at_least
from .hypergraphs import (
    CycleReport,
    UniformHypergraph,
    enumerate_short_cycles,
    sparsity_girth,
)

PRNG_NAME = "mt19937"
PRNG_VERSION = "cpython-random/1"

DELETION_OK = "ok"
DELETION_CAP_EXCEEDED = "cap-exceeded"


def _check_probability(p) -> float:
    pf = float(p)
    if not 0.0 <= pf <= 1.0:
        raise InputError(f"probability must lie in [0, 1], got {p}")
    return pf


def _bernoulli_pairs(n: int, pf: float, rng: random.Random) -> tuple:
    """Pairs u < v of range(n) in lexicographic order, each kept when its
    one uniform draw falls below pf."""
    draw = rng.random
    return tuple([(u, v) for u in range(n) for v in range(u + 1, n)
                  if draw() < pf])


def sample_gnp(n: int, p, seed: int) -> Graph:
    """Binomial random graph: each pair kept independently with probability p.

    Pairs are examined in lexicographic order, one uniform draw each, so a
    seed pins the graph exactly.
    """
    if n < 0:
        raise InputError(f"vertex count must be non-negative, got {n}")
    pf = _check_probability(p)
    return Graph(n, _bernoulli_pairs(n, pf, random.Random(seed)))


def sample_subset(n: int, p, seed: int) -> set[int]:
    """Random subset of {1..n}: each element kept with probability p."""
    if n < 0:
        raise InputError(f"ground set size must be non-negative, got {n}")
    pf = _check_probability(p)
    rng = random.Random(seed)
    return {i for i in range(1, n + 1) if rng.random() < pf}


@dataclass(frozen=True)
class RejectionResult:
    graph: Graph | None
    tries: int
    succeeded: bool

    @property
    def success_rate(self) -> float:
        """Empirical per-try success estimate over the tries consumed."""
        return (1.0 / self.tries) if self.succeeded else 0.0


def rejection_sample_girth(n: int, p, k: int, seed: int,
                           max_tries: int) -> RejectionResult:
    """Resample a binomial random graph until its girth reaches k.

    One continuous PRNG stream drives all tries, so (seed, max_tries) pins
    the outcome.  Failure after max_tries carries the try count (the
    empirical success rate over those tries is zero by construction).
    """
    if k < 4:
        raise InputError(f"girth target below 4 is vacuous, got k={k}")
    if max_tries < 1:
        raise InputError(f"need at least one try, got {max_tries}")
    pf = _check_probability(p)
    rng = random.Random(seed)
    for attempt in range(1, max_tries + 1):
        g = Graph(n, _bernoulli_pairs(n, pf, rng))
        if girth_at_least(g, k):
            return RejectionResult(g, attempt, True)
    return RejectionResult(None, max_tries, False)


@dataclass(frozen=True)
class DeletionResult:
    status: str  # DELETION_OK | DELETION_CAP_EXCEEDED
    removed: tuple[int, ...]
    survivor: UniformHypergraph | None
    census: CycleReport  # the short cycles of the input hypergraph


def delete_short_cycles(hg: UniformHypergraph, g: int,
                        cap) -> DeletionResult:
    """Remove one universe vertex per short cycle until girth >= g.

    Greedy choice: the vertex covering the most remaining cycles, ties to
    the smallest index.  Success is declared only on a satisfied sparsity
    verdict for the survivor; the result carries the census it started
    from.  If more than `cap` deletions would be needed
    the partial removal set is returned for diagnostics.
    """
    census = enumerate_short_cycles(hg, g)
    spans = [set().union(*(hg.edges[ei] for ei in edge_idxs))
             for _, edge_idxs in census.cycles]

    removed: list[int] = []

    def cap_exceeded() -> DeletionResult:
        return DeletionResult(DELETION_CAP_EXCEEDED, tuple(removed), None,
                              census)

    while spans:
        coverage = Counter(v for span in spans for v in span)
        best = max(coverage.items(), key=lambda kv: (kv[1], -kv[0]))[0]
        if len(removed) + 1 > cap:
            return cap_exceeded()
        removed.append(best)
        spans = [s for s in spans if best not in s]

    survivor = hg.restrict(removed)
    verdict = sparsity_girth(survivor, g)
    while not verdict.satisfied:
        # the girth notions agree, so only a census fault leads here: fall
        # back to deleting directly from sparsity witnesses so the
        # postcondition still holds, and flag the divergence
        warnings.warn(
            "cycle enumeration left a sparsity violation; deleting from "
            "the witness directly", RuntimeWarning, stacklevel=2)
        if len(removed) + 1 > cap:
            return cap_exceeded()
        removed.append(min(v for ei in verdict.witness_edges
                           for v in survivor.edges[ei]))
        survivor = hg.restrict(removed)
        verdict = sparsity_girth(survivor, g)
    return DeletionResult(DELETION_OK, tuple(removed), survivor, census)
