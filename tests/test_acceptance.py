"""Acceptance criteria, one test per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
pass lines.  Each test enforces the stated tolerance and time budget and
prints `criterion N: PASS` on success; a failure raises inside the
criterion it belongs to.
"""

import math
import statistics
import time
from collections import Counter
from fractions import Fraction
from itertools import combinations
from math import comb, factorial

import pytest
from mpmath import mp, workprec

from ramseykit.bounds import (
    container_condition,
    cycle_system_analytic_degrees,
    expected_short_cycle_counts,
)
from ramseykit.cli import EXIT_OK, dispatch
from ramseykit.colouring import NOT_ARROWS, Colouring, verify_colouring
from ramseykit.fbounds import f_bound_report, moore_lower_bound
from ramseykit.graphs import complete_graph
from ramseykit.hypergraphs import (
    ap_count_formula,
    degree_stats,
    enumerate_short_cycles,
    hypergraph_from_edges,
    sparsity_girth,
    system_of_copies,
)
from ramseykit.intervals import log2, real, to_json
from ramseykit.params import derive_params
from ramseykit.sampling import DELETION_OK, delete_short_cycles, sample_gnp, sample_subset
from ramseykit.search import (
    EXACT,
    fact_vdw_check,
    ramsey_decide,
    ramsey_number,
    vdw_decide,
    vdw_number,
)
from ramseykit.trials import TrialConfig, _ap_system_of_subset, run_trials


def report(number: int, detail: str):
    print(f"criterion {number}: PASS — {detail}")


def test_criterion_1_cycle_count_identity():
    started = time.monotonic()
    checked = 0
    for n in range(3, 9):
        kn = complete_graph(n)
        for j in range(3, n + 1):
            system = system_of_copies("cycle", kn, j)
            expected = factorial(j - 1) // 2 * comb(n, j)
            assert system.num_edges == expected, (n, j)
            checked += 1
    elapsed = time.monotonic() - started
    assert elapsed < 10
    report(1, f"{checked} (n, j) pairs match (j-1)!/2 * C(n, j) "
              f"in {elapsed:.1f}s")


def test_criterion_2_ap_count_identity():
    started = time.monotonic()
    for k in (3, 4, 5):
        for n in range(1, 501):
            brute = 0
            for a in range(1, n + 1):
                d = 1
                while a + (k - 1) * d <= n:
                    brute += 1
                    d += 1
            assert ap_count_formula(n, k) == brute, (n, k)
    # average vertex degree of the 3-term system stays >= n/2 from n = 6 on
    for n in range(6, 501):
        count = ap_count_formula(n, 3)
        assert 2 * 3 * count >= n * n, n
    # tie the inequality to the degree_stats operation at spot sizes
    for n in (6, 9, 50, 137, 500):
        stats = degree_stats(system_of_copies("ap", n, 3))
        assert stats.avg[1] == Fraction(3 * ap_count_formula(n, 3), n)
        assert stats.avg[1] >= Fraction(n, 2)
    elapsed = time.monotonic() - started
    assert elapsed < 30
    report(2, f"formula = enumeration for N <= 500, k in 3..5; "
              f"avg degree >= N/2 for 6 <= N <= 500 in {elapsed:.1f}s")


def _max_pair_degree_oracle(n: int, k: int) -> int:
    """Independent count: max APs through any vertex pair.

    The APs of difference d put their terms i < j on the pairs (x, x + gap),
    gap = (j-i)*d, for x from 1 + i*d to n - (k-1-i)*d.  So the degrees of
    the pairs at one gap are a sum of intervals, swept here in x order from
    a Counter of the intervals' ends."""
    ends = Counter()
    for d in range(1, (n - 1) // (k - 1) + 1):
        for i, j in combinations(range(k), 2):
            ends[(j - i) * d, 1 + i * d] += 1
            ends[(j - i) * d, n - (k - 1 - i) * d + 1] -= 1
    best = degree = 0
    for _, change in sorted(ends.items()):  # each gap's changes sum to 0
        degree += change
        best = max(best, degree)
    return best


def test_criterion_3_degree_identities():
    for n in range(2, 13):
        kn = complete_graph(n)
        for k in (3, 4, 5):
            stats = degree_stats(system_of_copies("clique", kn, k))
            assert stats.avg[1] == comb(n - 2, k - 2), (n, k)
    for k in (3, 4, 5):
        cap = comb(k, 2)
        for n in range(1, 501):
            assert _max_pair_degree_oracle(n, k) <= cap, (n, k)
        for n in (40, 137, 500):
            stats = degree_stats(system_of_copies("ap", n, k))
            assert stats.max[2] == _max_pair_degree_oracle(n, k)
            assert stats.max[2] <= cap
    report(3, "clique-system avg degree = C(n-2, k-2) for n <= 12; "
              "AP pair degrees <= C(k, 2) for N <= 500")


def test_criterion_4_exact_small_numbers():
    started = time.monotonic()
    res = ramsey_number("clique", 3, 2)
    assert res.status == EXACT and res.value == 6
    below = ramsey_decide("clique", 3, 2, 5)
    assert below.status == NOT_ARROWS
    assert verify_colouring(
        system_of_copies("clique", complete_graph(5), 3), below.witness)

    res = ramsey_number("cycle", 4, 2)
    assert res.status == EXACT and res.value == 6
    below = ramsey_decide("cycle", 4, 2, 5)
    assert below.status == NOT_ARROWS
    assert verify_colouring(
        system_of_copies("cycle", complete_graph(5), 4), below.witness)

    res = vdw_number(3, 2)
    assert res.status == EXACT and res.value == 9
    below = vdw_decide(8, 3, 2)
    assert below.status == NOT_ARROWS
    assert verify_colouring(system_of_copies("ap", 8, 3), below.witness)
    elapsed = time.monotonic() - started
    assert elapsed < 180  # three searches, 60s each
    report(4, f"clique(3;2)=6, cycle(4;2)=6, progression(3;2)=9 with "
              f"verified witnesses below, {elapsed:.1f}s total")


def _triangles_bitset(g) -> int:
    bits = g.adjacency_bits()
    total = 0
    for u, v in g.edges:
        total += (bits[u] & bits[v]).bit_count()
    return total // 3


def test_criterion_5_monte_carlo_vs_exact():
    started = time.monotonic()
    trials = 10_000
    counts = [_triangles_bitset(sample_gnp(30, 0.1, seed))
              for seed in range(trials)]
    mean = statistics.fmean(counts)
    se = statistics.stdev(counts) / math.sqrt(trials)
    exact = expected_short_cycle_counts("graph", 30, Fraction(1, 10), 4)
    expected = float(exact[0].value)
    assert expected == pytest.approx(4.06)
    assert abs(mean - expected) <= 3 * se, (mean, expected, se)
    elapsed = time.monotonic() - started
    assert elapsed < 60
    report(5, f"mean triangle count {mean:.3f} within 3 SE "
              f"({se:.3f}) of {expected} over {trials} seeds, {elapsed:.0f}s")


def test_criterion_6_deletion_pipeline():
    started = time.monotonic()
    n, k, g, trials, seed0 = 2000, 3, 4, 20, 2026
    p = 0.5 * n ** -0.5
    cap = 0.1 * p * n
    successes = 0
    x_counts = {2: [], 3: []}
    for i in range(trials):
        subset = sample_subset(n, p, seed0 + i)
        hg = _ap_system_of_subset(n, k, subset)
        rep = enumerate_short_cycles(hg, g)
        x_counts[2].append(rep.counts.get(2, 0))
        x_counts[3].append(rep.counts.get(3, 0))
        res = delete_short_cycles(hg, g, cap)
        if res.status == DELETION_OK and len(res.removed) <= cap \
                and sparsity_girth(res.survivor, g).satisfied:
            successes += 1
    # the trial runner must reproduce the same pipeline
    config = TrialConfig(theorem="ap", n=n, k=k, g=g, scale_c=0.5,
                         seed=seed0, trials=trials)
    records = list(run_trials(config))
    assert records[-1].aggregates["girth_ok"] == successes
    if successes < 15:
        # fallback acceptance: postconditions were verified trial by trial
        # above; the observed short-cycle counts must then sit within
        # 3 sigma of the first-moment bounds
        bounds = {e.j: float(e.value) for e in expected_short_cycle_counts(
            "ap", n, Fraction(p), k, g)}
        for j in (2, 3):
            mean = statistics.fmean(x_counts[j])
            se = statistics.stdev(x_counts[j]) / math.sqrt(trials)
            assert mean <= bounds[j] + 3 * se, (j, mean, bounds[j])
    elapsed = time.monotonic() - started
    assert elapsed < 300
    report(6, f"{successes}/{trials} trials deleted to girth >= {g} with "
              f"|T| <= {cap:.2f}, {elapsed:.0f}s")


def test_criterion_7_container_checker():
    started = time.monotonic()
    ps = derive_params("cycles", 4, 2, None, 6)
    degrees = cycle_system_analytic_degrees(ps.n, 4)
    verdict = container_condition(degrees, 4, ps.tau, ps.epsilon)
    assert verdict.satisfied
    assert verdict.margin > 1
    tiny = real(ps.epsilon / 10**6)
    flipped = container_condition(degrees, 4, ps.tau, tiny)
    assert not flipped.satisfied
    with workprec(mp.prec * 2 if mp.prec >= 96 else 192):
        ps2 = derive_params("cycles", 4, 2, None, 6)
        degrees2 = cycle_system_analytic_degrees(ps2.n, 4)
        assert container_condition(degrees2, 4, ps2.tau,
                                   ps2.epsilon).satisfied == verdict.satisfied
        tiny2 = real(ps2.epsilon / 10**6)
        assert container_condition(degrees2, 4, ps2.tau,
                                   tiny2).satisfied == flipped.satisfied
    elapsed = time.monotonic() - started
    assert elapsed < 5
    report(7, f"analytic verdict satisfied "
              f"(margin 2^{to_json(verdict.margin)['log2']}) "
              f"and flips at eps/1e6; stable under precision doubling, "
              f"{elapsed:.1f}s")


def test_criterion_8_fact_check_never_violates():
    import random

    started = time.monotonic()
    n, k, r, w = 2000, 3, 2, 9
    rng = random.Random(99)
    tallies = {"first": 0, "second": 0, "both": 0}
    for _ in range(1000):
        col = Colouring({i: rng.randint(1, r + 1) for i in range(1, n + 1)},
                        r + 1)
        res = fact_vdw_check(col, k, r, w)  # FactViolationError would raise
        tallies[res.branch] += 1
    assert sum(tallies.values()) == 1000
    elapsed = time.monotonic() - started
    assert elapsed < 60
    report(8, f"1000 random colourings, zero violations ({tallies}), "
              f"{elapsed:.0f}s")


def _span_oracle(hg, g: int) -> bool:
    for size in range(2, g):
        for idxs in combinations(range(hg.num_edges), size):
            span = set()
            for i in idxs:
                span.update(hg.edges[i])
            if len(span) <= (hg.h - 1) * size:
                return False
    return True


def test_criterion_9_girth_machinery_cross_check():
    import random

    rng = random.Random(7)
    for _ in range(1000):
        nv = rng.randint(3, 12)
        m = rng.randint(0, 8)
        edges = {tuple(sorted(rng.sample(range(nv), 3))) for _ in range(m)}
        hg = hypergraph_from_edges(3, range(nv), edges)
        for g in (3, 4, 5):
            verdict = sparsity_girth(hg, g)
            assert verdict.satisfied == _span_oracle(hg, g)
            if enumerate_short_cycles(hg, g).total:
                assert not verdict.satisfied
    report(9, "1000 random hypergraphs: sparsity verdict = subset-span "
              "oracle; any short cycle implies violation")


def test_criterion_10_bounds_report():
    searched = ramsey_number("cycle", 4, 2)
    assert searched.status == EXACT and searched.value == 6
    rep = f_bound_report(4, 2, ramsey_value=searched.value)
    assert rep.lower_bound == 6
    expected = 15 * 64 * math.log2(4) + 160 * math.log2(6)
    relative = abs(float(log2(rep.upper_log2).mid) - expected) / expected
    assert relative < 2**-40
    assert moore_lower_bound("even", 3, 2) == 6
    assert moore_lower_bound("odd", 2, 2) == 13
    report(10, f"lower bound 6, upper log2 within 2^-40 "
               f"(rel err {relative:.2e}); ball-growth values exact")


def test_criterion_11_reproducibility(tmp_path):
    args = ["trials", "--theorem", "ap", "-n", "2000", "-k", "3", "-g", "4",
            "--scale-c", "0.5", "--trials", "10", "--seed", "7"]
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    assert dispatch(args + ["--out", str(a)]) == EXIT_OK
    assert dispatch(args + ["--out", str(b)]) == EXIT_OK
    assert a.read_bytes() == b.read_bytes()
    assert len(a.read_text().splitlines()) == 11
    report(11, "repeated trials invocations are byte-identical JSONL")
