"""Cross-module invariants: statistical oracles, exact identities, and
consistency properties tying the searches, samplers, and bound evaluators
together."""

import math
import random
import statistics
from fractions import Fraction

from mpmath import workprec

from ramseykit.bounds import (
    container_condition,
    expected_short_cycle_counts,
    fkg_girth_bound,
)
from ramseykit.colouring import ARROWS, Colouring, verify_colouring
from ramseykit.extremal import extremal_ex, fact7_premise
from ramseykit.graphs import count_graph_cycles
from ramseykit.hypergraphs import degree_stats, system_of_copies
from ramseykit.intervals import log2, working
from ramseykit.params import derive_params
from ramseykit.sampling import rejection_sample_girth, sample_gnp
from ramseykit.search import fact_vdw_check


class TestFkgVersusEmpirical:
    def test_bound_lower_bounds_success_rate(self):
        # one-sided check at 3 sigma: the product bound must not exceed
        # the observed girth-clearing rate of the rejection sampler
        n, p, k, seeds = 50, Fraction(1, 50), 5, 10_000
        hits = sum(
            rejection_sample_girth(n, float(p), k, seed, 1).succeeded
            for seed in range(seeds))
        rate = hits / seeds
        se = math.sqrt(rate * (1 - rate) / seeds)
        bound = float(fkg_girth_bound(n, p, k).product.mid)
        assert bound <= rate + 3 * se, (bound, rate, se)


class TestMonteCarloCycleCounts:
    def test_means_match_exact_expectations(self):
        n, p, trials = 12, Fraction(1, 5), 10_000
        exact = {e.j: float(e.value)
                 for e in expected_short_cycle_counts("graph", n, p, 5)}
        samples = {3: [], 4: []}
        for seed in range(trials):
            g = sample_gnp(n, float(p), seed)
            for j in (3, 4):
                samples[j].append(count_graph_cycles(g, j))
        for j in (3, 4):
            mean = statistics.fmean(samples[j])
            se = statistics.stdev(samples[j]) / math.sqrt(trials)
            assert abs(mean - exact[j]) <= 3 * se, (j, mean, exact[j])


class TestParamIdentities:
    def test_tau_coefficient_power_identity(self):
        # D_tau^(k-1) equals 2^(2k(k-1)) / epsilon exactly; the interval
        # must agree with the exact rational to 2^-60 relative in log2
        for k, r, base in ((4, 2, 6), (5, 3, 7)):
            ps = derive_params("cycles", k, r, None, base)
            exact = Fraction(2 ** (2 * k * (k - 1)), 1) / ps.epsilon
            lhs = working(lambda: ps.D_tau ** (k - 1))()
            assert abs(log2(lhs) - log2(exact)) < 2**-60 * log2(exact)

    def test_ap_tau_power_identity(self):
        ps = derive_params("ap", 3, 2, 4, 9)
        exact = Fraction(6 * math.factorial(3) * 2**3 * 27, 1) / ps.epsilon
        lhs = working(lambda: ps.D_tau ** 2)()
        assert abs(log2(lhs) - log2(exact)) < 2**-60 * log2(exact)

    def test_n_is_power_of_dp(self):
        ps = derive_params("cycles", 4, 2, None, 6)
        with workprec(200):
            diff = working(lambda: log2(ps.n) - 16 * log2(ps.D_p))()
        assert abs(diff) < 2**-80


class TestContainerMonotonicity:
    def test_margin_monotone_in_eps(self):
        hg = system_of_copies("ap", 60, 3)
        stats = degree_stats(hg)
        small = container_condition(stats, 3, Fraction(1, 4), Fraction(1, 100))
        large = container_condition(stats, 3, Fraction(1, 4), Fraction(49, 100))
        assert large.margin > small.margin
        assert large.satisfied or not small.satisfied  # eps up, never worse


class TestWitnessSymmetry:
    def test_colour_permutation_preserves_witness(self):
        from ramseykit.search import ramsey_decide

        res = ramsey_decide("clique", 3, 2, 5)
        hg = system_of_copies("clique", __import__(
            "ramseykit.graphs", fromlist=["complete_graph"]).complete_graph(5), 3)
        witness = res.witness
        swapped = Colouring({v: 3 - c for v, c in witness.colours.items()}, 2)
        assert verify_colouring(hg, witness)
        assert verify_colouring(hg, swapped)

    def test_rerun_reproduces_verdict(self):
        from ramseykit.search import vdw_decide

        a = vdw_decide(8, 3, 2)
        b = vdw_decide(8, 3, 2)
        assert a.status == b.status
        assert a.witness == b.witness


class TestFact7AgainstDirectSearch:
    def test_small_even_cycle_orders(self):
        # wherever the premise holds at n <= 8, the dense girth-4 witness
        # must itself arrow the 4-cycle with one colour
        from ramseykit.colouring import arrows

        for n in range(4, 9):
            low = extremal_ex(n, {3})
            high = extremal_ex(n, {3, 4})
            res = fact7_premise(n, 1, 2, low.max_edges, high.max_edges)
            if res.holds:
                assert arrows(low.witness, "cycle", 4, 1).status == ARROWS


class TestFactVdwThreshold:
    def test_no_violations_at_stated_threshold(self):
        # 8 W^3 is the documented comfortable interval length for W = 9
        n, k, r, w = 8 * 9**3, 3, 2, 9
        rng = random.Random(4)
        for _ in range(200):
            col = Colouring(
                {i: rng.randint(1, r + 1) for i in range(1, n + 1)}, r + 1)
            res = fact_vdw_check(col, k, r, w)
            assert res.branch in ("first", "second", "both")
