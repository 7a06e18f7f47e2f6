import math
import random
from fractions import Fraction

import pytest

from ramseykit.colouring import ARROWS, BUDGET_EXCEEDED, NOT_ARROWS, BudgetTracker, Colouring, verify_colouring
from ramseykit.extremal import ExtremalResult, extremal_ex, fact7_premise
from ramseykit.fbounds import f_bound_report, moore_lower_bound
from ramseykit.graphs import InputError, complete_graph, graph_girth
from ramseykit.hypergraphs import system_of_copies
from ramseykit.search import (
    EXACT,
    LOWER_BOUND_ONLY,
    FactViolationError,
    SearchBudget,
    fact_vdw_check,
    ramsey_decide,
    ramsey_number,
    vdw_decide,
    vdw_number,
)


class TestRamsey:
    def test_clique_3_2(self):
        assert ramsey_decide("clique", 3, 2, 6).status == ARROWS
        res = ramsey_decide("clique", 3, 2, 5)
        assert res.status == NOT_ARROWS
        hg = system_of_copies("clique", complete_graph(5), 3)
        assert verify_colouring(hg, res.witness)

    def test_cycle_4_2(self):
        assert ramsey_decide("cycle", 4, 2, 6).status == ARROWS
        res = ramsey_decide("cycle", 4, 2, 5)
        assert res.status == NOT_ARROWS
        hg = system_of_copies("cycle", complete_graph(5), 4)
        assert verify_colouring(hg, res.witness)

    def test_numbers(self):
        assert ramsey_number("clique", 3, 2).value == 6
        assert ramsey_number("cycle", 4, 2).value == 6

    def test_edge_pattern(self):
        assert ramsey_number("clique", 2, 5).value == 2

    def test_budget_exhaustion(self):
        res = ramsey_number("clique", 3, 3, SearchBudget(node_limit=50))
        assert res.status == LOWER_BOUND_ONLY
        assert res.value is None
        assert res.lower_bound >= 3

    def test_monotone_arrows(self):
        # adding a vertex keeps the arrowing of the hosted complete graph
        threshold = ramsey_number("clique", 3, 2).value
        for n in range(3, threshold + 2):
            status = ramsey_decide("clique", 3, 2, n).status
            assert status == (ARROWS if n >= threshold else NOT_ARROWS)


class TestVdw:
    def test_decide_9_and_8(self):
        assert vdw_decide(9, 3, 2).status == ARROWS
        res = vdw_decide(8, 3, 2)
        assert res.status == NOT_ARROWS
        assert verify_colouring(system_of_copies("ap", 8, 3), res.witness)

    def test_trivial_cases(self):
        for k in (3, 4, 5):
            assert vdw_decide(k, k, 1).status == ARROWS
            assert vdw_decide(k - 1, k, 2).status == NOT_ARROWS

    def test_number_3_2(self):
        assert vdw_number(3, 2).value == 9

    def test_number_k_1(self):
        for k in (3, 4, 6):
            assert vdw_number(k, 1).value == k

    def test_number_4_2_budget(self):
        res = vdw_number(4, 2, SearchBudget(node_limit=2_000_000))
        if res.status == EXACT:
            assert res.value == 35
        else:
            assert res.value is None
            assert res.lower_bound <= 35


class TestFactCheck:
    def colouring_of(self, values):
        return Colouring({i + 1: c for i, c in enumerate(values)}, max(values))

    def test_all_last_colour(self):
        n = 2000
        col = Colouring({i: 3 for i in range(1, n + 1)}, 3)
        res = fact_vdw_check(col, 3, 2, 9)
        assert res.branch == "second"
        assert res.last_class_size == n

    def test_constant_first_colour(self):
        n = 2000
        col = Colouring({i: 1 for i in range(1, n + 1)}, 3)
        res = fact_vdw_check(col, 3, 2, 9)
        assert res.branch == "first"
        assert res.mono_count == sum((n - i) // 2 for i in range(1, n))

    def test_residue_colouring(self):
        n = 2000
        col = Colouring({i: i % 3 + 1 for i in range(1, n + 1)}, 3)
        res = fact_vdw_check(col, 3, 2, 9)
        assert res.branch in ("first", "second", "both")

    def test_mono_count_against_bruteforce(self):
        rng = random.Random(2)
        n = 60
        for _ in range(20):
            values = [rng.randint(1, 3) for _ in range(n)]
            col = self.colouring_of(values)
            masks = [0] * 4
            for v, c in col.colours.items():
                masks[c] |= 1 << v
            brute = 0
            for e in system_of_copies("ap", n, 3).edges:
                cs = {values[v - 1] for v in e}
                if len(cs) == 1 and values[e[0] - 1] <= 2:
                    brute += 1
            from ramseykit.search import count_monochromatic_aps

            assert count_monochromatic_aps(masks, n, 3, 2) == brute

    def test_interval_too_short_refused(self):
        col = Colouring({i: 1 for i in range(1, 31)}, 3)
        with pytest.raises(InputError):
            fact_vdw_check(col, 3, 2, 9)


class TestExtremal:
    def test_girth_5_on_5_vertices(self):
        res = extremal_ex(5, {3, 4})
        assert res.status == EXACT
        assert res.max_edges == 5
        assert graph_girth(res.witness) == 5  # the five-cycle

    def test_triangle_free_bipartite_maximum(self):
        for n in range(3, 8):
            res = extremal_ex(n, {3})
            assert res.status == EXACT
            assert res.max_edges == n * n // 4
            assert graph_girth(res.witness) > 3

    def test_tiny(self):
        assert extremal_ex(3, {3}).max_edges == 2

    def test_monotonicity(self):
        values = {}
        for n in (4, 5, 6):
            for m in (3, 4, 5):
                values[n, m] = extremal_ex(n, set(range(3, m + 1))).max_edges
        for n in (4, 5):
            for m in (3, 4, 5):
                assert values[n, m] <= values[n + 1, m]
        for n in (4, 5, 6):
            for m in (3, 4):
                assert values[n, m] >= values[n, m + 1]

    def test_witness_avoids_forbidden(self):
        res = extremal_ex(7, {3, 4})
        assert graph_girth(res.witness) >= 5
        assert res.max_edges == len(res.witness.edges)

    def test_budget_lower_bound(self):
        res = extremal_ex(8, {3}, BudgetTracker(SearchBudget(node_limit=5_000)))
        assert res.status in (EXACT, LOWER_BOUND_ONLY)
        assert res.max_edges <= 16
        assert graph_girth(res.witness) > 3

    def test_node_budget_stops_the_search(self):
        # the unbudgeted search needs over 300,000 nodes here
        res = extremal_ex(8, {3, 4},
                          BudgetTracker(SearchBudget(node_limit=1000)))
        assert res.status == LOWER_BOUND_ONLY
        assert res.nodes <= 1000
        assert graph_girth(res.witness) > 4
        assert res.max_edges == len(res.witness.edges)
        # out of budget before the first leaf: the empty graph stands
        res = extremal_ex(8, {3, 4},
                          BudgetTracker(SearchBudget(node_limit=5)))
        assert res.status == LOWER_BOUND_ONLY
        assert res.max_edges == len(res.witness.edges) == 0

    def test_shared_budget_is_charged(self):
        budget = BudgetTracker(SearchBudget(node_limit=100_000))
        res = extremal_ex(6, {3}, budget)
        assert res.status == EXACT
        assert budget.remaining == 100_000 - res.nodes
        # a budget already spent, in nodes or in time, answers at once
        for spent in (SearchBudget(node_limit=0),
                      SearchBudget(wall_secs=-1.0)):
            res = extremal_ex(8, {3, 4}, BudgetTracker(spent))
            assert res.status == LOWER_BOUND_ONLY
            assert res.nodes == 0
            assert res.max_edges == 0 and res.witness.edges == ()

    def test_bad_forbidden_set(self):
        with pytest.raises(InputError):
            extremal_ex(5, {4})
        with pytest.raises(InputError):
            extremal_ex(5, {3, 5})


class TestFact7:
    def test_boundary_strict(self):
        assert not fact7_premise(5, 1, 2, 6, 6).holds

    def test_five_vertices(self):
        ex_low = extremal_ex(5, {3}).max_edges
        ex_high = extremal_ex(5, {3, 4}).max_edges
        assert (ex_low, ex_high) == (6, 5)
        res = fact7_premise(5, 1, 2, ex_low, ex_high)
        assert res.holds
        assert res.implied_upper == 5
        # sanity: one colour, girth-4 extremal graph indeed arrows C_4
        from ramseykit.colouring import arrows

        witness = extremal_ex(5, {3}).witness
        assert arrows(witness, "cycle", 4, 1).status == ARROWS

    def test_literal_evaluation(self):
        assert fact7_premise(10, 2, 3, 11, 4).holds
        assert not fact7_premise(10, 2, 3, 8, 4).holds


class TestMooreAndReport:
    def test_moore_values(self):
        assert moore_lower_bound("even", 3, 2) == 6
        assert moore_lower_bound("odd", 2, 2) == 13
        assert moore_lower_bound("even", 2, 1) == 2

    def test_moore_validation(self):
        with pytest.raises(InputError):
            moore_lower_bound("even", 1, 2)
        with pytest.raises(InputError):
            moore_lower_bound("diagonal", 2, 2)

    def test_report_4_2(self):
        report = f_bound_report(4, 2, ramsey_value=6)
        assert report.parity == "even"
        assert report.moore_lower == 4
        assert report.lower_bound == 6  # the Ramsey number wins here
        expected = 15 * 64 * 2 + 160 * math.log2(6)
        assert float(report.upper_log2.log2) == pytest.approx(expected, rel=1e-12)
        assert report.even_ramsey_exponent == Fraction(2, 1)

    def test_report_5_2_odd(self):
        report = f_bound_report(5, 2)
        assert report.parity == "odd"
        assert report.moore_lower == 13
        assert report.lower_bound == 13
        assert report.odd_ramsey_lower == 4 * 2
        assert report.odd_ramsey_upper == math.factorial(4) * 5

    def test_report_special_cases(self):
        assert f_bound_report(6, 2).special_case_exponent == 6
        assert f_bound_report(8, 2).special_case_exponent == 12
        assert f_bound_report(12, 2).special_case_exponent == 30
        assert f_bound_report(10, 2).special_case_exponent is None

    def test_report_with_search(self):
        report = f_bound_report(4, 2, search_budget=SearchBudget())
        assert report.ramsey_number == 6
