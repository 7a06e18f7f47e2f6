import math
import random
from fractions import Fraction
from itertools import combinations, permutations

import pytest
from hypothesis import given, settings, strategies as st

from ramseykit.colouring import ARROWS, BUDGET_EXCEEDED, NOT_ARROWS, Colouring, verify_colouring
from ramseykit.extremal import (
    _bfs_distance_at_least,
    _search,
    extremal_ex,
    fact7_premise,
    moore,
)
from ramseykit.fbounds import f_bound_report, moore_lower_bound
from ramseykit.graphs import InputError, complete_graph, graph_girth
from ramseykit.hypergraphs import arithmetic_progressions, system_of_copies
from ramseykit.intervals import log2
from ramseykit.search import (
    EXACT,
    LOWER_BOUND_ONLY,
    FactViolationError,
    SearchBudget,
    count_monochromatic_aps,
    fact_vdw_branch,
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

    @staticmethod
    def masks_of(values, colours):
        # one OR per element: the reference for the base-2 masks
        masks = [0] * (colours + 1)
        for v, c in enumerate(values, start=1):
            masks[c] |= 1 << v
        return masks

    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from([3, 4, 5]), st.integers(1, 3), st.data())
    def test_mono_count_against_bruteforce(self, k, r, data):
        values = data.draw(st.lists(st.integers(1, r + 1), max_size=60))
        n = len(values)
        brute = sum(1 for ap in arithmetic_progressions(n, k)
                    if len({values[v - 1] for v in ap}) == 1
                    and values[ap[0] - 1] <= r)
        masks = self.masks_of(values, r + 1)
        assert count_monochromatic_aps(masks, n, k, r) == brute

    @staticmethod
    def outcomes(colouring, k, r, w):
        """(check, branch) outcomes: the branch or the violation message."""
        out = []
        for decide in (lambda *a: fact_vdw_check(*a).branch, fact_vdw_branch):
            try:
                out.append(decide(colouring, k, r, w))
            except FactViolationError as exc:
                out.append(f"FactViolationError: {exc}")
        return out

    def test_branch_agrees_with_check_on_random_colourings(self):
        rng = random.Random(14)
        seen = set()
        for _ in range(200):
            k, r, w = rng.choice([3, 4]), rng.randint(1, 3), rng.choice([9, 35])
            n = rng.randint(40 * w, 60 * w)  # long enough for W
            # a light last colour, so that some colourings miss the second
            # branch and rest on the first
            last = rng.choice([0.0, 0.01, 1 / (r + 1), 0.95])
            values = [r + 1 if rng.random() < last else rng.randint(1, r)
                      for _ in range(n)]
            col = self.colouring_of(values)
            res = fact_vdw_check(col, k, r, w)
            assert fact_vdw_branch(col, k, r, w) == res.branch
            masks = self.masks_of(values, r + 1)
            assert res.mono_count == count_monochromatic_aps(masks, n, k, r)
            assert res.last_class_size == values.count(r + 1)
            seen.add(res.branch)
        assert seen == {"first", "second", "both"}

    def test_first_branch_threshold_from_both_sides(self):
        # residues mod 30 wear colours 1..30, so only differences divisible
        # by 30 give monochromatic 3-APs: too few for the first branch at
        # W=3, and colour 30 is too light for the second.  Moving elements
        # into colour 1 one at a time then crosses the first threshold.
        n, k, r, w = 600, 3, 29, 3
        values = [v % 30 or 30 for v in range(1, n + 1)]
        ap_total = len(arithmetic_progressions(n, k))
        below = None
        for v in range(2, n + 1):
            if values[v - 1] in (1, 30):
                continue
            mono = count_monochromatic_aps(self.masks_of(values, 30), n, k, r)
            if mono * w**3 > ap_total:
                break
            below = list(values)
            values[v - 1] = 1
        for col, expected in [
            (self.colouring_of(below), "FactViolationError: neither branch"),
            (self.colouring_of(values), "first"),
        ]:
            check, branch = self.outcomes(col, k, r, w)
            assert check == branch
            assert branch.startswith(expected)

    def test_neither_branch_raises_the_same_message(self):
        col = self.colouring_of([v % 30 or 30 for v in range(1, 601)])
        check, branch = self.outcomes(col, 3, 29, 3)
        assert check == branch
        assert branch.startswith("FactViolationError: neither branch")

    @staticmethod
    def but(bad):
        """{1..300} in colour 2, except `bad`, first in mapping order."""
        return {**bad, **{v: 2 for v in range(1, 301) if v not in bad}}

    @pytest.mark.parametrize("colours,message", [
        ({1: 1, 3: 2}, "colouring must cover an interval {1..n} totally"),
        ({v: 1 for v in range(2, 302)},
         "colouring must cover an interval {1..n} totally"),
        # the first bad vertex in mapping order names the colour
        (but({250: 0, 7: 4}), "colour 0 outside 1..3"),
        (but({9: -1, 3: 256}), "colour -1 outside 1..3"),
        (but({3: 256, 9: -1}), "colour 256 outside 1..3"),
        (but({300: 4, 1: 0}), "colour 4 outside 1..3"),
        ({}, "colouring is empty; the dichotomy needs n >= 1"),
    ])
    @pytest.mark.parametrize("decide", [fact_vdw_check, fact_vdw_branch])
    def test_colouring_errors(self, decide, colours, message):
        with pytest.raises(InputError) as exc:
            decide(colours, 3, 2, 9)
        assert str(exc.value) == message

    def test_interval_too_short_refused(self):
        col = Colouring({i: 1 for i in range(1, 31)}, 3)
        with pytest.raises(InputError):
            fact_vdw_check(col, 3, 2, 9)


def _brute_force_ex(n: int) -> dict[int, int]:
    """{m: ex(n; C3..Cm)} for m in 3..6, from every edge subset of K_n."""
    bit = {e: 1 << i for i, e in enumerate(combinations(range(n), 2))}
    girth = [math.inf] * (1 << len(bit))
    for size in range(3, n + 1):
        for first, *others in combinations(range(n), size):
            for rest in permutations(others):
                if rest[0] < rest[-1]:  # each cycle once
                    walk = (first, *rest, first)
                    mask = sum(bit[min(a, b), max(a, b)]
                               for a, b in zip(walk, walk[1:]))
                    girth[mask] = min(girth[mask], size)
    for b in bit.values():  # a subset's girth is its least cycle's length
        for mask in range(len(girth)):
            if mask & b:
                girth[mask] = min(girth[mask], girth[mask ^ b])
    return {m: max(mask.bit_count() for mask, g in enumerate(girth) if g > m)
            for m in range(3, 7)}


def _parent_search(n: int, m: int, ex: list[int], seed, budget):
    """Reference `_search` without the Moore cap and the degree cut: the
    same branching order and the same other cuts, so it finds the same
    improvements, in more nodes.  Returns (best, nodes, ran_out)."""
    slots = list(combinations(range(n), 2))
    total = len(slots)
    upper = n * ex[n - 1] // (n - 2)
    adj: list[list[int]] = [[] for _ in range(n)]
    degree = [0] * n
    chosen: list[tuple[int, int]] = []
    best = seed
    nodes = 0
    stop = ran_out = False

    def search(idx: int):
        nonlocal best, nodes, stop, ran_out
        if stop:
            return
        if budget.exhausted(nodes):
            stop = ran_out = True
            return
        nodes += 1
        if idx == total:
            if len(chosen) > len(best):
                best = list(chosen)
                stop = len(best) == upper
            return
        u, v = slots[idx]
        if idx > 0 and slots[idx - 1][0] != u and u >= 2:
            if degree[u - 1] > degree[u - 2]:
                return
        block = n - v
        if 1 <= u <= n - 3:
            block = min(block, degree[u - 1] - degree[u])
        if block < 0 or len(chosen) + block + ex[n - u - 1] <= len(best):
            return
        if _bfs_distance_at_least(adj, u, v, m):
            adj[u].append(v)
            adj[v].append(u)
            degree[u] += 1
            degree[v] += 1
            chosen.append((u, v))
            search(idx + 1)
            chosen.pop()
            degree[u] -= 1
            degree[v] -= 1
            adj[u].pop()
            adj[v].pop()
        search(idx + 1)

    search(0)
    return best, nodes, ran_out


class TestExtremal:
    def test_girth_5_on_5_vertices(self):
        res = extremal_ex(5, {3, 4})
        assert res.status == EXACT
        assert res.max_edges == 5
        assert graph_girth(res.witness) == 5  # the five-cycle

    def test_triangle_free_bipartite_maximum(self):
        for n in range(11):
            res = extremal_ex(n, {3})
            assert res.status == EXACT
            assert res.max_edges == n * n // 4
            assert graph_girth(res.witness) > 3

    def test_tiny(self):
        assert extremal_ex(3, {3}).max_edges == 2

    def test_girth_5_maxima_match_the_published_values(self):
        # Garnick, Kwong and Lazebnik (J. Graph Theory 1993), n = 0..10
        for n, value in enumerate((0, 0, 1, 2, 3, 5, 6, 8, 10, 12, 15)):
            res = extremal_ex(n, {3, 4})
            assert (res.status, res.max_edges) == (EXACT, value)
            assert len(res.witness.edges) == value
            assert graph_girth(res.witness) >= 5

    def test_brute_force_over_every_edge_subset(self):
        for n in range(7):
            expected = _brute_force_ex(n)
            for m in range(3, 7):
                res = extremal_ex(n, set(range(3, m + 1)))
                assert (res.status, res.max_edges) == (EXACT, expected[m])
                assert n == 0 or moore(n, m + 1) >= expected[m]

    def test_same_witnesses_as_the_search_without_counting_bounds(self):
        # every n <= 9: extremal_ex(n) is the n-th step of this loop
        for m in range(3, 10):
            ex, best, nodes = [], [], 0
            for n in range(10):
                if n <= m:
                    best = [(0, v) for v in range(1, n)]
                else:
                    ref, ref_nodes, _ = _parent_search(n, m, ex, best,
                                                       SearchBudget())
                    best, spent, ran_out = _search(n, m, ex, best,
                                                   SearchBudget())
                    assert (best, ran_out) == (ref, False)
                    assert spent <= ref_nodes
                    nodes += spent
                ex.append(len(best))
            res = extremal_ex(9, set(range(3, m + 1)))
            assert (res.status, res.max_edges, res.nodes) == (
                EXACT, ex[9], nodes)
            assert res.witness.edges == tuple(sorted(best))

    def test_moore_closed_forms_at_girth_4_and_5(self):
        # Mantel's n^2/4, and n*sqrt(n-1)/2 from sum deg^2 <= n(n-1)
        for n in range(1, 60):
            assert moore(n, 4) == n * n // 4
            assert moore(n, 5) == math.isqrt(n * n * (n - 1)) // 2

    def test_degree_order_leaves_the_last_two_vertices_free(self):
        # deg(0) >= ... >= deg(n-3) is enforced, deg(n-2) and deg(n-1) not
        res = extremal_ex(7, {3, 4})
        assert res.witness.edges == ((0, 1), (0, 2), (0, 3), (1, 4), (2, 5),
                                     (3, 6), (4, 5), (5, 6))
        degree = [sum(v in e for e in res.witness.edges) for v in range(7)]
        assert degree == [3, 2, 2, 2, 2, 3, 2]

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
        res = extremal_ex(8, {3}, SearchBudget(node_limit=5_000))
        assert res.status in (EXACT, LOWER_BOUND_ONLY)
        assert res.max_edges <= 16
        assert graph_girth(res.witness) > 3

    def test_node_budget_stops_the_search(self):
        # the unbudgeted search needs 1,811 nodes here
        res = extremal_ex(8, {3, 4}, SearchBudget(node_limit=1000))
        assert res.status == LOWER_BOUND_ONLY
        assert res.nodes <= 1000
        assert graph_girth(res.witness) > 4
        assert res.max_edges == len(res.witness.edges)
        # ex(0..4) take no search; 5 nodes do not reach a leaf of the
        # 5-vertex search, so the star on 4 vertices stands
        res = extremal_ex(8, {3, 4}, SearchBudget(node_limit=5))
        assert res.status == LOWER_BOUND_ONLY
        assert res.max_edges == len(res.witness.edges) == 3

    def test_every_node_limit_is_exact_and_keeps_the_best_graph(self):
        full = extremal_ex(8, {3, 4})
        best = 0
        for limit in range(0, 3001, 50):
            budget = SearchBudget(node_limit=limit)
            res = extremal_ex(8, {3, 4}, budget)
            assert res.nodes <= limit
            assert budget.remaining == limit - res.nodes
            assert res.witness.n == 8
            assert len(res.witness.edges) == res.max_edges
            assert graph_girth(res.witness) >= 5
            assert res.max_edges >= best
            best = res.max_edges
            if res.status == EXACT:
                assert (res.witness, res.nodes) == (full.witness, full.nodes)
        assert res.status == EXACT

    def test_shared_budget_is_charged(self):
        budget = SearchBudget(node_limit=100_000)
        res = extremal_ex(6, {3}, budget)
        assert res.status == EXACT
        assert budget.remaining == 100_000 - res.nodes
        # a budget already spent, in nodes or in time, answers at once,
        # with the star on 4 vertices that needs no search
        for spent in (SearchBudget(node_limit=0),
                      SearchBudget(wall_secs=-1.0)):
            res = extremal_ex(8, {3, 4}, spent)
            assert res.status == LOWER_BOUND_ONLY
            assert res.nodes == 0
            assert res.max_edges == 3
            assert res.witness.edges == ((0, 1), (0, 2), (0, 3))

    def test_every_cycle_forbidden_leaves_the_star_at_once(self):
        # the star is also the first densest graph in the search's order
        for n in range(10):
            star = tuple((0, v) for v in range(1, n))
            for m in range(max(n, 3), n + 3):
                res = extremal_ex(n, set(range(3, m + 1)),
                                  SearchBudget(node_limit=0))
                assert (res.status, res.max_edges, res.nodes) == (
                    EXACT, max(n - 1, 0), 0)
                assert res.witness.edges == star and res.witness.n == n

    def test_bad_forbidden_set(self):
        with pytest.raises(InputError):
            extremal_ex(5, {4})
        with pytest.raises(InputError):
            extremal_ex(5, {3, 5})


class TestPublishedNumbers:
    """Pinned with their node counts, so that a change to the search order
    has to say so."""

    def test_w_3_3(self):
        res = vdw_number(3, 3)
        assert (res.status, res.value, res.nodes) == (EXACT, 27, 69_012)

    def test_r_c5_2(self):
        # R(C5, C5) = 9: Radziszowski, Small Ramsey Numbers, EJC DS1; the
        # proof at 9 takes 149,925 search nodes and one failed walk of 125
        res = ramsey_number("cycle", 5, 2)
        assert (res.status, res.value, res.nodes) == (EXACT, 9, 157_423)

    def test_ex_9_girth_7(self):
        res = extremal_ex(9, {3, 4, 5, 6})
        assert (res.status, res.max_edges, res.nodes) == (EXACT, 9, 28_533)

    def test_ex_10_girth_8(self):
        res = extremal_ex(10, {3, 4, 5, 6, 7})
        assert (res.status, res.max_edges, res.nodes) == (EXACT, 10, 274_580)


class TestSharedBudget:
    def test_every_search_charges_one_budget(self):
        budget = SearchBudget(node_limit=1_000_000)
        decided = ramsey_decide("clique", 3, 2, 6, budget)
        swept = vdw_number(3, 2, budget)
        ex = extremal_ex(6, {3}, budget)
        report = f_bound_report(4, 2, search_budget=budget)
        assert (decided.status, swept.value, ex.max_edges,
                report.ramsey_number) == (ARROWS, 9, 9, 6)
        spent = [decided.nodes, swept.nodes, ex.nodes, report.nodes]
        assert min(spent) > 0
        assert budget.remaining == 1_000_000 - sum(spent)

    def test_a_budget_one_search_exhausts_stops_the_next(self):
        budget = SearchBudget(node_limit=200)
        first = ramsey_number("clique", 3, 2, budget)  # needs 370 nodes
        assert first.status == LOWER_BOUND_ONLY
        assert first.nodes == 200 and budget.remaining == 0
        decided = ramsey_decide("clique", 3, 2, 6, budget)
        assert (decided.status, decided.nodes) == (BUDGET_EXCEEDED, 0)
        swept = vdw_number(3, 2, budget)
        assert (swept.status, swept.nodes) == (LOWER_BOUND_ONLY, 0)
        ex = extremal_ex(6, {3}, budget)
        assert (ex.status, ex.nodes) == (LOWER_BOUND_ONLY, 0)
        report = f_bound_report(4, 2, search_budget=budget)
        assert (report.ramsey_number, report.nodes) == (None, 0)
        assert budget.remaining == 0


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

    @pytest.mark.parametrize("r,k", [(0, 2), (-1, 2), (1, 1)])
    def test_no_colours_or_no_cycle_rejected(self, r, k):
        # with r = 0 any positive ex_low would "hold"
        with pytest.raises(InputError, match=f"got r={r} and k={k}"):
            fact7_premise(5, r, k, 1, 1)


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
        assert float(log2(report.upper_log2).mid) == pytest.approx(
            expected, rel=1e-12)
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

    def test_report_rejects_ramsey_value_below_k(self):
        # R(C_k; r) >= k, since the cycle itself needs k vertices
        with pytest.raises(InputError, match="got R=3"):
            f_bound_report(4, 2, ramsey_value=3)
        assert f_bound_report(4, 2, ramsey_value=4).ramsey_number == 4

    def test_report_with_search(self):
        report = f_bound_report(4, 2, search_budget=SearchBudget())
        assert report.ramsey_number == 6
