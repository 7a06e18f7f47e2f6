import json
import math
from fractions import Fraction
from math import comb, factorial

import pytest
from mpmath import mp, workprec

from ramseykit.bounds import (
    chernoff_tail,
    container_condition,
    cycle_system_analytic_degrees,
    expected_short_cycle_counts,
    fkg_girth_bound,
    union_bound_sum,
)
from ramseykit.cli import dispatch
from ramseykit.graphs import InputError, complete_graph
from ramseykit.hypergraphs import degree_stats, system_of_copies
from ramseykit.intervals import exp, log2, real, working
from ramseykit.params import derive_params


class TestDeriveParams:
    def test_cycles_k4_exact_constants(self):
        ps = derive_params("cycles", 4, 2, None, 6)
        assert ps.K == 44236800  # 800 * 4 * (4!)^3
        assert ps.epsilon == Fraction(1, 2592)
        assert ps.s == math.floor(ps.K * math.log2(2592))
        assert ps.size_bound_ok
        assert ps.girth_ramsey_link_ok

    def test_ap_k3_epsilon(self):
        ps = derive_params("ap", 3, 2, 4, 9)
        assert ps.epsilon == Fraction(1, 1458)
        assert ps.K == 800 * 3 * 6**3
        assert ps.t is not None
        assert ps.size_bound_ok

    def test_cliques_epsilon(self):
        ps = derive_params("cliques", 3, 2, 3, 17)
        assert ps.epsilon == Fraction(1, 2 * 2 * comb(17, 3))
        assert ps.K == 800 * 3 * 6**3
        assert ps.size_bound_ok
        assert ps.t is not None

    def test_epsilon_strictly_decreases_in_base(self):
        for theorem, g in (("cycles", None), ("ap", 4), ("cliques", 3)):
            a = derive_params(theorem, 4, 2, g, 8)
            b = derive_params(theorem, 4, 2, g, 16)
            assert b.epsilon < a.epsilon

    def test_scaling_relations(self):
        # p / tau must equal D_p / D_tau whatever the theorem
        for theorem, k, g, base in (("cycles", 4, None, 6),
                                    ("ap", 3, 4, 9),
                                    ("cliques", 3, 3, 17)):
            ps = derive_params(theorem, k, 2, g, base)
            lhs, rhs = working(lambda: (ps.p / ps.tau, ps.D_p / ps.D_tau))()
            assert abs(log2(lhs) - log2(rhs)) < 1e-20

    def test_verdicts_are_decided(self):
        # the golden inputs of each theorem: every check is a proof, never
        # an undecided None; the link check exists for cycles only
        for theorem, k, g, base in (("cycles", 4, None, 6),
                                    ("ap", 3, 5, 9),
                                    ("cliques", 3, 4, 6)):
            ps = derive_params(theorem, k, 2, g, base)
            assert type(ps.size_bound_ok) is bool
            if theorem == "cycles":
                assert type(ps.girth_ramsey_link_ok) is bool
            else:
                assert ps.girth_ramsey_link_ok is None

    def test_input_validation(self):
        with pytest.raises(InputError):
            derive_params("cycles", 3, 2, None, 6)  # cycles need k >= 4
        with pytest.raises(InputError):
            derive_params("ap", 3, 1, 4, 9)
        with pytest.raises(InputError):
            derive_params("ap", 3, 2, 1, 9)
        with pytest.raises(InputError):
            derive_params("cliques", 3, 2, 3, 2)  # base below k
        with pytest.raises(InputError):
            derive_params("turan", 3, 2, 3, 9)

    def test_json_serialises(self, capsys):
        argv = ["params", "--theorem", "ap", "-k", "3", "-r", "2", "-g", "4",
                "-W", "9", "--json"]
        assert dispatch(argv) == 0
        blob = json.loads(capsys.readouterr().out)["result"]["params"]
        assert blob["epsilon"] == {"num": "1", "den": "1458"}
        assert set(blob["n"]) == {"sign", "log2"}


class TestContainerCondition:
    def test_analytic_cycles_satisfied_with_margin(self):
        ps = derive_params("cycles", 4, 2, None, 6)
        degrees = cycle_system_analytic_degrees(ps.n, 4)
        verdict = container_condition(degrees, 4, ps.tau, ps.epsilon)
        assert verdict.satisfied
        assert verdict.margin > 1

    def test_tiny_epsilon_flips(self):
        ps = derive_params("cycles", 4, 2, None, 6)
        degrees = cycle_system_analytic_degrees(ps.n, 4)
        small = real(ps.epsilon / 10**6)
        verdict = container_condition(degrees, 4, ps.tau, small)
        assert not verdict.satisfied

    def test_stable_under_precision_doubling(self):
        ps = derive_params("cycles", 4, 2, None, 6)
        degrees = cycle_system_analytic_degrees(ps.n, 4)
        base = container_condition(degrees, 4, ps.tau, ps.epsilon)
        with workprec(mp.prec * 4):
            ps2 = derive_params("cycles", 4, 2, None, 6)
            degrees2 = cycle_system_analytic_degrees(ps2.n, 4)
            again = container_condition(degrees2, 4, ps2.tau, ps2.epsilon)
        assert base.satisfied == again.satisfied

    def test_empirical_mode_matches_exact_oracle(self):
        # independent oracle: evaluate the degree condition in exact
        # rational arithmetic and compare verdicts
        hg = system_of_copies("ap", 100, 3)
        stats = degree_stats(hg)
        tau, eps = Fraction(49, 100), Fraction(49, 100)
        lhs_exact = Fraction(6 * factorial(3) * 2 ** comb(3, 2)) / stats.avg[1] * (
            stats.avg[2] / (2 ** comb(1, 2) * tau)
            + stats.avg[3] / (2 ** comb(2, 2) * tau**2))
        verdict = container_condition(stats, 3, tau, eps)
        assert verdict.satisfied == (lhs_exact <= eps)
        assert float(log2(verdict.lhs).mid) == pytest.approx(
            math.log2(lhs_exact), rel=1e-12)

    def test_exact_tie_is_never_a_verdict(self):
        # lhs = (6 * 2! * 2 / 4800) * 2 / (1/10) = 1/10 = eps exactly: no
        # precision separates the intervals, so the tie is reported
        with pytest.raises(RuntimeError, match="did not settle"):
            container_condition({1: 4800, 2: 2}, 2, Fraction(1, 10),
                                Fraction(1, 10))

    def test_monotone_in_tau_and_eps(self):
        hg = system_of_copies("ap", 60, 3)
        stats = degree_stats(hg)
        margins = []
        for tau_denom in (3, 4, 8, 16):
            v = container_condition(stats, 3, Fraction(1, tau_denom),
                                    Fraction(49, 100))
            margins.append(v.margin)
        assert all(a >= b for a, b in zip(margins, margins[1:]))

    def test_no_edges_rejected(self):
        with pytest.raises(InputError):
            container_condition({1: 0}, 3, Fraction(1, 4), Fraction(1, 4))


class TestExpectedCycleCounts:
    def test_graph_triangles_exact(self):
        out = expected_short_cycle_counts("graph", 30, Fraction(1, 10), 4)
        assert len(out) == 1
        assert out[0].j == 3
        assert out[0].value == Fraction(comb(30, 3), 1000)
        assert out[0].exact

    def test_graph_matches_kn_cycle_enumeration(self):
        # oracle: weight each enumerated cycle of K_n by p^j, exact rationals
        from ramseykit.graphs import count_graph_cycles

        p = Fraction(1, 7)
        for n in range(4, 9):
            out = expected_short_cycle_counts("graph", n, p, n + 1)
            assert sum(e.value for e in out) == sum(
                count_graph_cycles(complete_graph(n), j) * p**j
                for j in range(3, n + 1))
            for entry in out:
                cycles = count_graph_cycles(complete_graph(n), entry.j)
                assert entry.value == cycles * p**entry.j

    def test_ap_zero_p(self):
        out = expected_short_cycle_counts("ap", 100, 0, 3, 5)
        assert all(e.value == 0 for e in out)
        assert all(not e.exact for e in out)

    def test_clique_k3_two_cycles_vanish(self):
        out = expected_short_cycle_counts("clique", 100, Fraction(1, 2), 3, 3)
        two = [e for e in out if e.j == 2]
        assert two[0].value == 0

    def test_ap_formula_values(self):
        p = Fraction(1, 10)
        out = expected_short_cycle_counts("ap", 50, p, 3, 5)
        by_j = {e.j: e.value for e in out}
        assert by_j[2] == comb(50, 2) * 9 * p**4
        assert by_j[3] == 50**3 * 3**6 * p**6
        assert by_j[4] == 50**4 * 3**8 * p**8


class TestFkgBound:
    def test_tends_to_one_for_tiny_p(self):
        bound = fkg_girth_bound(40, Fraction(1, 10**9), 6)
        assert bound.product <= 1
        assert float(bound.product.mid) == pytest.approx(1.0, abs=1e-6)

    def test_single_factor_k4(self):
        n, p = 20, Fraction(1, 5)
        bound = fkg_girth_bound(n, p, 4)
        expected = math.log2(1 - 0.2**3) * comb(20, 3)
        assert float(log2(bound.product).mid) == pytest.approx(
            expected, rel=1e-12)

    def test_product_dominates_closed_form(self):
        for n, p, k in ((30, Fraction(1, 10), 5), (50, Fraction(1, 50), 6)):
            bound = fkg_girth_bound(n, p, k)
            assert 0 < bound.closed_form <= bound.product <= 1

    def test_degenerate_p(self):
        assert fkg_girth_bound(10, 0, 5).product == 1
        assert fkg_girth_bound(10, 1, 5).product == 0


class TestUnionBound:
    def test_boundary_is_e_to_the_m(self):
        # choose p so that M equals N * 2^(rs) * p exactly
        n_pos = 1000
        r, s = 2, 3
        tau_k = Fraction(1, 50)
        p = Fraction(r * s) * tau_k / 2 ** (r * s)
        result = union_bound_sum(n_pos, r, s, tau_k, p)
        m = Fraction(r * s) * tau_k * n_pos
        expected = working(lambda: (real(m) + 1) * exp(m))()
        assert abs(log2(result) - log2(expected)) < 1e-15

    def test_monotone_in_s(self):
        vals = []
        for s in (3, 4, 5):
            vals.append(union_bound_sum(1000, 2, s, Fraction(1, 1000),
                                        Fraction(1, 100)))
        assert vals[0] < vals[1] < vals[2]

    def test_dominance_violation_rejected(self):
        with pytest.raises(InputError):
            union_bound_sum(100, 2, 2, Fraction(1, 2), Fraction(1, 10**9))

    def test_paper_scale_cycles_chain(self):
        ps = derive_params("cycles", 4, 2, None, 6)
        pairs = working(lambda: ps.n * (ps.n - 1) / 2)()
        tau_k = working(lambda: ps.tau * ps.K)()
        result = union_bound_sum(pairs, ps.r, ps.s, tau_k, ps.p)
        # final step of the fingerprint-sum chain
        ceiling = exp(working(lambda: ps.p / (2 * 6**2) * pairs)())
        assert result <= ceiling

    def test_paper_scale_ap_chain(self):
        ps = derive_params("ap", 3, 2, 4, 9)
        tau_k = working(lambda: ps.tau * ps.K)()
        result = union_bound_sum(ps.n, ps.r, ps.s, tau_k, ps.p)
        ceiling = exp(working(lambda: ps.p * ps.n / (64 * 9))())
        assert result <= ceiling


class TestChernoff:
    def test_deletion_instantiation(self):
        # mu = p*n/(4W) with t = p*n/(8W) gives exp(-p*n/(32W))
        p, n, w = Fraction(1, 100), 10**6, 9
        mu = Fraction(p * n, 4 * w)
        t = Fraction(p * n, 8 * w)
        got = chernoff_tail(mu, t)
        expected = exp(-Fraction(p * n, 32 * w))
        assert abs(log2(got) - log2(expected)) < 1e-15

    def test_degenerate_mu(self):
        assert chernoff_tail(0, 0) == 1

    def test_out_of_regime(self):
        with pytest.raises(InputError):
            chernoff_tail(10, 6)

    def test_paper_scale_cliques(self):
        ps = derive_params("cliques", 3, 2, 3, 17)
        pairs = working(lambda: ps.n * (ps.n - 1) / 2)()
        mu = working(lambda: ps.p * pairs / 17**2)()  # |D| > C(n,2)/R^2
        got = chernoff_tail(mu, ps.t)
        expected = exp(working(lambda: -(ps.p / (8 * 17**2)) * pairs)())
        # both intervals hold the same number, whose log2 is near -2^12250:
        # they overlap, and their log2 agree to 1e-24 relative
        assert not (got < expected or got > expected)
        assert abs(log2(got) - log2(expected)) < 1e-24 * -log2(expected)
