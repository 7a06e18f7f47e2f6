import random
from fractions import Fraction
from itertools import combinations, permutations
from math import comb

import pytest
from hypothesis import assume, given, settings, strategies as st

from ramseykit.graphs import InputError, complete_graph, graph_from_edges
from ramseykit.hypergraphs import (
    CycleReport,
    GirthVerdict,
    UniformHypergraph,
    ap_count_formula,
    arithmetic_progressions,
    degree_stats,
    enumerate_short_cycles,
    hypergraph_from_edges,
    sparsity_girth,
    system_of_copies,
)
from test_colouring import repeated_vertex_hypergraphs


def brute_force_ap_count(n: int, k: int) -> int:
    count = 0
    for a in range(1, n + 1):
        d = 1
        while a + (k - 1) * d <= n:
            count += 1
            d += 1
    return count


class TestSystems:
    def test_cycle_system_k4(self):
        hg = system_of_copies("cycle", complete_graph(4), 3)
        assert hg.h == 3
        assert hg.num_vertices == 6
        assert hg.num_edges == 4  # the four triangles

    def test_ap_system_5_3(self):
        hg = system_of_copies("ap", 5, 3)
        assert set(hg.edges) == {(1, 2, 3), (2, 3, 4), (3, 4, 5), (1, 3, 5)}
        assert hg.universe == (1, 2, 3, 4, 5)

    def test_clique_system_k5(self):
        hg = system_of_copies("clique", complete_graph(5), 3)
        assert hg.h == 3
        assert hg.num_vertices == 10
        assert hg.num_edges == 10  # C(5,3) triangles

    def test_too_large_pattern_gives_empty_system(self):
        hg = system_of_copies("clique", complete_graph(3), 4)
        assert hg.num_edges == 0
        assert hg.num_vertices == 3

    def test_edges_reference_edge_ids(self):
        g = graph_from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 3), (0, 2)])
        hg = system_of_copies("cycle", g, 3)
        # triangles 0-1-2 and 0-2-3 via the chord (0,2)
        assert hg.num_edges == 2
        for e in hg.edges:
            assert all(0 <= v < g.num_edges for v in e)


class TestApCount:
    def test_examples(self):
        assert ap_count_formula(5, 3) == 4
        assert ap_count_formula(9, 3) == 16
        for k in (3, 4, 7):
            assert ap_count_formula(k, k) == 1

    def test_below_k_is_zero(self):
        assert ap_count_formula(2, 3) == 0

    @pytest.mark.parametrize("k", [3, 4, 5])
    def test_matches_enumeration(self, k):
        for n in range(1, 120):
            assert ap_count_formula(n, k) == brute_force_ap_count(n, k)
            assert ap_count_formula(n, k) == len(arithmetic_progressions(n, k))

    def test_matches_the_sum_over_starts(self):
        # start i has floor((n-i)/(k-1)) differences
        cases = [(n, k) for n in range(-2, 301) for k in range(3, 9)]
        for n, k in [*cases, (10**5, 3), (10**5, 4), (10**6, 3), (10**6, 7)]:
            starts = sum((n - i) // (k - 1) for i in range(1, n - k + 2))
            assert ap_count_formula(n, k) == starts, (n, k)

    def test_matches_system_size(self):
        for n, k in [(30, 3), (25, 4), (40, 5)]:
            assert ap_count_formula(n, k) == system_of_copies("ap", n, k).num_edges


class TestDegreeStats:
    def test_clique_system_k6(self):
        stats = degree_stats(system_of_copies("clique", complete_graph(6), 3))
        assert stats.avg[1] == 4  # each edge of K_6 sits in C(4,1) triangles
        assert stats.max[1] == 4

    def test_clique_system_identity(self):
        for n in range(4, 9):
            for k in (3, 4):
                stats = degree_stats(system_of_copies("clique", complete_graph(n), k))
                assert stats.avg[1] == comb(n - 2, k - 2)
                assert stats.max[1] == comb(n - 2, k - 2)

    def test_ap_system_9_3(self):
        stats = degree_stats(system_of_copies("ap", 9, 3))
        assert stats.avg[1] == Fraction(3 * 16, 9)
        assert stats.avg[1] >= Fraction(9, 2)

    def test_single_edge(self):
        hg = hypergraph_from_edges(3, range(1, 6), [(1, 2, 3)])
        stats = degree_stats(hg)
        assert stats.max[3] == 1
        assert stats.max[1] == 1
        assert stats.avg[1] == Fraction(3, 5)

    def test_avg_d1_accounts_every_vertex(self):
        hg = system_of_copies("ap", 11, 4)
        stats = degree_stats(hg)
        assert stats.avg[1] * hg.num_vertices == hg.h * hg.num_edges

    def test_ap_pair_degree_cap(self):
        for n, k in [(60, 3), (50, 4), (50, 5)]:
            stats = degree_stats(system_of_copies("ap", n, k))
            assert stats.max[2] <= comb(k, 2)

    def test_empty_universe_rejected(self):
        hg = UniformHypergraph(3, (), ())
        with pytest.raises(InputError):
            degree_stats(hg)


def subset_span_oracle(hg: UniformHypergraph, g: int) -> GirthVerdict:
    """Independent check: scan every subset of 2..g-1 edges for low span."""
    for size in range(2, g):
        for idxs in combinations(range(hg.num_edges), size):
            span = set()
            for i in idxs:
                span.update(hg.edges[i])
            if len(span) <= (hg.h - 1) * size:
                return GirthVerdict(g, False, idxs, len(span))
    return GirthVerdict(g, True)


@st.composite
def small_hypergraphs(draw, max_vertices=10) -> UniformHypergraph:
    """Uniformity 2-4, at most `max_vertices` vertices and 9 edges, in three
    shapes: free, duplicate-heavy (repeated edges kept, drawn from a small
    pool) and disconnected (two blocks on disjoint vertex ranges)."""
    h = draw(st.integers(2, 4))
    nv = draw(st.integers(h, max_vertices))
    shape = draw(st.sampled_from(["free", "duplicates", "disconnected"]))

    def edges_on(vertices, count):
        return draw(st.lists(st.lists(st.sampled_from(vertices), min_size=h,
                                      max_size=h, unique=True),
                             max_size=count))

    if shape == "duplicates":
        pool = [tuple(sorted(e)) for e in edges_on(range(nv), 3)]
        if not pool:
            return UniformHypergraph(h, tuple(range(nv)), ())
        edges = draw(st.lists(st.sampled_from(pool), max_size=9))
        return UniformHypergraph(h, tuple(range(nv)), tuple(sorted(edges)))
    if shape == "disconnected" and nv >= 2 * h:
        cut = draw(st.integers(h, nv - h))
        edges = edges_on(range(cut), 4) + edges_on(range(cut, nv), 5)
    else:
        edges = edges_on(range(nv), 9)
    return hypergraph_from_edges(h, range(nv), edges)


class TestSparsityGirth:
    def test_two_overlapping_edges(self):
        hg = hypergraph_from_edges(3, [1, 2, 3, 5], [(1, 2, 3), (1, 3, 5)])
        verdict = sparsity_girth(hg, 3)
        assert not verdict.satisfied
        assert verdict.witness_edges == (0, 1)
        assert verdict.witness_span == 4

    def test_loose_triangle(self):
        hg = hypergraph_from_edges(
            3, [1, 2, 3, 4, 5, 6], [(1, 2, 3), (3, 4, 5), (5, 6, 1)])
        assert sparsity_girth(hg, 3).satisfied
        verdict = sparsity_girth(hg, 4)
        assert not verdict.satisfied
        assert len(verdict.witness_edges) == 3
        assert verdict.witness_span == 6

    def test_single_edge_always_satisfied(self):
        hg = hypergraph_from_edges(3, range(10), [(0, 1, 2)])
        for g in (2, 3, 5, 9):
            assert sparsity_girth(hg, g).satisfied

    def test_bad_threshold(self):
        hg = hypergraph_from_edges(3, range(3), [(0, 1, 2)])
        with pytest.raises(InputError):
            sparsity_girth(hg, 1)

    def test_witness_is_minimal_and_lex_least(self):
        # two disjoint 2-cycles; witness must pick the lex-least pair
        hg = hypergraph_from_edges(
            3, range(10),
            [(0, 1, 2), (0, 1, 3), (5, 6, 7), (5, 6, 8)])
        verdict = sparsity_girth(hg, 4)
        assert verdict.witness_edges == (0, 1)

    @settings(max_examples=300, deadline=None)
    @given(small_hypergraphs(), st.integers(2, 6))
    def test_equals_subset_oracle(self, hg, g):
        # verdict, witness tuple and span, exactly
        assert sparsity_girth(hg, g) == subset_span_oracle(hg, g)

    def test_lex_least_under_the_root(self):
        # root 0 holds two loose 4-cycles; the connected-set search meets
        # (0, 1, 3, 5) before the lex-smaller (0, 1, 2, 4)
        hg = hypergraph_from_edges(4, range(106), [
            (0, 10, 11, 100), (1, 10, 12, 13), (2, 13, 14, 102),
            (3, 11, 15, 103), (4, 11, 14, 104), (5, 12, 15, 105)])
        for idxs in [(0, 1, 2, 4), (0, 1, 3, 5)]:
            span = set().union(*(hg.edges[i] for i in idxs))
            assert len(span) == 12  # both violate at size 4
        verdict = sparsity_girth(hg, 5)
        assert verdict == subset_span_oracle(hg, 5)
        assert verdict.witness_edges == (0, 1, 2, 4)
        assert sparsity_girth(hg, 4).satisfied

    def test_dense_ap_system_witness(self):
        hg = system_of_copies("ap", 400, 3)
        verdict = sparsity_girth(hg, 4)
        assert verdict.witness_edges == (0, 1)
        assert verdict.witness_span == 4

    def test_repeated_vertex_counts_once_in_span(self):
        # the first edge lists vertex 1 twice; the two edges span all six
        hg = UniformHypergraph(4, (1, 2, 3, 4, 5, 6),
                               ((1, 1, 2, 3), (3, 4, 5, 6)))
        assert sparsity_girth(hg, 3) == GirthVerdict(3, False, (0, 1), 6)

    @settings(max_examples=300, deadline=None)
    @given(repeated_vertex_hypergraphs(), st.integers(2, 5))
    def test_repeated_vertices_span_and_census(self, hg, g):
        assume(hg.h >= 2)
        verdict = sparsity_girth(hg, g)
        if not verdict.satisfied:
            span = set().union(*(hg.edges[i] for i in verdict.witness_edges))
            assert verdict.witness_span == len(span)
        for j, idxs in enumerate_short_cycles(hg, max(g, 3)).cycles:
            if j == 2:
                a, b = (set(hg.edges[i]) for i in idxs)
                assert len(a & b) >= 2

    def test_witness_validates(self):
        rng = random.Random(11)
        for _ in range(100):
            hg = random_hypergraph(rng)
            for g in (3, 4, 5):
                verdict = sparsity_girth(hg, g)
                if not verdict.satisfied:
                    span = set()
                    for i in verdict.witness_edges:
                        span.update(hg.edges[i])
                    assert len(span) <= (hg.h - 1) * len(verdict.witness_edges)


def random_hypergraph(rng: random.Random, max_vertices=12, max_edges=8,
                      h=3) -> UniformHypergraph:
    nv = rng.randint(h, max_vertices)
    universe = range(nv)
    m = rng.randint(0, max_edges)
    edges = set()
    for _ in range(m):
        edges.add(tuple(sorted(rng.sample(range(nv), h))))
    return hypergraph_from_edges(h, universe, edges)


class TestIncidence:
    def test_matches_edge_scan_and_is_cached(self):
        rng = random.Random(37)
        for _ in range(100):
            hg = random_hypergraph(rng)
            index = hg.incidence
            assert set(index) == set(hg.universe)
            for v in hg.universe:
                assert index[v] == tuple(
                    ei for ei, e in enumerate(hg.edges) if v in e)
            assert hg.incidence is index
            masks = hg.masks
            assert masks == tuple(
                sum(1 << hg.universe.index(v) for v in set(e))
                for e in hg.edges)
            assert hg.masks is masks

    def test_not_part_of_equality(self):
        hg = system_of_copies("ap", 9, 3)
        twin = system_of_copies("ap", 9, 3)
        hg.incidence
        hg.masks
        assert hg == twin and hash(hg) == hash(twin)


class TestShortCycles:
    def test_one_two_cycle(self):
        hg = hypergraph_from_edges(3, [1, 2, 3, 5], [(1, 2, 3), (1, 3, 5)])
        report = enumerate_short_cycles(hg, 3)
        assert report.counts[2] == 1
        assert report.cycles == ((2, (0, 1)),)

    def test_loose_triangle_is_three_cycle(self):
        hg = hypergraph_from_edges(
            3, [1, 2, 3, 4, 5, 6], [(1, 2, 3), (3, 4, 5), (5, 6, 1)])
        report = enumerate_short_cycles(hg, 4)
        assert report.counts[2] == 0
        assert report.counts[3] == 1

    def test_k4_triangle_system_two_cycles(self):
        hg = system_of_copies("cycle", complete_graph(4), 3)
        # oracle: count pairs of hyperedges sharing >= 2 universe vertices
        expected = sum(
            1 for a, b in combinations(hg.edges, 2)
            if len(set(a) & set(b)) >= 2)
        report = enumerate_short_cycles(hg, 3)
        assert report.counts[2] == expected

    def test_shared_point_star_is_not_a_cycle(self):
        hg = hypergraph_from_edges(
            3, range(1, 8), [(1, 2, 3), (1, 4, 5), (1, 6, 7)])
        report = enumerate_short_cycles(hg, 5)
        assert report.total == 0

    def test_cycle_implies_sparsity_violation(self):
        rng = random.Random(23)
        for _ in range(300):
            hg = random_hypergraph(rng)
            for g in (3, 4, 5):
                report = enumerate_short_cycles(hg, g)
                if report.total:
                    assert not sparsity_girth(hg, g).satisfied

    def test_sparsity_matches_cycles_empirically(self):
        # the two notions agree by the argument in the hypergraphs module
        # docstring; check it on the random family, with a brute-force span
        # oracle for the sparsity side
        rng = random.Random(29)
        disagreements = []
        for _ in range(300):
            hg = random_hypergraph(rng)
            for g in (3, 4, 5):
                ok = subset_span_oracle(hg, g).satisfied
                verdict = sparsity_girth(hg, g)
                assert verdict.satisfied == ok
                empty = enumerate_short_cycles(hg, g).total == 0
                if verdict.satisfied != empty:
                    disagreements.append((hg, g))
        assert not disagreements, f"girth notions diverged: {disagreements[:3]}"

    def test_two_cycles_match_pairwise_scan(self):
        rng = random.Random(41)
        for _ in range(200):
            hg = random_hypergraph(rng)
            expected = tuple(
                (2, (a, b)) for a, b in combinations(range(hg.num_edges), 2)
                if len(set(hg.edges[a]) & set(hg.edges[b])) >= 2)
            report = enumerate_short_cycles(hg, 3)
            assert report.cycles == expected

    def test_point_distinctness_redundant_for_long_cycles(self):
        # for cycles of length >= 4 the distinct-intersection-point demand
        # follows from the other two; re-verify by dropping the filter
        rng = random.Random(31)
        for _ in range(200):
            hg = random_hypergraph(rng, max_vertices=10, max_edges=7)
            report = enumerate_short_cycles(hg, 6)
            long_cycles = [c for c in report.cycles if c[0] >= 4]
            relaxed = relaxed_long_cycles(hg, 6)
            assert sorted(long_cycles) == sorted(relaxed)


def is_definition_cycle(sets: list[set[int]], seq: tuple[int, ...]) -> bool:
    """Consecutive edges (cyclically) meet in exactly one vertex, the others
    are disjoint, and the meeting points are distinct."""
    j = len(seq)
    points = set()
    for a, b in combinations(range(j), 2):
        meet = sets[seq[a]] & sets[seq[b]]
        if b - a in (1, j - 1):
            if len(meet) != 1:
                return False
            points |= meet
        elif meet:
            return False
    return len(points) == j


def definition_cycles(hg: UniformHypergraph, g: int):
    """Every cycle of length < g straight from the module docstring's
    definition, canonicalised: least edge first, second entry < last."""
    sets = [set(e) for e in hg.edges]
    found = [(2, pair) for pair in combinations(range(hg.num_edges), 2)
             if g > 2 and len(sets[pair[0]] & sets[pair[1]]) >= 2]
    for j in range(3, g):
        for seq in permutations(range(hg.num_edges), j):
            if seq[0] == min(seq) and seq[1] < seq[-1] \
                    and is_definition_cycle(sets, seq):
                found.append((j, seq))
    return sorted(found)


class TestCensusDefinition:
    @settings(max_examples=200, deadline=None)
    @given(small_hypergraphs(max_vertices=7), st.integers(2, 6))
    def test_census_equals_definition(self, hg, g):
        # the brute force tries every edge sequence, so keep 7 edges
        hg = UniformHypergraph(hg.h, hg.universe, hg.edges[:7])
        report = enumerate_short_cycles(hg, g)
        expected = definition_cycles(hg, g)
        assert list(report.cycles) == expected
        assert report.counts == {
            j: sum(1 for length, _ in expected if length == j)
            for j in range(2, max(g, 2))}

    def test_dense_family_equals_definition(self):
        # 7 edges on at most 7 vertices: long cycles, chords and shared
        # points are common here
        rng = random.Random(43)
        for _ in range(400):
            hg = random_hypergraph(rng, max_vertices=7, max_edges=7,
                                   h=rng.choice([2, 3]))
            assert list(enumerate_short_cycles(hg, 6).cycles) == \
                definition_cycles(hg, 6)


def relaxed_long_cycles(hg, g):
    """j-cycles for 4 <= j < g without the distinct-points condition."""
    edge_sets = [frozenset(e) for e in hg.edges]
    m = len(edge_sets)
    neighbours = [[] for _ in range(m)]
    for a, b in combinations(range(m), 2):
        if len(edge_sets[a] & edge_sets[b]) == 1:
            neighbours[a].append(b)
            neighbours[b].append(a)
    found = []

    def extend(path):
        start = path[0]
        last = path[-1]
        for nxt in neighbours[last]:
            if nxt <= start or nxt in path:
                continue
            if any(edge_sets[nxt] & edge_sets[q] for q in path[1:-1]):
                continue
            if len(path) == 1:
                path.append(nxt)
                extend(path)
                path.pop()
            elif edge_sets[nxt] & edge_sets[start]:
                if len(path) >= 3 and nxt in set(neighbours[start]) \
                        and path[1] < nxt:
                    found.append((len(path) + 1, tuple(path) + (nxt,)))
            elif len(path) + 1 < g - 1:
                path.append(nxt)
                extend(path)
                path.pop()

    for s in range(m):
        extend([s])
    return found


def _census_extend(hg: UniformHypergraph, g: int) -> CycleReport:
    """Reference census by another method: paths grow through sorted
    neighbour lists, and each neighbour of the last edge that meets the
    start is tested as a closer against a set of the start's neighbours."""
    bit = {v: 1 << i for i, v in enumerate(hg.universe)}
    masks = [sum(bit[v] for v in e) for e in hg.edges]
    m = len(masks)
    cycles = []
    neighbours = [[] for _ in range(m)]
    for a, b in combinations(range(m), 2):
        shared = (masks[a] & masks[b]).bit_count()
        if shared == 1:
            neighbours[a].append(b)
            neighbours[b].append(a)
        elif shared and g > 2:
            cycles.append((2, (a, b)))
    max_len = g - 1

    def extend(path, inner):
        start, last = path[0], path[-1]
        start_mask = masks[start]
        for nxt in neighbours[last]:
            nxt_mask = masks[nxt]
            if nxt <= start or nxt_mask & inner:
                continue
            if len(path) == 1:
                path.append(nxt)
                extend(path, 0)
                path.pop()
            elif nxt_mask & start_mask:
                if nxt in closers and path[1] < nxt and (
                        len(path) > 2
                        or not start_mask & masks[last] & nxt_mask):
                    cycles.append((len(path) + 1, tuple(path) + (nxt,)))
            elif len(path) + 1 < max_len:
                path.append(nxt)
                extend(path, inner | masks[last])
                path.pop()

    if max_len >= 3:
        for start in range(m):
            closers = set(neighbours[start])
            extend([start], 0)
    counts = {j: 0 for j in range(2, max(g, 2))}
    for j, _ in cycles:
        counts[j] += 1
    return CycleReport(g, tuple(sorted(cycles)), counts)


class TestCensusReference:
    def test_reference_equals_definition(self):
        rng = random.Random(47)
        for _ in range(200):
            hg = random_hypergraph(rng, max_vertices=7, max_edges=7,
                                   h=rng.choice([2, 3]))
            for g in range(2, 7):
                assert list(_census_extend(hg, g).cycles) == \
                    definition_cycles(hg, g)

    def test_census_equals_reference_on_random_families(self):
        rng = random.Random(53)
        for _ in range(200):
            hg = random_hypergraph(rng, max_vertices=rng.randint(4, 30),
                                   max_edges=40, h=rng.choice([2, 3, 4]))
            for g in range(2, 7):
                assert enumerate_short_cycles(hg, g) == _census_extend(hg, g)
