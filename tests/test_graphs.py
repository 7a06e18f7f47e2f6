import math
import random
from dataclasses import fields
from itertools import combinations, permutations

import pytest
from hypothesis import given, settings, strategies as st

from ramseykit.graphs import (
    Graph,
    InputError,
    complete_graph,
    count_graph_cycles,
    enumerate_graph_cycles,
    girth_at_least,
    graph_from_edges,
    graph_girth,
)
from ramseykit.sampling import sample_gnp


def _recursive_graph_cycles(g: Graph, length: int):
    """Reference enumeration in the order of `enumerate_graph_cycles`, by
    another method: one recursive generator per path, walking sorted
    adjacency lists, that tests the closing vertex one neighbour at a
    time."""
    if length < 3 or length > g.n:
        return
    bits = g.adjacency_bits()
    adj = [[y for y in range(g.n) if b >> y & 1] for b in bits]
    path = [0] * length

    def extend(depth: int, used: int, start: int):
        last = path[depth - 1]
        if depth == length - 1:
            for y in adj[last]:
                if y > path[1] and bits[y] >> start & 1 and not used >> y & 1:
                    path[depth] = y
                    yield tuple(path)
            return
        for y in adj[last]:
            if y > start and not used >> y & 1:
                path[depth] = y
                yield from extend(depth + 1, used | 1 << y, start)

    for start in range(g.n):
        path[0] = start
        yield from extend(1, 1 << start, start)


def petersen() -> Graph:
    outer = [(i, (i + 1) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return graph_from_edges(10, outer + spokes + inner)


class TestGraphFromEdges:
    def test_triangle(self):
        g = graph_from_edges(3, [(0, 1), (1, 2), (0, 2)])
        assert g.num_edges == 3
        assert graph_girth(g) == 3

    def test_empty(self):
        g = graph_from_edges(4, [])
        assert g.num_edges == 0

    def test_k5_all_pairs(self):
        g = graph_from_edges(5, list(combinations(range(5), 2)))
        assert g.num_edges == 10

    def test_duplicates_collapse(self):
        g = graph_from_edges(3, [(0, 1), (1, 0), (0, 1)])
        assert g.num_edges == 1

    def test_self_loop_rejected(self):
        with pytest.raises(InputError):
            graph_from_edges(3, [(1, 1)])

    def test_out_of_range_rejected(self):
        with pytest.raises(InputError):
            graph_from_edges(3, [(0, 3)])

    def test_edge_ids_lexicographic(self):
        g = graph_from_edges(4, [(2, 3), (0, 1), (0, 2)])
        assert g.edges == ((0, 1), (0, 2), (2, 3))
        assert g.edge_id(3, 2) == 2


class TestEdgeIndex:
    def test_fields_are_vertex_count_and_edges(self):
        assert [f.name for f in fields(Graph)] == ["n", "edges"]

    def test_not_part_of_equality(self):
        g = petersen()
        twin = petersen()
        assert g.edge_id(0, 1) == 0
        assert g == twin and hash(g) == hash(twin)

    def test_non_edge_raises_key_error(self):
        g = petersen()
        with pytest.raises(KeyError):
            g.edge_id(0, 2)
        with pytest.raises(KeyError):
            g.edge_id(3, 3)


class TestGirth:
    def test_k4(self):
        assert graph_girth(complete_graph(4)) == 3

    def test_petersen_is_5(self):
        g = petersen()
        # independent oracle: no vertex subset of size 3 or 4 carries a
        # cycle, and at least one 5-subset does
        for size in (3, 4):
            for sub in combinations(range(10), size):
                edges = [(u, v) for u, v in g.edges if u in sub and v in sub]
                assert len(edges) < size  # a cycle needs >= size edges
        assert graph_girth(g) == 5
        assert count_graph_cycles(g, 5) > 0

    def test_path_is_forest(self):
        g = graph_from_edges(6, [(i, i + 1) for i in range(5)])
        assert graph_girth(g) == math.inf

    def test_even_cycle(self):
        g = graph_from_edges(6, [(i, (i + 1) % 6) for i in range(6)])
        assert graph_girth(g) == 6

    def test_girth_at_least_matches_exact(self):
        rng = random.Random(7)
        for _ in range(300):
            n = rng.randint(3, 12)
            pairs = [p for p in combinations(range(n), 2) if rng.random() < 0.3]
            g = graph_from_edges(n, pairs)
            exact = graph_girth(g)
            for k in range(4, 9):
                assert girth_at_least(g, k) == (exact >= k)


def pg2_incidence(q: int) -> Graph:
    """Point-line incidence graph of PG(2,q), q prime: points first, then
    lines, each a normalised nonzero vector of F_q^3; girth 6."""
    vecs = [(1, a, b) for a in range(q) for b in range(q)]
    vecs += [(0, 1, b) for b in range(q)] + [(0, 0, 1)]
    m = len(vecs)
    return graph_from_edges(2 * m, [
        (i, m + j) for i, p in enumerate(vecs) for j, l in enumerate(vecs)
        if sum(a * b for a, b in zip(p, l)) % q == 0])


def nx_girth(g: Graph) -> int | float:
    nx = pytest.importorskip("networkx")
    oracle = nx.Graph()
    oracle.add_nodes_from(range(g.n))
    oracle.add_edges_from(g.edges)
    return nx.girth(oracle)


class TestGirthAgainstNetworkx:
    def assert_agrees(self, g: Graph):
        want = nx_girth(g)
        assert graph_girth(g) == want
        for k in range(9):
            assert girth_at_least(g, k) == (want >= k)

    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, 24), st.floats(0, 0.5), st.integers(0, 2**32))
    def test_gnp(self, n, p, seed):
        self.assert_agrees(sample_gnp(n, p, seed))

    @pytest.mark.parametrize("g, girth", [
        (petersen(), 5), (pg2_incidence(2), 6), (pg2_incidence(3), 6)])
    def test_named_graphs(self, g, girth):
        assert nx_girth(g) == girth
        self.assert_agrees(g)


class TestCycleEnumeration:
    def brute_cycles(self, g: Graph, j: int) -> set[tuple[int, ...]]:
        # reference: all vertex subsets, all cyclic orders, up to symmetry
        found = set()
        for sub in combinations(range(g.n), j):
            fixed = sub[0]
            rest = sub[1:]
            for perm in permutations(rest):
                if perm[0] > perm[-1]:
                    continue  # reflection
                cyc = (fixed,) + perm
                if all(tuple(sorted((cyc[i], cyc[(i + 1) % j]))) in g.edges
                       for i in range(j)):
                    found.add(cyc)
        return found

    def brute_cycle_count(self, g: Graph, j: int) -> int:
        return len(self.brute_cycles(g, j))

    @pytest.mark.parametrize("n", [4, 5, 6])
    def test_against_bruteforce(self, n):
        rng = random.Random(n)
        pairs = [p for p in combinations(range(n), 2) if rng.random() < 0.7]
        g = graph_from_edges(n, pairs)
        for j in range(3, n + 1):
            assert count_graph_cycles(g, j) == self.brute_cycle_count(g, j)

    def test_complete_graph_formula(self):
        # K_n holds (j-1)!/2 * C(n, j) cycles of length j
        for n in range(3, 8):
            for j in range(3, n + 1):
                expected = math.factorial(j - 1) // 2 * math.comb(n, j)
                assert count_graph_cycles(complete_graph(n), j) == expected

    def test_tuples_are_canonical(self):
        for cyc in enumerate_graph_cycles(complete_graph(5), 4):
            assert cyc[0] == min(cyc)
            assert cyc[1] < cyc[-1]

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_same_cycles_as_bruteforce(self, data):
        n = data.draw(st.integers(3, 7))
        pairs = data.draw(st.sets(st.sampled_from(
            list(combinations(range(n), 2)))))
        g = graph_from_edges(n, pairs)
        for j in range(3, n + 1):
            listed = list(enumerate_graph_cycles(g, j))
            assert len(listed) == len(set(listed))  # no repeats
            for cyc in listed:
                assert cyc[0] == min(cyc) and cyc[1] < cyc[-1]
            assert set(listed) == self.brute_cycles(g, j)

    @pytest.mark.parametrize("n, p", [(100, 0.07), (40, 0.2)])
    def test_same_list_as_recursive_search(self, n, p):
        # larger than the brute force reaches; the order is pinned too
        for seed in range(4):
            g = sample_gnp(n, p, seed)
            for j in range(3, 7):
                assert list(enumerate_graph_cycles(g, j)) == \
                    list(_recursive_graph_cycles(g, j))

    def test_same_list_on_small_and_dense_graphs(self):
        rng = random.Random(19)
        for _ in range(150):
            n = rng.randint(0, 8)
            g = sample_gnp(n, rng.choice([0.3, 0.6, 1.0]), rng.randrange(99))
            for j in range(0, n + 2):
                assert list(enumerate_graph_cycles(g, j)) == \
                    list(_recursive_graph_cycles(g, j))
