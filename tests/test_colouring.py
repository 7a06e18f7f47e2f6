import random
from itertools import product

import pytest

from ramseykit.colouring import (
    ARROWS,
    BUDGET_EXCEEDED,
    NOT_ARROWS,
    PROPER,
    UNCOLOURABLE,
    Colouring,
    SearchBudget,
    arrows,
    colouring_search,
    verify_colouring,
)
from ramseykit.graphs import InputError, complete_graph, count_graph_cycles, graph_from_edges
from ramseykit.hypergraphs import hypergraph_from_edges, system_of_copies


def naive_colourable(hg, r: int) -> bool:
    """No-pruning exhaustive oracle for small universes."""
    verts = hg.universe
    for assignment in product(range(1, r + 1), repeat=len(verts)):
        col = dict(zip(verts, assignment))
        if all(len({col[v] for v in e}) > 1 for e in hg.edges):
            return True
    return len(hg.edges) == 0 or False


class TestVerify:
    def test_k33_cycle_plus_matching(self):
        k33 = graph_from_edges(6, [(i, 3 + j) for i in range(3) for j in range(3)])
        hg = system_of_copies("cycle", k33, 4)
        assert hg.num_edges == 9
        six_cycle = [(0, 3), (1, 3), (1, 4), (2, 4), (2, 5), (0, 5)]
        matching = [(0, 4), (1, 5), (2, 3)]
        # oracle: each class, viewed as a graph, must be C_4-free
        for cls in (six_cycle, matching):
            assert count_graph_cycles(graph_from_edges(6, cls), 4) == 0
        classes = {1: {k33.edge_id(*e) for e in six_cycle},
                   2: {k33.edge_id(*e) for e in matching}}
        col = Colouring({v: c for c, vs in classes.items() for v in vs}, 2)
        assert verify_colouring(hg, col)

    def test_constant_colouring_fails(self):
        hg = system_of_copies("ap", 6, 3)
        col = Colouring({v: 1 for v in hg.universe}, 2)
        assert not verify_colouring(hg, col)

    def test_empty_hypergraph_always_proper(self):
        hg = hypergraph_from_edges(3, range(5), [])
        col = Colouring({v: 1 for v in range(5)}, 1)
        assert verify_colouring(hg, col)

    def test_partial_colouring_rejected(self):
        hg = system_of_copies("ap", 5, 3)
        with pytest.raises(InputError):
            verify_colouring(hg, Colouring({1: 1}, 2))


class TestSearch:
    def test_single_edge_two_colours(self):
        hg = hypergraph_from_edges(3, range(3), [(0, 1, 2)])
        res = colouring_search(hg, 2)
        assert res.status == PROPER
        assert verify_colouring(hg, res.witness)

    def test_vdw_9_3_uncolourable(self):
        hg = system_of_copies("ap", 9, 3)
        res = colouring_search(hg, 2)
        assert res.status == UNCOLOURABLE
        assert not naive_colourable(hg, 2)

    def test_vdw_8_3_colourable(self):
        hg = system_of_copies("ap", 8, 3)
        res = colouring_search(hg, 2)
        assert res.status == PROPER
        assert verify_colouring(hg, res.witness)

    def test_budget_never_misreports(self):
        hg = system_of_copies("ap", 9, 3)
        budget = SearchBudget(node_limit=3)
        res = colouring_search(hg, 2, budget)
        assert res.status == BUDGET_EXCEEDED
        assert res.nodes <= 3
        assert budget.remaining == 3 - res.nodes  # the search charged it

    def test_agrees_with_naive_oracle(self):
        rng = random.Random(5)
        for _ in range(60):
            nv = rng.randint(3, 9)
            edges = {tuple(sorted(rng.sample(range(nv), 3)))
                     for _ in range(rng.randint(0, 6))}
            hg = hypergraph_from_edges(3, range(nv), edges)
            for r in (1, 2, 3):
                res = colouring_search(hg, r)
                assert (res.status == PROPER) == naive_colourable(hg, r)
                if res.status == PROPER:
                    assert verify_colouring(hg, res.witness)

    def test_deterministic_witness(self):
        hg = system_of_copies("ap", 8, 3)
        a = colouring_search(hg, 2)
        b = colouring_search(hg, 2)
        assert a.witness == b.witness
        assert a.nodes == b.nodes

    def test_empty_universe(self):
        hg = hypergraph_from_edges(3, [], [])
        assert colouring_search(hg, 2).status == PROPER


class TestArrows:
    def test_k6_clique_arrows(self):
        assert arrows(complete_graph(6), "clique", 3, 2).status == ARROWS

    def test_k5_clique_not_arrows(self):
        res = arrows(complete_graph(5), "clique", 3, 2)
        assert res.status == NOT_ARROWS
        hg = system_of_copies("clique", complete_graph(5), 3)
        assert verify_colouring(hg, res.witness)

    def test_one_colour_with_cycle_present(self):
        g = graph_from_edges(5, [(0, 1), (1, 2), (2, 0), (3, 4)])
        assert arrows(g, "cycle", 3, 1).status == ARROWS

    def test_one_colour_clique_threshold(self):
        for n in range(3, 7):
            res = arrows(complete_graph(n), "clique", 4, 1)
            assert (res.status == ARROWS) == (n >= 4)

    def test_ap_base(self):
        assert arrows(9, "ap", 3, 2).status == ARROWS
        res = arrows(8, "ap", 3, 2)
        assert res.status == NOT_ARROWS
