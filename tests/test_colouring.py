import random
from itertools import combinations, product

import pytest
from hypothesis import assume, given, settings, strategies as st

from ramseykit.colouring import (
    ARROWS,
    BUDGET_EXCEEDED,
    NOT_ARROWS,
    PROPER,
    UNCOLOURABLE,
    WALK_AFTER,
    WALK_READS,
    Colouring,
    SearchBudget,
    _walk,
    arrows,
    colouring_search,
    verify_colouring,
)
from ramseykit.graphs import InputError, complete_graph, count_graph_cycles, graph_from_edges
from ramseykit.hypergraphs import UniformHypergraph, hypergraph_from_edges, system_of_copies


def naive_colourable(hg, r: int) -> bool:
    """No-pruning exhaustive oracle for small universes."""
    verts = hg.universe
    for assignment in product(range(1, r + 1), repeat=len(verts)):
        col = dict(zip(verts, assignment))
        if all(len({col[v] for v in e}) > 1 for e in hg.edges):
            return True
    return len(hg.edges) == 0 or False


def _edge_walk_search(hg, r: int, budget=None):
    """Reference search in the order of `colouring_search`, by another
    method: each assignment visits every edge at its vertex and keeps, per
    edge, the vertices still uncoloured and whether its colours are uniform,
    undoing both from a trail.  Returns (status, nodes, witness colours or
    None)."""
    order = list(hg.universe)
    nv = len(order)
    if nv == 0:
        return PROPER, 0, {}
    edges_of = [hg.incidence[v] for v in order]
    budget = budget or SearchBudget()
    uncol = [len(e) for e in hg.edges]
    state = [0] * len(hg.edges)  # 0 none yet, -1 mixed, c>0 uniform colour c
    assigned = [0] * nv
    nodes = 0

    def assign(pos, c):
        trail = []
        elist = edges_of[pos]
        for idx, ei in enumerate(elist):
            uncol[ei] -= 1
            s = state[ei]
            if s == 0:
                state[ei] = c
                trail.append((ei, 0))
            elif s > 0:
                if s != c:
                    state[ei] = -1
                    trail.append((ei, s))
                elif uncol[ei] == 0:
                    return False, idx + 1, trail
        return True, len(elist), trail

    def undo(pos, processed, trail):
        for ei in edges_of[pos][:processed]:
            uncol[ei] += 1
        for ei, old in trail:
            state[ei] = old

    stack = [[1, 0, None]]
    status, colours = UNCOLOURABLE, None
    while stack:
        frame = stack[-1]
        pos = len(stack) - 1
        if frame[2] is not None:
            undo(pos, *frame[2])
            frame[2] = None
        c = frame[0]
        if c > min(frame[1] + 1, r):
            stack.pop()
            continue
        frame[0] = c + 1
        if budget.exhausted(nodes):
            status = BUDGET_EXCEEDED
            break
        nodes += 1
        ok, processed, trail = assign(pos, c)
        if not ok:
            undo(pos, processed, trail)
            continue
        assigned[pos] = c
        if pos + 1 == nv:
            status = PROPER
            colours = dict(zip(order, assigned))
            break
        frame[2] = (processed, trail)
        stack.append([1, max(frame[1], c), None])
    budget.charge(nodes)
    return status, nodes, colours


def _outcome(hg, r, limit=None):
    res = colouring_search(hg, r, SearchBudget(node_limit=limit))
    return res.status, res.nodes, res.witness and res.witness.colours


def _oracle(hg, r, limit=None):
    return _edge_walk_search(hg, r, SearchBudget(node_limit=limit))


def _same_as_edge_walk(hg, r, limit=None) -> bool:
    """Assert that the search agrees with the edge-walking one under the
    same node limit: never more nodes, the same status and witness where
    the edge walk settles, and its unbudgeted answer where only the search
    settles.  Returns whether the search settled alone."""
    status, nodes, witness = _outcome(hg, r, limit)
    walk_status, walk_nodes, walk_witness = _oracle(hg, r, limit)
    assert nodes <= walk_nodes
    alone = walk_status == BUDGET_EXCEEDED != status
    if alone:
        walk_status, _, walk_witness = _oracle(hg, r)
    if walk_status != BUDGET_EXCEEDED:
        assert (status, witness) == (walk_status, walk_witness)
    return alone


@st.composite
def repeated_vertex_hypergraphs(draw) -> UniformHypergraph:
    """At most 8 vertices and 12 edges of h = 1..4 entries drawn with
    repetition, so that an edge may have fewer than h distinct vertices;
    built directly, past the checks of hypergraph_from_edges."""
    h = draw(st.integers(1, 4))
    universe = tuple(sorted(draw(st.sets(st.integers(0, 20), max_size=8))))
    if not universe:
        return UniformHypergraph(h, (), ())
    edge = st.lists(st.sampled_from(universe), min_size=h, max_size=h)
    edges = draw(st.lists(edge.map(sorted).map(tuple), max_size=12))
    return UniformHypergraph(h, universe, tuple(sorted(edges)))


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


class TestAgainstBruteForce:
    @settings(max_examples=300, deadline=None)
    @given(repeated_vertex_hypergraphs(), st.integers(1, 3))
    def test_verdict_equals_naive_colourable(self, hg, r):
        res = colouring_search(hg, r)
        assert res.status in (PROPER, UNCOLOURABLE)
        assert (res.status == PROPER) == naive_colourable(hg, r)
        if res.status == PROPER:
            assert verify_colouring(hg, res.witness)


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


class TestSameAsEdgeWalk:
    """The edge-walking search branches in the same order without forward
    checking, so it is the reference for status, witness and nodes."""

    def test_random_hypergraphs(self):
        rng = random.Random(16)
        settled_alone = 0
        for _ in range(3000):
            h = rng.randint(2, 4)
            universe = sorted(rng.sample(range(40), rng.randint(h, 14)))
            edges = {tuple(rng.sample(universe, h))
                     for _ in range(rng.randint(0, 30))}
            hg = hypergraph_from_edges(h, universe, edges)
            r = rng.randint(1, 4)
            limit = rng.choice([None, rng.randint(0, 40)])
            settled_alone += _same_as_edge_walk(hg, r, limit)
        assert settled_alone > 0

    def test_named_systems(self):
        cases = [(system_of_copies("ap", n, k), r, 20_000)
                 for n in range(1, 28) for k in (3, 4) for r in (2, 3)]
        cases += [(system_of_copies(kind, complete_graph(n), k), r, 2000)
                  for n in range(3, 9) for kind, k in
                  (("clique", 3), ("cycle", 3), ("cycle", 4), ("cycle", 5))
                  for r in (2, 3)]
        for hg, r, limit in cases:
            _same_as_edge_walk(hg, r, limit)

    def test_forward_checking_cuts_the_w_3_3_proof(self):
        hg = system_of_copies("ap", 27, 3)
        status, nodes, _ = _outcome(hg, 3)
        walk_status, walk_nodes, _ = _oracle(hg, 3)
        assert status == walk_status == UNCOLOURABLE
        assert nodes < walk_nodes

    def test_edge_with_a_repeated_vertex(self):
        # built directly, past the checks of hypergraph_from_edges: the edge
        # is monochromatic once its two distinct vertices share a colour
        hg = UniformHypergraph(3, (1, 2, 5), ((1, 1, 2), (2, 5, 5)))
        for r in (1, 2, 3):
            _same_as_edge_walk(hg, r)
        assert _outcome(hg, 2)[0] == PROPER
        single = UniformHypergraph(2, (1, 2), ((2, 2),))
        assert _outcome(single, 3) == _oracle(single, 3) == (UNCOLOURABLE, 3,
                                                             None)


class TestBudgetSemantics:
    @pytest.mark.parametrize("hg, full", [
        (system_of_copies("ap", 9, 3), 39),
        (system_of_copies("clique", complete_graph(6), 3), 319),
    ])
    def test_every_node_limit(self, hg, full):
        assert colouring_search(hg, 2).nodes == full
        for limit in range(full + 1):
            budget = SearchBudget(node_limit=limit)
            res = colouring_search(hg, 2, budget)
            assert res.nodes == min(limit, full)
            assert (res.status == BUDGET_EXCEEDED) == (limit < full)
            assert budget.remaining == limit - res.nodes

    def test_out_of_time_stops_before_the_first_node(self):
        res = colouring_search(system_of_copies("ap", 9, 3), 2,
                               SearchBudget(wall_secs=-1))
        assert (res.status, res.nodes) == (BUDGET_EXCEEDED, 0)


class TestWalk:
    """The seeded walk a search runs once it has spent WALK_AFTER nodes."""

    def test_k16_three_colouring(self):
        # R(3,3,3) = 17, so the triangles of K16 have a proper 3-colouring;
        # the search alone spends 300,000 nodes without finding one
        res = colouring_search(system_of_copies("clique", complete_graph(16), 3),
                               3, SearchBudget(node_limit=300_000))
        assert res.status == PROPER
        assert res.nodes == WALK_AFTER + 2053
        colours = res.witness.colours
        index = {e: i for i, e in enumerate(combinations(range(16), 2))}
        triangles = list(combinations(range(16), 3))
        assert len(triangles) == 560
        for a, b, c in triangles:
            assert len({colours[index[a, b]], colours[index[a, c]],
                        colours[index[b, c]]}) > 1
        first = list(dict.fromkeys(colours[v] for v in range(120)))
        assert first == [1, 2, 3]

    def test_node_limit_inside_the_walk(self):
        hg = system_of_copies("clique", complete_graph(16), 3)
        budget = SearchBudget(node_limit=WALK_AFTER + 100)
        res = colouring_search(hg, 3, budget)
        assert (res.status, res.nodes, budget.remaining) == (BUDGET_EXCEEDED,
                                                             WALK_AFTER + 100, 0)

    def test_walk_reads_the_clock_by_its_reads(self):
        # 1 + flips is a multiple of CHECK_EVERY only at flip 1023, but the
        # walk reads the clock before its first read
        hg = system_of_copies("clique", complete_graph(16), 3)
        budget = SearchBudget(wall_secs=-1)
        assert _walk(hg, 3, budget, 1) == (None, 0)
        assert _walk(hg, 3, SearchBudget(wall_secs=60), 1)[1] == 2053

    def test_failed_walk_reads_at_most_walk_reads(self):
        # a flip on K9's 5-cycles reads 5 lists of 210 edges; no 2-colouring
        # exists (R(C5, C5) = 9), so the walk stops at its read cap
        hg = system_of_copies("cycle", complete_graph(9), 5)
        assert all(len(hg.incidence[v]) == 210 for v in hg.universe)
        assert _walk(hg, 2, SearchBudget(), 0) == (None, -(-WALK_READS // 1050))

    def test_no_walk_past_an_edge_with_one_vertex(self):
        # that edge is monochromatic under every colouring, so no walk ends
        hg = UniformHypergraph(2, tuple(range(20)), ((19, 19),))
        res = colouring_search(hg, 2, SearchBudget(node_limit=WALK_AFTER + 10))
        assert (res.status, res.nodes) == (BUDGET_EXCEEDED, WALK_AFTER + 10)

    @settings(max_examples=300, deadline=None)
    @given(repeated_vertex_hypergraphs(), st.integers(2, 4))
    def test_witness_has_no_monochromatic_edge(self, hg, r):
        assume(all(len(set(e)) > 1 for e in hg.edges))
        witness, flips = _walk(hg, r, SearchBudget(node_limit=2000), 0)
        # a flip reads at most 4 incidence lists of at most 12 edges, so
        # 2000 flips stay under WALK_READS and a walk ends without a
        # witness only when its budget runs out
        assert flips <= 2000 and (witness is not None or flips == 2000)
        if witness is not None:
            colours = witness.colours
            assert sorted(colours) == list(hg.universe)
            assert all(1 <= c <= r for c in colours.values())
            assert all(len({colours[v] for v in e}) > 1 for e in hg.edges)
