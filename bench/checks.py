"""Independent checks of ramseykit's outputs, used by the benchmark.

The checks recompute what they compare against from first principles:
samplers are replayed from the documented MT19937 stream (one
`random.Random(seed).random()` draw per element or per vertex pair, in
order), systems of copies and the sparsity girth are rebuilt from their
definitions, graph questions go to networkx, and exact numbers are the
published values.  The one exception is `check_census`, which takes the
program's list of short cycles as input and checks the deletion against
it; the cycle counts themselves are recomputed here.

networkx and jsonschema are imported inside the functions that use them:
the checks run after the timed rounds, so these libraries stay out of the
workload's peak resident set.

A check raises `CheckFailed` when an output is wrong.  A search that ran
out of budget is not wrong, only unanswered: its check returns a reason
string, and the benchmark counts the operation as failed.
"""

from __future__ import annotations

import functools
import json
import math
import random
from itertools import combinations
from pathlib import Path

SCHEMA_DIR = Path(__file__).resolve().parent.parent / "schemas"

# Published values: Radziszowski, Small Ramsey Numbers (EJC dynamic survey
# DS1) for W and R.  EX maps (n, g) to the largest edge count of an
# n-vertex graph of girth at least g, that is ex(n; C3..C(g-1)): Mantel's
# theorem gives floor(n^2/4) for g=4, and Garnick, Kwong and Lazebnik
# (J. Graph Theory 1993) give ex(8; C3, C4) = 10.  For g=7 and g=8 at n=8
# the value is 8: a cycle C8 has girth 8, and 9 edges on 8 vertices force
# a second independent cycle, after pruning leaves either two edge-disjoint
# cycles (at least 2g > 9 edges) or three paths between two vertices, of
# lengths a+b+c <= 9, whose shortest cycle has at most 2(a+b+c)/3 <= 6
# edges.
VDW = {(3, 2): 9, (3, 3): 27, (4, 2): 35}
RAMSEY = {("clique", 3, 2): 6, ("cycle", 4, 2): 6}
EX = {(8, 4): 16, (8, 5): 10, (8, 7): 8, (8, 8): 8}


class CheckFailed(Exception):
    """An output disagrees with its independent recomputation."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


# ---------------------------------------------------------------------------
# samplers replayed from the documented stream


def replay_subset(n: int, p: float, seed: int) -> set[int]:
    rng = random.Random(seed)
    return {i for i in range(1, n + 1) if rng.random() < p}


def replay_gnp(n: int, p: float, seed: int) -> list[tuple[int, int]]:
    rng = random.Random(seed)
    return [(u, v) for u in range(n) for v in range(u + 1, n)
            if rng.random() < p]


# ---------------------------------------------------------------------------
# systems of copies and girth, from their definitions


def ap_copies(subset: set[int], n: int, k: int) -> list[tuple[int, ...]]:
    """All k-term APs of {1..n} lying inside the set, sorted."""
    out = []
    for a in sorted(subset):
        d = 1
        while a + (k - 1) * d <= n:
            terms = tuple(a + t * d for t in range(k))
            if all(x in subset for x in terms):
                out.append(terms)
            d += 1
    return sorted(out)


def triangle_copies(edges: list[tuple[int, int]]) -> list[tuple[int, int, int]]:
    """Triangles of a graph as sorted triples of edge ids, where an edge's
    id is its position in the sorted edge list."""
    ids = {e: i for i, e in enumerate(sorted(edges))}
    adj: dict[int, set[int]] = {}
    for u, v in edges:
        adj.setdefault(u, set()).add(v)
        adj.setdefault(v, set()).add(u)
    out = []
    for u, v in sorted(edges):
        for w in adj[u] & adj[v]:
            if w > v:
                out.append(tuple(sorted((ids[(u, v)], ids[(u, w)],
                                         ids[(v, w)]))))
    return sorted(out)


def span_girth_ok(edges: list[tuple[int, ...]], h: int, g: int) -> bool:
    """Girth >= g in the sparsity sense: every h' edges, 2 <= h' < g, span
    at least (h-1)h' + 1 vertices."""
    bit = {}
    masks = []
    for e in edges:
        mask = 0
        for v in e:
            mask |= 1 << bit.setdefault(v, len(bit))
        masks.append(mask)
    for size in range(2, g):
        limit = (h - 1) * size
        for combo in combinations(masks, size):
            union = 0
            for mask in combo:
                union |= mask
            if union.bit_count() <= limit:
                return False
    return True


def count_2cycles(edges: list[tuple[int, ...]]) -> int:
    """Unordered pairs of copies sharing at least two vertices."""
    sets = [set(e) for e in edges]
    return sum(1 for a, b in combinations(sets, 2) if len(a & b) >= 2)


def count_short_cycles(edges: list[tuple[int, ...]], g: int) -> dict:
    """X_j for 2 <= j < g <= 5, keyed by str(j).  A j-cycle, j >= 3, is a
    cyclic sequence of j copies in which consecutive copies share exactly
    one vertex, these j vertices are distinct and non-consecutive copies
    are disjoint; it is counted once, up to rotation and reflection."""
    require(g <= 5, "cycles longer than 4 are not counted here")
    sets = [set(e) for e in edges]
    point = {}  # (a, b) -> the one vertex that copies a and b share
    near = [set() for _ in sets]
    for a, b in combinations(range(len(sets)), 2):
        common = sets[a] & sets[b]
        if len(common) == 1:
            point[(a, b)] = point[(b, a)] = next(iter(common))
            near[a].add(b)
            near[b].add(a)
    counts = {"2": count_2cycles(edges)} if g > 2 else {}
    if g > 3:
        counts["3"] = sum(
            1 for a in range(len(sets)) for b in near[a] if b > a
            for c in near[a] & near[b] if c > b
            if len({point[(a, b)], point[(b, c)], point[(a, c)]}) == 3)
    if g > 4:
        # a 4-cycle a b c d is found once from each of its two disjoint
        # opposite pairs {a, c} and {b, d}
        found = 0
        for a, c in combinations(range(len(sets)), 2):
            if sets[a] & sets[c]:
                continue
            for b, d in combinations(sorted(near[a] & near[c]), 2):
                found += (not sets[b] & sets[d]
                          and point[(a, b)] != point[(a, d)]
                          and point[(c, b)] != point[(c, d)])
        counts["4"] = found // 2
    return counts


def count_mono_aps(colour: dict[int, int], n: int, k: int,
                   max_colour: int) -> int:
    """k-term APs of {1..n} whose terms all wear one colour <= max_colour."""
    total = 0
    for a in range(1, n + 1):
        c = colour[a]
        if c > max_colour:
            continue
        d = 1
        while a + (k - 1) * d <= n:
            if all(colour[a + t * d] == c for t in range(1, k)):
                total += 1
            d += 1
    return total


def nx_graph(n: int, edges):
    import networkx as nx

    graph = nx.Graph()
    graph.add_nodes_from(range(n))
    graph.add_edges_from(edges)
    return graph


def nx_triangle_count(graph) -> int:
    import networkx as nx

    return sum(nx.triangles(graph).values()) // 3


def nx_clique_count(graph, size: int) -> int:
    import networkx as nx

    count = 0
    for clique in nx.enumerate_all_cliques(graph):  # in order of size
        if len(clique) > size:
            break
        count += len(clique) == size
    return count


def nx_girth(graph) -> float:
    import networkx as nx

    return nx.girth(graph)


# ---------------------------------------------------------------------------
# schemas


@functools.cache
def validator(name: str):
    import jsonschema

    schema = json.loads((SCHEMA_DIR / name).read_text(encoding="utf-8"))
    return jsonschema.Draft202012Validator(schema)


def check_schema(valid, blob: dict, what: str) -> None:
    errors = sorted(valid.iter_errors(blob), key=str)
    require(not errors, f"{what} breaks its schema: {errors[:1]}")


# ---------------------------------------------------------------------------
# construct: trial record streams


def check_census(census, edges, removed: set[int], what: str) -> None:
    """Every short cycle the program's census lists meets the removed set."""
    for _, idxs in census.cycles:
        span = set()
        for i in idxs:
            span.update(edges[i])
        require(span & removed, f"{what}: a short cycle survives deletion")


def check_trial(rec: dict, census_of) -> None:
    """One trial record against an independent replay of the trial.

    `census_of(h, universe, edges, g)` runs the program's census on a
    system rebuilt here; it is needed only for the census/deletion check.
    """
    cfg = rec["config"]
    theorem, n, k, g, p = (cfg["theorem"], cfg["n"], cfg["k"], cfg["g"],
                           cfg["p"])
    what = f"{theorem} trial seed {rec['seed']}"
    require("error" not in rec, f"{what}: {rec.get('error')}")
    require(rec["seed"] == cfg["seed"] + rec["trial"], f"{what}: seed drift")
    if cfg["search_budget"]:
        require(rec.get("search_status") in
                ("proper", "uncolourable", "budget-exceeded"),
                f"{what}: no colouring-search status")
    if theorem == "cycles":
        require(g == 4, "the cycles check counts 3-cycles only")
        edges = replay_gnp(n, p, rec["seed"])
        require(rec["sample_size"] == len(edges), f"{what}: sample size")
        graph = nx_graph(n, edges)
        require(rec["cycle_counts"] == {"3": nx_triangle_count(graph)},
                f"{what}: cycle counts")
        require(rec["girth_ok"] == (nx_girth(graph) >= g), f"{what}: girth")
        return
    if theorem == "ap":
        subset = replay_subset(n, p, rec["seed"])
        require(rec["sample_size"] == len(subset), f"{what}: sample size")
        copies = ap_copies(subset, n, k)
        expected = count_short_cycles(copies, g)
        universe, h = sorted(subset), k
    else:
        require(k == 3 and g == 4,
                "the clique check counts triangles and their 3-cycles only")
        edges = replay_gnp(n, p, rec["seed"])
        require(rec["sample_size"] == len(edges), f"{what}: sample size")
        graph = nx_graph(n, edges)
        copies = triangle_copies(edges)
        require(len(copies) == nx_triangle_count(graph),
                "triangle_copies disagrees with networkx")
        # two triangles share at most one edge, and three triangles form a
        # 3-cycle exactly when they lie in one K4, which holds four of them
        expected = {"2": count_2cycles(copies),
                    "3": 4 * nx_clique_count(graph, 4)}
        universe, h = list(range(len(edges))), 3
    require(rec["system_edges"] == len(copies), f"{what}: system size")
    require(rec["cycle_counts"] == expected, f"{what}: cycle counts")
    require(rec["deletion_status"] == "ok", f"{what}: deletion did not finish")
    removed = set(rec["removed"])
    require(len(removed) == len(rec["removed"]), f"{what}: repeated removal")
    require(len(removed) <= cfg["deletion_cap"], f"{what}: cap exceeded")
    require(removed <= set(universe), f"{what}: removed outside universe")
    census = census_of(h, universe, copies, g)
    require(census.total == sum(expected.values()),
            f"{what}: the census lists {census.total} cycles")
    check_census(census, copies, removed, what)
    survivor = [e for e in copies if not removed.intersection(e)]
    require(rec["survivor_edges"] == len(survivor), f"{what}: survivor size")
    require(span_girth_ok(survivor, h, g), f"{what}: survivor girth < {g}")
    require(rec["girth_ok"] is True, f"{what}: girth_ok not reported")


def check_summary(trials: list[dict], summary: dict) -> None:
    agg = summary["aggregates"]
    done = [t for t in trials if "error" not in t]
    require(agg["trials"] == len(trials), "summary: trial count")
    require(agg["errors"] == len(trials) - len(done), "summary: error count")
    require(agg["deletion_ok"] == sum(t.get("deletion_status") == "ok"
                                      for t in done), "summary: deletion_ok")
    require(agg["girth_ok"] == sum(bool(t.get("girth_ok")) for t in done),
            "summary: girth_ok")
    if not done:
        return
    mean = sum(t["sample_size"] for t in done) / len(done)
    require(math.isclose(agg["mean_sample_size"], mean),
            "summary: mean sample size")
    keys = {j for t in done for j in t.get("cycle_counts", {})}
    for j in keys:
        value = sum(t["cycle_counts"].get(j, 0) for t in done) / len(done)
        require(math.isclose(agg["mean_cycle_counts"][j], value),
                f"summary: mean X_{j}")


def check_records(lines: list[str], census_of) -> None:
    """A whole JSONL stream: schema, every trial, then the summary."""
    blobs = [json.loads(line) for line in lines]
    for blob in blobs:
        check_schema(validator("record-v1.json"), blob, "record")
    trials = blobs[:-1]
    require(blobs[-1]["type"] == "summary", "stream does not end in a summary")
    require(all(t["type"] == "trial" for t in trials), "stray summary")
    require(len(trials) == blobs[-1]["config"]["trials"], "missing trials")
    for rec in trials:
        check_trial(rec, census_of)
    check_summary(trials, blobs[-1])


# ---------------------------------------------------------------------------
# search


def check_number(res, expected: int, what: str) -> None:
    require(res.status == "exact", f"{what}: status {res.status}")
    require(res.value == expected, f"{what}: {res.value} != {expected}")


def check_vdw_witness(res, n: int, k: int, r: int) -> None:
    """A colouring of {1..n} with r colours and no monochromatic k-AP."""
    what = f"vdw_decide({n},{k},{r})"
    require(res.status == "not-arrows", f"{what}: status {res.status}")
    colours = res.witness.colours
    require(set(colours) == set(range(1, n + 1)), f"{what}: not total")
    require(all(1 <= c <= r for c in colours.values()), f"{what}: colour range")
    require(count_mono_aps(colours, n, k, r) == 0,
            f"{what}: monochromatic progression in the witness")


def check_vdw_arrows(res, n: int, k: int, r: int) -> None:
    require(res.status == "arrows",
            f"vdw_decide({n},{k},{r}): status {res.status}")


def check_extremal(res, n: int, girth: int) -> None:
    what = f"extremal_ex({n}, girth {girth})"
    require(res.status == "exact", f"{what}: status {res.status}")
    require(res.max_edges == EX[(n, girth)],
            f"{what}: {res.max_edges} != {EX[(n, girth)]}")
    edges = res.witness.edges
    require(res.witness.n == n and len(edges) == res.max_edges,
            f"{what}: witness size")
    require(len(set(edges)) == len(edges)
            and all(0 <= u < v < n for u, v in edges), f"{what}: not simple")
    require(nx_girth(nx_graph(n, edges)) >= girth, f"{what}: witness girth")


def check_k16(res) -> str | None:
    """K16 has a 3-colouring with no monochromatic triangle (R(3,3,3)=17).
    An unfinished search fails the operation; "arrows" is wrong."""
    if res.status == "budget-exceeded":
        return "budget-exceeded on K16, where a proper 3-colouring exists"
    require(res.status == "not-arrows", f"K16: status {res.status}")
    edges = list(combinations(range(16), 2))
    colour = {e: res.witness.colours[i] for i, e in enumerate(edges)}
    require(all(1 <= c <= 3 for c in colour.values()), "K16: colour range")
    for a, b, c in combinations(range(16), 3):
        require(len({colour[(a, b)], colour[(a, c)], colour[(b, c)]}) > 1,
                f"K16: monochromatic triangle {a} {b} {c}")
    return None


# ---------------------------------------------------------------------------
# cli


def envelope(output, command: str) -> dict:
    """Exit code 0 and one schema-valid JSON envelope on stdout."""
    code, text = output
    require(code == 0, f"{command}: exit code {code}")
    blob = json.loads(text)
    check_schema(validator("output-v1.json"), blob, f"{command} envelope")
    require(blob["command"] == command, f"{command}: envelope names "
                                        f"{blob['command']}")
    return blob["result"]


def read_graph_file(path) -> tuple[int, list[tuple[int, int]]]:
    lines = Path(path).read_text(encoding="ascii").split("\n")
    n, m = map(int, lines[0].split())
    edges = [tuple(map(int, ln.split())) for ln in lines[1:] if ln.strip()]
    require(len(edges) == m, f"{path}: header promises {m} edges")
    return n, edges
