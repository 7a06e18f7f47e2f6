"""Command-line surface tying the toolkit into reproducible workflows.

Every run echoes its fully resolved configuration (seed and tool version
included) so outputs are self-describing.  Exit codes separate certainty
from resource limits: 0 for definitive verdicts, 2 when a budget ran out,
1 for input errors.
"""

from __future__ import annotations

import argparse
import json
import secrets
import sys
from dataclasses import replace
from pathlib import Path

from . import __version__
from .bounds import container_condition, cycle_system_analytic_degrees
from .colouring import (
    ARROWS,
    BUDGET_EXCEEDED,
    PROPER,
    BudgetTracker,
    Colouring,
    arrows,
    colouring_search,
)
from .extremal import extremal_ex, fact7_premise
from .fbounds import f_bound_report
from .graphs import Graph, InputError, graph_girth
from .hypergraphs import (
    enumerate_short_cycles,
    sparsity_girth,
    system_of_copies,
)
from .io import (
    FormatError,
    format_graph,
    read_colours,
    read_config_file,
    read_graph,
    read_hypergraph,
    write_graph,
)
from .lognum import LogNum
from .params import derive_params
from .sampling import rejection_sample_girth, sample_gnp, sample_subset
from .search import (
    EXACT,
    FactViolationError,
    SearchBudget,
    fact_vdw_check,
    ramsey_decide,
    ramsey_number,
    vdw_decide,
    vdw_number,
)
from .trials import TrialConfig, run_trials, write_records

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_BUDGET = 2


class Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_ERROR)


def _jsonable(value):
    if isinstance(value, LogNum):
        return value.to_json()
    if isinstance(value, Graph):
        return {"n": value.n, "edges": [list(e) for e in value.edges]}
    if isinstance(value, Colouring):
        return {"num_colours": value.num_colours,
                "colours": {str(v): c for v, c in sorted(value.colours.items())}}
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, float) and value != value:  # NaN guard
        return None
    if hasattr(value, "to_json"):
        return value.to_json()
    return value


def emit(ns, command: str, config: dict, result, provenance: str,
         text_lines: list[str]) -> None:
    if getattr(ns, "json", False):
        envelope = {
            "tool": "ramseykit",
            "version": __version__,
            "command": command,
            "provenance": provenance,
            "config": _jsonable(config),
            "result": _jsonable(result),
        }
        print(json.dumps(envelope, sort_keys=True))
        return
    print(f"ramseykit {__version__} — {command}")
    print(f"computed: {provenance}")
    if config:
        pairs = " ".join(f"{k}={v}" for k, v in config.items())
        print(f"config: {pairs}")
    for line in text_lines:
        print(line)


def _need_seed(ns) -> int:
    """Explicit seed, or a generated one (always echoed in the output)."""
    if ns.seed is not None:
        return ns.seed
    return secrets.randbits(32)


def _budget(ns) -> SearchBudget:
    return SearchBudget(node_limit=ns.budget_nodes, wall_secs=ns.budget_secs)


def _copy_source(ns):
    """(kind, base, config echo) of the copy system --ap or --base names."""
    if ns.k is None or (ns.ap is None and None in (ns.base, ns.kind)):
        raise InputError("give --ap N with -k, or --base with --kind and -k")
    if ns.ap is not None:
        return "ap", ns.ap, {"ap": ns.ap, "k": ns.k}
    src = {"base": ns.base, "kind": ns.kind, "k": ns.k}
    return ns.kind, read_graph(ns.base), src


def _load_system(ns):
    """Build the hypergraph a command operates on, plus a config echo."""
    sources = [ns.hypergraph is not None, ns.ap is not None,
               ns.base is not None]
    if sum(sources) != 1:
        raise InputError("choose exactly one of --hypergraph, --ap, --base")
    if ns.hypergraph is not None:
        hg = read_hypergraph(ns.hypergraph)
        return hg, {"hypergraph": ns.hypergraph}
    kind, base, src = _copy_source(ns)
    return system_of_copies(kind, base, ns.k), src


def _add_system_flags(sub):
    sub.add_argument("--hypergraph", help="hypergraph file")
    sub.add_argument("--ap", type=int, metavar="N",
                     help="progression system on {1..N}")
    sub.add_argument("--base", help="base graph file for cycle/clique systems")
    sub.add_argument("--kind", choices=("cycle", "clique"))
    sub.add_argument("-k", type=int, help="pattern size")


def build_parser() -> Parser:
    parser = Parser(prog="ramseykit",
                    description="Ramsey-type constructions with girth "
                                "constraints: exact verification, seeded "
                                "experiments, bound evaluation, and small-"
                                "number searches.")
    parser.add_argument("--version", action="version",
                        version=f"ramseykit {__version__}")
    sub = parser.add_subparsers(dest="command")

    def add(name, budget=False, **kw):
        p = sub.add_parser(name, **kw)
        p.add_argument("--json", action="store_true",
                       help="emit a JSON envelope instead of text")
        p.add_argument("--config", help="key=value config file (flags win)")
        if budget:
            p.add_argument("--budget-nodes", type=int, help="node limit")
            p.add_argument("--budget-secs", type=float, help="time limit")
        return p

    p = add("params", help="derive the constant chain for one theorem")
    p.add_argument("--theorem", required=True,
                   choices=("cycles", "ap", "cliques"))
    p.add_argument("-k", type=int, required=True)
    p.add_argument("-r", type=int, required=True)
    p.add_argument("-g", type=int, help="girth target (ap/cliques)")
    p.add_argument("-R", type=int, help="pattern Ramsey number")
    p.add_argument("-W", type=int, help="van der Waerden number")
    p.add_argument("--container-check", action="store_true",
                   help="also evaluate the container degree condition "
                        "(cycles: analytic degree bounds)")

    p = add("sample", help="seeded random graph / subset / girth rejection")
    p.add_argument("--kind", required=True,
                   choices=("gnp", "subset", "girth-rejection"))
    p.add_argument("-n", type=int, required=True)
    p.add_argument("-p", type=float, required=True)
    p.add_argument("-k", type=int, help="girth target (girth-rejection)")
    p.add_argument("--seed", type=int)
    p.add_argument("--max-tries", type=int, default=1000)
    p.add_argument("--out", help="write the sampled graph to this file")

    p = add("girth", help="exact girth of a graph file")
    p.add_argument("graph")

    p = add("cycles", help="short-cycle census of a copy system")
    _add_system_flags(p)
    p.add_argument("-g", type=int, required=True, help="girth threshold")

    p = add("colour", budget=True,
            help="proper colouring search on a copy system")
    _add_system_flags(p)
    p.add_argument("-r", type=int, required=True)

    p = add("arrows", budget=True,
            help="arrowing verdict for a base and pattern")
    _add_system_flags(p)
    p.add_argument("-r", type=int, required=True)

    p = add("ramsey", budget=True,
            help="Ramsey decision or number by exhaustive search")
    p.add_argument("--kind", required=True, choices=("clique", "cycle"))
    p.add_argument("-k", type=int, required=True)
    p.add_argument("-r", type=int, required=True)
    p.add_argument("-n", type=int, help="decide this size only")

    p = add("vdw", budget=True, help="van der Waerden decision or number")
    p.add_argument("-k", type=int, required=True)
    p.add_argument("-r", type=int, required=True)
    p.add_argument("-n", type=int, help="decide this interval length only")

    p = add("extremal", budget=True,
            help="max edges avoiding all cycle lengths 3..m")
    p.add_argument("-n", type=int, required=True)
    p.add_argument("-m", type=int, required=True,
                   help="largest forbidden cycle length")
    p.add_argument("--witness-out", help="write the witness graph here")

    p = add("fact-vdw", help="two-branch dichotomy check for colourings")
    p.add_argument("-n", type=int, required=True)
    p.add_argument("-k", type=int, required=True)
    p.add_argument("-r", type=int, required=True)
    p.add_argument("-W", type=int, required=True)
    p.add_argument("--colouring", help="colour file over {1..n}")
    p.add_argument("--random", type=int, metavar="COUNT",
                   help="check COUNT random (r+1)-colourings")
    p.add_argument("--seed", type=int)
    p.add_argument("--verify-w", action="store_true",
                   help="prove the supplied W by exhaustive search first")

    p = add("fact7", budget=True,
            help="pigeonhole premise for even-cycle arrowing")
    p.add_argument("-n", type=int, required=True)
    p.add_argument("-r", type=int, required=True)
    p.add_argument("-k", type=int, required=True,
                   help="half the even cycle length")
    p.add_argument("--ex-low", type=int,
                   help="max edges avoiding cycles 3..2k-1")
    p.add_argument("--ex-high", type=int,
                   help="max edges avoiding cycles 3..2k")
    p.add_argument("--search", action="store_true",
                   help="compute both extremal values exhaustively")

    p = add("fbounds", budget=True,
            help="lower/upper bounds for girth-k cycle arrowing")
    p.add_argument("-k", type=int, required=True)
    p.add_argument("-r", type=int, required=True)
    p.add_argument("-R", type=int, help="known cycle Ramsey number")
    p.add_argument("--search-R", action="store_true",
                   help="search the cycle Ramsey number first")

    p = add("trials", help="seeded experiment batch emitting JSONL records")
    p.add_argument("--theorem", required=True,
                   choices=("cycles", "ap", "cliques"))
    p.add_argument("-n", type=int, required=True)
    p.add_argument("-k", type=int, required=True)
    p.add_argument("-r", type=int, default=2)
    p.add_argument("-g", type=int)
    p.add_argument("-p", type=float)
    p.add_argument("--scale-c", type=float,
                   help="p = scale_c * n^(-theorem exponent)")
    p.add_argument("--trials", type=int, default=1)
    p.add_argument("--seed", type=int)
    p.add_argument("--cap", type=float, help="deletion budget")
    p.add_argument("--search-budget", type=int,
                   help="colouring-search nodes per trial")
    p.add_argument("--out", help="JSONL output path (default stdout)")
    p.add_argument("--timings", action="store_true",
                   help="include wall times (breaks byte-reproducibility)")

    p = add("verify", help="re-check artifacts: record streams, graph files")
    p.add_argument("--records", help="JSONL stream to re-run and compare")
    p.add_argument("--graph", help="graph file to validate and round-trip")

    return parser


# ---------------------------------------------------------------------------
# command handlers


def cmd_params(ns) -> int:
    base = ns.R if ns.R is not None else ns.W
    if base is None:
        raise InputError("supply -R (cycles/cliques) or -W (ap)")
    ps = derive_params(ns.theorem, ns.k, ns.r, ns.g, base)
    blob = ps.to_json()
    lines = [f"  {key:<22} {_fmt(value)}" for key, value in blob.items()]
    result = {"params": blob}
    if ns.container_check:
        if ns.theorem != "cycles":
            raise InputError("--container-check currently covers the "
                             "cycles construction (analytic degree bounds)")
        verdict = container_condition(
            cycle_system_analytic_degrees(ps.n, ns.k), ns.k, ps.tau,
            ps.epsilon)
        result["container_condition"] = {
            "satisfied": verdict.satisfied,
            "lhs": verdict.lhs.to_json(),
            "margin": verdict.margin.to_json(),
        }
        lines.append(f"  container condition satisfied={verdict.satisfied} "
                     f"margin={_fmt(verdict.margin.to_json())}")
    emit(ns, "params",
         {"theorem": ns.theorem, "k": ns.k, "r": ns.r, "g": ns.g,
          "base_number": base},
         result,
         "container threshold, fingerprint length, and sampling-scale "
         "constants for the girth-constrained construction",
         lines)
    return EXIT_OK


def _fmt(value) -> str:
    if isinstance(value, dict):
        if set(value) == {"sign", "log2"}:
            if value["sign"] == 0:
                return "0"
            prefix = "-" if value["sign"] < 0 else ""
            return f"{prefix}2^{value['log2']}"
        if set(value) == {"num", "den"}:
            return f"{value['num']}/{value['den']}"
    return str(value)


def cmd_sample(ns) -> int:
    seed = _need_seed(ns)
    config = {"kind": ns.kind, "n": ns.n, "p": ns.p, "seed": seed}
    if ns.kind == "gnp":
        g = sample_gnp(ns.n, ns.p, seed)
        if ns.out:
            write_graph(g, ns.out)
        emit(ns, "sample", config,
             {"edges": g.num_edges, "out": ns.out,
              "graph": None if ns.out else g},
             "independent-pairs random graph draw",
             [f"  sampled {g.num_edges} edges on {g.n} vertices"
              + (f" -> {ns.out}" if ns.out else "")])
        return EXIT_OK
    if ns.kind == "subset":
        s = sample_subset(ns.n, ns.p, seed)
        emit(ns, "sample", config,
             {"size": len(s), "elements": sorted(s)},
             "independent-elements random subset draw",
             [f"  sampled {len(s)} of {ns.n} elements",
              "  " + " ".join(str(x) for x in sorted(s))])
        return EXIT_OK
    if ns.k is None:
        raise InputError("girth-rejection needs -k")
    config.update({"k": ns.k, "max_tries": ns.max_tries})
    res = rejection_sample_girth(ns.n, ns.p, ns.k, seed, ns.max_tries)
    if res.succeeded and ns.out:
        write_graph(res.graph, ns.out)
    emit(ns, "sample", config,
         {"succeeded": res.succeeded, "tries": res.tries,
          "success_rate": res.success_rate,
          "edges": res.graph.num_edges if res.succeeded else None,
          "out": ns.out if res.succeeded else None},
         "resampling until the graph clears the girth threshold",
         [f"  {'success' if res.succeeded else 'failure'} after "
          f"{res.tries} tries"])
    return EXIT_OK if res.succeeded else EXIT_BUDGET


def cmd_girth(ns) -> int:
    g = read_graph(ns.graph)
    value = graph_girth(g)
    shown = "infinite" if value == float("inf") else int(value)
    emit(ns, "girth", {"graph": ns.graph, "n": g.n, "edges": g.num_edges},
         {"girth": None if shown == "infinite" else shown,
          "infinite": shown == "infinite"},
         "shortest cycle length by breadth-first search from every vertex",
         [f"  girth = {shown}"])
    return EXIT_OK


def cmd_cycles(ns) -> int:
    hg, src = _load_system(ns)
    report = enumerate_short_cycles(hg, ns.g)
    verdict = sparsity_girth(hg, ns.g)
    counts = {str(j): c for j, c in sorted(report.counts.items())}
    lines = [f"  X_{j} = {c}" for j, c in sorted(report.counts.items())]
    lines.append(f"  sparsity girth >= {ns.g}: {verdict.satisfied}")
    emit(ns, "cycles", {**src, "g": ns.g, "uniformity": hg.h,
                        "universe": hg.num_vertices, "edges": hg.num_edges},
         {"counts": counts, "total": report.total,
          "sparsity_satisfied": verdict.satisfied,
          "witness": list(verdict.witness_edges)
          if verdict.witness_edges else None},
         "census of short cycles and the span-based girth check",
         lines)
    return EXIT_OK


def cmd_colour(ns) -> int:
    hg, src = _load_system(ns)
    res = colouring_search(hg, ns.r, BudgetTracker(_budget(ns)))
    result = {"status": res.status, "nodes": res.nodes,
              "witness": res.colouring if res.status == PROPER else None}
    emit(ns, "colour", {**src, "r": ns.r},
         result,
         "exhaustive backtracking over vertex colourings with canonical "
         "colour classes",
         [f"  {res.status} ({res.nodes} nodes)"])
    return EXIT_BUDGET if res.status == BUDGET_EXCEEDED else EXIT_OK


def cmd_arrows(ns) -> int:
    if ns.hypergraph is not None:
        raise InputError("arrows needs a base object (--ap or --base), "
                         "not a prebuilt hypergraph; use `colour` for those")
    kind, base, src = _copy_source(ns)
    res = arrows(base, kind, ns.k, ns.r, BudgetTracker(_budget(ns)))
    emit(ns, "arrows", {**src, "kind": kind, "r": ns.r},
         {"status": res.status, "nodes": res.nodes, "witness": res.witness},
         "arrowing verdict via exhaustive colouring search on the system "
         "of copies",
         [f"  {res.status} ({res.nodes} nodes)"])
    return EXIT_BUDGET if res.status == BUDGET_EXCEEDED else EXIT_OK


def _decide_or_sweep(ns, command: str, config: dict, decide, sweep,
                     decide_provenance: str, sweep_provenance: str) -> int:
    """Decide the size -n, or else sweep for the least size that arrows."""
    budget = _budget(ns)
    if ns.n is not None:
        res = decide(budget)
        emit(ns, command, {**config, "n": ns.n},
             {"status": res.status, "witness": res.witness,
              "nodes": res.nodes},
             decide_provenance,
             [f"  {res.status}"])
        return EXIT_BUDGET if res.status == BUDGET_EXCEEDED else EXIT_OK
    res = sweep(budget)
    lines = [f"  number = {res.value}" if res.status == EXACT
             else f"  >= {res.lower_bound} (budget exhausted)"]
    emit(ns, command, config,
         {"status": res.status, "value": res.value,
          "lower_bound": res.lower_bound, "nodes": res.nodes},
         sweep_provenance,
         lines)
    return EXIT_OK if res.status == EXACT else EXIT_BUDGET


def cmd_ramsey(ns) -> int:
    return _decide_or_sweep(
        ns, "ramsey", {"kind": ns.kind, "k": ns.k, "r": ns.r},
        lambda budget: ramsey_decide(ns.kind, ns.k, ns.r, ns.n, budget),
        lambda budget: ramsey_number(ns.kind, ns.k, ns.r, budget),
        "exhaustive arrowing decision on the complete graph",
        "ascending sweep of exhaustive arrowing decisions")


def cmd_vdw(ns) -> int:
    return _decide_or_sweep(
        ns, "vdw", {"k": ns.k, "r": ns.r},
        lambda budget: vdw_decide(ns.n, ns.k, ns.r, budget),
        lambda budget: vdw_number(ns.k, ns.r, budget),
        "exhaustive progression-colouring decision for the interval",
        "ascending sweep of exhaustive interval decisions")


def cmd_extremal(ns) -> int:
    res = extremal_ex(ns.n, set(range(3, ns.m + 1)),
                      BudgetTracker(_budget(ns)))
    if ns.witness_out:
        write_graph(res.witness, ns.witness_out)
    emit(ns, "extremal", {"n": ns.n, "forbidden": f"3..{ns.m}"},
         {"status": res.status, "max_edges": res.max_edges,
          "witness": res.witness, "nodes": res.nodes},
         "branch-and-bound over edge sets with girth pruning",
         [f"  max edges = {res.max_edges} ({res.status})"])
    return EXIT_OK if res.status == EXACT else EXIT_BUDGET


def cmd_fact_vdw(ns) -> int:
    import random as _random

    if (ns.colouring is None) == (ns.random is None):
        raise InputError("choose exactly one of --colouring and --random")
    if ns.verify_w:
        proof = vdw_decide(ns.W, ns.k, ns.r)
        if proof.status != ARROWS:
            raise InputError(
                f"W={ns.W} is not verified to force monochromatic "
                f"{ns.k}-APs with {ns.r} colours (got {proof.status})")
    config = {"n": ns.n, "k": ns.k, "r": ns.r, "W": ns.W}
    if ns.colouring is not None:
        colours = read_colours(ns.colouring, range(1, ns.n + 1))
        res = fact_vdw_check(Colouring(colours, ns.r + 1), ns.k, ns.r, ns.W)
        emit(ns, "fact-vdw", {**config, "colouring": ns.colouring},
             {"branch": res.branch, "mono_count": res.mono_count,
              "mono_threshold": res.mono_threshold,
              "last_class_size": res.last_class_size,
              "last_threshold": res.last_threshold},
             "two-branch dichotomy: many monochromatic progressions or a "
             "heavy last colour class",
             [f"  branch = {res.branch}"])
        return EXIT_OK
    seed = _need_seed(ns)
    rng = _random.Random(seed)
    tallies = {"first": 0, "second": 0, "both": 0}
    violations = 0
    for _ in range(ns.random):
        col = Colouring({i: rng.randint(1, ns.r + 1)
                         for i in range(1, ns.n + 1)}, ns.r + 1)
        try:
            res = fact_vdw_check(col, ns.k, ns.r, ns.W)
            tallies[res.branch] += 1
        except FactViolationError:
            violations += 1
    emit(ns, "fact-vdw", {**config, "random": ns.random, "seed": seed},
         {"tallies": tallies, "violations": violations},
         "two-branch dichotomy over random colourings",
         [f"  {tallies} violations={violations}"])
    return EXIT_OK if violations == 0 else EXIT_ERROR


def cmd_fact7(ns) -> int:
    ex_low, ex_high = ns.ex_low, ns.ex_high
    status = "supplied"
    if ns.search:
        budget = BudgetTracker(_budget(ns))  # shared by both searches
        low = extremal_ex(ns.n, set(range(3, 2 * ns.k)), budget)
        high = extremal_ex(ns.n, set(range(3, 2 * ns.k + 1)), budget)
        ex_low, ex_high = low.max_edges, high.max_edges
        status = "searched" if low.status == EXACT and high.status == EXACT \
            else "searched-lower-bound"
    if ex_low is None or ex_high is None:
        raise InputError("supply --ex-low/--ex-high or use --search")
    res = fact7_premise(ns.n, ns.r, ns.k, ex_low, ex_high)
    if ns.search and high.status != EXACT:
        # a lower bound on ex_high can make the premise look true
        res = replace(res, holds=False, implied_upper=None)
    lines = [f"  ex_low={ex_low} ex_high={ex_high} holds={res.holds}"]
    if res.holds:
        lines.append(f"  implied: the even-cycle arrowing order for length "
                     f"{res.cycle_length} is at most {res.implied_upper}")
    emit(ns, "fact7", {"n": ns.n, "r": ns.r, "k": ns.k, "values": status},
         {"holds": res.holds, "ex_low": ex_low, "ex_high": ex_high,
          "implied_upper": res.implied_upper},
         "pigeonhole premise comparing consecutive extremal numbers",
         lines)
    return EXIT_BUDGET if status == "searched-lower-bound" else EXIT_OK


def cmd_fbounds(ns) -> int:
    budget = _budget(ns)
    if not ns.search_R and budget != SearchBudget():
        raise InputError("a search budget bounds only the search of "
                         "--search-R; add it or drop the budget")
    report = f_bound_report(ns.k, ns.r, ramsey_value=ns.R,
                            search_budget=budget if ns.search_R else None)
    blob = report.to_json()
    lines = [f"  {k:<24} {_fmt(v) if v is not None else '-'}"
             for k, v in blob.items()]
    emit(ns, "fbounds", {"k": ns.k, "r": ns.r, "R": ns.R,
                         "search_R": ns.search_R},
         blob,
         "ball-growth and Ramsey lower bounds with the random-construction "
         "upper bound",
         lines)
    # the search settled nothing only when its budget ran out
    searched_out = ns.search_R and report.ramsey_number is None
    return EXIT_BUDGET if searched_out else EXIT_OK


def cmd_trials(ns) -> int:
    if (ns.p is None) == (ns.scale_c is None):
        raise InputError("set exactly one of -p and --scale-c")
    seed = _need_seed(ns)
    config = TrialConfig(
        theorem=ns.theorem, n=ns.n, k=ns.k, r=ns.r, g=ns.g, p=ns.p,
        scale_c=ns.scale_c, seed=seed, trials=ns.trials,
        deletion_cap=ns.cap, search_budget=ns.search_budget)
    if ns.out:
        with open(ns.out, "w", encoding="ascii") as fh:
            count = write_records(run_trials(config), fh,
                                  include_timings=ns.timings)
        if not ns.json:
            print(f"ramseykit {__version__} — trials")
            print(f"  wrote {count} records to {ns.out}")
        else:
            emit(ns, "trials", config.echo(),
                 {"records": count, "out": ns.out},
                 "seeded experiment batch", [])
        return EXIT_OK
    count = write_records(run_trials(config), sys.stdout,
                          include_timings=ns.timings)
    return EXIT_OK


def cmd_verify(ns) -> int:
    if (ns.records is None) == (ns.graph is None):
        raise InputError("choose exactly one of --records and --graph")
    if ns.graph is not None:
        g = read_graph(ns.graph)
        canonical = (format_graph(g)
                     == Path(ns.graph).read_text(encoding="ascii"))
        value = graph_girth(g)
        emit(ns, "verify", {"graph": ns.graph},
             {"parses": True, "canonical": canonical,
              "girth": None if value == float("inf") else int(value)},
             "graph file validation and canonical round-trip",
             [f"  parses, canonical={canonical}"])
        return EXIT_OK if canonical else EXIT_ERROR
    with open(ns.records, encoding="ascii") as fh:
        lines = [ln for ln in fh if ln.strip()]
    if not lines:
        raise InputError(f"{ns.records} holds no records")
    first = json.loads(lines[0])
    echo = first["config"]
    config = TrialConfig(
        theorem=echo["theorem"], n=echo["n"], k=echo["k"], r=echo["r"],
        g=echo["g"], p=echo["p_explicit"], scale_c=echo["scale_c"],
        seed=echo["seed"], trials=echo["trials"],
        deletion_cap=echo["deletion_cap"],
        search_budget=echo["search_budget"])
    regenerated = [r.to_line() + "\n" for r in run_trials(config)]
    identical = regenerated == lines
    emit(ns, "verify", {"records": ns.records, "trials": echo["trials"],
                        "seed": echo["seed"]},
         {"identical": identical, "records": len(lines)},
         "record stream re-run under the embedded configuration",
         [f"  identical={identical} over {len(lines)} lines"])
    return EXIT_OK if identical else EXIT_ERROR


HANDLERS = {
    "params": cmd_params,
    "sample": cmd_sample,
    "girth": cmd_girth,
    "cycles": cmd_cycles,
    "colour": cmd_colour,
    "arrows": cmd_arrows,
    "ramsey": cmd_ramsey,
    "vdw": cmd_vdw,
    "extremal": cmd_extremal,
    "fact-vdw": cmd_fact_vdw,
    "fact7": cmd_fact7,
    "fbounds": cmd_fbounds,
    "trials": cmd_trials,
    "verify": cmd_verify,
}


def _apply_config_file(argv: list[str]) -> list[str]:
    """Expand --config key=value pairs into leading flags (flags win)."""
    if "--config" not in argv:
        return argv
    idx = argv.index("--config")
    if idx + 1 >= len(argv):
        return argv  # argparse will report the missing value
    pairs = read_config_file(argv[idx + 1])
    injected: list[str] = []
    for key, value in pairs.items():
        flag = ("-" + key) if len(key) == 1 else ("--" + key.replace("_", "-"))
        if value.lower() in ("false", "no", "off"):
            continue  # an unset flag needs no default
        if value.lower() in ("true", "yes", "on", ""):
            injected.append(flag)
        else:
            injected.extend([flag, value])
    # keep the subcommand first, then injected defaults, then real flags
    return argv[:1] + injected + argv[1:]


def dispatch(argv: list[str]) -> int:
    parser = build_parser()
    if argv and argv[0] in HANDLERS:
        argv = _apply_config_file(argv)
    ns = parser.parse_args(argv)
    if ns.command is None:
        parser.print_help()
        return EXIT_ERROR
    try:
        return HANDLERS[ns.command](ns)
    except FactViolationError as exc:
        print(f"fact violation: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except (InputError, FormatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
