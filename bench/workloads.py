"""The benchmark's three workloads, each a fixed list of operations.

An operation runs one call into ramseykit's public API and returns its
output; its check compares that output with an independent computation
(see checks.py).  Every call goes through the module attribute at call
time, so the tracer's wrappers see it.

Seeds: `construct` draws the trial seeds of its cliques and cycles
batches from the workload seed, `cli` draws every command seed and the
colour file from it (the dense graph's seed among those whose graph has a
fixed number of triangles, see `dense_seed`), and `search` uses it only to
order its operations,
since its instances are the published small numbers.  The AP batches of
`construct` keep fixed trial seeds: one AP trial's cost grows like m^4
in its system size m and varied tenfold (0.1 to 1.0 s) between seeds, so
seeded AP batches would make the workload's time measure the seed rather
than the program.
"""

from __future__ import annotations

import contextlib
import io
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import checks
from ramseykit import cli, extremal, hypergraphs, search, trials


@dataclass(frozen=True)
class Op:
    name: str
    run: Callable[[], object]
    # None when the output is right; a reason when the operation failed
    # without a wrong answer; raises checks.CheckFailed when it is wrong
    check: Callable[[object], str | None]


@dataclass(frozen=True)
class Workload:
    warmup: Op
    ops: list[Op]


def census_of(h: int, universe, edges, g: int):
    hg = hypergraphs.UniformHypergraph(h, tuple(universe), tuple(edges))
    return hypergraphs.enumerate_short_cycles(hg, g)


# ---------------------------------------------------------------------------
# construct


def trial_batch(name: str, **config) -> Op:
    cfg = trials.TrialConfig(**config)

    def run():
        return [record.to_line() for record in trials.run_trials(cfg)]

    def check(lines):
        checks.check_records(lines, census_of)

    return Op(name, run, check)


def construct(seed: int, workdir: Path) -> Workload:
    rng = random.Random(seed)
    ap_sparse = dict(theorem="ap", n=2000, k=3, g=5, scale_c=2.0,
                     deletion_cap=60, search_budget=500)
    ap_dense = dict(theorem="ap", n=150, k=3, g=5, p=0.3, deletion_cap=150,
                    search_budget=500)
    ops = [
        trial_batch("ap-sparse", seed=1000, trials=4, **ap_sparse),
        trial_batch("ap-dense-1", seed=1, trials=1, **ap_dense),
        trial_batch("ap-dense-2", seed=2, trials=1, **ap_dense),
        trial_batch("cliques", theorem="cliques", n=60, k=3, g=4, p=0.1,
                    deletion_cap=60, search_budget=500, trials=50,
                    seed=rng.randrange(2**31)),
        trial_batch("cycles", theorem="cycles", n=100, k=4, scale_c=1.5,
                    search_budget=500, trials=60, seed=rng.randrange(2**31)),
    ]
    warmup = trial_batch("warmup", theorem="cliques", n=30, k=3, g=4, p=0.2,
                         deletion_cap=50, search_budget=100, seed=7, trials=2)
    return Workload(warmup, ops)


# ---------------------------------------------------------------------------
# search


def bundle(name: str, calls) -> Op:
    """One operation of several calls: (run, check) pairs, each check
    raising on a wrong output."""
    def run():
        return tuple(call() for call, _ in calls)

    def check(outputs):
        for (_, check_one), output in zip(calls, outputs):
            check_one(output)

    return Op(name, run, check)


def number_calls(k: int, r: int) -> list:
    """W(k;r): the sweep, the witness colouring of W-1 and the proof at W."""
    w = checks.VDW[(k, r)]
    return [
        (lambda: search.vdw_number(k, r),
         lambda res: checks.check_number(res, w, f"W({k};{r})")),
        (lambda: search.vdw_decide(w - 1, k, r),
         lambda res: checks.check_vdw_witness(res, w - 1, k, r)),
        (lambda: search.vdw_decide(w, k, r),
         lambda res: checks.check_vdw_arrows(res, w, k, r)),
    ]


def ex_call(n: int, girth: int):
    """ex(n; C3..C(girth-1)) by extremal search."""
    return (lambda: extremal.extremal_ex(n, set(range(3, girth))),
            lambda res: checks.check_extremal(res, n, girth))


def search_workload(seed: int, workdir: Path) -> Workload:
    # Seven operations in a round of about 5.5 s, so that a run holds
    # several rounds: one shorter than the rest, four of 0.45 to 0.65 s and
    # two longer ones.  The median operation time then falls inside the
    # four middle ones, among samples from every round, rather than on a
    # few seconds of a machine whose speed drifts.  W(3;3)'s proof at 27 is
    # left to its sweep, which ends with it; ex(9; C3,C4), one 10 s call,
    # is left out for the same reason, and extremal search runs at n=8 for
    # four forbidden sets instead.
    ramsey = [(lambda key=key: search.ramsey_number(*key),
               lambda res, key=key, value=value: checks.check_number(
                   res, value, f"R{key}"))
              for key, value in checks.RAMSEY.items()]
    w33 = number_calls(3, 3)
    ops = [
        bundle("W(3;2), W(4;2), R(3,3), R(C4,C4), W(3;3) witness",
               number_calls(3, 2) + number_calls(4, 2) + ramsey + w33[1:2]),
        bundle("W(3;3) sweep", w33[:1]),
        Op("ramsey_decide(clique,3,3,16)",
           lambda: search.ramsey_decide(
               "clique", 3, 3, 16, search.SearchBudget(node_limit=300_000)),
           checks.check_k16),
        bundle("ex(8; C3,C4)", [ex_call(8, 5)]),
        bundle("ex(8; C3)", [ex_call(8, 4)]),
        bundle("ex(8; C3..C6)", [ex_call(8, 7)]),
        bundle("ex(8; C3..C7)", [ex_call(8, 8)]),
    ]
    random.Random(seed).shuffle(ops)
    warmup = bundle("warmup", number_calls(3, 2))
    return Workload(warmup, ops)


# ---------------------------------------------------------------------------
# cli


def run_cli(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        try:
            code = cli.dispatch(list(argv))
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue()


def command(argv: list[str], check) -> Op:
    name = " ".join(Path(a).name if "/" in a else a for a in argv)
    argv = argv + ["--json"]
    return Op(name, lambda: run_cli(argv), check)


def dense_seed(rng: random.Random, n: int, p: float) -> str:
    """The first seed drawn whose G(n, p) has 770 to 810 triangles.  The
    `cycles` census costs about m^2 in the number m of triangles, which
    ranged from 660 to 930 between seeds at n=34, p=0.5 (0.4 to 0.8 s a
    call), so a free draw would make cli's round time measure the seed."""
    while True:
        candidate = rng.randrange(2**31)
        edges = checks.replay_gnp(n, p, candidate)
        if 770 <= len(checks.triangle_copies(edges)) <= 810:
            return str(candidate)


def cli_workload(seed: int, workdir: Path) -> Workload:
    rng = random.Random(seed)
    seeds = [str(rng.randrange(2**31)) for _ in range(3)]
    seeds.append(dense_seed(rng, 34, 0.5))
    colour_n = 2000
    colours = {i: rng.randint(1, 3) for i in range(1, colour_n + 1)}
    colour_file = workdir / "colours.txt"
    colour_file.write_text(" ".join(str(colours[i])
                                    for i in range(1, colour_n + 1)) + "\n",
                           encoding="ascii")
    sparse, dense = workdir / "sparse.graph", workdir / "dense.graph"
    records = workdir / "trials.jsonl"

    def plain(name):
        def check(output):
            checks.envelope(output, name)
        return check

    def params_check(output):
        res = checks.envelope(output, "params")
        checks.require(isinstance(res["container_condition"]["satisfied"],
                                  bool), "params: no container verdict")

    def random_check(count):
        def check(output):
            res = checks.envelope(output, "fact-vdw")
            checks.require(sum(res["tallies"].values()) == count,
                           "fact-vdw: tallies do not sum to the count")
            checks.require(res["violations"] == 0, "fact-vdw: violations")
        return check

    def colouring_check(output):
        res = checks.envelope(output, "fact-vdw")
        checks.require(res["mono_count"] == checks.count_mono_aps(
            colours, colour_n, 3, 2), "fact-vdw: mono_count")
        checks.require(res["last_class_size"] == sum(
            c == 3 for c in colours.values()), "fact-vdw: last class size")

    def sample_check(path, n, p, s):
        def check(output):
            res = checks.envelope(output, "sample")
            edges = checks.replay_gnp(n, p, int(s))
            checks.require(checks.read_graph_file(path) == (n, edges),
                           "sample: file differs from the replayed draw")
            checks.require(res["edges"] == len(edges), "sample: edge count")
        return check

    def nx_girth_of(path):
        value = checks.nx_girth(checks.nx_graph(*checks.read_graph_file(path)))
        return None if value == float("inf") else value

    def girth_check(output):
        res = checks.envelope(output, "girth")
        checks.require(res["girth"] == nx_girth_of(sparse), "girth: value")

    def verify_graph_check(output):
        res = checks.envelope(output, "verify")
        checks.require(res["canonical"] is True, "verify: not canonical")
        checks.require(res["girth"] == nx_girth_of(sparse), "verify: girth")

    def cycles_check(output):
        res = checks.envelope(output, "cycles")
        n, edges = checks.read_graph_file(dense)
        graph = checks.nx_graph(n, edges)
        copies = checks.triangle_copies(edges)
        checks.require(len(copies) == checks.nx_triangle_count(graph),
                       "triangle_copies disagrees with networkx")
        # two triangles share at most one edge, and three triangles form a
        # 3-cycle exactly when they lie in one K4, which holds four of them
        expected = {"2": checks.count_2cycles(copies),
                    "3": 4 * checks.nx_clique_count(graph, 4)}
        checks.require(res["counts"] == expected, "cycles: census counts")
        checks.require(res["total"] == sum(expected.values()),
                       "cycles: total")
        checks.require(res["sparsity_satisfied"]
                       == checks.span_girth_ok(copies, 3, 4),
                       "cycles: sparsity verdict")

    def trials_check(output):
        res = checks.envelope(output, "trials")
        lines = records.read_text(encoding="ascii").splitlines()
        checks.require(res["records"] == len(lines) == 7, "trials: records")
        checks.check_records(lines, census_of)

    def verify_records_check(output):
        res = checks.envelope(output, "verify")
        checks.require(res["identical"] is True, "verify: records differ")

    ops = [
        command(["params", "--theorem", "cycles", "-k", "4", "-r", "2",
                 "-R", "6", "--container-check"], params_check),
        command(["params", "--theorem", "ap", "-k", "3", "-r", "2", "-g", "5",
                 "-W", "9"], plain("params")),
        command(["params", "--theorem", "cliques", "-k", "3", "-r", "2",
                 "-g", "4", "-R", "6"], plain("params")),
        command(["fbounds", "-k", "4", "-r", "2", "-R", "6"], plain("fbounds")),
        command(["fact-vdw", "-n", "2000", "-k", "3", "-r", "2", "-W", "9",
                 "--random", "20", "--seed", seeds[0]], random_check(20)),
        command(["fact-vdw", "-n", "20000", "-k", "3", "-r", "2", "-W", "9",
                 "--random", "4", "--seed", seeds[1]], random_check(4)),
        command(["fact-vdw", "-n", str(colour_n), "-k", "3", "-r", "2",
                 "-W", "9", "--colouring", str(colour_file)], colouring_check),
        command(["sample", "--kind", "gnp", "-n", "80", "-p", "0.08",
                 "--seed", seeds[2], "--out", str(sparse)],
                sample_check(sparse, 80, 0.08, seeds[2])),
        command(["girth", str(sparse)], girth_check),
        command(["verify", "--graph", str(sparse)], verify_graph_check),
        command(["sample", "--kind", "gnp", "-n", "34", "-p", "0.5",
                 "--seed", seeds[3], "--out", str(dense)],
                sample_check(dense, 34, 0.5, seeds[3])),
        command(["cycles", "--base", str(dense), "--kind", "clique", "-k", "3",
                 "-g", "4"], cycles_check),
        command(["trials", "--theorem", "cliques", "-n", "40", "-k", "3",
                 "-g", "4", "-p", "0.15", "--trials", "6", "--seed", seeds[0],
                 "--cap", "100", "--search-budget", "200", "--out",
                 str(records)], trials_check),
        command(["verify", "--records", str(records)], verify_records_check),
    ]
    warmup = command(["params", "--theorem", "ap", "-k", "3", "-r", "2",
                      "-g", "5", "-W", "9"], plain("params"))
    return Workload(warmup, ops)


WORKLOADS = {"construct": construct, "search": search_workload,
             "cli": cli_workload}
