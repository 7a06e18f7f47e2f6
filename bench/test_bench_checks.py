"""Each benchmark check accepts the program's real output and rejects a
corrupted copy of it, so no check passes vacuously.

Run with `PYTHONPATH=src python -m pytest -q bench`.
"""

from __future__ import annotations

import dataclasses
import json
import sys
from pathlib import Path

import pytest

pytest.importorskip("networkx")
pytest.importorskip("jsonschema")
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from ramseykit import colouring, extremal, search, trials  # noqa: E402
from ramseykit.graphs import Graph  # noqa: E402

CheckFailed = checks.CheckFailed


def trial_lines(**config) -> list[str]:
    cfg = trials.TrialConfig(**config)
    return [r.to_line() for r in trials.run_trials(cfg)]


def recheck(lines):
    checks.check_records(lines, workloads.census_of)


def corrupt(lines, index, **changes) -> list[str]:
    blob = json.loads(lines[index])
    blob.update(changes)
    out = list(lines)
    out[index] = json.dumps(blob)
    return out


@pytest.fixture(scope="module")
def ap_lines():
    return trial_lines(theorem="ap", n=120, k=3, g=5, p=0.3, seed=3,
                       deletion_cap=150, search_budget=100, trials=2)


@pytest.fixture(scope="module")
def clique_lines():
    return trial_lines(theorem="cliques", n=40, k=3, g=4, p=0.15, seed=5,
                       deletion_cap=100, search_budget=100, trials=3)


@pytest.fixture(scope="module")
def cycle_lines():
    return trial_lines(theorem="cycles", n=40, k=4, p=0.1, seed=9,
                       search_budget=100, trials=3)


def test_real_records_pass(ap_lines, clique_lines, cycle_lines):
    for lines in (ap_lines, clique_lines, cycle_lines):
        recheck(lines)


def removal_that_matters(lines):
    """Index of a trial that removed something, and its removal list."""
    for i, line in enumerate(lines[:-1]):
        removed = json.loads(line)["removed"]
        if removed:
            return i, removed
    raise AssertionError("fixture removed nothing")


def test_survivor_with_a_short_cycle_is_rejected(ap_lines, clique_lines):
    for lines in (ap_lines, clique_lines):
        i, removed = removal_that_matters(lines)
        with pytest.raises(CheckFailed):
            recheck(corrupt(lines, i, removed=removed[1:]))


def test_span_girth_sees_an_injected_cycle():
    # a 3-uniform linear path, then an edge closing it into a 3-cycle
    path = [(1, 2, 3), (3, 4, 5), (5, 6, 7)]
    assert checks.span_girth_ok(path, 3, 5)
    assert not checks.span_girth_ok(path + [(7, 8, 1)], 3, 5)
    assert not checks.span_girth_ok([(1, 2, 3), (1, 2, 4)], 3, 3)


def test_short_cycle_counts_follow_the_definition():
    # a linear 3-cycle, a linear 4-cycle, and a pair sharing two vertices
    assert checks.count_short_cycles([(1, 2, 3), (3, 4, 5), (5, 6, 1)],
                                     5) == {"2": 0, "3": 1, "4": 0}
    square = [(1, 2, 3), (3, 4, 5), (5, 6, 7), (7, 8, 1)]
    assert checks.count_short_cycles(square, 5) == {"2": 0, "3": 0, "4": 1}
    # three copies through one common vertex make no cycle
    assert checks.count_short_cycles([(1, 2, 3), (1, 4, 5), (1, 6, 7)],
                                     5) == {"2": 0, "3": 0, "4": 0}
    assert checks.count_short_cycles([(1, 2, 3), (1, 2, 4)], 3) == {"2": 1}


def test_wrong_record_fields_are_rejected(ap_lines, clique_lines, cycle_lines):
    ap = json.loads(ap_lines[0])
    cases = [
        (ap_lines, 0, dict(system_edges=ap["system_edges"] + 1)),
        (ap_lines, 0, dict(sample_size=ap["sample_size"] - 1)),
        (ap_lines, 0, dict(removed=ap["removed"] + [10**6])),
        (clique_lines, 0, dict(survivor_edges=0)),
        (cycle_lines, 0, dict(cycle_counts={"3": 10**6})),
        (cycle_lines, 0, dict(girth_ok=not json.loads(cycle_lines[0])
                              ["girth_ok"])),
        (ap_lines, 0, dict(error="ValueError: boom")),
        (ap_lines, 0, dict(type="bogus")),
    ]
    for lines, i, change in cases:
        with pytest.raises(CheckFailed):
            recheck(corrupt(lines, i, **change))


def test_miscounted_cycles_are_rejected(ap_lines, clique_lines):
    for lines in (ap_lines, clique_lines):
        rec = json.loads(lines[0])
        checks.check_trial(rec, workloads.census_of)
        for j, count in rec["cycle_counts"].items():
            if count:
                bad = dict(rec, cycle_counts={**rec["cycle_counts"],
                                              j: 2 * count})
                with pytest.raises(CheckFailed):
                    checks.check_trial(bad, workloads.census_of)
    counts = json.loads(ap_lines[0])["cycle_counts"]
    assert all(counts[j] for j in ("3", "4")), "fixture lacks 3- and 4-cycles"


def test_census_that_lists_a_cycle_twice_is_rejected(ap_lines):
    def doubling(*args):
        census = workloads.census_of(*args)
        return dataclasses.replace(census, cycles=census.cycles * 2)

    with pytest.raises(CheckFailed):
        checks.check_trial(json.loads(ap_lines[0]), doubling)


def test_wrong_summary_is_rejected(clique_lines):
    summary = json.loads(clique_lines[-1])
    summary["aggregates"]["girth_ok"] -= 1
    with pytest.raises(CheckFailed):
        recheck(clique_lines[:-1] + [json.dumps(summary)])
    with pytest.raises(CheckFailed):
        recheck(clique_lines[:-1])


def test_numbers_off_by_one_are_rejected():
    res = search.vdw_number(3, 2)
    checks.check_number(res, checks.VDW[(3, 2)], "W(3;2)")
    with pytest.raises(CheckFailed):
        checks.check_number(dataclasses.replace(res, value=res.value + 1),
                            checks.VDW[(3, 2)], "W(3;2)")
    with pytest.raises(CheckFailed):
        checks.check_number(dataclasses.replace(res, status="lower-bound-only"),
                            checks.VDW[(3, 2)], "W(3;2)")


def test_vdw_witness_with_a_monochromatic_ap_is_rejected():
    res = search.vdw_decide(8, 3, 2)
    checks.check_vdw_witness(res, 8, 3, 2)
    colours = dict(res.witness.colours)
    colours[3] = colours[1] = colours[2]
    bad = dataclasses.replace(
        res, witness=colouring.Colouring(colours, res.witness.num_colours))
    with pytest.raises(CheckFailed):
        checks.check_vdw_witness(bad, 8, 3, 2)
    with pytest.raises(CheckFailed):
        checks.check_vdw_arrows(res, 8, 3, 2)


def test_extremal_witness_checks():
    res = extremal.extremal_ex(8, {3, 4})
    checks.check_extremal(res, 8, 5)
    edges = res.witness.edges
    missing = next((u, v) for u in range(8) for v in range(u + 1, 8)
                   if (u, v) not in edges)
    short = Graph(8, tuple(sorted(edges[1:] + (missing,))))
    with pytest.raises(CheckFailed):  # same count, but a short cycle
        checks.check_extremal(dataclasses.replace(res, witness=short), 8, 5)
    with pytest.raises(CheckFailed):
        checks.check_extremal(dataclasses.replace(res, max_edges=11), 8, 5)


def test_k16_verdicts():
    unfinished = colouring.ArrowsResult("budget-exceeded", None, 10)
    assert checks.check_k16(unfinished)
    with pytest.raises(CheckFailed):
        checks.check_k16(colouring.ArrowsResult("arrows", None, 10))
    mono = colouring.Colouring({i: 1 for i in range(120)}, 3)
    with pytest.raises(CheckFailed):
        checks.check_k16(colouring.ArrowsResult("not-arrows", mono, 10))


def test_cli_checks_reject_corrupted_envelopes(tmp_path):
    work = workloads.cli_workload(4, tmp_path)
    outputs = [op.run() for op in work.ops]
    for op, out in zip(work.ops, outputs):
        assert op.check(out) is None, op.name
    for op, (code, text) in zip(work.ops, outputs):
        with pytest.raises(CheckFailed):
            op.check((1, text))
        envelope = json.loads(text)
        if envelope["command"] in ("params", "fbounds"):
            continue  # checked for exit code and schema only
        result = envelope["result"]
        key = next(k for k in ("mono_count", "violations", "girth", "edges",
                               "identical", "canonical", "total", "records")
                   if k in result)
        value = result[key]
        result[key] = (not value if isinstance(value, bool)
                       else (value or 0) + 1)
        with pytest.raises(CheckFailed):
            op.check((0, json.dumps(envelope)))


def test_tracer_counts_and_restores():
    original = search.arrows
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert search.arrows is not original
        res = search.vdw_number(3, 2)
    finally:
        tracer.uninstall()
    assert search.arrows is original
    snap = tracer.snapshot()
    assert snap["colouring.nodes"] == res.nodes
    assert snap["colouring.search_s"] > 0


def test_tracer_leaves_out_a_layer_it_cannot_find(monkeypatch):
    from ramseykit import graphs

    monkeypatch.delattr(graphs, "graph_girth")
    tracer = tracing.Tracer()
    tracer.install()
    tracer.uninstall()
    assert tracer.missing == {"graphs.graph_girth"}
    snap = tracer.snapshot()
    assert "graphs.cycles_s" not in snap and "colouring.search_s" in snap
