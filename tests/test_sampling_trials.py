import io
import math
import statistics
import warnings

import pytest

from ramseykit import graphs, hypergraphs, sampling, trials
from ramseykit.graphs import InputError, graph_girth
from ramseykit.hypergraphs import (
    ap_count_formula,
    enumerate_short_cycles,
    hypergraph_from_edges,
    sparsity_girth,
    system_of_copies,
)
from ramseykit.sampling import (
    DELETION_CAP_EXCEEDED,
    DELETION_OK,
    delete_short_cycles,
    rejection_sample_girth,
    sample_gnp,
    sample_subset,
)
from test_golden import CONFIGS as GOLDEN_CONFIGS

from ramseykit.trials import (
    TrialConfig,
    _ap_system_of_subset,
    run_trials,
    write_records,
)


class TestSampleGnp:
    def test_p_zero_empty(self):
        assert sample_gnp(20, 0, 1).num_edges == 0

    def test_p_one_complete(self):
        g = sample_gnp(10, 1, 1)
        assert g.num_edges == 45

    def test_same_seed_same_graph(self):
        assert sample_gnp(25, 0.3, 99).edges == sample_gnp(25, 0.3, 99).edges

    def test_different_seeds_differ(self):
        assert sample_gnp(25, 0.3, 1).edges != sample_gnp(25, 0.3, 2).edges

    def test_mean_edge_count(self):
        # binomial mean 0.1 * C(30,2) = 43.5, checked to 3 standard errors
        trials = 4000
        sizes = [sample_gnp(30, 0.1, s).num_edges for s in range(trials)]
        mean = statistics.fmean(sizes)
        se = statistics.stdev(sizes) / math.sqrt(trials)
        assert abs(mean - 43.5) <= 3 * se

    def test_bad_probability(self):
        with pytest.raises(InputError):
            sample_gnp(5, 1.5, 0)


class TestSampleSubset:
    def test_extremes(self):
        assert sample_subset(50, 0, 3) == set()
        assert sample_subset(50, 1, 3) == set(range(1, 51))

    def test_mean_size(self):
        trials = 3000
        sizes = [len(sample_subset(1000, 0.05, s)) for s in range(trials)]
        mean = statistics.fmean(sizes)
        se = statistics.stdev(sizes) / math.sqrt(trials)
        assert abs(mean - 50.0) <= 3 * se

    def test_reproducible(self):
        assert sample_subset(100, 0.4, 7) == sample_subset(100, 0.4, 7)


class TestRejectionSampling:
    def test_empty_graph_immediate(self):
        res = rejection_sample_girth(10, 0, 5, 1, 1)
        assert res.succeeded and res.tries == 1
        assert res.graph.num_edges == 0

    def test_k5_never_reaches_girth_4(self):
        res = rejection_sample_girth(5, 1, 4, 1, 10)
        assert not res.succeeded
        assert res.tries == 10
        assert res.graph is None

    def test_success_has_girth(self):
        res = rejection_sample_girth(30, 0.05, 5, 11, 10_000)
        assert res.succeeded
        assert graph_girth(res.graph) >= 5

    def test_small_k_rejected(self):
        with pytest.raises(InputError):
            rejection_sample_girth(10, 0.1, 3, 0, 5)


class TestDeletion:
    def test_no_short_cycles_noop(self):
        hg = hypergraph_from_edges(
            3, range(1, 8), [(1, 2, 3), (3, 4, 5), (5, 6, 7)])
        res = delete_short_cycles(hg, 3, 10)
        assert res.status == DELETION_OK
        assert res.removed == ()
        assert res.survivor.edges == hg.edges

    def test_two_cycle_greedy_trace(self):
        hg = hypergraph_from_edges(3, [1, 2, 3, 5], [(1, 2, 3), (1, 3, 5)])
        res = delete_short_cycles(hg, 3, 1)
        assert res.status == DELETION_OK
        assert res.removed == (1,)  # ties break to the smallest index
        assert res.survivor.num_edges == 0

    def test_greedy_prefers_high_coverage(self):
        # vertex 9 sits in both 2-cycles; one deletion clears everything
        hg = hypergraph_from_edges(
            3, range(1, 10),
            [(1, 2, 9), (1, 3, 9), (4, 5, 9), (4, 6, 9)])
        res = delete_short_cycles(hg, 3, 1)
        assert res.status == DELETION_OK
        assert res.removed == (9,)

    def test_cap_exceeded_partial(self):
        hg = hypergraph_from_edges(
            3, range(1, 11),
            [(1, 2, 3), (1, 2, 4), (5, 6, 7), (5, 6, 8)])
        res = delete_short_cycles(hg, 3, 1)
        assert res.status == DELETION_CAP_EXCEEDED
        assert len(res.removed) == 1
        assert res.survivor is None

    def test_cap_zero(self):
        hg = hypergraph_from_edges(3, [1, 2, 3, 5], [(1, 2, 3), (1, 3, 5)])
        assert delete_short_cycles(hg, 3, 0).status == DELETION_CAP_EXCEEDED

    def test_result_carries_census(self):
        hg = hypergraph_from_edges(
            3, range(1, 11),
            [(1, 2, 3), (1, 2, 4), (5, 6, 7), (5, 6, 8)])
        ok = delete_short_cycles(hg, 3, 2)
        assert ok.status == DELETION_OK
        assert ok.census == enumerate_short_cycles(hg, 3)
        assert ok.census.total == 2
        blocked = delete_short_cycles(hg, 3, 1)
        assert blocked.status == DELETION_CAP_EXCEEDED
        assert blocked.census == ok.census

    def test_survivor_verified(self):
        import random

        rng = random.Random(17)
        for _ in range(50):
            nv = rng.randint(4, 10)
            edges = {tuple(sorted(rng.sample(range(nv), 3)))
                     for _ in range(rng.randint(0, 7))}
            hg = hypergraph_from_edges(3, range(nv), edges)
            res = delete_short_cycles(hg, 4, 100)
            assert res.status == DELETION_OK
            assert sparsity_girth(res.survivor, 4).satisfied


class TestApSubsetSystem:
    def test_full_subset_matches_formula(self):
        full = set(range(1, 41))
        hg = _ap_system_of_subset(40, 3, full)
        assert hg.num_edges == ap_count_formula(40, 3)

    def test_partial_subset_oracle(self):
        subset = set(range(1, 30, 2)) | {4, 8, 16}
        hg = _ap_system_of_subset(30, 3, subset)
        oracle = {e for e in system_of_copies("ap", 30, 3).edges
                  if all(v in subset for v in e)}
        assert set(hg.edges) == oracle
        assert hg.universe == tuple(sorted(subset))


class TestRunTrials:
    def config(self, trials=5, **kw):
        defaults = dict(theorem="ap", n=300, k=3, g=4, scale_c=0.5,
                        seed=11, trials=trials)
        defaults.update(kw)
        return TrialConfig(**defaults)

    def test_zero_trials_just_summary(self):
        records = list(run_trials(self.config(trials=0)))
        assert len(records) == 1
        assert records[0].type == "summary"
        assert records[0].aggregates["trials"] == 0

    def test_stream_shape(self):
        records = list(run_trials(self.config()))
        assert len(records) == 6
        assert [r.type for r in records] == ["trial"] * 5 + ["summary"]
        assert [r.trial for r in records[:-1]] == list(range(5))
        assert [r.seed for r in records[:-1]] == [11 + i for i in range(5)]

    def test_byte_identical_reruns(self):
        buf_a, buf_b = io.StringIO(), io.StringIO()
        write_records(run_trials(self.config()), buf_a)
        write_records(run_trials(self.config()), buf_b)
        assert buf_a.getvalue() == buf_b.getvalue()
        assert buf_a.getvalue().count("\n") == 6

    def test_timings_excluded_by_default(self):
        line = next(iter(run_trials(self.config(trials=1)))).to_line()
        assert "wall_time" not in line

    def test_records_self_contained(self):
        record = next(iter(run_trials(self.config(trials=1))))
        blob = record.to_json()
        assert blob["config"]["prng"].startswith("mt19937")
        assert blob["config"]["p"] == pytest.approx(0.5 * 300 ** -0.5)
        assert blob["config"]["tool_version"]

    def test_cycles_theorem_records_girth(self):
        cfg = TrialConfig(theorem="cycles", n=25, k=4, p=0.05, seed=3,
                          trials=4)
        records = list(run_trials(cfg))
        for r in records[:-1]:
            assert r.error is None
            assert r.girth_ok in (True, False)
            assert set(r.cycle_counts) == {"3"}

    def test_cliques_theorem_runs(self):
        cfg = TrialConfig(theorem="cliques", n=14, k=3, g=3, p=0.3, seed=5,
                          trials=3, search_budget=10_000, r=2)
        records = list(run_trials(cfg))
        for r in records[:-1]:
            assert r.error is None
            assert r.deletion_status in (DELETION_OK, DELETION_CAP_EXCEEDED)
            if r.deletion_status == DELETION_OK:
                assert r.girth_ok is True
                assert r.search_status is not None

    def test_each_fact_computed_once_per_trial(self, monkeypatch):
        homes = {"enumerate_short_cycles": hypergraphs,
                 "sparsity_girth": hypergraphs, "graph_girth": graphs}
        calls = dict.fromkeys(homes, 0)

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        for name, home in homes.items():
            original = getattr(home, name)
            for module in (graphs, hypergraphs, sampling, trials):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, counted(name, original))
        configs = [TrialConfig(**GOLDEN_CONFIGS[name])
                   for name in ("ap", "cliques")]
        ok_trials = 0
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no trial takes the fallback
            for cfg in configs:
                for record in run_trials(cfg):
                    if record.type != "trial":
                        continue
                    assert record.error is None
                    ok = record.deletion_status == DELETION_OK
                    ok_trials += ok
                    assert calls == {"enumerate_short_cycles": 1,
                                     "sparsity_girth": int(ok),
                                     "graph_girth": 0}
                    calls.update(dict.fromkeys(calls, 0))
        assert ok_trials >= 2
        # a cycles trial reads its girth verdict off its cycle counts; the
        # sparser batch adds trials of girth >= g to the golden ones
        cycles = GOLDEN_CONFIGS["cycles"]
        verdicts = set()
        for cfg in (TrialConfig(**cycles),
                    TrialConfig(**{**cycles, "p": 0.03})):
            for record in run_trials(cfg):
                if record.type != "trial":
                    continue
                assert calls == dict.fromkeys(calls, 0)
                sample = sample_gnp(cfg.n, cfg.resolved_p(), record.seed)
                assert record.girth_ok == (graph_girth(sample)
                                           >= cfg.resolved_g())
                verdicts.add(record.girth_ok)
        assert verdicts == {True, False}

    def test_config_validation(self):
        with pytest.raises(InputError):
            TrialConfig(theorem="ap", n=10, k=3)  # neither p nor scale_c
        with pytest.raises(InputError):
            TrialConfig(theorem="ap", n=10, k=3, p=0.1, scale_c=1.0)
        with pytest.raises(InputError):
            TrialConfig(theorem="nope", n=10, k=3, p=0.1)
