import json
import os
import random
import subprocess
import sys
from pathlib import Path

import jsonschema
import pytest

from ramseykit.cli import EXIT_BUDGET, EXIT_ERROR, EXIT_OK, dispatch
from ramseykit.graphs import complete_graph, graph_from_edges, graph_girth
from ramseykit.hypergraphs import system_of_copies
from ramseykit.io import (
    FormatError,
    read_config_file,
    read_graph,
    read_hypergraph,
    read_lines,
    write_graph,
    write_hypergraph,
)
from ramseykit.search import (
    FactViolationError,
    fact_vdw_branch,
    fact_vdw_random,
)

SRC = Path(__file__).resolve().parents[1] / "src"
SCHEMA_DIR = Path(__file__).resolve().parents[1] / "schemas"
RECORD_SCHEMA = json.loads((SCHEMA_DIR / "record-v1.json").read_text())
OUTPUT_SCHEMA = json.loads((SCHEMA_DIR / "output-v1.json").read_text())


def petersen():
    outer = [(i, (i + 1) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return graph_from_edges(10, outer + spokes + inner)


class TestGraphFiles:
    def test_roundtrip_k5(self, tmp_path):
        path = tmp_path / "k5.graph"
        write_graph(complete_graph(5), path)
        assert read_graph(path).edges == complete_graph(5).edges

    def test_petersen_fixture(self, tmp_path):
        path = tmp_path / "petersen.graph"
        write_graph(petersen(), path)
        g = read_graph(path)
        assert graph_girth(g) == 5
        assert g.edges == petersen().edges

    def test_header_mismatch(self, tmp_path):
        path = tmp_path / "bad.graph"
        path.write_text("3 2\n0 1\n")
        with pytest.raises(FormatError):
            read_graph(path)

    def test_error_carries_line_number(self, tmp_path):
        path = tmp_path / "bad.graph"
        path.write_text("3 1\n0 zero\n")
        with pytest.raises(FormatError, match=":2:"):
            read_graph(path)

    def test_blank_line_keeps_line_numbers(self, tmp_path):
        path = tmp_path / "bad.graph"
        path.write_text("4 2\n\n0 1\n2 x\n")
        with pytest.raises(FormatError, match=":4:"):
            read_graph(path)

    def test_descending_pair_rejected(self, tmp_path):
        path = tmp_path / "bad.graph"
        path.write_text("3 1\n1 0\n")
        with pytest.raises(FormatError):
            read_graph(path)


class TestHypergraphFiles:
    def test_roundtrip_contiguous(self, tmp_path):
        hg = system_of_copies("cycle", complete_graph(4), 3)
        path = tmp_path / "sys.hg"
        write_hypergraph(hg, path)
        back = read_hypergraph(path)
        assert back.edges == hg.edges  # universe already 0-based

    def test_relabelled_universe(self, tmp_path):
        hg = system_of_copies("ap", 5, 3)  # universe 1..5
        path = tmp_path / "ap.hg"
        write_hypergraph(hg, path)
        back = read_hypergraph(path)
        assert back.universe == tuple(range(5))
        assert back.num_edges == hg.num_edges

    def test_bad_vertex(self, tmp_path):
        path = tmp_path / "bad.hg"
        path.write_text("3 4 1\n0 1 9\n")
        with pytest.raises(FormatError):
            read_hypergraph(path)

    def test_blank_lines_keep_line_numbers(self, tmp_path):
        path = tmp_path / "bad.hg"
        path.write_text("3 4 2\n\n0 1 2\n\n0 1 9\n")
        with pytest.raises(FormatError, match=r":5: vertex outside"):
            read_hypergraph(path)

    def test_duplicate_row_rejected_at_its_line(self, tmp_path):
        # merged, the two rows would read as one edge and hide a 2-cycle
        path = tmp_path / "dup.hg"
        path.write_text("3 4 2\n0 1 2\n\n0 1 2\n")
        with pytest.raises(FormatError,
                           match=r":4: duplicate hyperedge, first on line 2"):
            read_hypergraph(path)


class TestConfigFile:
    def test_parse(self, tmp_path):
        path = tmp_path / "run.conf"
        path.write_text("# a comment\nk = 4\nr=2\ntheorem = cycles  # inline\n")
        assert read_config_file(path) == {"k": "4", "r": "2",
                                          "theorem": "cycles"}

    def test_bad_line(self, tmp_path):
        path = tmp_path / "run.conf"
        path.write_text("just words\n")
        with pytest.raises(FormatError):
            read_config_file(path)


class TestNonAsciiInput:
    """A byte outside ASCII in any input file exits 1 with path:line."""

    @pytest.mark.parametrize("name, content, argv", [
        ("bad.graph", b"3 1\n0 1\xe9\n", ["girth", "bad.graph"]),
        ("bad.hg", b"2 3 1\n0 1\xe9\n",
         ["colour", "--hypergraph", "bad.hg", "-r", "2"]),
        ("bad.conf", b"k=3\nr=2\xe9\n", ["vdw", "--config", "bad.conf"]),
        ("bad.col", b"1 2\n3 \xe9\n",
         ["fact-vdw", "-n", "4", "-k", "3", "-r", "2", "-W", "9",
          "--colouring", "bad.col"]),
        ("bad.jsonl", b'{"type": "trial"}\n{"x": "\xe9"}\n',
         ["verify", "--records", "bad.jsonl"]),
    ])
    def test_located_exit_1(self, capsys, tmp_path, monkeypatch, name,
                            content, argv):
        monkeypatch.chdir(tmp_path)
        Path(name).write_bytes(content)
        assert dispatch(argv) == EXIT_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {name}:2: non-ASCII byte 0xe9\n"

    @pytest.mark.parametrize("content, line_no", [
        (b"\xe9", 1), (b"ab\xe9\n", 1), (b"a\n\n\xe9", 3),
        (b"a\r\nb\xe9", 2), (b"a\r\n\xe9", 2),
    ])
    def test_line_of_the_byte(self, tmp_path, content, line_no):
        path = tmp_path / "f.txt"
        path.write_bytes(content)
        with pytest.raises(FormatError, match=f":{line_no}: non-ASCII"):
            read_lines(path)


class TestCli:
    def run_json(self, capsys, *argv):
        code = dispatch(list(argv) + ["--json"])
        out = capsys.readouterr().out
        return code, json.loads(out)

    def test_params_k_constant(self, capsys):
        code, blob = self.run_json(
            capsys, "params", "--theorem", "cycles", "-k", "4", "-r", "2",
            "-R", "6")
        assert code == EXIT_OK
        jsonschema.validate(blob, OUTPUT_SCHEMA)
        assert blob["result"]["params"]["K"] == 44236800
        assert blob["result"]["params"]["epsilon"] == {"num": "1",
                                                       "den": "2592"}

    def test_ramsey_number_cli(self, capsys):
        code, blob = self.run_json(capsys, "ramsey", "--kind", "clique",
                                   "-k", "3", "-r", "2")
        assert code == EXIT_OK
        assert blob["result"]["value"] == 6

    def test_ramsey_budget_exit(self, capsys):
        code, blob = self.run_json(capsys, "ramsey", "--kind", "clique",
                                   "-k", "3", "-r", "3",
                                   "--budget-nodes", "10")
        assert code == EXIT_BUDGET

    def test_vdw_cli(self, capsys):
        code, blob = self.run_json(capsys, "vdw", "-k", "3", "-r", "2")
        assert code == EXIT_OK
        assert blob["result"]["value"] == 9

    def test_girth_cli(self, capsys, tmp_path):
        path = tmp_path / "p.graph"
        write_graph(petersen(), path)
        code, blob = self.run_json(capsys, "girth", str(path))
        assert code == EXIT_OK
        assert blob["result"]["girth"] == 5

    def test_unknown_flag_exits_1(self, capsys):
        with pytest.raises(SystemExit) as info:
            dispatch(["girth", "--frobnicate"])
        assert info.value.code == EXIT_ERROR

    def test_unknown_command_exits_1(self, capsys):
        with pytest.raises(SystemExit) as info:
            dispatch(["transmogrify"])
        assert info.value.code == EXIT_ERROR

    def test_sample_requires_recorded_seed(self, capsys):
        code, blob = self.run_json(capsys, "sample", "--kind", "subset",
                                   "-n", "20", "-p", "0.5")
        assert code == EXIT_OK
        assert isinstance(blob["config"]["seed"], int)
        assert 0 <= blob["config"]["seed"] < 2**32

    def test_import_leaves_out_secrets_and_hmac(self):
        # a generated seed needs no cryptographic module at import time
        probe = ("import sys, ramseykit.cli; "
                 "print(sorted({'secrets', 'hmac'} & set(sys.modules)))")
        env = {**os.environ, "PYTHONPATH": str(SRC)}
        out = subprocess.run([sys.executable, "-c", probe], env=env,
                             capture_output=True, text=True, check=True)
        assert out.stdout == "[]\n"

    def test_sample_gnp_roundtrip(self, capsys, tmp_path):
        out = tmp_path / "g.graph"
        code, blob = self.run_json(
            capsys, "sample", "--kind", "gnp", "-n", "12", "-p", "0.4",
            "--seed", "5", "--out", str(out))
        assert code == EXIT_OK
        g = read_graph(out)
        assert g.num_edges == blob["result"]["edges"]

    def test_girth_rejection_failure_is_budget(self, capsys):
        code, blob = self.run_json(
            capsys, "sample", "--kind", "girth-rejection", "-n", "5",
            "-p", "1.0", "-k", "4", "--seed", "1", "--max-tries", "3")
        assert code == EXIT_BUDGET
        assert blob["result"]["tries"] == 3

    def test_cycles_cli_on_ap(self, capsys):
        code, blob = self.run_json(capsys, "cycles", "--ap", "9", "-k", "3",
                                   "-g", "3")
        assert code == EXIT_OK
        assert "2" in blob["result"]["counts"]

    def test_arrows_cli(self, capsys):
        code, blob = self.run_json(capsys, "arrows", "--ap", "9", "-k", "3",
                                   "-r", "2")
        assert code == EXIT_OK
        assert blob["result"]["status"] == "arrows"

    def test_one_copy_source(self, capsys, tmp_path):
        # arrows, colour and cycles share one exclusivity rule
        path = tmp_path / "c5.graph"
        write_graph(graph_from_edges(5, [(i, (i + 1) % 5) for i in range(5)]),
                    path)
        both = ["--ap", "9", "-k", "3", "--base", str(path), "--kind",
                "cycle"]
        for argv in (["arrows", *both, "-r", "2"],
                     ["colour", *both, "-r", "2"],
                     ["cycles", *both, "-g", "3"]):
            code = dispatch([*argv, "--json"])
            captured = capsys.readouterr()
            assert code == EXIT_ERROR
            assert captured.out == ""
            assert "choose exactly one of --hypergraph, --ap, --base" \
                in captured.err
        # arrows keeps its own message for a prebuilt hypergraph
        code = dispatch(["arrows", "--hypergraph", str(path), "-r", "2"])
        assert code == EXIT_ERROR
        assert "use `colour` for those" in capsys.readouterr().err

    def test_colour_cli_witness(self, capsys, tmp_path):
        path = tmp_path / "k5.graph"
        write_graph(complete_graph(5), path)
        code, blob = self.run_json(capsys, "colour", "--base", str(path),
                                   "--kind", "clique", "-k", "3", "-r", "2")
        assert code == EXIT_OK
        assert blob["result"]["status"] == "proper"
        assert len(blob["result"]["witness"]["colours"]) == 10

    def test_extremal_cli(self, capsys):
        code, blob = self.run_json(capsys, "extremal", "-n", "5", "-m", "4")
        assert code == EXIT_OK
        assert blob["result"]["max_edges"] == 5

    def test_extremal_node_budget_exit(self, capsys):
        code, blob = self.run_json(capsys, "extremal", "-n", "9", "-m", "4",
                                   "--budget-nodes", "1000")
        assert code == EXIT_BUDGET
        assert blob["result"]["status"] == "lower-bound-only"
        assert blob["result"]["nodes"] <= 1000

    def test_fact7_cli_search(self, capsys):
        code, blob = self.run_json(capsys, "fact7", "-n", "5", "-r", "1",
                                   "-k", "2", "--search")
        assert code == EXIT_OK
        assert blob["result"]["holds"] is True
        assert blob["result"]["implied_upper"] == 5

    def test_fact7_cli_search_out_of_budget(self, capsys):
        # ex_high is then only a lower bound and cannot certify the premise
        code, blob = self.run_json(capsys, "fact7", "-n", "9", "-k", "2",
                                   "-r", "2", "--search", "--budget-nodes",
                                   "5")
        assert code == EXIT_BUDGET
        assert blob["config"]["values"] == "searched-lower-bound"
        assert blob["result"]["holds"] is False
        assert blob["result"]["implied_upper"] is None

    def test_fact7_budget_needs_search(self, capsys):
        # with supplied values nothing would read the budget
        for flag, value in (("--budget-nodes", "5"), ("--budget-secs", "1")):
            code = dispatch(["fact7", "-n", "5", "-r", "1", "-k", "2",
                             "--ex-low", "6", "--ex-high", "5", flag, value,
                             "--json"])
            captured = capsys.readouterr()
            assert code == EXIT_ERROR
            assert captured.out == ""
            assert "--search;" in captured.err

    def test_fbounds_cli(self, capsys):
        code, blob = self.run_json(capsys, "fbounds", "-k", "4", "-r", "2",
                                   "-R", "6")
        assert code == EXIT_OK
        assert blob["result"]["lower_bound"] == 6

    def test_fbounds_budget_exit(self, capsys):
        # a search that runs out settles no Ramsey number
        code, blob = self.run_json(capsys, "fbounds", "-k", "4", "-r", "2",
                                   "--search-R", "--budget-nodes", "40")
        assert code == EXIT_BUDGET
        assert blob["result"]["ramsey_number"] is None
        # without --search-R nothing would read the budget
        code = dispatch(["fbounds", "-k", "4", "-r", "2", "--budget-nodes",
                         "5", "--json"])
        captured = capsys.readouterr()
        assert code == EXIT_ERROR
        assert captured.out == ""
        assert "--search-R" in captured.err

    def test_fact_vdw_random(self, capsys):
        code, blob = self.run_json(
            capsys, "fact-vdw", "-n", "2000", "-k", "3", "-r", "2",
            "-W", "9", "--random", "5", "--seed", "3")
        assert code == EXIT_OK
        assert blob["result"]["violations"] == 0

    def test_fact_vdw_random_draws_each_colouring_with_choices(
            self, capsys):
        # each colouring is one choices() call over the colours 1..r+1 in
        # order, judged as fact_vdw_branch judges it as a dict; the cases
        # reach every branch and a violation (W is taken as given)
        cases = [(100, 3, 2, 9, 7), (100, 4, 2, 3, 1), (400, 3, 63, 16, 1),
                 (400, 3, 95, 20, 2)]
        reference = {}
        for n, k, r, w, seed in cases:
            rng = random.Random(seed)
            tallies = dict.fromkeys(["first", "second", "both"], 0)
            violations = 0
            for _ in range(8):
                colours = dict(zip(range(1, n + 1),
                                   rng.choices(range(1, r + 2), k=n)))
                try:
                    tallies[fact_vdw_branch(colours, k, r, w)] += 1
                except FactViolationError:
                    violations += 1
            assert fact_vdw_random(n, k, r, w, 8, seed) == (tallies,
                                                            violations)
            reference[n, k, r, w, seed] = {"tallies": tallies,
                                           "violations": violations}
        reached = {b for res in reference.values()
                   for b, c in [*res["tallies"].items(),
                                ("violations", res["violations"])] if c}
        assert reached == {"first", "second", "both", "violations"}
        code, blob = self.run_json(
            capsys, "fact-vdw", "-n", "100", "-k", "4", "-r", "2",
            "-W", "3", "--random", "8", "--seed", "1")
        assert code == EXIT_OK
        assert blob["result"] == reference[100, 4, 2, 3, 1]

    @pytest.mark.parametrize("n, k, r, w, message", [
        (0, 3, 2, 3, "colouring is empty; the dichotomy needs n >= 1"),
        (-5, 3, 2, 3, "colouring is empty; the dichotomy needs n >= 1"),
        (100, 3, 0, 9, "need a colour before the last one, got r=0"),
        (100, 3, -1, 9, "need a colour before the last one, got r=-1"),
        (100, 1, 2, 9, "progression length must be >= 3, got 1"),
        (100, 3, 2, 35, "interval too short for the dichotomy: 98 35-term "
         "APs in {1..100} but the argument needs at least n^2/(2W) = 143"),
    ])
    def test_fact_vdw_random_rejects_with_one_line(self, capsys, n, k, r, w,
                                                   message):
        code = dispatch(["fact-vdw", "-n", str(n), "-k", str(k), "-r",
                         str(r), "-W", str(w), "--random", "2", "--seed",
                         "1", "--json"])
        captured = capsys.readouterr()
        assert code == EXIT_ERROR
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

    @pytest.mark.parametrize("source", [
        ["--random", "1", "--seed", "1"], ["--colouring", "empty.col"]])
    def test_fact_vdw_empty_interval_exits_1(self, capsys, tmp_path,
                                             monkeypatch, source):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "empty.col").write_text("")
        code = dispatch(["fact-vdw", "-n", "0", "-k", "3", "-r", "2", "-W",
                         "3", *source, "--json"])
        captured = capsys.readouterr()
        assert code == EXIT_ERROR
        assert captured.out == ""
        assert "colouring is empty" in captured.err

    def verify_w(self, capsys, source, w):
        code = dispatch(["fact-vdw", "-n", "2000", "-k", "3", "-r", "2",
                         "-W", str(w), "--verify-w", *source, "--json"])
        return code, capsys.readouterr()

    def test_fact_vdw_verify_w_colouring(self, capsys, tmp_path):
        colours = tmp_path / "last.col"
        colours.write_text(" ".join(["3"] * 2000) + "\n")
        source = ["--colouring", str(colours)]
        code, out = self.verify_w(capsys, source, 9)  # W(3;2) = 9
        assert code == EXIT_OK
        assert json.loads(out.out)["result"]["branch"] == "second"
        code, out = self.verify_w(capsys, source, 8)
        assert code == EXIT_ERROR
        assert out.out == ""
        assert "W=8 is not verified" in out.err

    def test_fact_vdw_verify_w_random(self, capsys):
        source = ["--random", "3", "--seed", "1"]
        code, out = self.verify_w(capsys, source, 9)
        assert code == EXIT_OK
        assert json.loads(out.out)["result"]["violations"] == 0
        code, out = self.verify_w(capsys, source, 8)
        assert code == EXIT_ERROR
        assert out.out == ""
        assert "W=8 is not verified" in out.err

    def test_config_file_defaults_flags_win(self, capsys, tmp_path):
        conf = tmp_path / "v.conf"
        conf.write_text("k=3\nr=2\nn=9\njson=false\n")
        code, blob = self.run_json(capsys, "vdw", "--config", str(conf))
        assert code == EXIT_OK
        assert blob["result"]["status"] == "arrows"
        code2, blob2 = self.run_json(capsys, "vdw", "--config", str(conf),
                                     "-n", "8")
        assert blob2["result"]["status"] == "not-arrows"

    def test_missing_config_file_exits_1(self, capsys, tmp_path):
        missing = tmp_path / "absent.conf"
        assert dispatch(["vdw", "--config", str(missing)]) == EXIT_ERROR
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "absent.conf" in err

    def test_malformed_config_file_exits_1(self, capsys, tmp_path):
        conf = tmp_path / "bad.conf"
        conf.write_text("k=3\nno equals sign\n")
        assert dispatch(["vdw", "--config", str(conf)]) == EXIT_ERROR
        assert capsys.readouterr().err == (
            f"error: {conf}:2: expected key=value\n")



class TestRejectedFlags:
    """A flag the command would ignore, or read in place of another, is an
    input error (exit 1, nothing on stdout), not a silent default."""

    def rejects(self, capsys, *argv) -> str:
        code = dispatch([*argv, "--json"])
        captured = capsys.readouterr()
        assert code == EXIT_ERROR, argv
        assert captured.out == ""
        return captured.err

    @pytest.mark.parametrize("theorem,flags", [
        ("ap", ["-g", "5", "-R", "6", "-W", "9"]),
        ("ap", ["-g", "5", "-R", "6"]),
        ("cycles", ["-W", "6"]),
        ("cycles", ["-R", "6", "-W", "6"]),
        ("cliques", ["-g", "4", "-W", "6"]),
    ])
    def test_params_reads_one_base_flag_by_theorem(self, capsys, theorem,
                                                   flags):
        err = self.rejects(capsys, "params", "--theorem", theorem, "-k", "3",
                           "-r", "2", *flags)
        flag = "-W" if theorem == "ap" else "-R"
        assert f"--theorem {theorem} needs {flag} and not" in err

    def test_fbounds_rejects_r_with_search_r(self, capsys):
        err = self.rejects(capsys, "fbounds", "-k", "4", "-r", "2", "-R", "6",
                           "--search-R", "--budget-nodes", "5")
        assert "-R" in err and "--search-R" in err

    def test_sample_subset_rejects_out(self, capsys, tmp_path):
        out = tmp_path / "s.graph"
        err = self.rejects(capsys, "sample", "--kind", "subset", "-n", "20",
                           "-p", "0.5", "--seed", "1", "--out", str(out))
        assert "--out" in err
        assert not out.exists()

    @pytest.mark.parametrize("kind,flags", [
        ("gnp", ["-k", "9"]),
        ("gnp", ["--max-tries", "3"]),
        ("subset", ["-k", "9", "--max-tries", "3"]),
    ])
    def test_sample_k_and_max_tries_only_for_rejection(self, capsys, kind,
                                                       flags):
        err = self.rejects(capsys, "sample", "--kind", kind, "-n", "20",
                           "-p", "0.5", "--seed", "1", *flags)
        assert "girth-rejection" in err

    def test_rejection_echoes_the_default_max_tries(self, capsys):
        code = dispatch(["sample", "--kind", "girth-rejection", "-n", "5",
                         "-p", "0.1", "-k", "4", "--seed", "1", "--json"])
        blob = json.loads(capsys.readouterr().out)
        assert code == EXIT_OK
        assert blob["config"]["max_tries"] == 1000

    AP = ["--ap", "9", "-k", "3"]
    HG = ["--hypergraph", "ap9.hg"]
    FACT_VDW = ["fact-vdw", "-n", "300", "-k", "3", "-r", "2", "-W", "9"]
    TRIALS = ["trials", "--out", "t.jsonl", "--seed", "3", "--theorem"]

    @pytest.mark.parametrize("argv,flag", [
        # flags that nothing reads
        (["arrows", *AP, "-r", "2", "--kind", "cycle"], "--kind"),
        (["colour", *AP, "-r", "2", "--kind", "clique"], "--kind"),
        (["cycles", *AP, "-g", "4", "--kind", "cycle"], "--kind"),
        (["colour", *HG, "-r", "2", "-k", "3"], "-k"),
        (["colour", *HG, "-r", "2", "--kind", "clique"], "--kind"),
        (["cycles", *HG, "-g", "3", "-k", "3", "--kind", "cycle"],
         "-k, --kind"),
        (["fact7", "-n", "5", "-r", "1", "-k", "2", "--search", "--ex-low",
          "9", "--ex-high", "1"], "--ex-low, --ex-high"),
        ([*FACT_VDW, "--colouring", "c.txt", "--seed", "0"], "--seed"),
        (["params", "--theorem", "cycles", "-k", "4", "-r", "2", "-R", "6",
          "-g", "4"], "-g"),
        ([*TRIALS, "cycles", "-n", "25", "-k", "4", "-p", "0.05", "--cap",
          "0"], "--cap"),
        ([*TRIALS, "ap", "-n", "30", "-k", "3", "-p", "0.3", "-r", "5"],
         "-r"),
        # values that mean nothing
        ([*TRIALS, "ap", "-n", "30", "-k", "3", "-p", "0.3",
          "--search-budget", "0"], "--search-budget"),
        ([*TRIALS, "ap", "-n", "150", "-k", "3", "-g", "5", "-p", "0.3",
          "--cap", "nan"], "--cap"),
        (["colour", *AP, "-r", "2", "--budget-nodes", "-5"], "--budget-nodes"),
        (["colour", *AP, "-r", "2", "--budget-secs", "nan"], "--budget-secs"),
        ([*FACT_VDW, "--random", "-2", "--seed", "1"], "--random"),
        (["fact7", "-n", "5", "-r", "0", "-k", "2", "--ex-low", "1",
          "--ex-high", "1"], "r=0"),
        (["fbounds", "-k", "4", "-r", "2", "-R", "3"], "R=3"),
        ([*FACT_VDW[:6], "0", "-W", "9", "--random", "1", "--seed", "1"],
         "r=0"),
        ([*FACT_VDW[:6], "0", "-W", "9", "--colouring", "c.txt"], "r=0"),
        ([*TRIALS, "ap", "-n", "30", "-k", "3", "-p", "0.3", "-g", "1"],
         "g=1"),
        ([*TRIALS, "ap", "-n", "30", "-k", "3", "-p", "0.3", "-r", "0",
          "--search-budget", "5"], "r=0"),
    ])
    def test_flag_or_value_that_does_nothing(self, capsys, tmp_path,
                                             monkeypatch, argv, flag):
        monkeypatch.chdir(tmp_path)
        write_hypergraph(system_of_copies("ap", 9, 3), "ap9.hg")
        Path("c.txt").write_text(
            " ".join(str(i * i % 7 % 3 + 1) for i in range(1, 301)))
        err = self.rejects(capsys, *argv)
        assert flag in err
        assert not Path("t.jsonl").exists()

class TestEnvelopes:
    def test_every_command_envelope_validates(self, capsys, tmp_path):
        graph_path = tmp_path / "k6.graph"
        write_graph(complete_graph(6), graph_path)
        invocations = [
            ["params", "--theorem", "ap", "-k", "3", "-r", "2", "-g", "4",
             "-W", "9"],
            ["sample", "--kind", "gnp", "-n", "10", "-p", "0.5", "--seed", "1"],
            ["girth", str(graph_path)],
            ["cycles", "--ap", "9", "-k", "3", "-g", "4"],
            ["colour", "--ap", "8", "-k", "3", "-r", "2"],
            ["arrows", "--base", str(graph_path), "--kind", "clique",
             "-k", "3", "-r", "2"],
            ["ramsey", "--kind", "clique", "-k", "3", "-r", "2", "-n", "6"],
            ["vdw", "-k", "3", "-r", "2", "-n", "9"],
            ["extremal", "-n", "5", "-m", "3"],
            ["fact-vdw", "-n", "2000", "-k", "3", "-r", "2", "-W", "9",
             "--random", "2", "--seed", "1"],
            ["fact7", "-n", "5", "-r", "1", "-k", "2", "--ex-low", "6",
             "--ex-high", "5"],
            ["fbounds", "-k", "5", "-r", "2"],
            ["verify", "--graph", str(graph_path)],
        ]
        for argv in invocations:
            code = dispatch(argv + ["--json"])
            blob = json.loads(capsys.readouterr().out)
            assert code == EXIT_OK, argv
            jsonschema.validate(blob, OUTPUT_SCHEMA)
            assert blob["command"] == argv[0]


class TestTrialsCli:
    def args(self, out):
        return ["trials", "--theorem", "ap", "-n", "300", "-k", "3",
                "-g", "4", "--scale-c", "0.5", "--trials", "4", "--seed",
                "11", "--out", str(out)]

    def test_byte_identical_and_schema_valid(self, capsys, tmp_path):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        assert dispatch(self.args(a)) == EXIT_OK
        assert dispatch(self.args(b)) == EXIT_OK
        capsys.readouterr()
        assert a.read_bytes() == b.read_bytes()
        lines = a.read_text().splitlines()
        assert len(lines) == 5
        for line in lines:
            jsonschema.validate(json.loads(line), RECORD_SCHEMA)

    @pytest.mark.parametrize("flags", [["--scale-c", "100"], ["-p", "2"],
                                       ["-p", "-0.5"]])
    def test_probability_outside_unit_interval_exits_1(self, capsys,
                                                       tmp_path, flags):
        out = tmp_path / "r.jsonl"
        code = dispatch(["trials", "--theorem", "ap", "-n", "100", "-k", "3",
                         *flags, "--trials", "2", "--seed", "1",
                         "--out", str(out)])
        captured = capsys.readouterr()
        assert code == EXIT_ERROR
        assert captured.out == ""
        assert "probability must lie in [0, 1]" in captured.err
        assert not out.exists()

    def test_out_text_echoes_config_and_seed(self, capsys, tmp_path):
        out = tmp_path / "r.jsonl"
        assert dispatch(self.args(out)) == EXIT_OK
        text = capsys.readouterr().out
        assert "computed: seeded experiment batch" in text
        config = next(ln for ln in text.splitlines()
                      if ln.startswith("config: "))
        assert "seed=11" in config.split() and "theorem=ap" in config.split()
        assert f"  wrote 5 records to {out}" in text.splitlines()

    def test_verify_records_roundtrip(self, capsys, tmp_path):
        out = tmp_path / "r.jsonl"
        dispatch(self.args(out))
        capsys.readouterr()
        code = dispatch(["verify", "--records", str(out), "--json"])
        blob = json.loads(capsys.readouterr().out)
        assert code == EXIT_OK
        assert blob["result"]["identical"] is True

    def test_verify_detects_tampering(self, capsys, tmp_path):
        out = tmp_path / "r.jsonl"
        dispatch(self.args(out))
        capsys.readouterr()
        lines = out.read_text().splitlines()
        tampered = json.loads(lines[1])
        tampered["sample_size"] = 10**6
        lines[1] = json.dumps(tampered, sort_keys=True,
                              separators=(",", ":"))
        out.write_text("\n".join(lines) + "\n")
        code = dispatch(["verify", "--records", str(out), "--json"])
        blob = json.loads(capsys.readouterr().out)
        assert code == EXIT_ERROR
        assert blob["result"]["identical"] is False

    def verify_first_line(self, capsys, tmp_path, first: str) -> str:
        out = tmp_path / "r.jsonl"
        dispatch(self.args(out))
        capsys.readouterr()
        lines = out.read_text().splitlines()
        out.write_text("\n".join(["", first] + lines[1:]) + "\n")
        assert dispatch(["verify", "--records", str(out)]) == EXIT_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        return captured.err.removeprefix(f"error: {out}:2: ")

    def test_verify_rejects_a_non_json_record(self, capsys, tmp_path):
        err = self.verify_first_line(capsys, tmp_path, "{not json")
        assert err.startswith("malformed record: Expecting property name")

    def test_verify_rejects_a_record_without_config(self, capsys, tmp_path):
        err = self.verify_first_line(capsys, tmp_path, '{"type": "trial"}')
        assert err == "record has no 'config' field\n"

    @pytest.mark.parametrize("key,value,message", [
        ("g", 1, "need g >= 2 and r >= 1, got g=1 and r=2"),
        ("r", 0, "need g >= 2 and r >= 1, got g=4 and r=0"),
    ])
    def test_verify_rejects_a_config_the_batch_refuses(self, capsys, tmp_path,
                                                       key, value, message):
        out = tmp_path / "r.jsonl"
        dispatch(self.args(out))
        capsys.readouterr()
        record = json.loads(out.read_text().splitlines()[0])
        record["config"][key] = value
        err = self.verify_first_line(capsys, tmp_path, json.dumps(record))
        assert err == f"malformed record: {message}\n"

    def test_verify_rejects_a_config_without_an_echo_key(self, capsys,
                                                         tmp_path):
        first = json.dumps({"config": {"theorem": "ap", "k": 3}})
        err = self.verify_first_line(capsys, tmp_path, first)
        assert err == "record has no 'n' field\n"

    def test_verify_graph_file(self, capsys, tmp_path):
        path = tmp_path / "p.graph"
        write_graph(petersen(), path)
        code = dispatch(["verify", "--graph", str(path), "--json"])
        blob = json.loads(capsys.readouterr().out)
        assert code == EXIT_OK
        assert blob["result"]["canonical"] is True
        assert blob["result"]["girth"] == 5
        # a blank line between edges still parses but is not canonical
        header, first, *rest = path.read_text().splitlines(keepends=True)
        path.write_text("".join([header, first, "\n", *rest]))
        code = dispatch(["verify", "--graph", str(path), "--json"])
        blob = json.loads(capsys.readouterr().out)
        assert code == EXIT_ERROR
        assert blob["result"] == {"parses": True, "canonical": False,
                                  "girth": 5}


class TestSchemas:
    def test_packaged_copy_matches_published(self):
        import ramseykit

        pkg_dir = Path(ramseykit.__file__).parent / "schemas"
        for name in ("record-v1.json", "output-v1.json"):
            assert (pkg_dir / name).read_bytes() == \
                (SCHEMA_DIR / name).read_bytes()
