import json
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
    write_graph,
    write_hypergraph,
)

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
