"""Golden CLI outputs, byte for byte.

Each line of tests/golden/cli_budget.jsonl holds one command's argv, its
exit code and its `--json` envelope.  The commands cover every search the
budget flags reach, each with and without a node limit, so a change to how
a budget is honoured (node counts, verdicts, witnesses, exit codes) fails
here.  Wall-clock budgets are left out: their outcome depends on timing.

Each line of tests/golden/cli_commands.jsonl holds one command's argv, its
exit code and `--json` envelope, and its exit code and stdout in text
mode.  These commands cover the rest of the surface: every `params`
theorem, `fbounds`, `cycles`, seeded `sample` and `fact-vdw`, and the
commands that read a graph or colour file, which are written under fixed
relative names in a temporary working directory.

If a change is deliberate, regenerate with
`PYTHONPATH=src python tests/test_cli_golden.py` and say why in CHANGES.md.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import tempfile
from pathlib import Path

from ramseykit.cli import dispatch

FIXTURE = Path(__file__).with_name("golden") / "cli_budget.jsonl"
COMMANDS_FIXTURE = Path(__file__).with_name("golden") / "cli_commands.jsonl"

COMMANDS = [
    ["vdw", "-k", "3", "-r", "2"],
    ["vdw", "-k", "3", "-r", "2", "--budget-nodes", "100"],
    ["vdw", "-k", "3", "-r", "2", "--budget-nodes", "50"],
    ["vdw", "-k", "3", "-r", "2", "-n", "8"],
    ["vdw", "-k", "3", "-r", "2", "-n", "9"],
    ["vdw", "-k", "3", "-r", "2", "-n", "9", "--budget-nodes", "10"],
    ["ramsey", "--kind", "clique", "-k", "3", "-r", "2"],
    ["ramsey", "--kind", "clique", "-k", "3", "-r", "2", "--budget-nodes",
     "50"],
    ["ramsey", "--kind", "clique", "-k", "3", "-r", "3", "--budget-nodes",
     "10"],
    ["ramsey", "--kind", "clique", "-k", "3", "-r", "3", "-n", "16",
     "--budget-nodes", "300000"],
    ["ramsey", "--kind", "cycle", "-k", "4", "-r", "2"],
    ["ramsey", "--kind", "clique", "-k", "2", "-r", "3"],
    ["ramsey", "--kind", "clique", "-k", "3", "-r", "2", "-n", "5"],
    ["ramsey", "--kind", "clique", "-k", "3", "-r", "2", "-n", "6"],
    ["ramsey", "--kind", "clique", "-k", "3", "-r", "2", "-n", "6",
     "--budget-nodes", "20"],
    ["ramsey", "--kind", "clique", "-k", "2", "-r", "2", "-n", "1"],
    ["extremal", "-n", "7", "-m", "4"],
    ["extremal", "-n", "10", "-m", "4"],
    ["extremal", "-n", "8", "-m", "4", "--budget-nodes", "5"],
    ["extremal", "-n", "9", "-m", "4", "--budget-nodes", "1000"],
    ["fact7", "-n", "5", "-r", "1", "-k", "2", "--search"],
    ["fact7", "-n", "9", "-r", "2", "-k", "2", "--search", "--budget-nodes",
     "5"],
    ["fact7", "-n", "6", "-r", "1", "-k", "2", "--search", "--budget-nodes",
     "300"],
    ["colour", "--ap", "8", "-k", "3", "-r", "2"],
    ["colour", "--ap", "9", "-k", "3", "-r", "2"],
    ["colour", "--ap", "9", "-k", "3", "-r", "2", "--budget-nodes", "10"],
    ["arrows", "--ap", "8", "-k", "3", "-r", "2"],
    ["arrows", "--ap", "9", "-k", "3", "-r", "2"],
    ["arrows", "--ap", "9", "-k", "3", "-r", "2", "--budget-nodes", "10"],
    ["fbounds", "-k", "4", "-r", "2", "--search-R"],
    ["fbounds", "-k", "4", "-r", "2", "--search-R", "--budget-nodes", "40"],
]


# the files the commands below read, relative to their working directory
FILES = {
    "cycle.graph": "6 7\n0 1\n0 3\n0 5\n1 2\n2 3\n3 4\n4 5\n",
    "tree.graph": "4 3\n0 1\n1 2\n1 3\n",
    "loose.graph": "4 3\n0 1\n\n1 2\n1 3\n",
    "colours.txt": " ".join(str(i * i % 7 % 3 + 1) for i in range(1, 301))
    + "\n",
}

TEXT_COMMANDS = [
    ["params", "--theorem", "cycles", "-k", "4", "-r", "2", "-R", "6"],
    ["params", "--theorem", "cycles", "-k", "4", "-r", "2", "-R", "6",
     "--container-check"],
    ["params", "--theorem", "ap", "-k", "3", "-r", "2", "-g", "5", "-W", "9"],
    ["params", "--theorem", "cliques", "-k", "3", "-r", "2", "-g", "4", "-R",
     "6"],
    ["fbounds", "-k", "6", "-r", "2", "-R", "8"],
    ["fbounds", "-k", "5", "-r", "2", "-R", "9"],
    ["cycles", "--ap", "20", "-k", "3", "-g", "4"],
    ["sample", "--kind", "gnp", "-n", "12", "-p", "0.3", "--seed", "5"],
    ["sample", "--kind", "subset", "-n", "30", "-p", "0.4", "--seed", "5"],
    ["sample", "--kind", "girth-rejection", "-n", "12", "-p", "0.15", "-k",
     "4", "--seed", "5", "--max-tries", "50"],
    ["sample", "--kind", "girth-rejection", "-n", "30", "-p", "0.5", "-k",
     "5", "--seed", "5", "--max-tries", "3"],
    ["fact-vdw", "-n", "300", "-k", "3", "-r", "2", "-W", "9", "--random",
     "5", "--seed", "3"],
    ["fact-vdw", "-n", "300", "-k", "3", "-r", "2", "-W", "9",
     "--colouring", "colours.txt"],
    ["girth", "cycle.graph"],
    ["girth", "tree.graph"],
    ["verify", "--graph", "cycle.graph"],
    ["verify", "--graph", "loose.graph"],
]


def _run(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = dispatch(argv)
    return code, out.getvalue()


def render() -> str:
    lines = []
    for argv in COMMANDS:
        code, out = _run(argv + ["--json"])
        lines.append(json.dumps({"argv": argv, "exit": code,
                                 "envelope": json.loads(out)},
                                sort_keys=True))
    return "\n".join(lines) + "\n"


def render_commands() -> str:
    lines = []
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as workdir:
        os.chdir(workdir)
        try:
            for name, text in FILES.items():
                Path(name).write_text(text, encoding="ascii")
            for argv in TEXT_COMMANDS:
                code, out = _run(argv + ["--json"])
                text_code, text = _run(argv)
                lines.append(json.dumps(
                    {"argv": argv, "exit": code,
                     "envelope": json.loads(out),
                     "text": {"exit": text_code, "stdout": text}},
                    sort_keys=True))
        finally:
            os.chdir(cwd)
    return "\n".join(lines) + "\n"


def test_envelopes_match_golden():
    assert render() == FIXTURE.read_text()


def test_commands_match_golden():
    assert render_commands() == COMMANDS_FIXTURE.read_text()


if __name__ == "__main__":
    FIXTURE.parent.mkdir(exist_ok=True)
    FIXTURE.write_text(render())
    COMMANDS_FIXTURE.write_text(render_commands())
