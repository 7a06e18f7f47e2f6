"""Golden CLI envelopes of the budgeted search commands, byte for byte.

Each line of tests/golden/cli_budget.jsonl holds one command's argv, its
exit code and its `--json` envelope.  The commands cover every search the
budget flags reach, each with and without a node limit, so a change to how
a budget is honoured (node counts, verdicts, witnesses, exit codes) fails
here.  Wall-clock budgets are left out: their outcome depends on timing.
If a change is deliberate, regenerate with
`PYTHONPATH=src python tests/test_cli_golden.py` and say why in CHANGES.md.
"""

from __future__ import annotations

import contextlib
import io
import json
from pathlib import Path

from ramseykit.cli import dispatch

FIXTURE = Path(__file__).with_name("golden") / "cli_budget.jsonl"

COMMANDS = [
    ["vdw", "-k", "3", "-r", "2"],
    ["vdw", "-k", "3", "-r", "2", "--budget-nodes", "100"],
    ["vdw", "-k", "3", "-r", "2", "-n", "8"],
    ["vdw", "-k", "3", "-r", "2", "-n", "9"],
    ["vdw", "-k", "3", "-r", "2", "-n", "9", "--budget-nodes", "10"],
    ["ramsey", "--kind", "clique", "-k", "3", "-r", "2"],
    ["ramsey", "--kind", "clique", "-k", "3", "-r", "2", "--budget-nodes",
     "50"],
    ["ramsey", "--kind", "clique", "-k", "3", "-r", "3", "--budget-nodes",
     "10"],
    ["ramsey", "--kind", "cycle", "-k", "4", "-r", "2"],
    ["ramsey", "--kind", "clique", "-k", "2", "-r", "3"],
    ["ramsey", "--kind", "clique", "-k", "3", "-r", "2", "-n", "5"],
    ["ramsey", "--kind", "clique", "-k", "3", "-r", "2", "-n", "6"],
    ["ramsey", "--kind", "clique", "-k", "3", "-r", "2", "-n", "6",
     "--budget-nodes", "20"],
    ["ramsey", "--kind", "clique", "-k", "2", "-r", "2", "-n", "1"],
    ["extremal", "-n", "7", "-m", "4"],
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


def render() -> str:
    lines = []
    for argv in COMMANDS:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = dispatch(argv + ["--json"])
        lines.append(json.dumps({"argv": argv, "exit": code,
                                 "envelope": json.loads(out.getvalue())},
                                sort_keys=True))
    return "\n".join(lines) + "\n"


def test_envelopes_match_golden():
    assert render() == FIXTURE.read_text()


if __name__ == "__main__":
    FIXTURE.parent.mkdir(exist_ok=True)
    FIXTURE.write_text(render())
