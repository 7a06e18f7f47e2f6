"""Golden trial records: one small seeded batch per theorem, byte for byte.

The fixtures under tests/golden/ pin the PRNG stream, the census, the
deletion order, the girth verdicts and the record layout.  A change that
moves any record byte fails here; if the change is deliberate, regenerate
with `PYTHONPATH=src python tests/test_golden.py` and say why in CHANGES.md.
"""

from __future__ import annotations

import io
import json
from pathlib import Path

import pytest

from ramseykit import TrialConfig, run_trials, write_records

GOLDEN = Path(__file__).with_name("golden")

CONFIGS = {
    "cycles": dict(theorem="cycles", n=30, k=4, g=5, p=0.08, seed=3,
                   trials=4, search_budget=2000, r=2),
    "ap": dict(theorem="ap", n=1000, k=3, g=5, scale_c=2.0, seed=21,
               trials=5, search_budget=2000, r=2),
    "cliques": dict(theorem="cliques", n=20, k=3, g=4, p=0.4, seed=5,
                    trials=4, search_budget=2000, r=2),
    # the heaviest census of the benchmark: 8,256 cycles, 19 deletions
    "ap_dense": dict(theorem="ap", n=150, k=3, g=5, p=0.3, deletion_cap=150,
                     search_budget=500, seed=1, trials=1),
}


def render(theorem: str) -> str:
    buf = io.StringIO()
    write_records(run_trials(TrialConfig(**CONFIGS[theorem])), buf)
    return buf.getvalue()


@pytest.mark.parametrize("theorem", sorted(CONFIGS))
def test_records_match_golden(theorem):
    expected = (GOLDEN / f"trials_{theorem}.jsonl").read_text()
    assert render(theorem) == expected


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for name in CONFIGS:
        text = render(name)
        if name in ("ap", "cliques"):  # each deletion outcome stays pinned
            statuses = {json.loads(line).get("deletion_status")
                        for line in text.splitlines()}
            assert {"ok", "cap-exceeded"} <= statuses, (name, statuses)
        (GOLDEN / f"trials_{name}.jsonl").write_text(text)
