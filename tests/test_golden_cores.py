"""Golden certificate cores: every statement on every group of order 1..16,
at witness caps 0 and 16 and one job, one canonical `core()` per line of
`golden_cores.jsonl`.  A refactor of the search must leave every line
byte-identical.  Regenerate the file only for a change that is meant to
alter certificates, and say which lines moved and why:

    PYTHONPATH=src python tests/test_golden_cores.py > tests/golden_cores.jsonl
"""

import json
from pathlib import Path

from groupsums.verify import STATEMENTS, sweep

GOLDEN = Path(__file__).with_name("golden_cores.jsonl")


def golden_lines() -> list[str]:
    return [
        json.dumps(v.core(), sort_keys=True)
        for statement in STATEMENTS
        for cap in (0, 16)
        for v in sweep(statement, range(1, 17), witness_cap=cap)
    ]


def test_golden_cores_are_unchanged():
    want = GOLDEN.read_text().splitlines()
    got = golden_lines()
    assert len(got) == len(want) == 180
    for line, (g, w) in enumerate(zip(got, want), start=1):
        assert g == w, f"{GOLDEN.name} line {line} differs:\n got  {g}\n want {w}"


if __name__ == "__main__":
    print("\n".join(golden_lines()))
