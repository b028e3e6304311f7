"""Golden certificate cores: every statement on every group of order 1..16,
at witness caps 0 and 16 and one job, one canonical `core()` per line of
`golden_cores.jsonl`.  A refactor of the search must leave every line
byte-identical.  Regenerate the file only for a change that is meant to
alter certificates, and say which lines moved and why:

    PYTHONPATH=src python tests/test_golden_cores.py > tests/golden_cores.jsonl

Past order 16 the cores are pinned by one sha256, of the `sweep` cores at
witness caps 0, 1 and 16 up to the bench's own orders: prop3.2, thm1 and
thm5 on orders 1..28, lemma2-search on 3..28 and thm4 on even orders
12..48.  `python tests/test_golden_cores.py --digest` prints it.
"""

import hashlib
import json
import sys
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


DIGEST_RUNS = (("prop3.2", range(1, 29)), ("thm1", range(1, 29)), ("thm5", range(1, 29)),
               ("lemma2-search", range(3, 29)), ("thm4", range(12, 49, 2)))
CORES_SHA256 = "6e78563d426461bedeb4a320e1f5e3257bab7848e382fb02a52b3e9f8ee4b561"


def digest_lines() -> list[str]:
    return [
        json.dumps(v.core(), sort_keys=True)
        for cap in (0, 1, 16)
        for statement, orders in DIGEST_RUNS
        for v in sweep(statement, orders, witness_cap=cap, budget=64)
    ]


def test_sweep_cores_digest_is_unchanged():
    lines = digest_lines()
    assert len(lines) == 534
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == CORES_SHA256


if __name__ == "__main__":
    if sys.argv[1:] == ["--digest"]:
        print(hashlib.sha256("\n".join(digest_lines()).encode()).hexdigest())
    else:
        print("\n".join(golden_lines()))
