from pathlib import Path

from mutants import MUTANTS

ROOT = Path(__file__).resolve().parent.parent


def test_each_mutant_text_occurs_once():
    for m in MUTANTS:
        source = (ROOT / m.file).read_text()
        assert source.count(m.old) == 1, (m.file, m.old)
        assert m.old != m.new and m.check.startswith("tests/"), m


def test_each_mutant_check_exists():
    for check in {m.check for m in MUTANTS}:
        path, name = check.split("::")
        test_file = ROOT / path
        assert test_file.is_file() and f"def {name}(" in test_file.read_text(), check
