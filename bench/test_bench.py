"""The benchmark's self-test under pytest: `python3 -m pytest bench`."""

import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"


def test_self_test_passes():
    done = subprocess.run([sys.executable, str(RUN), "--self-test"],
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr[-2000:]
    assert done.stdout.strip().endswith("self-test ok")


def test_refuses_to_run_without_sources(tmp_path):
    bench = tmp_path / "bench"
    bench.mkdir()
    for name in ("run.py", "worker.py", "oracle.py"):
        (bench / name).write_text((RUN.parent / name).read_text())
    done = subprocess.run([sys.executable, str(bench / "run.py"), "--workload", "cli-sweep",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""
