"""Smoke tests of ``scripts/seeded_digest.py``, the seeded-output comparison
that a change which is not bit-identical states its tolerance with."""

import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SCRIPT = ROOT / "scripts" / "seeded_digest.py"
N_CASES = 7


def run_digest(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(SCRIPT), *args],
                          capture_output=True, text=True, timeout=300)


def case_rows(stdout: str) -> list[str]:
    return stdout.splitlines()[1:]


def test_one_digest_per_case():
    proc = run_digest("--trials", "1")
    assert proc.returncode == 0, proc.stderr
    rows = case_rows(proc.stdout)
    assert len(rows) == N_CASES
    for row in rows:
        assert re.search(r"\b[0-9a-f]{64}\b", row), row


def test_a_tree_against_itself_differs_by_nothing():
    proc = run_digest("--against", str(ROOT / "src"), "--trials", "1")
    assert proc.returncode == 0, proc.stderr
    rows = case_rows(proc.stdout)
    assert len(rows) == N_CASES
    for row in rows:
        assert row.split()[-3:] == ["0.0e+00", "0.0e+00", "1/1"], row


def test_zero_trials_is_a_usage_error():
    proc = run_digest("--trials", "0")
    assert proc.returncode == 2
    assert "--trials must be >= 1" in proc.stderr
