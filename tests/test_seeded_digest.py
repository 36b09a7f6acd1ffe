"""Smoke tests of ``scripts/seeded_digest.py``, the seeded-output comparison
that a change which is not bit-identical states its tolerance with."""

import re
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SCRIPT = ROOT / "scripts" / "seeded_digest.py"
N_CASES = 8
# the sense and ber rows: 11 SNR points x 2 arms of counts per pair
COUNT_ROWS = {"sense": 22, "ber": 22}


def run_digest(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(SCRIPT), *args],
                          capture_output=True, text=True, timeout=300)


def case_rows(stdout: str) -> list[str]:
    return stdout.splitlines()[1:]


def test_one_digest_per_case():
    proc = run_digest("--trials", "1")
    assert proc.returncode == 0, proc.stderr
    rows = case_rows(proc.stdout)
    assert len(rows) == N_CASES + len(COUNT_ROWS)
    assert [row.split()[0] for row in rows[N_CASES:]] == list(COUNT_ROWS)
    for row in rows:
        assert re.search(r"\b[0-9a-f]{64}\b", row), row


def test_a_tree_against_itself_differs_by_nothing():
    proc = run_digest("--against", str(ROOT / "src"), "--trials", "1")
    assert proc.returncode == 0, proc.stderr
    rows = case_rows(proc.stdout)
    assert len(rows) == N_CASES + len(COUNT_ROWS)
    for row in rows[:N_CASES]:
        assert row.split()[-3:] == ["0.0e+00", "0.0e+00", "1/1"], row
    for row, (name, n_counts) in zip(rows[N_CASES:], COUNT_ROWS.items()):
        assert row.split()[0] == name
        assert row.split()[-1] == f"{n_counts}/{n_counts}", row


def test_a_changed_tree_exits_1(tmp_path):
    # a copy of src/ whose MM step goes along another shift changes the seeded grids
    shutil.copytree(ROOT / "src" / "pslwave", tmp_path / "pslwave",
                    ignore=shutil.ignore_patterns("__pycache__"))
    optimizer = tmp_path / "pslwave" / "optimizer.py"
    text = optimizer.read_text()
    assert text.count("\nSTEP_C = 5.0\n") == 1
    optimizer.write_text(text.replace("\nSTEP_C = 5.0\n", "\nSTEP_C = 4.0\n"))
    proc = run_digest("--against", str(tmp_path), "--trials", "1")
    assert proc.returncode == 1, proc.stderr
    rows = case_rows(proc.stdout)
    assert len(rows) == N_CASES + len(COUNT_ROWS)
    assert rows[0].split()[-3] != "0.0e+00", rows[0]
    assert "default" in proc.stderr


def test_zero_trials_is_a_usage_error():
    proc = run_digest("--trials", "0")
    assert proc.returncode == 2
    assert "--trials must be >= 1" in proc.stderr
