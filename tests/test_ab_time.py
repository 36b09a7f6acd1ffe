"""Smoke test of ``scripts/ab_time.py``, the in-process A/B timing of two trees."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SCRIPTS = ROOT / "scripts"

# the script's block counts are fixed; this run shrinks them to two pairs of one
# trial by setting the module constants before main
RUN = (
    "import sys; sys.path.insert(0, sys.argv[1]); import ab_time; "
    "ab_time.BLOCKS, ab_time.TRIALS = 2, 1; "
    "raise SystemExit(ab_time.main(sys.argv[2:]))"
)


def test_a_tree_against_itself():
    proc = subprocess.run(
        [sys.executable, "-c", RUN, str(SCRIPTS), "--against", str(ROOT / "src")],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0].split()[:3] == ["side", "min_us", "median_us"]
    for line, side in zip(lines[1:3], ("this", "against")):
        name, low, mid, _ = line.split()
        assert name == side
        assert 0.0 < float(low) <= float(mid)
    assert lines[3].startswith("median paired ratio (this / against): ")
    assert "over 2 pairs of 1 trials" in lines[3]

