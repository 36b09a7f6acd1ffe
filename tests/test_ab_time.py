"""Smoke test of ``scripts/ab_time.py``, the in-process A/B timing of two trees."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SCRIPTS = ROOT / "scripts"

# the script's block counts are fixed; this run shrinks them to two pairs of one
# trial, one sweep and one BER campaign by setting the module constants before main
RUN = (
    "import sys; sys.path.insert(0, sys.argv[1]); import ab_time; "
    "ab_time.BLOCKS, ab_time.TRIALS, ab_time.SWEEPS, ab_time.CAMPAIGNS = 2, 1, 1, 1; "
    "raise SystemExit(ab_time.main(sys.argv[2:]))"
)


def test_a_tree_against_itself():
    proc = subprocess.run(
        [sys.executable, "-c", RUN, str(SCRIPTS), "--against", str(ROOT / "src")],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0].split() == ["this:", str(ROOT / "src")]
    assert lines[1].split() == ["against:", str(ROOT / "src")]
    assert lines[2].split() == [
        "timing", "per", "this_min", "this_med", "vs_min", "vs_med", "ratio", "faster",
        "this_flt", "vs_flt",
    ]
    # one row per timing: optimize trials, the detection sweeps, their detection calls
    # alone, the BER campaigns
    timings = (("optimize", "trial"), ("sweep", "sweep"), ("detect", "sweep"), ("ber", "campaign"))
    assert len(lines) == 3 + len(timings) + 1
    for line, timing in zip(lines[3:7], timings):
        name, per, this_min, this_med, vs_min, vs_med, ratio, faster, this_flt, vs_flt = (
            line.split()
        )
        assert (name, per) == timing
        assert 0.0 < float(this_min) <= float(this_med)
        assert 0.0 < float(vs_min) <= float(vs_med)
        assert float(ratio) > 0.0
        assert 0 <= int(faster) <= 2
        assert float(this_flt) >= 0.0 and float(vs_flt) >= 0.0
    assert "over 2 pairs of blocks of 1 trials, 1 sweeps and 1 campaigns" in lines[7]
    assert "minor page faults per call" in lines[7]


# records the BLAS thread variables at the moment numpy is first imported
PROBE = """
import os, sys
os.environ["OPENBLAS_NUM_THREADS"] = "2"
seen = []
class Watch:
    def find_spec(self, name, path=None, target=None):
        if name == "numpy" and not seen:
            seen.append((os.environ["OPENBLAS_NUM_THREADS"], os.environ["OMP_NUM_THREADS"]))
sys.meta_path.insert(0, Watch())
sys.path.insert(0, sys.argv[1])
import ab_time
print(*seen[0])
"""


def test_blas_runs_one_thread_from_the_numpy_import_on():
    proc = subprocess.run([sys.executable, "-c", PROBE, str(SCRIPTS)],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["1", "1"]
