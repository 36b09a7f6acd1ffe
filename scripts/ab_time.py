"""In-process A/B timing of default optimize trials: this tree against another.

    python3 scripts/ab_time.py --against DIR [--src DIR]

Both ``pslwave`` packages are imported side by side in one process
(``seeded_digest.load_package``).  After one untimed warm-up block per
side, the script runs BLOCKS pairs of blocks.  In pair b each side runs the
same TRIALS seeded trials at the default point, t = b*TRIALS ..
(b+1)*TRIALS - 1, each as ``pslwave optimize`` runs it: ``trial_rng(0, t)``,
mask, reference grid, ``optimize``.  The side that goes first alternates
from pair to pair.  It prints each side's min and median time per trial
(µs) over its blocks, and the median over the pairs of the ratio
(this tree / DIR), which is below 1 when this tree is faster.

The block counts are fixed.  Both sides share one process and take turns,
so they see the same host state: separate processes on a shared host can
differ by more than the effect being measured.  ``--src`` names the
directory holding this tree's ``pslwave`` (default: this checkout's
``src/``).
"""

from __future__ import annotations

import argparse
import importlib
from pathlib import Path
from time import perf_counter

import numpy as np

from seeded_digest import SRC, load_package

# pairs of timed blocks, and trials per block
BLOCKS = 40
TRIALS = 100
SIDES = ("pslwave", "pslwave_against")


def trial_runner(package: str):
    """A function that runs seeded default trials t0 .. t0 + n - 1 of ``package``."""
    config = importlib.import_module(f"{package}.config")
    constellation = importlib.import_module(f"{package}.constellation")
    optimizer = importlib.import_module(f"{package}.optimizer")
    cfg = config.ExperimentConfig()
    spec, w, opt = cfg.constellation(), cfg.lag_weights(), cfg.optimizer()

    def run(t0: int, n: int) -> None:
        for t in range(t0, t0 + n):
            rng = config.trial_rng(0, t)
            mask = cfg.mask(rng)
            reference, _ = constellation.random_reference_grid(rng, spec, mask)
            optimizer.optimize(reference, spec, mask, w, opt)

    return run


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", type=Path, default=SRC, help="directory holding pslwave")
    parser.add_argument("--against", type=Path, required=True,
                        help="directory holding the other pslwave")
    args = parser.parse_args(argv)
    load_package(args.src, SIDES[0])
    load_package(args.against, SIDES[1])
    runners = [trial_runner(name) for name in SIDES]
    for run in runners:
        run(0, TRIALS)
    per_trial = np.zeros((BLOCKS, 2))  # µs per trial, (pair, side)
    for b in range(BLOCKS):
        for side in ((0, 1) if b % 2 == 0 else (1, 0)):
            start = perf_counter()
            runners[side](b * TRIALS, TRIALS)
            per_trial[b, side] = (perf_counter() - start) / TRIALS * 1e6
    print(f"{'side':<8} {'min_us':>9} {'median_us':>9}  tree")
    for side, tree in enumerate((args.src, args.against)):
        times = per_trial[:, side]
        print(f"{('this', 'against')[side]:<8} {times.min():9.1f} {np.median(times):9.1f}  {tree}")
    ratio = per_trial[:, 0] / per_trial[:, 1]
    print(f"median paired ratio (this / against): {np.median(ratio):.3f} over {BLOCKS} pairs"
          f" of {TRIALS} trials; this faster in {int(np.sum(ratio < 1.0))}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
