"""In-process A/B timing of optimize trials, detection sweeps and BER campaigns: two trees.

    python3 scripts/ab_time.py --against DIR [--src DIR]

Both ``pslwave`` packages are imported side by side in one process
(``seeded_digest.load_package``).  Four timings run in the same blocks:

* ``optimize``: TRIALS seeded trials at the default point per block, each
  as ``pslwave optimize`` runs it: ``trial_rng(0, t)``, mask, reference
  grid, ``optimize``; block b runs t = b*TRIALS .. (b+1)*TRIALS - 1.
* ``sweep``: SWEEPS detection sweeps per block over one pair, as the
  ``evaluate`` benchmark workload sweeps it: 11 sensing SNRs from -8 to
  2 dB times the arms original, optimized and orthogonal, one
  ``detection_campaign`` each from ``SeedSequence(0, spawn_key=(j, si))``
  for sweep j and SNR index si.
* ``detect``: the same SWEEPS sweeps' 33 ``detection_campaign`` calls, on
  generators built before the timed part of the block, so the row is the
  receiver's own cost without the ``SeedSequence`` / ``default_rng``
  construction that ``sweep`` (and an ``evaluate`` unit) pays per call.
* ``ber``: CAMPAIGNS BER campaigns per block over the same pair, as the
  ``evaluate`` workload runs them: one ``ber_campaign`` of the original and
  optimized arms at 11 BER SNRs from 16 to 36 dB, from
  ``SeedSequence(0, spawn_key=(j, 10**6))`` for campaign j.

The pair is trial 0's reference grid, its optimized grid and an orthogonal
baseline, built by each side's own package before timing, so both halves of
an ``evaluate`` unit are timed in one process.

After one untimed warm-up block per side, the script runs BLOCKS pairs of
blocks; in each block a side runs its optimize trials, its sweeps, its
detection calls, then its BER campaigns.  The side that goes first
alternates from pair to pair.  It prints one row per timing: each side's
min and median time (µs per trial, sweep or campaign) over its blocks, the
median over the pairs of the ratio (this tree / DIR), which is below 1 when
this tree is faster, the number of pairs in which this tree was faster, and
each side's median over its blocks of minor page faults per call
(``getrusage`` ``ru_minflt``; both sides share the process, so each block's
count is its own; ``detect``'s count includes building its generators).

BLAS and OpenMP run one thread, as in ``perfbench/run.py``: the script sets
their thread variables before it imports numpy.

The block counts are fixed.  Both sides share one process and take turns,
so they see the same host state: separate processes on a shared host can
differ by more than the effect being measured.  ``--src`` names the
directory holding this tree's ``pslwave`` (default: this checkout's
``src/``).
"""

from __future__ import annotations

import argparse
import importlib
import os
import resource
from pathlib import Path
from time import perf_counter

# BLAS pinned to one thread, as perfbench/run.py runs it; must precede the numpy import
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402

from seeded_digest import BER_SNR_DB, SENSE_SNR_DB, SRC, load_package  # noqa: E402

# pairs of timed blocks, and optimize trials, detection sweeps and BER campaigns per block
BLOCKS = 40
TRIALS = 100
SWEEPS = 20
CAMPAIGNS = 20
SIDES = ("pslwave", "pslwave_against")


# Each runner ``run(j0, n)`` runs calls j0 .. j0 + n - 1 and returns the seconds of its timed part.


def trial_runner(package: str):
    """A function that runs seeded default trials t0 .. t0 + n - 1 of ``package``."""
    config = importlib.import_module(f"{package}.config")
    constellation = importlib.import_module(f"{package}.constellation")
    optimizer = importlib.import_module(f"{package}.optimizer")
    cfg = config.ExperimentConfig()
    spec, w, opt = cfg.constellation(), cfg.lag_weights(), cfg.optimizer()

    def run(t0: int, n: int) -> float:
        start = perf_counter()
        for t in range(t0, t0 + n):
            rng = config.trial_rng(0, t)
            mask = cfg.mask(rng)
            reference, _ = constellation.random_reference_grid(rng, spec, mask)
            optimizer.optimize(reference, spec, mask, w, opt)
        return perf_counter() - start

    return run


def default_pair(package: str):
    """(config, mask, bits, reference, optimized, orthogonal) of trial 0 at the default point."""
    config = importlib.import_module(f"{package}.config")
    constellation = importlib.import_module(f"{package}.constellation")
    optimizer = importlib.import_module(f"{package}.optimizer")
    cfg = config.ExperimentConfig()
    spec = cfg.constellation()
    rng = config.trial_rng(0, 0)
    mask = cfg.mask(rng)
    reference, bits = constellation.random_reference_grid(rng, spec, mask)
    report = optimizer.optimize(reference, spec, mask, cfg.lag_weights(), cfg.optimizer())
    orthogonal = constellation.orthogonal_interleaved_grid(
        rng, spec, cfg.n_subcarriers, cfg.n_antennas
    )
    return cfg, mask, bits, reference, report.grid, orthogonal


def sweep_runner(package: str):
    """A function that runs detection sweeps j0 .. j0 + n - 1 of ``package`` over one pair."""
    sensing = importlib.import_module(f"{package}.sensing")
    cfg, _, _, *arms = default_pair(package)
    cfar = cfg.cfar()

    def run(j0: int, n: int) -> float:
        start = perf_counter()
        for j in range(j0, j0 + n):
            for si, snr_db in enumerate(SENSE_SNR_DB):
                for grid in arms:
                    rng = np.random.default_rng(np.random.SeedSequence(0, spawn_key=(j, si)))
                    sensing.detection_campaign([grid], snr_db, cfar, rng, n_targets=cfg.n_targets)
        return perf_counter() - start

    return run


def detect_runner(package: str):
    """A function that times only the detection calls of sweeps j0 .. j0 + n - 1 of ``package``."""
    sensing = importlib.import_module(f"{package}.sensing")
    cfg, _, _, *arms = default_pair(package)
    cfar = cfg.cfar()

    def run(j0: int, n: int) -> float:
        calls = [
            (np.random.default_rng(np.random.SeedSequence(0, spawn_key=(j, si))), snr_db, grid)
            for j in range(j0, j0 + n)
            for si, snr_db in enumerate(SENSE_SNR_DB)
            for grid in arms
        ]
        start = perf_counter()
        for rng, snr_db, grid in calls:
            sensing.detection_campaign([grid], snr_db, cfar, rng, n_targets=cfg.n_targets)
        return perf_counter() - start

    return run


def ber_runner(package: str):
    """A function that runs BER campaigns j0 .. j0 + n - 1 of ``package`` over one pair."""
    comms = importlib.import_module(f"{package}.comms")
    cfg, mask, bits, reference, optimized, _ = default_pair(package)
    spec, pairs, snr = cfg.constellation(), [(reference, optimized, bits)], list(BER_SNR_DB)

    def run(j0: int, n: int) -> float:
        start = perf_counter()
        for j in range(j0, j0 + n):
            rng = np.random.default_rng(np.random.SeedSequence(0, spawn_key=(j, 10**6)))
            comms.ber_campaign(pairs, snr, spec, mask, rng, n_rx=cfg.n_rx)
        return perf_counter() - start

    return run


def minor_faults() -> int:
    """Minor page faults of this process so far."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", type=Path, default=SRC, help="directory holding pslwave")
    parser.add_argument("--against", type=Path, required=True,
                        help="directory holding the other pslwave")
    args = parser.parse_args(argv)
    load_package(args.src, SIDES[0])
    load_package(args.against, SIDES[1])
    # per side: (timing name, unit, runner, calls per block)
    timings = [
        [("optimize", "trial", trial_runner(name), TRIALS),
         ("sweep", "sweep", sweep_runner(name), SWEEPS),
         ("detect", "sweep", detect_runner(name), SWEEPS),
         ("ber", "campaign", ber_runner(name), CAMPAIGNS)]
        for name in SIDES
    ]
    for side in timings:
        for _, _, run, count in side:
            run(0, count)
    per_call = np.zeros((len(timings[0]), BLOCKS, 2))  # µs per call, (timing, pair, side)
    faults = np.zeros_like(per_call)  # minor page faults per call
    for b in range(BLOCKS):
        for side in ((0, 1) if b % 2 == 0 else (1, 0)):
            for i, (_, _, run, count) in enumerate(timings[side]):
                flt = minor_faults()
                per_call[i, b, side] = run(b * count, count) / count * 1e6
                faults[i, b, side] = (minor_faults() - flt) / count
    print(f"this:    {args.src}")
    print(f"against: {args.against}")
    print(f"{'timing':<9} {'per':<8} {'this_min':>9} {'this_med':>9} {'vs_min':>9} {'vs_med':>9}"
          f" {'ratio':>6} {'faster':>6} {'this_flt':>8} {'vs_flt':>8}")
    for i, (name, per, _, _) in enumerate(timings[0]):
        this, against = per_call[i, :, 0], per_call[i, :, 1]
        ratio = this / against
        print(f"{name:<9} {per:<8} {this.min():9.1f} {np.median(this):9.1f} {against.min():9.1f}"
              f" {np.median(against):9.1f} {np.median(ratio):6.3f} {int(np.sum(ratio < 1.0)):6d}"
              f" {np.median(faults[i, :, 0]):8.2f} {np.median(faults[i, :, 1]):8.2f}")
    print(f"µs per call; ratio is the median of this / against over {BLOCKS} pairs of blocks"
          f" of {TRIALS} trials, {SWEEPS} sweeps and {CAMPAIGNS} campaigns;"
          f" faster counts the pairs this tree won; flt is each side's median of minor page"
          f" faults per call")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
