"""Seeded optimizer digests: one sha256 per case over a fixed set of 56 trials.

    python3 scripts/seeded_digest.py [--src DIR]

Each trial draws its reference grid from ``trial_rng(0, t)`` exactly as
``pslwave optimize`` does and runs ``optimize`` on it.  A case's digest
covers, per trial, the optimized grid's bytes, ``eta_trace``,
``psl_db_before``, ``psl_db_after`` and ``stop_reason``.  Two source trees
whose printed digests agree give bit-identical seeded optimizer outputs on
these cases.  Next to each digest the case's quality is printed: the median
PSL gain (``psl_db_before - psl_db_after``, dB), the share of trials that
gain at least 3 dB, and the median iteration count, so a change that alters
digests by design shows what it did to the results.  ``--src`` names the
directory holding the ``pslwave`` package (default: this checkout's
``src/``).
"""

from __future__ import annotations

import argparse
import hashlib
import sys
from pathlib import Path

import numpy as np

SRC = Path(__file__).resolve().parent.parent / "src"

# (case name, ExperimentConfig overrides, trials)
CASES = (
    ("default", {}, 20),
    ("qam16-64x2", {"family": "qam", "order": 16, "n_subcarriers": 64, "n_antennas": 2,
                    "n_cp": 16}, 6),
    ("m1", {"n_antennas": 1}, 6),
    ("m8", {"n_antennas": 8}, 6),
    ("p2-n64", {"p": 2, "n_subcarriers": 64, "n_cp": 16}, 6),
    ("p8", {"p": 8}, 6),
    ("unused0", {"unused_fraction": 0.0}, 6),
)


def case_digest(
    config, constellation, optimizer, overrides: dict, trials: int
) -> tuple[str, np.ndarray, np.ndarray]:
    """The case's digest, with the PSL gain (dB) and iteration count of each trial."""
    cfg = config.ExperimentConfig(**overrides)
    spec, w = cfg.constellation(), cfg.lag_weights()
    h = hashlib.sha256()
    gains, iterations = np.empty(trials), np.empty(trials)
    for t in range(trials):
        rng = config.trial_rng(0, t)
        mask = cfg.mask(rng)
        reference, _ = constellation.random_reference_grid(rng, spec, mask)
        rep = optimizer.optimize(reference, spec, mask, w, cfg.optimizer())
        h.update(np.ascontiguousarray(rep.grid.symbols).tobytes())
        h.update(np.asarray(rep.eta_trace, dtype=float).tobytes())
        h.update(np.array([rep.psl_db_before, rep.psl_db_after]).tobytes())
        h.update(rep.stop_reason.encode())
        gains[t], iterations[t] = rep.psl_db_before - rep.psl_db_after, rep.iterations
    return h.hexdigest(), gains, iterations


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", type=Path, default=SRC, help="directory holding pslwave")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(args.src.resolve()))
    from pslwave import config, constellation, optimizer

    print(f"{'case':<12} {'n':>2} {'sha256':<64} {'gain_dB':>7} {'>=3dB':>5} {'iter':>4}")
    for name, overrides, trials in CASES:
        digest, gains, iterations = case_digest(config, constellation, optimizer, overrides, trials)
        print(f"{name:<12} {trials:>2} {digest} {np.median(gains):7.2f}"
              f" {np.mean(gains >= 3.0):5.0%} {np.median(iterations):4.1f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
