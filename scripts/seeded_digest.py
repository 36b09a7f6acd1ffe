"""Seeded optimizer, detection and BER digests: one sha256 per row.

    python3 scripts/seeded_digest.py [--src DIR] [--against DIR] [--trials N]

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

Two more rows follow, over the pairs of the ``default`` case (reference
grid, optimized grid), as the ``evaluate`` benchmark workload sweeps them
with seed 0:

* ``sense``: the hit count of one ``detection_campaign`` trial per pair,
  sensing SNR and arm, each from ``SeedSequence(0, spawn_key=(j, si))``
  for pair j and SNR index si;
* ``ber``: the bit-error count per pair, BER SNR and arm of one
  ``ber_campaign`` per pair, from ``SeedSequence(0, spawn_key=(j, 10**6))``.

Their digest covers the counts as int64.

``--against DIR`` runs the same trials with the ``pslwave`` package under
``DIR`` as well (both trees are imported side by side in one process) and
prints, per case, the largest entrywise |grid difference|, the largest
|difference of psl_db_after| (dB) and the number of trials whose iteration
count and stop reason agree; for ``sense`` and ``ber``, the number of
counts that agree.  It then exits 1 when any row differs (a nonzero grid
or PSL difference, an iteration count or stop reason that disagrees, or a
count that disagrees), naming those rows on stderr, and 0 when every row is
identical.  A change that is not bit-identical states its tolerance with
this one command.  ``--trials N`` runs N trials in every case
instead of the case's fixed count; the digests then cover those trials.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import importlib.util
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
    # N not a power of two: the N**2-scaled IFFT and N-scaled FFT round inexactly here
    ("n96", {"n_subcarriers": 96, "n_cp": 24}, 6),
)
# the SNR grids of the evaluate workload (perfbench/workloads.py)
SENSE_SNR_DB = tuple(float(s) for s in np.arange(-8.0, 2.5, 1.0))
BER_SNR_DB = tuple(float(s) for s in np.arange(16.0, 36.5, 2.0))


def load_package(src: Path, name: str):
    """Import the ``pslwave`` package under ``src`` as the top-level package ``name``.

    The package imports its own modules relatively, so two source trees load
    side by side under two names.
    """
    init = src.resolve() / "pslwave" / "__init__.py"
    if not init.is_file():
        raise SystemExit(f"no pslwave package under {src}")
    spec = importlib.util.spec_from_file_location(
        name, init, submodule_search_locations=[str(init.parent)]
    )
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    return package


def run_case(package: str, overrides: dict, trials: int) -> list[tuple]:
    """(mask, reference grid, bits, ``OptimizationReport``) of each seeded trial of one case."""
    config = importlib.import_module(f"{package}.config")
    constellation = importlib.import_module(f"{package}.constellation")
    optimizer = importlib.import_module(f"{package}.optimizer")
    cfg = config.ExperimentConfig(**overrides)
    spec, w = cfg.constellation(), cfg.lag_weights()
    out = []
    for t in range(trials):
        rng = config.trial_rng(0, t)
        mask = cfg.mask(rng)
        reference, bits = constellation.random_reference_grid(rng, spec, mask)
        out.append((mask, reference, bits, optimizer.optimize(reference, spec, mask, w,
                                                              cfg.optimizer())))
    return out


def stream(*key: int) -> np.random.Generator:
    """The stream of spawn key ``key`` under seed 0."""
    return np.random.default_rng(np.random.SeedSequence(0, spawn_key=key))


def sense_counts(package: str, trials: list[tuple]) -> np.ndarray:
    """Hit counts, (pair, sensing SNR, arm), of default-point pairs."""
    config = importlib.import_module(f"{package}.config")
    sensing = importlib.import_module(f"{package}.sensing")
    cfg = config.ExperimentConfig()
    cfar = cfg.cfar()
    counts = np.zeros((len(trials), len(SENSE_SNR_DB), 2), dtype=np.int64)
    for j, (_, reference, _, report) in enumerate(trials):
        for si, snr_db in enumerate(SENSE_SNR_DB):
            for ai, grid in enumerate((reference, report.grid)):
                dp = sensing.detection_campaign([grid], snr_db, cfar, stream(j, si),
                                                n_targets=cfg.n_targets)
                counts[j, si, ai] = round(dp * cfg.n_targets)
    return counts


def ber_counts(package: str, trials: list[tuple]) -> np.ndarray:
    """Bit-error counts, (pair, BER SNR, arm), of default-point pairs."""
    config = importlib.import_module(f"{package}.config")
    comms = importlib.import_module(f"{package}.comms")
    cfg = config.ExperimentConfig()
    spec = cfg.constellation()
    counts = np.zeros((len(trials), len(BER_SNR_DB), 2), dtype=np.int64)
    for j, (mask, reference, bits, report) in enumerate(trials):
        ber = comms.ber_campaign([(reference, report.grid, bits)], list(BER_SNR_DB), spec,
                                 mask, stream(j, 10**6), n_rx=cfg.n_rx)
        for ai, arm in enumerate(("original", "optimized")):
            counts[j, :, ai] = np.round(ber[arm] * bits.size)
    return counts


def digest(reports: list) -> str:
    h = hashlib.sha256()
    for rep in reports:
        h.update(np.ascontiguousarray(rep.grid.symbols).tobytes())
        h.update(np.asarray(rep.eta_trace, dtype=float).tobytes())
        h.update(np.array([rep.psl_db_before, rep.psl_db_after]).tobytes())
        h.update(rep.stop_reason.encode())
    return h.hexdigest()


def difference(a: list, b: list) -> tuple[float, float, int]:
    """Max |grid difference|, max |psl_db_after difference| (dB) and the number
    of trials whose iteration count and stop reason agree."""
    d_grid = max(float(np.max(np.abs(x.grid.symbols - y.grid.symbols))) for x, y in zip(a, b))
    # equal values (an -inf PSL on both sides included) differ by 0
    d_psl = max(
        0.0 if x.psl_db_after == y.psl_db_after else abs(x.psl_db_after - y.psl_db_after)
        for x, y in zip(a, b)
    )
    same = sum(
        (x.iterations, x.stop_reason) == (y.iterations, y.stop_reason) for x, y in zip(a, b)
    )
    return d_grid, d_psl, same


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", type=Path, default=SRC, help="directory holding pslwave")
    parser.add_argument("--against", type=Path, default=None,
                        help="directory holding another pslwave to compare with")
    parser.add_argument("--trials", type=int, default=None,
                        help="trials per case (default: each case's own count)")
    args = parser.parse_args(argv)
    if args.trials is not None and args.trials < 1:
        parser.error("--trials must be >= 1")
    load_package(args.src, "pslwave")
    if args.against is not None:
        load_package(args.against, "pslwave_against")

    head = f"{'case':<12} {'n':>2} {'sha256':<64} {'gain_dB':>7} {'>=3dB':>5} {'iter':>4}"
    if args.against is not None:
        head += f" {'max|dgrid|':>10} {'max|dpsl|dB':>11} {'same_iter_stop':>14}"
    print(head)
    pairs = {}  # the default case's trials, per package
    differ = []  # names of the rows that differ from --against
    for name, overrides, trials in CASES:
        trials = args.trials or trials
        out = run_case("pslwave", overrides, trials)
        reports = [r for *_, r in out]
        gains = np.array([r.psl_db_before - r.psl_db_after for r in reports])
        iterations = np.array([r.iterations for r in reports])
        line = (f"{name:<12} {trials:>2} {digest(reports)} {np.median(gains):7.2f}"
                f" {np.mean(gains >= 3.0):5.0%} {np.median(iterations):4.1f}")
        if name == "default":
            pairs["pslwave"] = out
        if args.against is not None:
            other = run_case("pslwave_against", overrides, trials)
            d_grid, d_psl, same = difference(reports, [r for *_, r in other])
            line += f" {d_grid:10.1e} {d_psl:11.1e} {f'{same}/{trials}':>14}"
            if d_grid != 0.0 or d_psl != 0.0 or same < trials:
                differ.append(name)
            if name == "default":
                pairs["pslwave_against"] = other
        print(line)
    for name, counts in (("sense", sense_counts), ("ber", ber_counts)):
        mine = counts("pslwave", pairs["pslwave"])
        sha = hashlib.sha256(mine.tobytes()).hexdigest()
        line = f"{name:<12} {mine.shape[0]:>2} {sha} {'-':>7} {'-':>5} {'-':>4}"
        if args.against is not None:
            same = int(np.count_nonzero(mine == counts("pslwave_against", pairs["pslwave_against"])))
            line += f" {'-':>10} {'-':>11} {f'{same}/{mine.size}':>14}"
            if same < mine.size:
                differ.append(name)
        print(line)
    if differ:
        print(f"rows that differ from {args.against}: {', '.join(differ)}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
