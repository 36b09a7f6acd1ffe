"""Command-line front end: optimize grids, run sensing/BER campaigns, self-verify.

Subcommands
-----------
optimize   per-trial sidelobe optimization; writes a summary CSV and one grid CSV
sense      CFAR detection probability vs sensing SNR for the selected variants
ber        uncoded BER vs SNR, original grid vs its optimized counterpart
verify     dense-matrix and statistical self-checks; exit code 2 on failure

``--variant`` applies to ``optimize`` and ``sense`` only.
Exit codes: 0 success, 1 configuration or usage error, 2 verification failure.
All randomness is keyed by (seed, trial) so any single trial is reproducible
in isolation and results do not depend on the worker count.
"""

from __future__ import annotations

import argparse
import csv
import os
import sys
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from datetime import datetime, timezone

import numpy as np

from . import comms, majorizer, oracle, sensing
from .config import ConfigError, ExperimentConfig, load_config, trial_rng
from .constellation import SubcarrierMask, orthogonal_interleaved_grid, random_reference_grid
from .optimizer import optimize
from .spectrum import LagWeights, SymbolGrid, cyclic_correlations

VARIANTS = ("original", "optimized", "orthogonal")


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = load_config(args.config, _overrides(args))
        try:
            os.makedirs(cfg.out_dir, exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"cannot create output directory {cfg.out_dir!r}: {exc}") from exc
        return args.func(cfg, args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1


class _Parser(argparse.ArgumentParser):
    """Usage errors exit with code 1, like configuration errors (argparse uses 2)."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="pslwave")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, func in (
        ("optimize", _cmd_optimize),
        ("sense", _cmd_sense),
        ("ber", _cmd_ber),
        ("verify", _cmd_verify),
    ):
        p = sub.add_parser(name)
        p.add_argument("--config", default=None, help="INI config file")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--trials", type=int, default=None)
        p.add_argument("--out", default=None, help="output directory")
        p.add_argument("--workers", type=int, default=None)
        p.add_argument(
            "--no-timestamp", action="store_true",
            help="omit the generation-time comment from CSV output",
        )
        if name in ("optimize", "sense"):
            p.add_argument(
                "--variant", choices=VARIANTS, action="append", default=None,
                help="restrict to a variant (repeatable); default depends on the subcommand",
            )
        p.set_defaults(func=func)
    return parser


def _variants(args, default: tuple[str, ...]) -> tuple[str, ...]:
    """The requested --variant values without repeats, in order; ``default`` if none."""
    return tuple(dict.fromkeys(args.variant)) if args.variant else default


def _overrides(args) -> dict:
    over = {
        "seed": args.seed,
        "trials": args.trials,
        "out_dir": args.out,
        "workers": args.workers,
    }
    if args.no_timestamp:
        over["timestamp"] = False
    return over


def _write_csv(cfg: ExperimentConfig, name: str, header: list[str], rows: list[list]) -> str:
    path = os.path.join(cfg.out_dir, name)
    try:
        with open(path, "w", newline="") as fh:
            if cfg.timestamp:
                fh.write(f"# generated {datetime.now(timezone.utc).isoformat()}\n")
            writer = csv.writer(fh)
            writer.writerow(header)
            writer.writerows(rows)
    except OSError as exc:
        raise ConfigError(f"cannot write {path!r}: {exc}") from exc
    return path


def _trial_grids(cfg: ExperimentConfig, trial: int, variants: tuple[str, ...]):
    """Reference/optimized/orthogonal grids (plus bits and mask) for one trial."""
    rng = trial_rng(cfg.seed, trial)
    spec = cfg.constellation()
    mask = cfg.mask(rng)
    reference, bits = random_reference_grid(rng, spec, mask)
    out = {"original": reference}
    report = None
    if "optimized" in variants:
        report = optimize(reference, spec, mask, cfg.lag_weights(), cfg.optimizer())
        out["optimized"] = report.grid
    if "orthogonal" in variants:
        out["orthogonal"] = orthogonal_interleaved_grid(
            rng, spec, cfg.n_subcarriers, cfg.n_antennas
        )
    return out, bits, mask, report


def _map_trials(cfg: ExperimentConfig, worker, payloads: list):
    if cfg.workers > 1:
        with ProcessPoolExecutor(max_workers=cfg.workers) as pool:
            return list(pool.map(worker, payloads))
    return [worker(p) for p in payloads]


def _optimize_trial(payload) -> dict:
    cfg, trial, variants = payload
    grids, _, _, report = _trial_grids(cfg, trial, ("optimized", *variants))
    return {
        "trial": trial,
        "psl_db_before": report.psl_db_before,
        "psl_db_after": report.psl_db_after,
        "iterations": report.iterations,
        "stop_reason": report.stop_reason,
        "grids": {v: grids[v] for v in variants},
    }


def _cmd_optimize(cfg: ExperimentConfig, args) -> int:
    # trial 0 also returns the grids written below
    variants = _variants(args, ("optimized",))
    payloads = [(cfg, t, variants if t == 0 else ()) for t in range(cfg.trials)]
    rows = _map_trials(cfg, _optimize_trial, payloads)
    path = _write_csv(
        cfg,
        "optimize_summary.csv",
        ["trial", "psl_db_before", "psl_db_after", "iterations", "stop_reason"],
        [[r["trial"], f"{r['psl_db_before']:.6f}", f"{r['psl_db_after']:.6f}",
          r["iterations"], r["stop_reason"]] for r in rows],
    )
    gains = [r["psl_db_before"] - r["psl_db_after"] for r in rows]
    print(f"wrote {path}")
    print(f"median PSL gain over {cfg.trials} trials: {np.median(gains):.2f} dB")
    reasons = Counter(r["stop_reason"] for r in rows)
    print(f"trials with a gain >= 3 dB: {np.mean(np.array(gains) >= 3.0):.0%}; stop reasons: "
          + ", ".join(f"{reason} {count}" for reason, count in sorted(reasons.items())))

    for variant, grid in rows[0]["grids"].items():
        cells = [
            [m, n, f"{grid.symbols[n, m].real:.12g}", f"{grid.symbols[n, m].imag:.12g}"]
            for m in range(grid.n_antennas)
            for n in range(grid.n_subcarriers)
        ]
        path = _write_csv(
            cfg, f"grid_{variant}.csv", ["antenna", "subcarrier", "re", "im"], cells
        )
        print(f"wrote {path}")
    return 0


def _sense_trial(payload) -> dict:
    cfg, trial, variants = payload
    grids, _, _, _ = _trial_grids(cfg, trial, variants)
    cfar = cfg.cfar()
    hits = {}
    for si, snr_db in enumerate(cfg.sense_snr_db):
        for variant in variants:
            # identical target and noise stream for every variant of one SNR point
            noise_rng = np.random.default_rng(
                np.random.SeedSequence(cfg.seed, spawn_key=(trial, si))
            )
            hits[(si, variant)] = sensing.detection_campaign(
                [grids[variant]], snr_db, cfar, noise_rng, n_targets=cfg.n_targets
            )
    return hits


def _cmd_sense(cfg: ExperimentConfig, args) -> int:
    variants = _variants(args, VARIANTS)
    results = _map_trials(
        cfg, _sense_trial, [(cfg, t, variants) for t in range(cfg.trials)]
    )
    rows = []
    for si, snr_db in enumerate(cfg.sense_snr_db):
        for variant in variants:
            dp = float(np.mean([r[(si, variant)] for r in results]))
            rows.append([f"{snr_db:.2f}", variant, f"{dp:.6f}", cfg.trials])
    path = _write_csv(cfg, "sense.csv", ["snr_db", "variant", "dp", "trials"], rows)
    print(f"wrote {path}")
    return 0


def _ber_trial(payload) -> dict:
    cfg, trial = payload
    grids, bits, mask, _ = _trial_grids(cfg, trial, ("optimized",))
    rng = np.random.default_rng(np.random.SeedSequence(cfg.seed, spawn_key=(trial, 10**6)))
    ber = comms.ber_campaign(
        [(grids["original"], grids["optimized"], bits)],
        list(cfg.ber_snr_db),
        cfg.constellation(),
        mask,
        rng,
        n_rx=cfg.n_rx,
    )
    return {"ber": ber, "n_bits": bits.size}


def _cmd_ber(cfg: ExperimentConfig, args) -> int:
    if cfg.n_rx < cfg.n_antennas:
        raise ConfigError("zero forcing needs n_rx >= n_antennas")
    results = _map_trials(cfg, _ber_trial, [(cfg, t) for t in range(cfg.trials)])
    total_bits = sum(r["n_bits"] for r in results)
    rows = []
    for si, snr_db in enumerate(cfg.ber_snr_db):
        for variant in ("original", "optimized"):
            errs = sum(r["ber"][variant][si] * r["n_bits"] for r in results)
            rows.append(
                [f"{snr_db:.2f}", variant, f"{cfg.rho:.3f}",
                 f"{errs / total_bits:.8e}", cfg.trials]
            )
    path = _write_csv(cfg, "ber.csv", ["snr_db", "variant", "rho", "ber", "trials"], rows)
    print(f"wrote {path}")
    return 0


def _cmd_verify(cfg: ExperimentConfig, args) -> int:
    failed = False

    def check(name: str, value: float, limit: str, ok: bool) -> None:
        nonlocal failed
        failed |= not ok
        print(f"{'PASS' if ok else 'FAIL'} {name}: {value:.3e} (limit {limit})")

    rng = trial_rng(cfg.seed, 0)
    n, m = 8, 2
    spec = cfg.constellation()
    grid = SymbolGrid(spec.points[rng.integers(0, spec.order, size=(n, m))])
    w = LagWeights(n, 4)
    r = cyclic_correlations(grid)
    slow = oracle.brute_correlations(grid)
    err = np.max(np.abs(r - slow)) / np.max(np.abs(slow))
    check("correlations vs brute-force sum, rel. err", err, "1e-09", err <= 1e-9)

    for p in (2, 4):
        try:
            worst = oracle.majorization_chain_check(grid, w, p, rng, n_trials=25)
        except AssertionError as exc:
            print(f"FAIL majorization chain (p={p}): {exc}")
            failed = True
        else:
            slack = min(worst.values())
            check(f"majorization chain (p={p}), min rel. slack", slack, ">= -1e-09",
                  slack >= -1e-9)

        # fast majorizer against the dense references, in raw (unscaled) units
        x_l = grid.stacked()
        dense = oracle.chain_values(x_l, x_l, slow, w, p)
        coeffs = majorizer.coefficients(r, w, p)
        unscale = coeffs.r_bar ** (p - 2)
        out = majorizer.majorize_direction(grid, w, p)
        fast = {
            "lambda_bar": unscale * majorizer.lambda_bar(coeffs, w),
            "mu_bar": unscale * out.mu_bar,
            "y": unscale * out.y,
        }
        for key, value in fast.items():
            ref = dense[key]
            err = np.max(np.abs(value - ref)) / max(np.max(np.abs(ref)), 1.0)
            check(f"fast {key} vs dense oracle (p={p}), rel. err", err, "1e-08", err <= 1e-8)
        # the optimizer's step constant L must bound the exact mu_bar
        ratio = unscale * out.mu_bound / dense["mu_bar"]
        check(f"step bound L / dense mu_bar (p={p})", ratio, ">= 1 - 1e-12", ratio >= 1 - 1e-12)

    beta = sensing.cfar_threshold_factor(1e-4, 7)
    check("CFAR threshold factor - 13.03", abs(beta - 13.03), "0.01", abs(beta - 13.03) <= 0.01)

    cells = rng.exponential(size=200_000)
    det = sensing.cfar_detect(cells, sensing.CfarConfig(p_fa=1e-2, n_ref=7, n_guard=1))
    rate = det.mean()
    check("empirical false-alarm rate at p_fa = 1e-2", rate, "[5e-3, 2e-2]", 0.5e-2 <= rate <= 2e-2)

    report = optimize(grid, spec, SubcarrierMask.all_used(n, m), w, cfg.optimizer())
    rise = float(np.max(np.diff(report.eta_trace), initial=0.0))
    check("largest rise of the accepted objective", rise, "<= 0", rise <= 0.0)

    if failed:
        return 2
    print("all verification checks passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
