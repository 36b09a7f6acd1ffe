"""The benchmark's workloads.  Each is a closed loop: a trial starts when the previous one returns.

A workload object is built from the seed and offers

* ``setup(rep)``: one repetition of its set-up, timed by the runner;
* ``gate_setup()``: the gate's verdicts on what that repetition produced;
* ``trial(t)``: the timed operation, which returns what the gate needs;
* ``check(out)``: the correctness gate for one trial (untimed), returning
  ``(problems, record)``; only the small record is kept;
* ``summary(records)``: quality and throughput figures of the run.

Inputs derive from the seed only, through ``config.trial_rng`` and
``SeedSequence`` spawn keys, in the same way as the ``pslwave`` command.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

from pslwave import comms, config, constellation, optimizer, sensing

import gate

# small grids used by the smoke test; the sweep grids stay the same
TINY = dict(n_subcarriers=32, n_antennas=2, n_cp=8)

# Sensing SNR grid: the DP = 0.85 crossing sits near -1 dB for both arms at
# the paper's operating point; the grid reaches 7 dB below it so that an
# optimizer that gains the 2-6 dB of acceptance criterion 7 still crosses.
SENSE_SNR_DB = tuple(float(s) for s in np.arange(-8.0, 2.5, 1.0))
# BER grid of acceptance criterion 8; BER 1e-3 is crossed near 25.5 dB.
BER_SNR_DB = tuple(float(s) for s in np.arange(16.0, 36.5, 2.0))
SENSE_ARMS = ("original", "optimized", "orthogonal")
BER_ARMS = ("original", "optimized")
# spawn key of the warm-up grids, outside the range of trial indices
WARMUP_KEY = 10**7
# Pairs evaluated in one timed unit of `evaluate`.  A unit of four pairs
# (about 50 ms) averages out the host's hiccups of tens of milliseconds,
# which made the tail of one-pair units (about 13 ms) unsteady.
PAIRS_PER_UNIT = 4


def optimize_quality(reports) -> dict[str, float]:
    """The quality guard: PSL gain and post-optimization PSL of a set of reports."""
    gains = np.array([r.psl_db_before - r.psl_db_after for r in reports])
    after = np.array([r.psl_db_after for r in reports])
    return {
        "psl_gain_db_p50": float(np.median(gains)),
        "frac_gain_ge_3db": float(np.mean(gains >= 3.0)),
        "psl_db_after_p50": float(np.median(after)),
        "iterations_p50": float(np.median([r.iterations for r in reports])),
        "stop_max_iterations_share": float(
            np.mean([r.stop_reason == "max_iterations" for r in reports])
        ),
    }


class _Optimized:
    """Quality summary of an optimize report; the grids are not kept."""

    __slots__ = ("psl_db_before", "psl_db_after", "iterations", "stop_reason")

    def __init__(self, report):
        self.psl_db_before = report.psl_db_before
        self.psl_db_after = report.psl_db_after
        self.iterations = report.iterations
        self.stop_reason = report.stop_reason


class OptimizeDefault:
    """Seeded optimize trials at the paper's operating point, as ``pslwave optimize`` runs them."""

    name = "optimize-default"
    setup_repeats = 15

    def __init__(self, seed: int, tiny: bool = False):
        self.seed = seed
        self.overrides = TINY if tiny else {}

    @property
    def input_size(self) -> dict:
        c = config.ExperimentConfig(**self.overrides)
        return {
            "N": c.n_subcarriers, "M": c.n_antennas, "n_cp": c.n_cp,
            "constellation": f"{c.family}{c.order}", "rho": c.rho, "eps_a": c.eps_a,
            "p": c.p, "l_max": c.l_max, "unused_fraction": c.unused_fraction,
            "accelerated": c.accelerated,
        }

    def setup(self, rep: int) -> None:
        """Build the configuration objects and run one warm-up MM step."""
        self.cfg = config.ExperimentConfig(seed=self.seed, workers=1, **self.overrides)
        self.spec = self.cfg.constellation()
        self.weights = self.cfg.lag_weights()
        self.opt = self.cfg.optimizer()
        rng = config.trial_rng(self.seed, WARMUP_KEY + rep)
        mask = self.cfg.mask(rng)
        reference, _ = constellation.random_reference_grid(rng, self.spec, mask)
        optimizer.mm_step(reference, reference, self.spec, mask, self.weights, self.opt.p)

    def gate_setup(self) -> list[list[str]]:
        return []

    def trial(self, t: int):
        """trial_rng -> cfg.mask -> random_reference_grid -> optimize, as the CLI does."""
        rng = config.trial_rng(self.seed, t)
        mask = self.cfg.mask(rng)
        reference, _ = constellation.random_reference_grid(rng, self.spec, mask)
        report = optimizer.optimize(reference, self.spec, mask, self.weights, self.opt)
        return reference, mask, report

    def check(self, out):
        reference, mask, report = out
        problems = gate.optimize_problems(report, reference, self.spec, mask, self.weights)
        return problems, _Optimized(report)

    def summary(self, records) -> dict[str, float]:
        return optimize_quality(records)


class Evaluate:
    """Paired detection and BER sweeps over grids that set-up optimized."""

    name = "evaluate"
    setup_repeats = 8  # batches of pairs; setup_s is the median batch time

    def __init__(self, seed: int, tiny: bool = False):
        self.seed = seed
        self.overrides = TINY if tiny else {}
        self.batch = 1 if tiny else 6
        self.cfg = config.ExperimentConfig(seed=seed, workers=1, **self.overrides)
        self.spec = self.cfg.constellation()
        self.weights = self.cfg.lag_weights()
        self.opt = self.cfg.optimizer()
        self.cfar = self.cfg.cfar()
        self.pairs: list[tuple] = []
        self.reports: list[_Optimized] = []
        self._pending: list[tuple] = []

    @property
    def input_size(self) -> dict:
        c = self.cfg
        return {
            "N": c.n_subcarriers, "M": c.n_antennas, "n_cp": c.n_cp,
            "constellation": f"{c.family}{c.order}", "pairs": self.batch * self.setup_repeats,
            "sense_snr_db": list(SENSE_SNR_DB), "sense_arms": list(SENSE_ARMS),
            "cfar_p_fa": c.cfar_p_fa, "n_targets": c.n_targets,
            "ber_snr_db": list(BER_SNR_DB), "n_rx": c.n_rx,
        }

    def setup(self, rep: int) -> None:
        """Optimize one batch of default-point grid pairs and draw their orthogonal baselines."""
        done = []
        for i in range(rep * self.batch, (rep + 1) * self.batch):
            rng = config.trial_rng(self.seed, i)
            mask = self.cfg.mask(rng)
            reference, bits = constellation.random_reference_grid(rng, self.spec, mask)
            report = optimizer.optimize(reference, self.spec, mask, self.weights, self.opt)
            orthogonal = constellation.orthogonal_interleaved_grid(
                rng, self.spec, self.cfg.n_subcarriers, self.cfg.n_antennas
            )
            done.append((reference, report, orthogonal, bits, mask))
        self._pending = done

    def gate_setup(self) -> list[list[str]]:
        """Gate the batch just optimized and keep its pairs; runs outside the timed set-up."""
        verdicts = []
        for reference, report, orthogonal, bits, mask in self._pending:
            verdicts.append(
                gate.optimize_problems(report, reference, self.spec, mask, self.weights)
            )
            self.reports.append(_Optimized(report))
            self.pairs.append((reference, report.grid, orthogonal, bits, mask))
        self._pending = []
        return verdicts

    def trial(self, u: int) -> dict:
        """One unit: PAIRS_PER_UNIT pairs, each through the detection sweep and the BER sweep."""
        hits = np.zeros((len(SENSE_SNR_DB), len(SENSE_ARMS)))
        errors = np.zeros((len(BER_SNR_DB), len(BER_ARMS)))
        n_bits = 0
        sense_s = ber_s = 0.0
        for j in range(u * PAIRS_PER_UNIT, (u + 1) * PAIRS_PER_UNIT):
            reference, optimized, orthogonal, bits, mask = self.pairs[j % len(self.pairs)]
            t0 = perf_counter()
            for si, snr_db in enumerate(SENSE_SNR_DB):
                for ai, grid in enumerate((reference, optimized, orthogonal)):
                    # identical target and noise stream for every arm
                    rng = np.random.default_rng(np.random.SeedSequence(self.seed, spawn_key=(j, si)))
                    hits[si, ai] += sensing.detection_campaign(
                        [grid], snr_db, self.cfar, rng, n_targets=self.cfg.n_targets
                    )
            t1 = perf_counter()
            rng = np.random.default_rng(np.random.SeedSequence(self.seed, spawn_key=(j, 10**6)))
            ber = comms.ber_campaign(
                [(reference, optimized, bits)], list(BER_SNR_DB), self.spec, mask, rng,
                n_rx=self.cfg.n_rx,
            )
            t2 = perf_counter()
            errors += np.stack([ber[a] for a in BER_ARMS], axis=1) * bits.size
            n_bits += bits.size
            sense_s += t1 - t0
            ber_s += t2 - t1
        return {"hits": hits, "errors": errors, "bits": n_bits, "sense_s": sense_s, "ber_s": ber_s}

    def check(self, out):
        problems = gate.probability_problems("detection probability", out["hits"] / PAIRS_PER_UNIT)
        problems += gate.probability_problems("BER", out["errors"] / out["bits"])
        return problems, out

    def summary(self, records) -> dict[str, float]:
        n_pairs = len(records) * PAIRS_PER_UNIT
        dp = np.sum([r["hits"] for r in records], axis=0) / n_pairs
        bits = sum(r["bits"] for r in records)
        ber = np.sum([r["errors"] for r in records], axis=0) / bits
        sense_s = sum(r["sense_s"] for r in records)
        ber_s = sum(r["ber_s"] for r in records)
        dp_snr = {a: dp_crossing(dp[:, i]) for i, a in enumerate(SENSE_ARMS)}
        ber_snr = {a: ber_crossing(ber[:, i]) for i, a in enumerate(BER_ARMS)}
        out = optimize_quality(self.reports)
        out.update({
            "sense_trials_per_s": n_pairs * dp.size / sense_s,
            "ber_bits_per_s": bits * len(BER_SNR_DB) * len(BER_ARMS) / ber_s,
            "dp_snr_gap_db": dp_snr["original"] - dp_snr["optimized"],
            "ber_snr_penalty_db": ber_snr["optimized"] - ber_snr["original"],
        })
        out.update({f"dp085_snr_db.{a}": v for a, v in dp_snr.items()})
        out.update({f"ber1e-3_snr_db.{a}": v for a, v in ber_snr.items()})
        out["curves"] = {"dp": dp.tolist(), "ber": ber.tolist()}
        return out


def dp_crossing(dps, level: float = 0.85) -> float:
    """SNR where detection probability first rises through ``level`` (criterion 7)."""
    snr = SENSE_SNR_DB
    for i in range(len(dps) - 1):
        if dps[i] < level <= dps[i + 1]:
            frac = (level - dps[i]) / (dps[i + 1] - dps[i])
            return float(snr[i] + frac * (snr[i + 1] - snr[i]))
    return float("nan")


def ber_crossing(ber, level: float = 1e-3) -> float:
    """SNR where BER falls through ``level``, interpolated in log10 (criterion 8)."""
    snr = BER_SNR_DB
    logb = np.log10(np.maximum(ber, 1e-12))
    target = np.log10(level)
    for i in range(len(ber) - 1):
        if logb[i] >= target > logb[i + 1]:
            frac = (logb[i] - target) / (logb[i] - logb[i + 1])
            return float(snr[i] + frac * (snr[i + 1] - snr[i]))
    return float("nan")


WORKLOADS = {w.name: w for w in (OptimizeDefault, Evaluate)}
