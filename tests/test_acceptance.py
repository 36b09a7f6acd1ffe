"""End-to-end acceptance checks, one test per criterion.

Each test prints a single CRITERION line (PASS or FAIL with the measured
numbers) and then asserts, so the summary survives in captured output and
the suite reports honest failures.  The full-scale optimization campaign is
shared across the criteria that need it.
"""

import time

import numpy as np
import pytest

from pslwave import majorizer, oracle
from pslwave.comms import ber_campaign
from pslwave.config import ExperimentConfig, trial_rng
from pslwave.constellation import (
    ConstellationSpec,
    SubcarrierMask,
    orthogonal_interleaved_grid,
    random_reference_grid,
    sum_rate_loss,
)
from pslwave.optimizer import optimize
from pslwave.projector import psk_project, qam_project
from pslwave.sensing import CfarConfig, cfar_detect, cfar_threshold_factor, detection_campaign
from pslwave.spectrum import LagWeights, SymbolGrid, cyclic_correlations


CRITERION_LINES: list[str] = []


def record(num: int, ok: bool, detail: str) -> bool:
    line = f"CRITERION {num}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    # capture hides the print for passing tests; the conftest terminal-summary
    # hook replays these lines at the end of the run
    CRITERION_LINES.append(line)
    return ok


def noisy_grid(n, m, seed):
    rng = np.random.default_rng(seed)
    spec = ConstellationSpec("psk", 4)
    base = spec.points[rng.integers(0, 4, size=(n, m))]
    return SymbolGrid(
        base + 0.1 * (rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m)))
    )


@pytest.fixture(scope="module")
def campaign():
    """200 seeded full-scale QPSK optimization trials (N=128, M=4, p=50)."""
    cfg = ExperimentConfig()
    spec = cfg.constellation()
    reports = []
    pairs = []
    t0 = time.perf_counter()
    for trial in range(200):
        rng = trial_rng(cfg.seed, trial)
        mask = cfg.mask(rng)
        ref, _ = random_reference_grid(rng, spec, mask)
        rep = optimize(ref, spec, mask, cfg.lag_weights(), cfg.optimizer())
        reports.append(rep)
        if len(pairs) < 24:
            pairs.append((ref, rep.grid))
    elapsed = time.perf_counter() - t0
    return {"reports": reports, "pairs": pairs, "elapsed": elapsed, "cfg": cfg}


class TestCriterion1:
    def test_oracle_equivalence(self):
        t0 = time.perf_counter()
        worst = 0.0
        for n in (4, 8):
            for m in (1, 2):
                for p in (2, 4):
                    grid = noisy_grid(n, m, 100 * n + 10 * m + p)
                    w = LagWeights(n, max(n // 2, 2))

                    fast_r = cyclic_correlations(grid)
                    slow_r = oracle.brute_correlations(grid)
                    scale_r = np.max(np.abs(slow_r))
                    worst = max(worst, np.max(np.abs(fast_r - slow_r)) / scale_r)

                    corr = cyclic_correlations(grid)
                    coeffs = majorizer.coefficients(corr, w, p)
                    unscale = coeffs.r_bar ** (p - 2)
                    _, a_raw, _, c_raw = oracle.coefficients_raw(corr, w, p)

                    lam_fast = unscale * majorizer.lambda_bar(coeffs, w)
                    gram = oracle.dense_sum_gram(a_raw, w, m, n)
                    lam_dense = float(np.max(np.linalg.eigvalsh(gram)))
                    worst = max(worst, abs(lam_fast - lam_dense) / lam_dense)

                    v = majorizer.v_fields(corr, coeffs, w)
                    blocks = unscale * majorizer.hermitian_blocks(v)
                    q = oracle.dense_Q(corr, c_raw, w)
                    qscale = max(np.max(np.abs(q)), 1.0)
                    for i in range(n):
                        dense_block = np.array(
                            [[q[mm * n + i, kk * n + i] for kk in range(m)] for mm in range(m)]
                        )
                        worst = max(worst, np.max(np.abs(blocks[i] - dense_block)) / qscale)

                    mu_fast = unscale * majorizer.mu_bar(v)
                    mu_dense = oracle.mu_bar_raw(q)
                    worst = max(worst, abs(mu_fast - mu_dense) / abs(mu_dense))

                    out = majorizer.majorize_direction(grid, w, p)
                    x_l = grid.stacked()
                    vals = oracle.chain_values(x_l, x_l, oracle.brute_correlations(grid), w, p)
                    yscale = max(np.max(np.abs(vals["y"])), 1.0)
                    worst = max(worst, np.max(np.abs(unscale * out.y - vals["y"])) / yscale)
        elapsed = time.perf_counter() - t0
        ok = worst <= 1e-8 and elapsed < 60.0
        assert record(
            1, ok, f"fast-vs-dense worst rel. err {worst:.2e} (limit 1e-08), {elapsed:.1f}s"
        )


class TestCriterion2:
    def test_majorization_chain(self):
        failures = 0
        worst_slack = np.inf
        for p in (2, 4):
            grid = noisy_grid(8, 2, 200 + p)
            w = LagWeights(8, 4)
            rng = np.random.default_rng(2000 + p)
            try:
                worst = oracle.majorization_chain_check(grid, w, p, rng, n_trials=100)
                worst_slack = min(worst_slack, min(worst.values()))
            except AssertionError:
                failures += 1
        ok = failures == 0
        assert record(
            2, ok,
            f"chain f<=fB<=fC<=fD on 100 perturbations, p in (2,4): "
            f"{2 - failures}/2 instances clean, worst slack {worst_slack:.2e}",
        )


class TestCriterion3:
    def test_monotone_eta_traces(self, campaign):
        bad = 0
        for rep in campaign["reports"]:
            trace = np.asarray(rep.eta_trace)
            if np.any(np.diff(trace) > 1e-12 * trace[0]):
                bad += 1
        ok = bad == 0
        assert record(3, ok, f"non-increasing accepted eta trace in {200 - bad}/200 trials")


class TestCriterion4:
    def test_psl_improvement(self, campaign):
        gains = np.array(
            [r.psl_db_before - r.psl_db_after for r in campaign["reports"]]
        )
        post = np.array([r.psl_db_after for r in campaign["reports"]])
        frac_3db = float(np.mean(gains >= 3.0))
        median_post = float(np.median(post))
        runtime_ok = campaign["elapsed"] <= 600.0
        ok = frac_3db >= 0.5 and median_post <= -12.5 and runtime_ok
        assert record(
            4, ok,
            f">=3 dB gain in {100 * frac_3db:.0f}% of trials (need >=50%), "
            f"median gain {np.median(gains):.2f} dB, median post PSL "
            f"{median_post:.2f} dB (need <=-12.5), campaign {campaign['elapsed']:.0f}s",
        )


class TestCriterion5:
    def test_convergence_speed(self, campaign):
        within3 = sum(1 for r in campaign["reports"] if r.iterations <= 3)
        frac = within3 / 200.0
        ok = frac >= 0.6
        assert record(
            5, ok,
            f"{100 * frac:.0f}% of trials terminate within 3 accelerated iterations "
            f"(need >=60%)",
        )


class TestCriterion6:
    def test_cfar_calibration(self):
        beta = cfar_threshold_factor(1e-4, 7)
        beta_ok = abs(beta - 13.03) <= 0.01
        rng = np.random.default_rng(600)
        cells = rng.exponential(size=1_000_000)
        rate = cfar_detect(cells, CfarConfig(p_fa=1e-3, n_ref=7, n_guard=1)).mean()
        rate_ok = 0.5e-3 <= rate <= 2e-3
        ok = beta_ok and rate_ok
        assert record(
            6, ok,
            f"beta(1e-4, 7) = {beta:.4f} (need 13.03 +/- 0.01), empirical false-alarm "
            f"rate {rate:.2e} on 1e6 cells (need [0.5, 2]x1e-3)",
        )


class TestCriterion7:
    def test_detection_advantage(self, campaign):
        pairs = campaign["pairs"]
        cfar = CfarConfig()
        snr_grid = np.array([-5.0, -4.0, -3.0, -2.0, -1.0, 0.0])
        n_trials = 2000
        dp = {"original": [], "optimized": []}
        for si, snr in enumerate(snr_grid):
            hits = {"original": 0.0, "optimized": 0.0}
            for t in range(n_trials):
                ref, opt = pairs[t % len(pairs)]
                for key, grid in (("original", ref), ("optimized", opt)):
                    # identical target/noise stream for both arms of a trial
                    rng = np.random.default_rng(
                        np.random.SeedSequence(7000, spawn_key=(si, t))
                    )
                    hits[key] += detection_campaign([grid], snr, cfar, rng)
            for key in dp:
                dp[key].append(hits[key] / n_trials)
        dp_orig = np.array(dp["original"])
        dp_opt = np.array(dp["optimized"])
        dominance = bool(np.all(dp_opt >= dp_orig))

        def snr_at(dps, level=0.85):
            for i in range(len(dps) - 1):
                if dps[i] < level <= dps[i + 1]:
                    frac = (level - dps[i]) / (dps[i + 1] - dps[i])
                    return float(snr_grid[i] + frac * (snr_grid[i + 1] - snr_grid[i]))
            return np.nan

        s_orig = snr_at(dp_orig)
        s_opt = snr_at(dp_opt)
        gap = s_orig - s_opt if np.isfinite(s_orig) and np.isfinite(s_opt) else np.nan
        gap_ok = np.isfinite(gap) and 2.0 <= gap <= 6.0
        ok = dominance and gap_ok
        assert record(
            7, ok,
            f"optimized DP >= original at every point: {dominance}; SNR at DP=0.85: "
            f"original {s_orig:.2f} dB, optimized {s_opt:.2f} dB, gap {gap:.2f} dB "
            f"(need [2, 6])",
        )


class TestCriterion8:
    def _penalty(self, rho, seed):
        cfg = ExperimentConfig(rho=rho)
        spec = cfg.constellation()
        rng0 = trial_rng(seed, 0)
        mask = cfg.mask(rng0)
        pairs = []
        for t in range(60):
            rng = trial_rng(seed, t + 1)
            ref, bits = random_reference_grid(rng, spec, mask)
            rep = optimize(ref, spec, mask, cfg.lag_weights(), cfg.optimizer())
            pairs.append((ref, rep.grid, bits))
        snr_grid = list(np.arange(16.0, 37.0, 2.0))
        out = ber_campaign(pairs, snr_grid, spec, mask, np.random.default_rng(seed), n_rx=4)

        def snr_at_ber(ber, level=1e-3):
            logb = np.log10(np.maximum(ber, 1e-12))
            target = np.log10(level)
            for i in range(len(ber) - 1):
                if logb[i] >= target > logb[i + 1]:
                    frac = (logb[i] - target) / (logb[i] - logb[i + 1])
                    return float(snr_grid[i] + frac * (snr_grid[i + 1] - snr_grid[i]))
            return np.nan

        s_orig = snr_at_ber(out["original"])
        s_opt = snr_at_ber(out["optimized"])
        return s_opt - s_orig

    def test_ber_cost(self):
        pen_25 = self._penalty(0.25, 800)
        pen_15 = self._penalty(0.15, 801)
        ok = (
            np.isfinite(pen_25) and pen_25 <= 2.5
            and np.isfinite(pen_15) and pen_15 <= 2.0
        )
        assert record(
            8, ok,
            f"SNR penalty at BER 1e-3: rho=0.25 -> {pen_25:.2f} dB (need <=2.5), "
            f"rho=0.15 -> {pen_15:.2f} dB (need <=2.0)",
        )


class TestCriterion9:
    def test_projector_feasibility_and_optimality(self):
        rng = np.random.default_rng(900)
        n = 100_000
        spec = ConstellationSpec("psk", 4, rho=0.15, eps_a=0.2)
        eps_p, eps_a = spec.eps_p, spec.eps_a

        z = 3 * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
        xr = np.exp(2j * np.pi * rng.random(n))
        u = psk_project(z, xr, eps_p, eps_a) * np.conj(xr)
        psk_ok = (
            np.all(np.abs(np.angle(u)) <= eps_p + 1e-9)
            and np.all(np.abs(u) >= 1 - eps_a - 1e-9)
            and np.all(np.abs(u) <= 1 / np.cos(eps_p) + 1e-9)
        )

        eps_r = 0.3
        zq = 3 * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
        xq = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        outq = qam_project(zq, xq, eps_r)
        far = np.abs(zq - xq) > eps_r
        analytic = xq[far] + eps_r * (zq[far] - xq[far]) / np.abs(zq[far] - xq[far])
        qam_ok = (
            np.allclose(outq[far], analytic, atol=1e-12)
            and np.allclose(outq[~far], zq[~far], atol=1e-15)
        )

        phases = np.linspace(-eps_p, eps_p, 401)
        radii = np.linspace(1 - eps_a, 1.0, 201)
        sector = (radii[:, None] * np.exp(1j * phases[None, :])).ravel()
        zs = 3 * (rng.standard_normal(400) + 1j * rng.standard_normal(400))
        outs = psk_project(zs, np.ones(400, dtype=complex), eps_p, eps_a)
        d_out = np.abs(outs - zs)
        d_grid = np.min(np.abs(zs[:, None] - sector[None, :]), axis=1)
        opt_ok = bool(np.all(d_out <= 1.01 * d_grid + 1e-3))

        ok = psk_ok and qam_ok and opt_ok
        assert record(
            9, ok,
            f"PSK region invariants on 1e5 entries: {psk_ok}; QAM exact metric "
            f"projection: {qam_ok}; PSK within 1.01x of grid optimum: {opt_ok}",
        )


class TestCriterion10:
    def test_baseline_arithmetic(self):
        loss = sum_rate_loss(128, 4, 6)
        loss_ok = abs(loss - 0.738) < 5e-4
        rng = np.random.default_rng(1000)
        spec = ConstellationSpec("psk", 4)
        grid = orthogonal_interleaved_grid(rng, spec, 128, 4)
        r = cyclic_correlations(grid)
        cross_max = max(
            np.max(np.abs(r[m, k])) for m in range(4) for k in range(4) if m != k
        )
        cross_ok = cross_max == 0.0
        ok = loss_ok and cross_ok
        assert record(
            10, ok,
            f"sum-rate loss {100 * loss:.1f}% (need 73.8%), interleaved cross-corr "
            f"max |r| = {cross_max} (need exactly 0)",
        )


class TestCriterion11:
    def test_per_iteration_cost_scaling(self):
        ns = (128, 256, 512, 1024, 2048)
        ms = (2, 4, 8)
        times = {}
        for m in ms:
            for n in ns:
                rng = np.random.default_rng(1100)
                grid = SymbolGrid(np.exp(2j * np.pi * rng.random((n, m))))
                w = LagWeights(n, n // 4)
                majorizer.majorize_direction(grid, w, 50)  # warm up
                best = np.inf
                for _ in range(3):
                    t0 = time.perf_counter()
                    majorizer.majorize_direction(grid, w, 50)
                    best = min(best, time.perf_counter() - t0)
                times[(n, m)] = best
        xs = np.log([n * np.log(n) for n in ns])
        # per-M slopes bound growth; the aggregate cost over the M set carries
        # the fitted exponent (small-M cells are interpreter-overhead bound)
        per_m_slopes = {
            m: float(np.polyfit(xs, np.log([times[(n, m)] for n in ns]), 1)[0])
            for m in ms
        }
        agg = [sum(times[(n, m)] for m in ms) for n in ns]
        agg_slope = float(np.polyfit(xs, np.log(agg), 1)[0])
        no_faster = all(s <= 1.3 for s in per_m_slopes.values())
        ok = no_faster and 0.9 <= agg_slope <= 1.3
        detail = ", ".join(f"M={m}: {s:.2f}" for m, s in per_m_slopes.items())
        assert record(
            11, ok,
            f"N-exponent of aggregate cost {agg_slope:.2f} (need [0.9, 1.3]); "
            f"per-M slopes {detail} (each <=1.3)",
        )
