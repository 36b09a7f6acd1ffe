"""Majorization pass: coefficients, eigenvalue bounds, and the direction vector.

Every fast-path quantity is checked against the dense-matrix references in
pslwave.oracle, which share no arithmetic with the FFT / per-block eigenvalue
code paths.
"""

import numpy as np
import pytest

from pslwave import majorizer, oracle
from pslwave.constellation import ConstellationSpec
from pslwave.spectrum import (
    CorrelationTensor, LagWeights, SymbolGrid, cyclic_correlations, peak_sidelobe,
)


def random_grid(n, m, seed):
    rng = np.random.default_rng(seed)
    spec = ConstellationSpec("psk", 4)
    return SymbolGrid(spec.points[rng.integers(0, 4, size=(n, m))])


def noisy_grid(n, m, seed):
    rng = np.random.default_rng(seed)
    g = random_grid(n, m, seed)
    return SymbolGrid(
        g.symbols + 0.1 * (rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m)))
    )


class TestScalarMajorizer:
    def test_p2_is_exact(self):
        a, b = oracle.scalar_pnorm_majorizer(2, 0.4, 1.0)
        assert a == pytest.approx(1.0)
        assert b == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("p,x_bar", [(2, 2.0), (4, 2.0), (10, 2.0), (50, 1.0)])
    def test_touch_and_dominance(self, p, x_bar):
        # tolerances are relative to the coefficient scale a*x_bar**2, the
        # natural magnitude of the cancellations in the surrogate
        rng = np.random.default_rng(p)
        for x0 in rng.uniform(0, x_bar, size=20):
            a, b = oracle.scalar_pnorm_majorizer(p, x0, x_bar)
            const = x0**p - a * x0**2 - b * x0
            g = lambda x: a * x**2 + b * x + const
            tol = 1e-9 * max(a * x_bar**2, 1.0)
            assert abs(g(x0) - x0**p) <= tol
            assert abs(g(x_bar) - x_bar**p) <= tol
            xs = np.linspace(0, x_bar, 200)
            assert np.all(g(xs) - xs**p >= -tol)

    def test_b_is_never_positive(self):
        rng = np.random.default_rng(9)
        for p in (2, 4, 50):
            for x0 in rng.uniform(0, 1, size=50):
                _, b = oracle.scalar_pnorm_majorizer(p, x0, 1.0)
                assert b <= 1e-12

    def test_limit_at_the_peak(self):
        a, _ = oracle.scalar_pnorm_majorizer(6, 1.0, 1.0)
        assert a == pytest.approx(0.5 * 6 * 5)

    def test_limit_is_continuous(self):
        a_lim, _ = oracle.scalar_pnorm_majorizer(8, 1.0, 1.0)
        a_near, _ = oracle.scalar_pnorm_majorizer(8, 1.0 - 1e-5, 1.0)
        assert a_near == pytest.approx(a_lim, rel=1e-3)


class TestCoefficients:
    def test_matches_raw_scalar_route(self):
        grid = random_grid(8, 2, 11)
        corr = cyclic_correlations(grid)
        w = LagWeights(8, 4)
        p = 4
        coeffs = majorizer.coefficients(corr, w, p)
        r_bar, _, _, c_raw = oracle.coefficients_raw(corr, w, p)
        assert coeffs.r_bar == pytest.approx(r_bar)
        assert np.allclose(r_bar ** (p - 2) * coeffs.c_hat, c_raw, rtol=1e-9, atol=1e-9)

    def test_peak_lag_uses_limit(self):
        # lambda_bar = N^3 * max(a_raw) / r_bar^(p-2): the largest quadratic
        # coefficient of the scalar route is the peak lag's limit p(p-1)/2
        grid = random_grid(8, 2, 12)
        corr = cyclic_correlations(grid)
        w = LagWeights(8, 4)
        for p in (2, 4, 50):
            coeffs = majorizer.coefficients(corr, w, p)
            r_bar, a_raw, _, _ = oracle.coefficients_raw(corr, w, p)
            expect = 8**3 * np.max(a_raw) / r_bar ** (p - 2)
            assert majorizer.lambda_bar(coeffs, w) == pytest.approx(expect, rel=1e-12)

    def test_zero_off_window(self):
        grid = random_grid(8, 2, 13)
        w = LagWeights(8, 3)
        coeffs = majorizer.coefficients(cyclic_correlations(grid), w, 50)
        assert np.all(coeffs.c_hat[:, :, [0, 3, 4, 5, 6, 7]] == 0)

    def test_p50_stays_finite(self):
        grid = noisy_grid(16, 3, 14)
        coeffs = majorizer.coefficients(cyclic_correlations(grid), LagWeights(16, 8), 50)
        assert np.all(np.isfinite(coeffs.c_hat))

    def test_zero_sidelobe_raises(self):
        grid = SymbolGrid(np.ones((8, 1)))
        corr = cyclic_correlations(grid)
        # flat spectrum: all nonzero-lag correlations vanish
        with pytest.raises(majorizer.ZeroSidelobeError):
            majorizer.coefficients(corr, LagWeights(8, 4), 50)


class TestEigenvalueBounds:
    @pytest.mark.parametrize("p", [2, 4, 50])
    def test_lambda_bar_equals_dense_gram_top_eigenvalue(self, p):
        grid = noisy_grid(8, 2, 15)
        corr = cyclic_correlations(grid)
        w = LagWeights(8, 4)
        coeffs = majorizer.coefficients(corr, w, p)
        lam_fast = coeffs.r_bar ** (p - 2) * majorizer.lambda_bar(coeffs, w)
        _, a_raw, _, _ = oracle.coefficients_raw(corr, w, p)
        gram = oracle.dense_sum_gram(a_raw, w, 2, 8)
        lam_dense = float(np.max(np.linalg.eigvalsh(gram)))
        assert lam_fast == pytest.approx(lam_dense, rel=1e-8)

    @pytest.mark.parametrize("p", [2, 4])
    def test_blocks_match_dense_q(self, p):
        # regression for the block structure: Q_n[m, k] = v_mk[n] + conj(v_km[n]),
        # complex Hermitian with the causal lag window (not real symmetric)
        grid = noisy_grid(8, 2, 16)
        corr = cyclic_correlations(grid)
        w = LagWeights(8, 4)
        coeffs = majorizer.coefficients(corr, w, p)
        v = coeffs.r_bar ** (p - 2) * majorizer.v_fields(corr, coeffs, w)
        blocks = majorizer.hermitian_blocks(v)
        _, _, _, c_raw = oracle.coefficients_raw(corr, w, p)
        q = oracle.dense_Q(corr, c_raw, w)
        n = 8
        for i in range(n):
            dense_block = np.array(
                [[q[m * n + i, k * n + i] for k in range(2)] for m in range(2)]
            )
            assert np.allclose(blocks[i], dense_block, rtol=1e-8, atol=1e-6)

    def test_blocks_are_not_real_for_causal_window(self):
        grid = noisy_grid(8, 2, 17)
        corr = cyclic_correlations(grid)
        w = LagWeights(8, 4)
        coeffs = majorizer.coefficients(corr, w, 4)
        blocks = majorizer.hermitian_blocks(majorizer.v_fields(corr, coeffs, w))
        assert np.max(np.abs(blocks.imag)) > 1e-3 * np.max(np.abs(blocks))

    @pytest.mark.parametrize("p", [2, 4])
    def test_mu_bar_equals_dense_top_eigenvalue(self, p):
        grid = noisy_grid(8, 2, 18)
        corr = cyclic_correlations(grid)
        w = LagWeights(8, 4)
        coeffs = majorizer.coefficients(corr, w, p)
        v = majorizer.v_fields(corr, coeffs, w)
        mu_fast = coeffs.r_bar ** (p - 2) * majorizer.mu_bar(v)
        _, _, _, c_raw = oracle.coefficients_raw(corr, w, p)
        mu_dense = oracle.mu_bar_raw(oracle.dense_Q(corr, c_raw, w))
        assert mu_fast == pytest.approx(mu_dense, rel=1e-8)

    @pytest.mark.parametrize("m", [1, 8])
    def test_mu_bar_matches_dense_oracle_across_antenna_counts(self, m):
        # M = 1 gives real 1 x 1 blocks; M = 8 is the largest antenna count criterion 11 times
        grid = noisy_grid(8, m, 24 + m)
        corr = cyclic_correlations(grid)
        w = LagWeights(8, 4)
        p = 4
        coeffs = majorizer.coefficients(corr, w, p)
        mu_fast = coeffs.r_bar ** (p - 2) * majorizer.mu_bar(majorizer.v_fields(corr, coeffs, w))
        _, _, _, c_raw = oracle.coefficients_raw(corr, w, p)
        mu_dense = oracle.mu_bar_raw(oracle.dense_Q(corr, c_raw, w))
        assert mu_fast == pytest.approx(mu_dense, rel=1e-8)

    def test_mu_bar_diagonal_shift(self):
        grid = noisy_grid(8, 2, 19)
        corr = cyclic_correlations(grid)
        w = LagWeights(8, 4)
        coeffs = majorizer.coefficients(corr, w, 4)
        v = majorizer.v_fields(corr, coeffs, w)
        mu = majorizer.mu_bar(v)
        delta = 3.5
        shifted = v.copy()
        for m in range(2):
            shifted[m, m, :] += delta / 2.0
        assert majorizer.mu_bar(shifted) == pytest.approx(mu + delta, rel=1e-9)

    def test_mu_bar_rejects_nan(self):
        grid = noisy_grid(8, 2, 20)
        corr = cyclic_correlations(grid)
        w = LagWeights(8, 4)
        v = majorizer.v_fields(corr, majorizer.coefficients(corr, w, 4), w)
        v[0, 1, 3] = np.nan
        with pytest.raises(ValueError):
            majorizer.mu_bar(v)


class TestDirection:
    @pytest.mark.parametrize("p", [2, 4])
    def test_y_matches_dense_reference(self, p):
        grid = noisy_grid(8, 2, 22)
        w = LagWeights(8, 4)
        out = majorizer.majorize_direction(grid, w, p)
        x_l = grid.stacked()
        vals = oracle.chain_values(x_l, x_l, oracle.brute_correlations(grid), w, p)
        y_fast = out.eta ** (p - 2) * out.y
        scale = max(np.max(np.abs(vals["y"])), 1.0)
        assert np.allclose(y_fast, vals["y"], rtol=1e-8, atol=1e-8 * scale)

    def test_eta_and_argmax_reported(self):
        grid = random_grid(8, 2, 23)
        out = majorizer.majorize_direction(grid, LagWeights(8, 4), 50)
        assert out.eta > 0
        m, k, i = out.argmax
        r = cyclic_correlations(grid).values
        assert abs(r[m, k, i]) == pytest.approx(out.eta)

    def test_precomputed_correlations_give_identical_output(self):
        grid = noisy_grid(16, 3, 26)
        w = LagWeights(16, 8)
        plain = majorizer.majorize_direction(grid, w, 50)
        reused = majorizer.majorize_direction(grid, w, 50, corr=cyclic_correlations(grid))
        assert np.array_equal(plain.y, reused.y)
        assert plain.eta == reused.eta
        assert plain.argmax == reused.argmax

    @pytest.mark.parametrize("m,p", [(1, 50), (2, 2), (3, 8), (4, 50)])
    def test_carried_window_gives_identical_output(self, m, p):
        grid = noisy_grid(32, m, 27 + m)
        w = LagWeights(32, 8)
        corr = cyclic_correlations(grid)
        peak_sidelobe(corr, w)  # the tensor keeps the window |r| this read takes
        fresh = majorizer.majorize_direction(grid, w, p)
        carried = majorizer.majorize_direction(grid, w, p, corr=corr)
        assert np.array_equal(fresh.y, carried.y)
        assert fresh.eta == carried.eta
        assert fresh.argmax == carried.argmax

    @pytest.mark.parametrize("m,p", [(1, 50), (2, 4), (4, 50), (8, 8)])
    def test_one_pass_matches_the_unfused_chain(self, m, p):
        # the pass builds the Hermitian blocks once, reads the window as a
        # slice and forms Qx by matmul; the same y comes out of the chain that
        # masks the window, weights every lag and forms Qx by einsum
        grid = noisy_grid(64, m, 40 + m)
        w = LagWeights(64, 16)
        out = majorizer.majorize_direction(grid, w, p)
        assert np.array_equal(out.y, unfused_direction(grid, w, p))

    @pytest.mark.parametrize("m,p", [(1, 50), (2, 4), (4, 8), (8, 50)])
    def test_y_is_built_from_qx_and_mu_bar(self, m, p):
        # the optimizer steps from qx and mu_bar; y stays exactly the MM direction
        grid = noisy_grid(32, m, 50 + m)
        w = LagWeights(32, 8)
        corr = cyclic_correlations(grid)
        out = majorizer.majorize_direction(grid, w, p)
        coeffs = majorizer.coefficients(corr, w, p)
        v = majorizer.v_fields(corr, coeffs, w)
        assert out.mu_bar == majorizer.mu_bar(v)
        assert np.allclose(out.qx, np.einsum("nmk,nk->nm", majorizer.hermitian_blocks(v),
                                             grid.symbols), rtol=1e-12, atol=0.0)
        shift = 2.0 * majorizer.lambda_bar(coeffs, w) * grid.energy() + out.mu_bar
        assert np.array_equal(out.y, (out.qx - shift * grid.symbols).reshape(-1, order="F"))

    def test_zero_sidelobe_short_circuit(self):
        grid = SymbolGrid(np.ones((8, 1)))
        out = majorizer.majorize_direction(grid, LagWeights(8, 4), 50)
        assert out.y is None and out.qx is None and out.mu_bar is None
        assert out.eta == 0.0


def unfused_direction(grid: SymbolGrid, w: LagWeights, p: int) -> np.ndarray:
    """Direction y computed step by step with boolean-mask windows, a weighted
    product on every lag, the block stack built twice and Qx by einsum."""
    corr = cyclic_correlations(grid)
    r_abs = np.abs(corr.values[:, :, w.mask])
    r_bar = float(np.max(r_abs))
    c_hat = np.zeros(corr.values.shape)
    c_hat[:, :, w.mask] = 0.5 * p * (r_abs / r_bar) ** (p - 2)
    lam = w.n_lags**3 * 0.5 * p * (p - 1)
    v = corr.n_lags * np.fft.fft(c_hat * corr.values, axis=2)
    blocks = np.moveaxis(v + np.conj(np.swapaxes(v, 0, 1)), 2, 0)
    mu = float(np.max(np.linalg.eigvalsh(blocks)[:, -1]))
    x = grid.symbols
    qx = np.einsum("nmk,nk->nm", blocks, x)
    return (qx - (2.0 * lam * grid.energy() + mu) * x).reshape(-1, order="F")


class TestLagCountCheck:
    """N = 128 correlations with a window built for N = 64 are rejected, not read."""

    @pytest.mark.parametrize("call", ["peak_sidelobe", "coefficients", "majorize_direction"])
    def test_mismatch_raises(self, call):
        grid = noisy_grid(128, 2, 50)
        corr = cyclic_correlations(grid)
        w = LagWeights(64, 16)
        calls = {
            "peak_sidelobe": lambda: peak_sidelobe(corr, w),
            "coefficients": lambda: majorizer.coefficients(corr, w, 50),
            "majorize_direction": lambda: majorizer.majorize_direction(grid, w, 50),
        }
        with pytest.raises(ValueError, match="lag count"):
            calls[call]()

    @pytest.mark.parametrize("call", ["peak_sidelobe", "coefficients", "majorize_direction"])
    def test_mismatch_raises_after_a_matching_read(self, call):
        # the tensor keeps a 15-lag window |r| from LagWeights(128, 16); the
        # N = 64 window has the same length and must still be rejected
        grid = noisy_grid(128, 2, 52)
        corr = cyclic_correlations(grid)
        peak_sidelobe(corr, LagWeights(128, 16))
        w = LagWeights(64, 16)
        calls = {
            "peak_sidelobe": lambda: peak_sidelobe(corr, w),
            "coefficients": lambda: majorizer.coefficients(corr, w, 50),
            "majorize_direction": lambda: majorizer.majorize_direction(grid, w, 50, corr=corr),
        }
        with pytest.raises(ValueError, match="lag count"):
            calls[call]()

    def test_v_fields_mismatch_raises(self):
        grid = noisy_grid(128, 2, 51)
        corr = cyclic_correlations(grid)
        coeffs = majorizer.coefficients(corr, LagWeights(128, 32), 50)
        with pytest.raises(ValueError, match="lag count"):
            majorizer.v_fields(corr, coeffs, LagWeights(64, 16))

    def test_short_tensor_raises(self):
        corr = CorrelationTensor(np.ones((2, 2, 64), dtype=complex))
        with pytest.raises(ValueError, match="lag count"):
            majorizer.coefficients(corr, LagWeights(128, 32), 50)
