"""Majorization pass: coefficients, eigenvalue bounds, and the direction vector.

Every fast-path quantity is checked against the dense-matrix references in
pslwave.oracle, which share no arithmetic with the FFT / per-block eigenvalue
code paths.
"""

import numpy as np
import pytest

from pslwave import majorizer, oracle
from pslwave.constellation import ConstellationSpec, SubcarrierMask
from pslwave.optimizer import optimize
from pslwave.spectrum import (
    LagWeights, SymbolGrid, cyclic_correlations, mean_mainlobe, peak_sidelobe, psl_db,
    window_abs,
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
        assert np.allclose(r_bar ** (p - 2) * coeffs.c_hat, c_raw[:, :, w.mask],
                           rtol=1e-9, atol=1e-9)

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
        # c_hat holds the window lags 1..n_cp-1 only; v_fields weights every
        # other lag by zero
        grid = random_grid(8, 2, 13)
        w = LagWeights(8, 3)
        corr = cyclic_correlations(grid)
        coeffs = majorizer.coefficients(corr, w, 50)
        assert coeffs.c_hat.shape == (2, 2, 2)
        full = np.zeros(corr.shape)
        full[:, :, [1, 2]] = coeffs.c_hat
        v = majorizer.v_fields(corr, coeffs, w)
        assert np.array_equal(v, 8 * np.fft.fft(full * corr, axis=2))

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


def hermitian_stack(rng, n, m):
    a = rng.standard_normal((n, m, m)) + 1j * rng.standard_normal((n, m, m))
    return a + np.conj(np.swapaxes(a, 1, 2))


def assert_bounds_top_eigenvalue(blocks, exact_rows=None):
    """Each block's bound is >= its top eigenvalue (1e-12 of the block's
    Frobenius norm), and equal to it within 1e-12 relative on ``exact_rows``."""
    bound = majorizer.lambda_max_bound(blocks)
    top = np.linalg.eigvalsh(blocks)[:, -1]
    scale = np.linalg.norm(blocks, axis=(1, 2))
    assert bound.shape == (blocks.shape[0],)
    assert np.all(bound >= top - 1e-12 * scale)
    if exact_rows is not None:
        assert np.allclose(bound[exact_rows], top[exact_rows], rtol=1e-12, atol=0.0)


class TestLambdaMaxBound:
    """The Wolkowicz-Styan trace bound on lambda_max, against ``eigvalsh``."""

    @pytest.mark.parametrize("m", range(1, 9))
    def test_random_hermitian_stacks(self, m):
        blocks = hermitian_stack(np.random.default_rng(100 + m), 64, m)
        assert_bounds_top_eigenvalue(blocks, exact_rows=slice(None) if m <= 2 else None)

    @pytest.mark.parametrize("m", range(1, 9))
    def test_rank_one_blocks_are_exact(self, m):
        # eigenvalues ||u||^2, 0, ..., 0: the M - 1 smallest are equal
        rng = np.random.default_rng(110 + m)
        u = rng.standard_normal((16, m)) + 1j * rng.standard_normal((16, m))
        assert_bounds_top_eigenvalue(u[:, :, None] * np.conj(u[:, None, :]), exact_rows=slice(None))

    @pytest.mark.parametrize("m", range(2, 9))
    def test_trace_zero_blocks(self, m):
        # first row and column carry u: eigenvalues +||u||, -||u|| and M - 2 zeros
        rng = np.random.default_rng(120 + m)
        u = rng.standard_normal((16, m - 1)) + 1j * rng.standard_normal((16, m - 1))
        blocks = np.zeros((16, m, m), dtype=complex)
        blocks[:, 0, 1:] = np.conj(u)
        blocks[:, 1:, 0] = u
        assert_bounds_top_eigenvalue(blocks, exact_rows=slice(None) if m == 2 else None)
        norm = np.linalg.norm(u, axis=1)
        assert np.allclose(majorizer.lambda_max_bound(blocks),
                           norm * np.sqrt(2.0 * (m - 1) / m), rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("m", range(1, 9))
    def test_scalar_and_zero_blocks(self, m):
        scalars = np.array([0.0, 1.0, -2.5, 3.0, 1e-9])
        blocks = scalars[:, None, None] * np.eye(m, dtype=complex)
        assert_bounds_top_eigenvalue(blocks, exact_rows=slice(None) if m <= 2 else None)
        assert majorizer.lambda_max_bound(blocks)[0] == 0.0

    @pytest.mark.parametrize("m", [1, 2, 4, 8])
    def test_real_view_matches_the_hypot_form(self, m):
        # ||Q_n||_F^2 as Re^2 + Im^2 on the real view, against np.abs(.)**2 (one
        # hypot per entry), on random stacks and on the pass's own block stacks.
        # Relative to the two terms' magnitudes |t/M| + sqrt(...): where they
        # cancel (a bound near 0) both forms carry the same absolute round-off.
        rng = np.random.default_rng(140 + m)
        stacks = [hermitian_stack(rng, 64, m)]
        for seed in range(8):
            corr = cyclic_correlations(noisy_grid(64, m, 140 + seed))
            w = LagWeights(64, 16)
            v = majorizer.v_fields(corr, majorizer.coefficients(corr, w, 8), w)
            stacks.append(majorizer.hermitian_blocks(v))
        for blocks in stacks:
            pairs = blocks.transpose(1, 2, 0)
            mean = pairs.real.trace() / m
            frob2 = np.add.reduce(np.square(np.abs(pairs)).reshape(m * m, -1), axis=0)
            spread = np.sqrt((m - 1) * np.maximum(frob2 / m - mean * mean, 0.0))
            bound = majorizer.lambda_max_bound(blocks)
            assert np.all(np.abs(bound - (mean + spread)) <= 1e-14 * (np.abs(mean) + spread))

    @pytest.mark.parametrize("m", [1, 2, 4])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, complex(0.0, np.inf),
                                       complex(np.inf, np.nan)])
    def test_non_finite_block_gives_a_non_finite_bound(self, m, value):
        for i, k in {(0, 0), (0, m - 1), (m - 1, 0)}:
            blocks = hermitian_stack(np.random.default_rng(150 + m), 8, m)
            blocks[3, i, k] = value
            with np.errstate(invalid="ignore"):  # inf - inf on the way is expected
                bound = majorizer.lambda_max_bound(blocks)
            assert not np.isfinite(bound[3])
            assert np.all(np.isfinite(np.delete(bound, 3)))

    def test_pass_steps_on_the_max_bound(self):
        grid = noisy_grid(32, 4, 130)
        w = LagWeights(32, 8)
        corr = cyclic_correlations(grid)
        v = majorizer.v_fields(corr, majorizer.coefficients(corr, w, 8), w)
        out = majorizer.majorize_direction(grid, w, 8)
        assert out.mu_bound == np.max(majorizer.lambda_max_bound(majorizer.hermitian_blocks(v)))
        assert out.mu_bound >= out.mu_bar * (1 - 1e-12) > 0.0

    def test_pass_runs_no_eigensolve(self, monkeypatch):
        # mu_bar and y are computed on first read, through the module-level mu_bar
        calls = []
        exact = majorizer.mu_bar
        monkeypatch.setattr(majorizer, "mu_bar", lambda *a, **k: calls.append(1) or exact(*a, **k))
        out = majorizer.majorize_direction(noisy_grid(16, 3, 131), LagWeights(16, 4), 50)
        assert calls == []
        y, mu = out.y, out.mu_bar
        assert len(calls) == 1 and out.y is y and out.mu_bar == mu

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0.0, np.inf)])
    def test_non_finite_v_raises(self, monkeypatch, bad):
        exact = majorizer.v_fields

        def broken(r, coeffs, w):
            v = exact(r, coeffs, w)
            v[0, 1, 3] = bad
            return v

        monkeypatch.setattr(majorizer, "v_fields", broken)
        with pytest.raises(ValueError, match="finite"):
            majorizer.majorize_direction(noisy_grid(8, 2, 132), LagWeights(8, 4), 4)


class TestDirection:
    @pytest.mark.parametrize("p", [2, 4])
    def test_y_matches_dense_reference(self, p):
        grid = noisy_grid(8, 2, 22)
        w = LagWeights(8, 4)
        out = majorizer.majorize_direction(grid, w, p)
        x_l = grid.stacked()
        vals = oracle.chain_values(x_l, x_l, oracle.brute_correlations(grid), w, p)
        r_bar = majorizer.coefficients(cyclic_correlations(grid), w, p).r_bar
        y_fast = r_bar ** (p - 2) * out.y
        scale = max(np.max(np.abs(vals["y"])), 1.0)
        assert np.allclose(y_fast, vals["y"], rtol=1e-8, atol=1e-8 * scale)

    def test_eta_and_argmax_reported(self):
        # the pass scales by the window peak r_bar that peak_sidelobe reports as eta
        grid = random_grid(8, 2, 23)
        w = LagWeights(8, 4)
        corr = cyclic_correlations(grid)
        eta, (m, k, i) = peak_sidelobe(corr, w)
        assert eta > 0
        assert abs(corr[m, k, i]) == pytest.approx(eta)
        assert majorizer.coefficients(corr, w, 50).r_bar == eta

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
        with pytest.raises(majorizer.ZeroSidelobeError):
            majorizer.majorize_direction(grid, LagWeights(8, 4), 50)


class TestPlan:
    """The pass is plain functions of the iterate: passes in sequence share nothing."""

    # M = 1, N not a power of two, n_cp = N and p = 2 among the cells
    @pytest.mark.parametrize("n,m,n_cp,p", [(16, 1, 4, 50), (96, 4, 24, 50), (12, 2, 12, 2),
                                            (32, 3, 32, 8), (20, 1, 20, 2)])
    def test_a_reused_plan_is_stateless(self, n, m, n_cp, p):
        w = LagWeights(n, n_cp)
        x_a, x_b = noisy_grid(n, m, 70 + n).symbols, noisy_grid(n, m, 71 + n).symbols
        _, _, v_a = majorizer.direction(x_a, majorizer.correlate(x_a, w), p, w)
        kept = v_a.copy()
        qx, bound, v = majorizer.direction(x_b, majorizer.correlate(x_b, w), p, w)
        out = majorizer.majorize_direction(x_b, w, p)
        assert np.array_equal(qx, out.qx)
        assert bound == out.mu_bound
        assert np.array_equal(v, out.v)
        assert np.array_equal(v_a, kept)  # the second pass wrote nothing the first returned

    @pytest.mark.parametrize("n,m,n_cp", [(16, 1, 4), (96, 4, 24), (12, 2, 12)])
    def test_correlate_matches_the_tensor_route(self, n, m, n_cp):
        # r, window |r|, eta and the mainlobe equal what cyclic_correlations,
        # window_abs and peak_sidelobe give, bit for bit
        w = LagWeights(n, n_cp)
        grid = noisy_grid(n, m, 72 + n)
        values, r_abs, eta, mainlobe = majorizer.correlate(grid.symbols, w)
        corr = cyclic_correlations(grid)
        assert np.array_equal(values, corr)
        assert np.array_equal(r_abs, window_abs(corr, w))
        assert eta == peak_sidelobe(corr, w)[0]
        assert mainlobe == mean_mainlobe(corr)


class TestInputsAreNotWritten:
    """The pass builds c, Q and Qx in place in its own arrays, never in its inputs."""

    @pytest.mark.parametrize("n,m,n_cp,p", [(16, 1, 4, 50), (32, 4, 8, 2), (96, 3, 24, 8)])
    def test_direction_leaves_x_and_its_record_unchanged(self, n, m, n_cp, p):
        w = LagWeights(n, n_cp)
        x = noisy_grid(n, m, 80 + n).symbols
        corr = majorizer.correlate(x, w)
        kept_x, kept = x.copy(), [np.copy(item) for item in corr]
        majorizer.direction(x, corr, p, w)
        assert np.array_equal(x, kept_x)
        for item, copy in zip(corr, kept):
            assert np.array_equal(item, copy)

    def test_coefficients_and_v_fields_leave_their_inputs_unchanged(self, monkeypatch):
        w = LagWeights(32, 8)
        corr = cyclic_correlations(noisy_grid(32, 3, 83))
        kept_values = corr.copy()
        seen = []

        def recording(*args):
            r_abs = window_abs(*args)
            seen.append((r_abs, r_abs.copy()))
            return r_abs

        monkeypatch.setattr(majorizer, "window_abs", recording)
        coeffs = majorizer.coefficients(corr, w, 50)
        kept_c = coeffs.c_hat.copy()
        majorizer.v_fields(corr, coeffs, w)
        assert len(seen) == 1
        assert np.array_equal(seen[0][0], seen[0][1])
        assert np.array_equal(coeffs.c_hat, kept_c)
        assert np.array_equal(corr, kept_values)


def unfused_direction(grid: SymbolGrid, w: LagWeights, p: int) -> np.ndarray:
    """Direction y computed step by step with boolean-mask windows, a weighted
    product on every lag, the block stack built twice and Qx by einsum."""
    corr = cyclic_correlations(grid)
    r_abs = np.abs(corr[:, :, w.mask])
    r_bar = float(np.max(r_abs))
    c_hat = np.zeros(corr.shape)
    c_hat[:, :, w.mask] = 0.5 * p * (r_abs / r_bar) ** (p - 2)
    lam = w.n_lags**3 * 0.5 * p * (p - 1)
    v = corr.shape[2] * np.fft.fft(c_hat * corr, axis=2)
    blocks = np.moveaxis(v + np.conj(np.swapaxes(v, 0, 1)), 2, 0)
    mu = float(np.max(np.linalg.eigvalsh(blocks)[:, -1]))
    x = grid.symbols
    qx = np.einsum("nmk,nk->nm", blocks, x)
    return (qx - (2.0 * lam * grid.energy() + mu) * x).reshape(-1, order="F")


class TestLagCountCheck:
    """N = 128 correlations with a window built for N = 64 are rejected, not read."""

    @pytest.mark.parametrize("call", ["peak_sidelobe", "psl_db", "coefficients",
                                      "majorize_direction", "correlate", "v_fields",
                                      "direction", "optimize"])
    def test_mismatch_raises(self, call):
        grid = noisy_grid(128, 2, 50)
        corr = cyclic_correlations(grid)
        w = LagWeights(64, 16)
        # a record and coefficients read through the N = 128 window of the same length
        record = majorizer.correlate(grid.symbols, LagWeights(128, 16))
        coeffs = majorizer.coefficients(corr, LagWeights(128, 16), 50)
        calls = {
            "peak_sidelobe": lambda: peak_sidelobe(corr, w),
            "psl_db": lambda: psl_db(corr, w),
            "coefficients": lambda: majorizer.coefficients(corr, w, 50),
            "majorize_direction": lambda: majorizer.majorize_direction(grid, w, 50),
            "correlate": lambda: majorizer.correlate(grid.symbols, w),
            "v_fields": lambda: majorizer.v_fields(corr, coeffs, w),
            "direction": lambda: majorizer.direction(grid.symbols, record, 50, w),
            "optimize": lambda: optimize(grid, ConstellationSpec("psk", 4),
                                         SubcarrierMask.all_used(128, 2), w),
        }
        with pytest.raises(ValueError, match="lag count"):
            calls[call]()

    @pytest.mark.parametrize("call", ["peak_sidelobe", "coefficients", "majorize_direction"])
    def test_mismatch_raises_after_a_matching_read(self, call):
        # a read through LagWeights(128, 16) comes first; the N = 64 window
        # has the same length and must still be rejected
        grid = noisy_grid(128, 2, 52)
        corr = cyclic_correlations(grid)
        peak_sidelobe(corr, LagWeights(128, 16))
        w = LagWeights(64, 16)
        calls = {
            "peak_sidelobe": lambda: peak_sidelobe(corr, w),
            "coefficients": lambda: majorizer.coefficients(corr, w, 50),
            "majorize_direction": lambda: majorizer.majorize_direction(grid, w, 50),
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
        corr = np.ones((2, 2, 64), dtype=complex)
        with pytest.raises(ValueError, match="lag count"):
            majorizer.coefficients(corr, LagWeights(128, 32), 50)
