"""Internal consistency of the dense-matrix references themselves."""

import numpy as np
import pytest

from pslwave import oracle
from pslwave.constellation import ConstellationSpec
from pslwave.spectrum import LagWeights, SymbolGrid, cyclic_correlations


def noisy_grid(n, m, seed):
    rng = np.random.default_rng(seed)
    spec = ConstellationSpec("psk", 4)
    base = spec.points[rng.integers(0, 4, size=(n, m))]
    return SymbolGrid(base + 0.1 * (rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m))))


class TestDenseA:
    def test_quadratic_form_reproduces_correlation(self):
        grid = noisy_grid(8, 2, 50)
        x = grid.stacked()
        r = oracle.brute_correlations(grid).values
        for m in range(2):
            for k in range(2):
                for i in range(8):
                    a = oracle.dense_A(m, k, i, 2, 8)
                    form = np.conj(x) @ a @ x
                    assert form == pytest.approx(r[m, k, i], abs=1e-8)

    def test_vec_norm_squared_is_n_cubed(self):
        # every vec(A^H) has squared norm N^3; this underlies the lambda_bar formula
        for m, k, i in [(0, 0, 1), (0, 1, 3), (1, 1, 0)]:
            a = oracle.dense_A(m, k, i, 2, 8)
            assert np.linalg.norm(a) ** 2 == pytest.approx(8**3)

    def test_size_guard(self):
        with pytest.raises(ValueError):
            oracle.dense_A(0, 0, 0, 2, 32)


class TestDenseGram:
    def test_hermitian_psd(self):
        grid = noisy_grid(8, 2, 51)
        corr = oracle.brute_correlations(grid)
        w = LagWeights(8, 4)
        _, a, _, _ = oracle.coefficients_raw(corr, w, 4)
        gram = oracle.dense_sum_gram(a, w, 2, 8)
        assert np.allclose(gram, np.conj(gram.T), atol=1e-8)
        eigs = np.linalg.eigvalsh(gram)
        assert np.min(eigs) >= -1e-9 * max(np.max(eigs), 1.0)

    def test_top_eigenvalue_equals_closed_form(self):
        grid = noisy_grid(8, 2, 52)
        corr = oracle.brute_correlations(grid)
        w = LagWeights(8, 4)
        _, a, _, _ = oracle.coefficients_raw(corr, w, 4)
        gram = oracle.dense_sum_gram(a, w, 2, 8)
        lam_dense = float(np.max(np.linalg.eigvalsh(gram)))
        assert oracle.lambda_bar_raw(a, w, 8) == pytest.approx(lam_dense, rel=1e-8)


class TestDenseQ:
    def test_quadratic_form_matches_weighted_cross_term(self):
        # x^H Q x = 2 sum w c Re{conj(r^l) r(x)} by construction
        grid = noisy_grid(8, 2, 53)
        corr = oracle.brute_correlations(grid)
        w = LagWeights(8, 4)
        _, _, _, c = oracle.coefficients_raw(corr, w, 4)
        q = oracle.dense_Q(corr, c, w)
        rng = np.random.default_rng(530)
        x = rng.standard_normal(16) + 1j * rng.standard_normal(16)
        r_x = oracle.brute_correlations(SymbolGrid.from_stacked(x, 8)).values
        expect = 2.0 * np.sum(w.mask * c * np.real(np.conj(corr.values) * r_x))
        got = float(np.real(np.conj(x) @ q @ x))
        assert got == pytest.approx(expect, rel=1e-9)


class TestChain:
    @pytest.mark.parametrize("p", [2, 4])
    def test_majorization_holds_on_perturbations(self, p):
        grid = noisy_grid(8, 2, 54)
        w = LagWeights(8, 4)
        rng = np.random.default_rng(540 + p)
        worst = oracle.majorization_chain_check(grid, w, p, rng, n_trials=50)
        # the check raises on violation; slacks must be finite and nonnegative
        for key, slack in worst.items():
            assert np.isfinite(slack)
            assert slack >= -1e-9

    def test_tangency_at_iterate(self):
        grid = noisy_grid(8, 2, 55)
        w = LagWeights(8, 4)
        x_l = grid.stacked()
        corr = oracle.brute_correlations(grid)
        vals = oracle.chain_values(x_l, x_l, corr, w, 4)
        assert vals["fB"] == pytest.approx(vals["f"], rel=1e-10)
        assert vals["fC"] == pytest.approx(vals["f"], rel=1e-10)
        assert vals["fD"] == pytest.approx(vals["f"], rel=1e-10)

    def test_chain_detects_a_broken_surrogate(self):
        # corrupting the iterate passed to chain_values must break tangency
        grid = noisy_grid(8, 2, 56)
        w = LagWeights(8, 4)
        x_l = grid.stacked()
        corr = oracle.brute_correlations(grid)
        vals = oracle.chain_values(1.1 * x_l, x_l, corr, w, 4)
        assert abs(vals["fB"] - vals["f"]) > 1e-6 * abs(vals["f"])
