"""Correlation conventions: FFT fast path against frozen brute-force values."""

import numpy as np
import pytest

from pslwave.constellation import ConstellationSpec
from pslwave.spectrum import (
    CorrelationTensor,
    LagWeights,
    SymbolGrid,
    cyclic_correlations,
    peak_sidelobe,
    psl_db,
    window_abs,
)

# QPSK labels drawn once from default_rng(12345); the correlation values below
# were frozen from the raw double-sum reference on this grid
FROZEN_LABELS = np.array(
    [[2, 0], [3, 1], [0, 3], [2, 2], [3, 1], [3, 1], [2, 2], [0, 0]]
)


def frozen_grid() -> SymbolGrid:
    spec = ConstellationSpec("psk", 4)
    return SymbolGrid(spec.points[FROZEN_LABELS])


class TestSymbolGrid:
    def test_stacked_is_antenna_by_antenna(self):
        g = SymbolGrid(np.arange(6).reshape(3, 2) + 0j)
        assert np.array_equal(g.stacked(), [0, 2, 4, 1, 3, 5])

    def test_stacked_round_trip(self):
        rng = np.random.default_rng(0)
        g = SymbolGrid(rng.standard_normal((5, 3)) + 1j * rng.standard_normal((5, 3)))
        back = SymbolGrid.from_stacked(g.stacked(), 5)
        assert np.array_equal(back.symbols, g.symbols)

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            SymbolGrid(np.array([[np.inf, 0.0]]))

    def test_energy(self):
        g = SymbolGrid(np.full((4, 2), 1 + 1j))
        assert g.energy() == pytest.approx(16.0)

    @pytest.mark.parametrize("n,m", [(128, 4), (2048, 2), (7, 1)])
    def test_energy_matches_the_sum_of_squared_magnitudes(self, n, m):
        rng = np.random.default_rng(n + m)
        g = SymbolGrid(rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m)))
        direct = float(np.sum(np.abs(g.symbols) ** 2))
        assert isinstance(g.energy(), float)
        assert abs(g.energy() - direct) <= 1e-12 * direct

    def test_energy_is_taken_once_and_kept(self, monkeypatch):
        # a grid is a value: its second energy() read returns the kept float
        calls = []
        vdot = np.vdot
        monkeypatch.setattr(np, "vdot", lambda a, b: calls.append(1) or vdot(a, b))
        g = frozen_grid()
        first = g.energy()
        assert g.energy() is first
        assert len(calls) == 1
        assert g.copy().energy() == first and len(calls) == 2  # a copy takes its own
        assert "_energy" not in repr(g)

    @pytest.mark.parametrize("m", [1, 3])
    def test_stacked_is_a_copy(self, m):
        rng = np.random.default_rng(m)
        g = SymbolGrid(rng.standard_normal((5, m)) + 1j * rng.standard_normal((5, m)))
        assert np.array_equal(g.stacked(), g.symbols.reshape(-1, order="F").copy())
        assert not np.shares_memory(g.stacked(), g.symbols)


class TestCyclicCorrelations:
    def test_frozen_values(self):
        r = cyclic_correlations(frozen_grid()).values
        assert r[0, 0, 0] == pytest.approx(64.0 + 0.0j, abs=1e-9)
        assert r[0, 1, 0] == pytest.approx(16.0 + 16.0j, abs=1e-9)
        assert r[0, 1, 1] == pytest.approx(0.0 - 32.0j, abs=1e-9)
        assert r[0, 1, 2] == pytest.approx(-16.0 - 16.0j, abs=1e-9)
        assert r[1, 0, 0] == pytest.approx(16.0 - 16.0j, abs=1e-9)

    def test_zero_lag_auto_is_scaled_energy(self):
        rng = np.random.default_rng(2)
        g = SymbolGrid(rng.standard_normal((16, 3)) + 1j * rng.standard_normal((16, 3)))
        r = cyclic_correlations(g).values
        n = g.n_subcarriers
        for m in range(3):
            expect = n * np.sum(np.abs(g.symbols[:, m]) ** 2)
            assert r[m, m, 0] == pytest.approx(expect, rel=1e-12)

    def test_conjugate_lag_symmetry(self):
        rng = np.random.default_rng(3)
        g = SymbolGrid(rng.standard_normal((12, 3)) + 1j * rng.standard_normal((12, 3)))
        r = cyclic_correlations(g).values
        n = g.n_subcarriers
        for m in range(3):
            for k in range(3):
                for i in range(n):
                    assert r[m, k, i] == pytest.approx(
                        np.conj(r[k, m, (n - i) % n]), abs=1e-9
                    )


class TestLagWeights:
    def test_window_excludes_zero_lag(self):
        w = LagWeights(8, 4)
        assert w.mask.dtype == bool
        assert np.array_equal(w.mask, [0, 1, 1, 1, 0, 0, 0, 0])

    def test_one_sided(self):
        w = LagWeights(16, 5)
        assert w.mask[1] and w.mask[4]
        assert not w.mask[15] and not w.mask[12]

    def test_bounds(self):
        # n_cp = 1 would leave an empty window: lags 1..n_cp-1
        for n_cp in (0, 1, 9):
            with pytest.raises(ValueError):
                LagWeights(8, n_cp)
        assert np.count_nonzero(LagWeights(8, 2).mask) == 1
        assert np.count_nonzero(LagWeights(8, 8).mask) == 7


class TestPeakSidelobe:
    def test_frozen_peak(self):
        eta, argmax = peak_sidelobe(cyclic_correlations(frozen_grid()), LagWeights(8, 4))
        assert eta == pytest.approx(32.0, abs=1e-9)
        assert argmax == (0, 1, 1)

    def test_lexicographic_tie_break(self):
        vals = np.zeros((2, 2, 4), dtype=complex)
        vals[0, 1, 2] = 5.0
        vals[1, 0, 1] = 5.0
        _, argmax = peak_sidelobe(CorrelationTensor(vals), LagWeights(4, 4))
        assert argmax == (0, 1, 2)

    def test_ignores_lags_outside_the_window(self):
        vals = np.zeros((2, 2, 8), dtype=complex)
        vals[0, 0, 0] = vals[1, 1, 0] = 100.0  # mainlobe
        vals[0, 1, 4] = vals[1, 0, 7] = 50.0  # lags >= n_cp
        vals[1, 0, 3] = 3.0 - 4.0j
        vals[1, 1, 1] = 5.0j
        vals[0, 0, 2] = 1.0
        eta, argmax = peak_sidelobe(CorrelationTensor(vals), LagWeights(8, 4))
        assert eta == 5.0
        # |r| = 5 at (1, 0, 3) and (1, 1, 1): the first in (m, k, i) order wins
        assert argmax == (1, 0, 3)

    def test_lag_count_mismatch_raises(self):
        corr = CorrelationTensor(np.ones((2, 2, 128), dtype=complex))
        with pytest.raises(ValueError, match="lag count"):
            window_abs(corr, LagWeights(64, 16))

    def test_psl_db_reference_is_mean_mainlobe(self):
        g = frozen_grid()
        corr = cyclic_correlations(g)
        w = LagWeights(8, 4)
        # both antennas have unit-modulus symbols: mainlobe = N^2 = 64
        assert psl_db(corr, w) == pytest.approx(20 * np.log10(32.0 / 64.0))


class TestKeptWindow:
    """The window |r| a tensor keeps is the one of the window it is read through."""

    def test_each_read_matches_its_window(self):
        rng = np.random.default_rng(64)
        vals = rng.standard_normal((3, 3, 64)) + 1j * rng.standard_normal((3, 3, 64))
        corr = CorrelationTensor(vals)
        for n_cp in (16, 8, 16):
            r_abs = window_abs(corr, LagWeights(64, n_cp))
            assert np.array_equal(r_abs, np.abs(vals[:, :, 1:n_cp]))


def mask_peak_sidelobe(corr: CorrelationTensor, w: LagWeights) -> tuple[float, tuple]:
    """The boolean-mask peak search that the slice-based one replaced, kept as a reference."""
    mag = np.abs(corr.values[:, :, w.mask])
    flat = int(np.argmax(mag))
    m, k, j = np.unravel_index(flat, mag.shape)
    return float(mag[m, k, j]), (int(m), int(k), int(np.flatnonzero(w.mask)[j]))


class TestSlicedWindowMatchesMask:
    """The lag window read as the slice 1:n_cp gives exactly the mask's peak and index."""

    @staticmethod
    def assert_same(vals: np.ndarray, w: LagWeights):
        corr = CorrelationTensor(vals)
        assert peak_sidelobe(corr, w) == mask_peak_sidelobe(corr, w)
        # the second read finds the window |r| the first one kept on the tensor
        assert peak_sidelobe(corr, w) == mask_peak_sidelobe(corr, w)

    @pytest.mark.parametrize("m,n,n_cp", [(1, 8, 2), (2, 16, 5), (4, 128, 32), (3, 64, 64)])
    def test_random_tensors(self, m, n, n_cp):
        rng = np.random.default_rng(100 + m * n + n_cp)
        for _ in range(20):
            vals = rng.standard_normal((m, m, n)) + 1j * rng.standard_normal((m, m, n))
            self.assert_same(vals, LagWeights(n, n_cp))

    def test_ties(self):
        # unit magnitudes everywhere: every window entry ties, and with the
        # magnitudes drawn from a few levels many partial ties remain
        rng = np.random.default_rng(7)
        w = LagWeights(16, 6)
        self.assert_same(np.exp(2j * np.pi * rng.random((3, 3, 16))), w)
        for _ in range(20):
            levels = rng.integers(0, 3, size=(3, 3, 16)).astype(float)
            self.assert_same(levels * np.exp(2j * np.pi * rng.random((3, 3, 16))), w)

    @pytest.mark.parametrize("lag", [1, 5])
    def test_peak_at_the_window_edges(self, lag):
        w = LagWeights(16, 6)  # window lags 1..5
        rng = np.random.default_rng(lag)
        vals = 0.1 * (rng.standard_normal((2, 2, 16)) + 1j * rng.standard_normal((2, 2, 16)))
        vals[:, :, 0] = vals[:, :, 6:] = 10.0  # larger values outside the window
        vals[1, 0, lag] = 3.0 - 2.0j
        self.assert_same(vals, w)
        assert peak_sidelobe(CorrelationTensor(vals), w)[1] == (1, 0, lag)
