"""Correlation conventions: FFT fast path against frozen brute-force values."""

import numpy as np
import pytest

from pslwave import majorizer
from pslwave.constellation import ConstellationSpec, SubcarrierMask
from pslwave.spectrum import (
    LagWeights,
    SymbolGrid,
    cyclic_correlations,
    peak_sidelobe,
    psl_db,
    noise_level,
    snr_ratio,
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

    @pytest.mark.parametrize("n_subcarriers", [0, -2])
    def test_from_stacked_rejects_fewer_than_one_subcarrier(self, n_subcarriers):
        with pytest.raises(ValueError, match="n_subcarriers must be >= 1"):
            SymbolGrid.from_stacked(np.ones(4, dtype=complex), n_subcarriers)

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

    def test_grids_compare_and_hash_by_identity(self):
        # a field-wise __eq__ would compare the arrays and raise, and leave the
        # class unhashable
        grid, other = SymbolGrid(np.ones((4, 2))), SymbolGrid(np.ones((4, 2)))
        assert (grid == other) is False
        assert (grid == grid) is True
        assert (grid != other) is True
        assert hash(grid) == hash(grid)
        assert grid in [other, grid]
        assert len({grid, other, grid}) == 2


class TestCyclicCorrelations:
    def test_frozen_values(self):
        r = cyclic_correlations(frozen_grid())
        assert r[0, 0, 0] == pytest.approx(64.0 + 0.0j, abs=1e-9)
        assert r[0, 1, 0] == pytest.approx(16.0 + 16.0j, abs=1e-9)
        assert r[0, 1, 1] == pytest.approx(0.0 - 32.0j, abs=1e-9)
        assert r[0, 1, 2] == pytest.approx(-16.0 - 16.0j, abs=1e-9)
        assert r[1, 0, 0] == pytest.approx(16.0 - 16.0j, abs=1e-9)

    def test_zero_lag_auto_is_scaled_energy(self):
        rng = np.random.default_rng(2)
        g = SymbolGrid(rng.standard_normal((16, 3)) + 1j * rng.standard_normal((16, 3)))
        r = cyclic_correlations(g)
        n = g.n_subcarriers
        for m in range(3):
            expect = n * np.sum(np.abs(g.symbols[:, m]) ** 2)
            assert r[m, m, 0] == pytest.approx(expect, rel=1e-12)

    def test_conjugate_lag_symmetry(self):
        rng = np.random.default_rng(3)
        g = SymbolGrid(rng.standard_normal((12, 3)) + 1j * rng.standard_normal((12, 3)))
        r = cyclic_correlations(g)
        n = g.n_subcarriers
        for m in range(3):
            for k in range(3):
                for i in range(n):
                    assert r[m, k, i] == pytest.approx(
                        np.conj(r[k, m, (n - i) % n]), abs=1e-9
                    )

    @pytest.mark.parametrize("n,m", [(128, 4), (2048, 2), (2048, 8), (96, 4), (96, 1),
                                     (12, 4), (12, 2), (1, 1), (2, 1)])
    def test_scale_matches_the_complex_scale(self, n, m):
        # N**2 scales the IFFT's output on its real view: bit for bit the complex
        # n**2 * ifft(prod), at N a power of two or not; (1, 1) is the one-entry grid
        rng = np.random.default_rng(n + m)
        for _ in range(3):
            x = rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m))
            prod = x.T[:, None, :] * np.conj(x.T)[None, :, :]
            assert np.array_equal(cyclic_correlations(x), n**2 * np.fft.ifft(prod, axis=2))

    @pytest.mark.parametrize("dtype", [np.float64, np.complex64, np.int64])
    def test_scale_takes_other_dtypes_as_complex(self, dtype):
        # a real, single-precision or integer grid is correlated as its complex128 copy
        rng = np.random.default_rng(160)
        x = (rng.standard_normal((16, 2)) + 1j * rng.standard_normal((16, 2))) * 4
        if not np.issubdtype(dtype, np.complexfloating):
            x = x.real
        x = x.astype(dtype)
        r = cyclic_correlations(x)
        assert r.dtype == np.complex128
        assert np.array_equal(r, cyclic_correlations(x.astype(complex)))


@pytest.mark.parametrize(
    "make",
    [
        pytest.param(lambda: LagWeights(8, 4), id="LagWeights"),
        pytest.param(lambda: SubcarrierMask.all_used(4, 2), id="SubcarrierMask"),
        pytest.param(lambda: majorizer.coefficients(cyclic_correlations(frozen_grid()),
                                                    LagWeights(8, 4), 4), id="MajorizerCoeffs"),
        pytest.param(lambda: majorizer.majorize_direction(frozen_grid(), LagWeights(8, 4), 4),
                     id="MajorizerOutput"),
    ],
)
def test_array_records_compare_and_hash_by_identity(make):
    # a field-wise __eq__ would compare the arrays and raise, and leave the class unhashable
    one, other = make(), make()
    assert (one == other) is False
    assert (one == one) is True
    assert (one != other) is True
    assert hash(one) == hash(one)
    assert len({one, other, one}) == 2


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
        _, argmax = peak_sidelobe(vals, LagWeights(4, 4))
        assert argmax == (0, 1, 2)

    def test_ignores_lags_outside_the_window(self):
        vals = np.zeros((2, 2, 8), dtype=complex)
        vals[0, 0, 0] = vals[1, 1, 0] = 100.0  # mainlobe
        vals[0, 1, 4] = vals[1, 0, 7] = 50.0  # lags >= n_cp
        vals[1, 0, 3] = 3.0 - 4.0j
        vals[1, 1, 1] = 5.0j
        vals[0, 0, 2] = 1.0
        eta, argmax = peak_sidelobe(vals, LagWeights(8, 4))
        assert eta == 5.0
        # |r| = 5 at (1, 0, 3) and (1, 1, 1): the first in (m, k, i) order wins
        assert argmax == (1, 0, 3)

    def test_lag_count_mismatch_raises(self):
        with pytest.raises(ValueError, match="lag count"):
            window_abs(np.ones((2, 2, 128), dtype=complex), LagWeights(64, 16))

    def test_psl_db_reference_is_mean_mainlobe(self):
        g = frozen_grid()
        w = LagWeights(8, 4)
        # both antennas have unit-modulus symbols: mainlobe = N^2 = 64
        assert psl_db(cyclic_correlations(g), w) == pytest.approx(20 * np.log10(32.0 / 64.0))


class TestKeptWindow:
    """Each read takes the |r| of the window it is read through, whatever an earlier read used."""

    def test_each_read_matches_its_window(self):
        rng = np.random.default_rng(64)
        vals = rng.standard_normal((3, 3, 64)) + 1j * rng.standard_normal((3, 3, 64))
        for n_cp in (16, 8, 16):
            r_abs = window_abs(vals, LagWeights(64, n_cp))
            assert np.array_equal(r_abs, np.abs(vals[:, :, 1:n_cp]))


class TestReadsFollowValues:
    """A read of an array sees its current values, whatever an earlier read took."""

    def test_reads_after_an_in_place_write_match_a_fresh_array(self):
        w = LagWeights(8, 4)
        vals = cyclic_correlations(frozen_grid())
        r = vals.copy()
        peak_sidelobe(r, w)
        r *= 0.5
        fresh = vals * 0.5
        assert peak_sidelobe(r, w) == peak_sidelobe(fresh, w)
        assert psl_db(r, w) == psl_db(fresh, w)
        assert majorizer.coefficients(r, w, 50).r_bar == majorizer.coefficients(fresh, w, 50).r_bar


class TestCorrelationShape:
    """A reader of correlations takes an (M, M, N) array and names that shape for any
    other; a wrong N gives the lag-count message (``test_majorizer.TestLagCountCheck``)."""

    READERS = {
        "peak_sidelobe": peak_sidelobe,
        "psl_db": psl_db,
        "coefficients": lambda r, w: majorizer.coefficients(r, w, 50),
    }

    @pytest.mark.parametrize("reader", READERS)
    @pytest.mark.parametrize("shape", [(8, 2), (2, 8, 2), (2, 3, 8)],
                             ids=["grid", "grid-stack", "unequal-pair-axes"])
    def test_a_wrong_shape_raises(self, reader, shape):
        r = np.ones(shape, dtype=complex)
        with pytest.raises(ValueError, match=r"\(M, M, N\)"):
            self.READERS[reader](r, LagWeights(8, 4))


def mask_peak_sidelobe(r: np.ndarray, w: LagWeights) -> tuple[float, tuple]:
    """The boolean-mask peak search that the slice-based one replaced, kept as a reference."""
    mag = np.abs(r[:, :, w.mask])
    flat = int(np.argmax(mag))
    m, k, j = np.unravel_index(flat, mag.shape)
    return float(mag[m, k, j]), (int(m), int(k), int(np.flatnonzero(w.mask)[j]))


class TestSlicedWindowMatchesMask:
    """The lag window read as the slice 1:n_cp gives exactly the mask's peak and index."""

    @staticmethod
    def assert_same(vals: np.ndarray, w: LagWeights):
        assert peak_sidelobe(vals, w) == mask_peak_sidelobe(vals, w)
        # a second read takes the window |r| again and finds the same peak
        assert peak_sidelobe(vals, w) == mask_peak_sidelobe(vals, w)

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
        assert peak_sidelobe(vals, w)[1] == (1, 0, lag)


class TestSnrRatio:
    @pytest.mark.parametrize("snr_db", [-3080.0, -30.0, 0.0, 17.5, 3080.0])
    def test_a_ratio_and_its_reciprocal_are_finite(self, snr_db):
        ratio = snr_ratio(snr_db)
        assert ratio == 10.0 ** (snr_db / 10.0)
        assert 0.0 < ratio < np.inf and 1.0 / ratio < np.inf

    @pytest.mark.parametrize("snr_db", [
        float("nan"), float("inf"), float("-inf"), 4000.0, -4000.0,
        3083.0,  # 10**308.3 overflows
        # subnormal ratios: positive, but 1 / ratio overflows
        -3083.0, -3230.0,
    ])
    def test_a_point_without_a_finite_ratio_or_reciprocal_is_rejected(self, snr_db):
        with pytest.raises(ValueError, match=f"SNR point {snr_db} dB has no finite positive"):
            snr_ratio(snr_db)

    @pytest.mark.parametrize("energy,snr_db", [(1.0, 0.0), (4.0, -3000.0), (2.5, 17.5)])
    def test_noise_level_is_the_root_of_energy_over_the_ratio(self, energy, snr_db):
        assert noise_level(energy, snr_db) == np.sqrt(energy / snr_ratio(snr_db))

    def test_an_overflowing_noise_level_is_rejected(self):
        assert noise_level(1.0, -3000.0) < np.inf  # 1 / 10**(-300) is finite ...
        with pytest.raises(ValueError, match="SNR point -3000.0 dB gives an infinite noise level"):
            noise_level(1e10, -3000.0)  # ... but 1e10 / 10**(-300) is not
        with pytest.raises(ValueError, match="SNR point -3230.0 dB has no finite positive"):
            noise_level(1.0, -3230.0)
