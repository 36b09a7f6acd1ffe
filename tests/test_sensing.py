"""Sensing chain: range steering, echo synthesis, matched filter, CFAR calibration."""

import cmath

import numpy as np
import pytest

from pslwave import sensing
from pslwave.constellation import ConstellationSpec, SubcarrierMask, random_reference_grid
from pslwave.sensing import (
    CfarConfig,
    cfar_detect,
    cfar_threshold_factor,
    detection_campaign,
    matched_filter,
    range_steer,
    synthesize_echo,
)
from pslwave.spectrum import SymbolGrid

# pi to the precision of the x86 80-bit long double
PI_LONG = np.longdouble("3.14159265358979323846264338327950288")


class TestSteering:
    def test_range_steer_zero_delay(self):
        assert np.allclose(range_steer(16, 0), np.ones(16))

    def test_range_steer_periodicity(self):
        assert np.allclose(range_steer(16, 16), np.ones(16))

    @pytest.mark.parametrize("n", [20, 128, 2048])
    def test_root_table_matches_the_exponential(self, n):
        # In double precision exp(-2j*pi*n*d/N) itself loses ~2e-12 at N = 2048,
        # where the phase reaches ~1.3e4 rad, so the reference phase is formed
        # and evaluated in extended precision.
        if np.finfo(np.longdouble).eps >= np.finfo(float).eps:
            pytest.skip("no extended-precision long double on this platform")
        k = np.arange(n)
        for d in range(n):
            phase = 2 * PI_LONG * (k * d).astype(np.longdouble) / n
            err = np.abs(range_steer(n, d) - (np.cos(phase) - 1j * np.sin(phase)))
            assert np.max(err) <= 1e-12, d

    def test_range_steer_rejects_fractional_delay(self):
        with pytest.raises(TypeError):
            range_steer(16, 2.5)


class TestEcho:
    def test_broadside_beam_sums_the_antennas(self):
        rng = np.random.default_rng(79)
        spec = ConstellationSpec("psk", 4)
        grid, _ = random_reference_grid(rng, spec, SubcarrierMask.all_used(32, 4))
        y = synthesize_echo(grid, [0], [1.0], 0.0, rng)
        assert np.allclose(y, grid.symbols.sum(axis=1))

    def test_targets_superpose_with_their_gains_and_delays(self):
        rng = np.random.default_rng(78)
        spec = ConstellationSpec("psk", 4)
        grid, _ = random_reference_grid(rng, spec, SubcarrierMask.all_used(32, 2))
        gains = np.exp(2j * np.pi * np.array([0.1, 0.7]))
        y = synthesize_echo(grid, np.array([3, 20]), gains, 0.0, rng)
        beam = grid.symbols.sum(axis=1)
        expect = gains[0] * beam * range_steer(32, 3) + gains[1] * beam * range_steer(32, 20)
        assert np.allclose(y, expect)

    def test_noise_has_the_requested_power(self):
        rng = np.random.default_rng(77)
        grid = SymbolGrid(np.zeros((4096, 2), dtype=complex))
        y = synthesize_echo(grid, [5], [1.0], 0.5, rng)
        assert np.mean(np.abs(y) ** 2) == pytest.approx(0.25, rel=0.1)

    @pytest.mark.parametrize("noise_std", [float("nan"), -0.5, -1e-300])
    def test_rejects_a_nan_or_negative_noise_std(self, noise_std):
        grid = SymbolGrid(np.ones((32, 2), dtype=complex))
        with pytest.raises(ValueError, match="noise_std"):
            synthesize_echo(grid, [3], [1.0], noise_std, np.random.default_rng(75))

    def test_one_gain_per_delay(self):
        grid = SymbolGrid(np.ones((32, 2), dtype=complex))
        rng = np.random.default_rng(76)
        with pytest.raises(ValueError):
            synthesize_echo(grid, [3, 20], [1.0], 0.0, rng)
        with pytest.raises(ValueError):
            synthesize_echo(grid, [3], [1.0, 1.0], 0.0, rng)


def reference_echo(grid, delays, gains, noise_std, rng):
    """The echo as first written: complex temporaries for the noise,
    noise_std * (g_re + 1j * g_im) / sqrt(2)."""
    n, m = grid.symbols.shape
    beam = grid.symbols @ np.ones(m)
    y = np.zeros(n, dtype=complex)
    for delay, gain in zip(delays, gains):
        y += gain * beam * range_steer(n, delay)
    g = rng.standard_normal((2, n))
    y += noise_std * (g[0] + 1j * g[1]) / np.sqrt(2.0)
    return y


class TestEchoRounding:
    """The in-place noise rounds as the complex expression: bit for bit."""

    @pytest.mark.parametrize("n_targets", [1, 2, 3])
    @pytest.mark.parametrize("m", [1, 2, 4, 8])
    def test_bitwise_equal_to_complex_expression(self, n_targets, m):
        rng = np.random.default_rng(100 * m + n_targets)
        spec = ConstellationSpec("psk", 4)
        mask = SubcarrierMask.random(rng, 128, m, 0.05)
        for _ in range(20):
            grid, _ = random_reference_grid(rng, spec, mask)
            delays = rng.integers(0, 128, size=n_targets)
            gains = np.exp(2j * np.pi * rng.random(n_targets))
            # not powers of two, for which the two scaling orders would agree
            noise_std = float(rng.uniform(0.05, 3.0))
            seed = int(rng.integers(2**32))
            got = synthesize_echo(grid, delays, gains, noise_std, np.random.default_rng(seed))
            expect = reference_echo(grid, delays, gains, noise_std, np.random.default_rng(seed))
            assert got.tobytes() == expect.tobytes()

    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize("m", [1, 4])
    def test_shortest_vectors(self, n, m):
        # the noise is written through strided views of one complex vector
        rng = np.random.default_rng(110 + 10 * n + m)
        for _ in range(20):
            grid = SymbolGrid(rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m)))
            delays = rng.integers(0, n, size=2)
            gains = np.exp(2j * np.pi * rng.random(2))
            noise_std = float(rng.uniform(0.05, 3.0))
            seed = int(rng.integers(2**32))
            got = synthesize_echo(grid, delays, gains, noise_std, np.random.default_rng(seed))
            expect = reference_echo(grid, delays, gains, noise_std, np.random.default_rng(seed))
            assert got.tobytes() == expect.tobytes()

    @pytest.mark.parametrize("n", [1, 2, 128])
    def test_zero_level_draws_nothing(self, n):
        rng = np.random.default_rng(130 + n)
        state = rng.bit_generator.state
        grid = SymbolGrid(np.ones((n, 2), dtype=complex))
        y = synthesize_echo(grid, [0], [1.0], 0.0, rng)
        assert rng.bit_generator.state == state
        assert y.tobytes() == (2.0 * np.ones(n, dtype=complex)).tobytes()


class TestMatchedFilter:
    def test_noise_free_peak_at_true_delay(self):
        rng = np.random.default_rng(80)
        spec = ConstellationSpec("psk", 4)
        mask = SubcarrierMask.all_used(64, 2)
        grid, _ = random_reference_grid(rng, spec, mask)
        delay = 17
        y = synthesize_echo(grid, [delay], [1.0], 0.0, rng)
        z = matched_filter(y, grid)
        profile = np.mean(np.abs(z) ** 2, axis=1)
        assert int(np.argmax(profile)) == delay

    def test_autocorrelation_peak_height(self):
        # broadside target, unit gain: z[delay, m] = sum_n |x_m|^2 summed over antennas
        rng = np.random.default_rng(81)
        spec = ConstellationSpec("psk", 4)
        mask = SubcarrierMask.all_used(32, 2)
        grid, _ = random_reference_grid(rng, spec, mask)
        y = synthesize_echo(grid, [5], [1.0], 0.0, rng)
        z = matched_filter(y, grid)
        # the ifft carries 1/N, so the peak is the mean symbol energy (1 for
        # unit-modulus QPSK) plus a cross-stream leakage term
        assert abs(z[5, 0]) >= 0.5

    def test_two_targets_resolved(self):
        rng = np.random.default_rng(82)
        spec = ConstellationSpec("psk", 4)
        mask = SubcarrierMask.all_used(64, 2)
        grid, _ = random_reference_grid(rng, spec, mask)
        y = synthesize_echo(grid, [10, 40], [1.0, 1.0], 0.0, rng)
        profile = np.mean(np.abs(matched_filter(y, grid)) ** 2, axis=1)
        top2 = set(np.argsort(profile)[-2:])
        assert top2 == {10, 40}


class TestCfar:
    def test_threshold_factor_reference_value(self):
        assert cfar_threshold_factor(1e-4, 7) == pytest.approx(13.03, abs=0.01)

    def test_threshold_factor_monotone_in_pfa(self):
        assert cfar_threshold_factor(1e-5, 7) > cfar_threshold_factor(1e-3, 7)

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            cfar_threshold_factor(0.0, 7)
        with pytest.raises(ValueError):
            cfar_threshold_factor(1e-3, 0)

    def test_empirical_false_alarm_rate(self):
        rng = np.random.default_rng(84)
        cells = rng.exponential(size=500_000)
        det = cfar_detect(cells, CfarConfig(p_fa=1e-3, n_ref=7, n_guard=1))
        rate = det.mean()
        assert 0.5e-3 <= rate <= 2e-3

    def test_detects_strong_cell(self):
        rng = np.random.default_rng(85)
        cells = rng.exponential(size=256)
        cells[100] = 1000.0
        det = cfar_detect(cells, CfarConfig(p_fa=1e-4, n_ref=7, n_guard=1))
        assert det[100]

    @pytest.mark.parametrize(
        "p_fa,n_ref", [(0.0, 7), (1.0, 7), (1.5, 7), (-1e-3, 7), (float("nan"), 7), (1e-4, 0)]
    )
    def test_config_rejects_bad_values(self, p_fa, n_ref):
        with pytest.raises(ValueError):
            CfarConfig(p_fa=p_fa, n_ref=n_ref)

    def test_profile_length_guard(self):
        with pytest.raises(ValueError):
            cfar_detect(np.ones(10), CfarConfig(n_ref=7, n_guard=1))

    @pytest.mark.parametrize("n_ref,n_guard", [(7, 1), (3, 0), (4, 2)])
    def test_matches_rolled_window_sum(self, n_ref, n_guard):
        # reference: the cyclic window sum built from explicit shifts of the profile
        config = CfarConfig(p_fa=1e-2, n_ref=n_ref, n_guard=n_guard)
        beta = cfar_threshold_factor(config.p_fa, n_ref)

        def rolled(power):
            ref_sum = np.zeros(power.size)
            for k in range(n_guard + 1, n_guard + n_ref + 1):
                ref_sum += np.roll(power, k) + np.roll(power, -k)
            return power > beta * ref_sum / (2.0 * n_ref)

        rng = np.random.default_rng(89)
        for n in (2 * (n_ref + n_guard) + 1, 128):
            for _ in range(50):
                cells = rng.exponential(size=n)
                assert np.array_equal(cfar_detect(cells, config), rolled(cells))
                cells[rng.integers(n)] *= 1e3  # a 30 dB spike
                assert np.array_equal(cfar_detect(cells, config), rolled(cells))


class TestDetectionCampaign:
    def _grid(self, seed, n=64, m=2):
        rng = np.random.default_rng(seed)
        spec = ConstellationSpec("psk", 4)
        mask = SubcarrierMask.all_used(n, m)
        grid, _ = random_reference_grid(rng, spec, mask)
        return grid

    def test_high_snr_detects(self):
        grids = [self._grid(s) for s in range(20)]
        rng = np.random.default_rng(86)
        dp = detection_campaign(grids, 20.0, CfarConfig(), rng)
        assert dp >= 0.95

    def test_low_snr_mostly_misses(self):
        grids = [self._grid(s) for s in range(40)]
        rng = np.random.default_rng(87)
        dp = detection_campaign(grids, -35.0, CfarConfig(), rng)
        assert dp <= 0.4

    def test_multiple_targets_counted_separately(self):
        grids = [self._grid(s, n=128) for s in range(10)]
        rng = np.random.default_rng(88)
        dp = detection_campaign(grids, 15.0, CfarConfig(), rng, n_targets=3)
        assert 0.0 <= dp <= 1.0

    def test_drawn_targets_sit_outside_each_others_windows(self):
        # h = n_guard + n_ref + 1 = 9 at the default window; 8 targets fit at N = 128
        assert CfarConfig().max_targets(128) == 8
        rng = np.random.default_rng(89)
        closest = []
        for _ in range(200):
            delays = sensing._draw_delays(rng, 128, 8, 9)
            assert len(delays) == 8 and all(type(d) is int and 0 <= d < 128 for d in delays)
            closest.append(min(min((a - b) % 128, (b - a) % 128)
                               for i, a in enumerate(delays) for b in delays[:i]))
        assert min(closest) == 9

    @pytest.mark.parametrize("gap,dp", [(2, 0.0), (8, 0.0), (9, 1.0), (14, 1.0)])
    def test_a_neighbour_inside_the_reference_window_masks(self, monkeypatch, gap, dp):
        # two loud targets: 8 bins apart each sits in the other's reference window
        # and both are missed; at the drawn separation of 9 both are found
        monkeypatch.setattr(sensing, "_draw_delays", lambda rng, n, k, separation: [0, gap])
        grids = [self._grid(s, n=128, m=4) for s in range(10)]
        for snr_db in (10.0, 30.0):
            got = detection_campaign(grids, snr_db, CfarConfig(), np.random.default_rng(84), 2)
            assert got == dp

    @pytest.mark.parametrize("n_targets", [0, -1])
    def test_fewer_than_one_target_is_rejected_before_any_draw(self, n_targets):
        # a rate over no targets is no rate: 0 targets read 0.0, and -1 read -0.0
        assert sensing._draw_delays(np.random.default_rng(0), 64, 0, 9) == []
        grids = [self._grid(s) for s in range(3)]
        rng = np.random.default_rng(83)
        state = rng.bit_generator.state
        with pytest.raises(ValueError, match=f"n_targets >= 1, got {n_targets}"):
            detection_campaign(grids, 10.0, CfarConfig(), rng, n_targets=n_targets)
        assert rng.bit_generator.state == state


class TestGainDraws:
    """``detection_campaign`` draws each gain as a Python scalar,
    cmath.exp(2j * cmath.pi * rng.random()); that is the array form bit for bit."""

    @staticmethod
    def _scalar(u):
        return np.array([cmath.exp(2j * cmath.pi * float(v)) for v in u])

    def test_bitwise_equal_to_the_array_form(self):
        u = np.random.default_rng(140).random(10**5)
        assert self._scalar(u).tobytes() == np.exp(2j * np.pi * u).tobytes()

    def test_quarter_turns_and_the_largest_draw(self):
        u = np.array([0.0, 0.25, 0.5, 0.75, np.nextafter(1.0, 0.0)])
        assert self._scalar(u).tobytes() == np.exp(2j * np.pi * u).tobytes()

    @pytest.mark.parametrize("k", [0, 1, 3, 7])
    def test_scalar_draws_leave_the_array_draw_state(self, k):
        scalar, array = np.random.default_rng(141), np.random.default_rng(141)
        u = [scalar.random() for _ in range(k)]
        assert u == array.random(k).tolist()
        assert scalar.bit_generator.state == array.bit_generator.state


def reference_hits(grids, snr_db, cfar, rng, n_targets):
    """The detection loop as first written, one hit count per grid: a complex
    exponential per steering vector, scalar gain draws, two noise draws, the
    mean |z|^2 profile and an unscaled 0/1 CFAR window."""
    hits = []
    for grid in grids:
        n, m = grid.symbols.shape
        es_avg = grid.energy() / grid.symbols.size
        sigma = float(np.sqrt(m * es_avg / (10.0 ** (snr_db / 10.0))))
        delays = np.array(sensing._draw_delays(rng, n, n_targets, cfar.n_guard + cfar.n_ref + 1))
        gains = np.array([np.exp(2j * np.pi * rng.random()) for _ in delays])
        beam = grid.symbols @ np.ones(m)
        y = np.zeros(n, dtype=complex)
        for delay, gain in zip(delays, gains):
            y += gain * beam * np.exp(-2j * np.pi * np.arange(n) * delay / n)
        y += sigma * (rng.standard_normal(n) + 1j * rng.standard_normal(n)) / np.sqrt(2.0)
        z = np.fft.ifft(y[:, None] * np.conj(grid.symbols), axis=0)
        profile = np.mean(np.abs(z) ** 2, axis=1)
        half = cfar.n_guard + cfar.n_ref
        kernel = np.ones(2 * half + 1)
        kernel[cfar.n_ref : cfar.n_ref + 2 * cfar.n_guard + 1] = 0.0
        padded = np.concatenate((profile[n - half :], profile, profile[:half]))
        beta = cfar_threshold_factor(cfar.p_fa, cfar.n_ref)
        det = profile > beta * np.convolve(padded, kernel, mode="valid") / (2.0 * cfar.n_ref)
        near = det[(delays[:, None] + [-1, 0, 1]) % n]
        hits.append(int(np.count_nonzero(near.any(axis=1))))
    return hits


class TestDetectionMatchesReference:
    """The trimmed per-call path draws the same stream and makes the same decisions."""

    @pytest.mark.parametrize("n_targets", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("m", [1, 2, 4, 8])
    @pytest.mark.parametrize("snr_db", [-10.0, 0.0, 10.0])
    def test_identical_hits(self, n_targets, m, snr_db):
        rng = np.random.default_rng(1000 * n_targets + m)
        spec = ConstellationSpec("psk", 4)
        mask = SubcarrierMask.random(rng, 128, m, 0.05)
        grids = [random_reference_grid(rng, spec, mask)[0] for _ in range(50)]
        cfar = CfarConfig()
        expect = reference_hits(grids, snr_db, cfar, np.random.default_rng(7), n_targets)
        stream = np.random.default_rng(7)
        got = [
            round(detection_campaign([g], snr_db, cfar, stream, n_targets=n_targets) * n_targets)
            for g in grids
        ]
        assert got == expect


def full_chain_hits(grids, snr_db, cfar, rng, n_targets):
    """Per grid, the hits of the full chain on the stream ``detection_campaign``
    draws: the echo, every cell of the per-antenna matched filter, the mean
    |z|^2 profile, CFAR on all of it, then the mask at d - 1, d, (d + 1) mod N."""
    hits = []
    for grid in grids:
        n, m = grid.symbols.shape
        cfar.check_profile_length(n)
        es_avg = grid.energy() / grid.symbols.size
        sigma = float(np.sqrt(m * es_avg / (10.0 ** (snr_db / 10.0))))
        delays = sensing._draw_delays(rng, n, n_targets, cfar.n_guard + cfar.n_ref + 1)
        gains = np.exp(2j * np.pi * rng.random(n_targets))
        y = synthesize_echo(grid, delays, gains, sigma, rng)
        profile = np.mean(np.abs(matched_filter(y, grid)) ** 2, axis=1)
        det = cfar_detect(profile, cfar)
        hits.append(sum(bool(det[d - 1] or det[d] or det[(d + 1) % n]) for d in delays))
    return hits


# the default window, no guard cells, the shortest window, a wide guard
WINDOW_CONFIGS = [
    CfarConfig(),
    CfarConfig(n_guard=0),
    CfarConfig(p_fa=1e-2, n_ref=1, n_guard=0),
    CfarConfig(p_fa=1e-3, n_ref=3, n_guard=2),
]
WINDOW_IDS = [f"ref{c.n_ref}-guard{c.n_guard}" for c in WINDOW_CONFIGS]
SWEEP_DB = (-30.0, -20.0, -10.0, -6.0, -3.0, 0.0, 3.0, 6.0, 10.0, 20.0, 30.0)


class TestHitTable:
    """The CFAR tests at d - 1, d and d + 1 as one product: D_M, the (3, 2h + 1)
    table D = sel - thr with each column repeated 2M times, times the window's
    squared (re, im) parts, is positive exactly where ``cfar_detect`` fires."""

    @staticmethod
    def _folded(squares, d, cfar):
        n, two_m = squares.shape
        h = cfar.n_guard + cfar.n_ref + 1
        window = squares[(d + np.arange(-h, h + 1)) % n]
        table = sensing._hit_table(cfar.p_fa, cfar.n_ref, cfar.n_guard, two_m // 2)
        return (table @ window.ravel() > 0).tolist()

    @pytest.mark.parametrize("cfar", WINDOW_CONFIGS, ids=WINDOW_IDS)
    @pytest.mark.parametrize("m", [1, 4])
    @pytest.mark.parametrize("short", [False, True], ids=["n40", "shortest"])
    def test_folded_test_is_cfar_at_three_cells(self, cfar, m, short):
        # at the shortest N = 2h - 1 the window of 2h + 1 cells wraps past N
        n = 2 * (cfar.n_ref + cfar.n_guard) + 1 if short else 40
        rng = np.random.default_rng(700 + 10 * n + m)
        fired = 0
        for _ in range(20):
            # re^2 and im^2 per cell and antenna, a fifth of the cells 30 times stronger
            squares = rng.exponential(size=(n, 2 * m)) * np.where(rng.random((n, 1)) < 0.2, 30, 1)
            det = cfar_detect(squares.sum(axis=1), cfar)
            for d in range(n):
                expect = [bool(det[(d - 1 + j) % n]) for j in range(3)]
                assert self._folded(squares, d, cfar) == expect, d
                fired += sum(expect)
        assert 0 < fired < 20 * n * 3

    @pytest.mark.parametrize("cfar", WINDOW_CONFIGS, ids=WINDOW_IDS)
    def test_an_all_zero_profile_gives_no_hit(self, cfar):
        n = 2 * (cfar.n_ref + cfar.n_guard) + 1
        squares = np.zeros((n, 8))
        assert not cfar_detect(squares.sum(axis=1), cfar).any()
        for d in range(n):
            assert self._folded(squares, d, cfar) == [False, False, False]
        # a silent grid: no echo and, at zero energy, no noise
        grid = SymbolGrid(np.zeros((n, 4), dtype=complex))
        assert detection_campaign([grid], 10.0, cfar, np.random.default_rng(710), 1) == 0.0

    def test_table_is_read_only_and_kept_per_m(self):
        cfar = CfarConfig()
        table = sensing._hit_table(cfar.p_fa, cfar.n_ref, cfar.n_guard, 4)
        assert table.shape == (3, 8 * (2 * (cfar.n_guard + cfar.n_ref + 1) + 1))
        assert not table.flags.writeable
        assert sensing._hit_table(cfar.p_fa, cfar.n_ref, cfar.n_guard, 4) is table


def draw_adjacent(monkeypatch):
    """Draw delays only 1 bin apart instead of the CFAR window's separation, so that
    targets sit in each other's windows; the receiver and the full chain both draw
    through the patched function."""
    draw = sensing._draw_delays
    monkeypatch.setattr(sensing, "_draw_delays", lambda rng, n, k, separation: draw(rng, n, k, 1))


class TestWindowedReceiver:
    """``detection_campaign`` filters and tests only the 2h + 1 cells around each
    delay, h = n_guard + n_ref + 1; its decisions are those of the full chain."""

    @staticmethod
    def _grids(rng, n, m, count):
        spec = ConstellationSpec("psk", 4)
        mask = SubcarrierMask.random(rng, n, m, 0.05)
        return [random_reference_grid(rng, spec, mask)[0] for _ in range(count)]

    def _check(self, grids, cfar, n_targets, seed):
        """Per grid and over the whole list: the stream continues across grids."""
        total = 0
        for snr_db in SWEEP_DB:
            expect = full_chain_hits(grids, snr_db, cfar, np.random.default_rng(seed), n_targets)
            stream = np.random.default_rng(seed)
            got = [
                round(detection_campaign([g], snr_db, cfar, stream, n_targets) * n_targets)
                for g in grids
            ]
            assert got == expect, snr_db
            dp = detection_campaign(grids, snr_db, cfar, np.random.default_rng(seed), n_targets)
            assert round(dp * len(grids) * n_targets) == sum(expect), snr_db
            total += sum(expect)
        return total

    @pytest.mark.parametrize("cfar", WINDOW_CONFIGS, ids=WINDOW_IDS)
    @pytest.mark.parametrize("m", [1, 2, 4, 8])
    def test_hits_equal_the_full_chain(self, monkeypatch, cfar, m):
        rng = np.random.default_rng(300 + m)
        grids = self._grids(rng, 128, m, 12)
        total = sum(self._check(grids, cfar, k, seed=10 * m + k) for k in (1, 2, 3))
        # and several targets in overlapping windows
        draw_adjacent(monkeypatch)
        total += sum(self._check(grids, cfar, k, seed=10 * m + k + 5) for k in (2, 3))
        # the sweep decides both ways
        assert 0 < total < len(SWEEP_DB) * len(grids) * (1 + 2 + 3 + 2 + 3)

    @pytest.mark.parametrize("cfar", WINDOW_CONFIGS, ids=WINDOW_IDS)
    def test_smallest_profile(self, monkeypatch, cfar):
        # N = 2(n_ref + n_guard) + 1: the window of 2h + 1 cells wraps past N and every
        # target reads the whole profile; the drawn separation h leaves room for one
        # target only, so 1 to 3 are drawn 1 bin apart
        n = 2 * (cfar.n_ref + cfar.n_guard) + 1
        assert cfar.max_targets(n) == 1
        rng = np.random.default_rng(400 + n)
        grids = self._grids(rng, n, 2, 40)
        draw_adjacent(monkeypatch)
        total = sum(self._check(grids, cfar, k, seed=k) for k in (1, 2, 3))
        assert 0 < total < len(SWEEP_DB) * len(grids) * (1 + 2 + 3)

    @pytest.mark.parametrize("cfar", WINDOW_CONFIGS, ids=WINDOW_IDS)
    # fixed delays, closer than the draw allows: targets 1 to 3 bins apart across the
    # wrap read the profile from offsets (d - e) mod N near 0 and near N - 1 in
    # overlapping windows; each neighbour sits in the other's reference window and masks
    # it at the wider windows, so a far target at 64 is detected too; [120, 2], 10
    # apart, overlap without masking
    @pytest.mark.parametrize(
        "delays",
        [[0], [1], [126], [127], [127, 0, 64], [126, 1, 64], [0, 3, 125, 64], [120, 2]],
    )
    def test_delays_at_the_ends_of_the_profile(self, monkeypatch, cfar, delays):
        monkeypatch.setattr(sensing, "_draw_delays", lambda rng, n, k, separation: list(delays))
        rng = np.random.default_rng(500 + delays[0])
        grids = self._grids(rng, 128, 4, 30)
        total = self._check(grids, cfar, len(delays), seed=delays[0])
        assert 0 < total < len(SWEEP_DB) * len(grids) * len(delays)

    def test_no_full_profile_is_formed(self, monkeypatch):
        def full_chain(*args, **kwargs):
            raise AssertionError("the full chain ran")

        monkeypatch.setattr(np.fft, "ifft", full_chain)
        monkeypatch.setattr(sensing, "matched_filter", full_chain)
        monkeypatch.setattr(sensing, "cfar_detect", full_chain)
        grids = self._grids(np.random.default_rng(93), 128, 4, 3)
        dp = detection_campaign(grids, 10.0, CfarConfig(), np.random.default_rng(94), 2)
        assert 0.0 <= dp <= 1.0

    def test_profile_too_short(self):
        cfar = CfarConfig()
        n = 2 * (cfar.n_ref + cfar.n_guard)
        grid = SymbolGrid(np.ones((n, 2), dtype=complex))
        rng = np.random.default_rng(90)
        state = rng.bit_generator.state
        with pytest.raises(ValueError, match="too short"):
            detection_campaign([grid], 10.0, cfar, rng)
        assert rng.bit_generator.state == state  # checked before the draws

    @pytest.mark.parametrize("n_ref,n_guard", [(7, 1), (3, 2), (1, 0)])
    def test_short_profile_names_n_and_the_window(self, n_ref, n_guard):
        cfar = CfarConfig(p_fa=1e-2, n_ref=n_ref, n_guard=n_guard)
        least = 2 * (n_ref + n_guard) + 1
        cfar.check_profile_length(least)
        with pytest.raises(ValueError, match=rf"^N = {least - 1} cells .* window of {least} cells$"):
            cfar.check_profile_length(least - 1)

    def test_nan_snr_raises(self):
        grid = self._grids(np.random.default_rng(91), 64, 2, 1)[0]
        with pytest.raises(ValueError, match="SNR point nan dB"):
            detection_campaign([grid], float("nan"), CfarConfig(), np.random.default_rng(92))


class TestEchoWindow:
    """Every echo enters a target's window as its gain times 2h + 1 rows of one
    unit-echo profile P, kept on the grid per h."""

    @staticmethod
    def _grid(seed, n, m):
        rng = np.random.default_rng(seed)
        mask = SubcarrierMask.random(rng, n, m, 0.05)
        return random_reference_grid(rng, ConstellationSpec("psk", 4), mask)[0]

    @pytest.mark.parametrize("cfar", WINDOW_CONFIGS, ids=WINDOW_IDS)
    @pytest.mark.parametrize("m", [1, 4])
    @pytest.mark.parametrize("short", [False, True], ids=["n128", "shortest"])
    def test_window_is_the_unit_echo_at_delay_0(self, cfar, m, short):
        # N times the matched filter of a noise-free unit echo at delay 0, at cells
        # -h .. N - 1 + h (cyclically)
        n = 2 * (cfar.n_ref + cfar.n_guard) + 1 if short else 128
        h = cfar.n_guard + cfar.n_ref + 1
        grid = self._grid(600 + m, n, m)
        detection_campaign([grid], 0.0, cfar, np.random.default_rng(601))
        profile = grid._echo_profiles[h]
        assert profile.shape == (n + 2 * h, m)
        assert not profile.flags.writeable
        echo = synthesize_echo(grid, [0], [1.0], 0.0, np.random.default_rng(602))
        cells = np.arange(-h, n + h) % n
        expect = n * matched_filter(echo, grid)[cells]
        assert np.max(np.abs(profile - expect)) <= 1e-12 * np.max(np.abs(expect))

    def test_window_is_built_once_per_h(self):
        grid = self._grid(610, 128, 4)
        cfar = CfarConfig()
        h = cfar.n_guard + cfar.n_ref + 1
        detection_campaign([grid], 0.0, cfar, np.random.default_rng(611))
        profile = grid._echo_profiles[h]
        detection_campaign([grid], 5.0, cfar, np.random.default_rng(612), n_targets=2)
        assert grid._echo_profiles[h] is profile
        assert list(grid._echo_profiles) == [h]

    def test_two_windows_on_one_grid_list_interleaved(self, monkeypatch):
        # the same grid objects under two CFAR windows of different h, in turn:
        # each keeps both profiles and every decision is the full chain's, with
        # targets drawn 1 bin apart so that their windows overlap
        wide, narrow = CfarConfig(), CfarConfig(p_fa=1e-2, n_ref=1, n_guard=0)
        grids = [self._grid(620 + i, 128, 4) for i in range(12)]
        draw_adjacent(monkeypatch)
        total = 0
        for snr_db in SWEEP_DB:
            for k, cfar in enumerate((wide, narrow, wide)):
                for n_targets in (1, 3):
                    seed = 630 + 7 * k + n_targets
                    expect = full_chain_hits(grids, snr_db, cfar, np.random.default_rng(seed),
                                             n_targets)
                    stream = np.random.default_rng(seed)
                    got = [round(detection_campaign([g], snr_db, cfar, stream, n_targets)
                                 * n_targets) for g in grids]
                    assert got == expect, (snr_db, cfar)
                    total += sum(expect)
        assert 0 < total < len(SWEEP_DB) * 3 * len(grids) * (1 + 3)
        for grid in grids:
            assert sorted(grid._echo_profiles) == [2, 9]

    def test_a_copy_or_a_new_grid_starts_without_windows(self):
        grid = self._grid(640, 64, 2)
        detection_campaign([grid], 0.0, CfarConfig(), np.random.default_rng(641))
        assert grid._echo_profiles
        for other in (grid.copy(), SymbolGrid(grid.symbols)):
            assert other._echo_profiles == {}
        assert "_echo_profiles" not in repr(grid)

    @pytest.mark.parametrize("snr_db", [4000.0, -4000.0, float("inf")])
    def test_snr_point_without_a_power_ratio_raises(self, snr_db):
        grid = self._grid(650, 64, 2)
        rng = np.random.default_rng(651)
        state = rng.bit_generator.state
        with pytest.raises(ValueError, match=f"SNR point {snr_db} dB"):
            detection_campaign([grid], snr_db, CfarConfig(), rng)
        assert rng.bit_generator.state == state  # rejected before any draw

    def test_overflowing_noise_level_raises(self):
        # 1 / 10**(-300) is finite, but the noise variance over it is not when Es = 1e10
        grid = SymbolGrid(self._grid(660, 64, 2).symbols * 1e5)
        with pytest.raises(ValueError, match="SNR point -3000.0 dB gives an infinite noise level"):
            detection_campaign([grid], -3000.0, CfarConfig(), np.random.default_rng(661))
