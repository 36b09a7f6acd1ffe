"""Sensing chain: steering, echo synthesis, matched filter, CFAR calibration."""

import numpy as np
import pytest

from pslwave.constellation import ConstellationSpec, SubcarrierMask, random_reference_grid
from pslwave.sensing import (
    CfarConfig,
    SensingScene,
    Target,
    cfar_detect,
    cfar_threshold_factor,
    detection_campaign,
    matched_filter,
    range_angle_map,
    range_steer,
    steering,
    synthesize_echo,
)
from pslwave.spectrum import SymbolGrid


class TestSteering:
    def test_broadside_is_all_ones(self):
        assert np.allclose(steering(4, 0.0), np.ones(4))

    def test_half_wavelength_phase(self):
        theta = 0.3
        a = steering(4, theta)
        assert a[1] == pytest.approx(np.exp(-1j * np.pi * np.sin(theta)))
        assert np.allclose(np.abs(a), 1.0)

    def test_range_steer_zero_delay(self):
        assert np.allclose(range_steer(16, 0), np.ones(16))

    def test_range_steer_periodicity(self):
        assert np.allclose(range_steer(16, 16), np.ones(16))


class TestMatchedFilter:
    def test_noise_free_peak_at_true_delay(self):
        rng = np.random.default_rng(80)
        spec = ConstellationSpec("psk", 4)
        mask = SubcarrierMask.all_used(64, 2)
        grid, _ = random_reference_grid(rng, spec, mask)
        delay = 17
        scene = SensingScene(targets=[Target(delay=delay)], noise_std=0.0)
        y = synthesize_echo(grid, scene, rng)
        z = matched_filter(y, grid)
        profile = np.mean(np.abs(z) ** 2, axis=1)
        assert int(np.argmax(profile)) == delay

    def test_autocorrelation_peak_height(self):
        # broadside target, unit gain: z[delay, m] = sum_n |x_m|^2 summed over antennas
        rng = np.random.default_rng(81)
        spec = ConstellationSpec("psk", 4)
        mask = SubcarrierMask.all_used(32, 2)
        grid, _ = random_reference_grid(rng, spec, mask)
        scene = SensingScene(targets=[Target(delay=5)], noise_std=0.0)
        y = synthesize_echo(grid, scene, rng)
        z = matched_filter(y, grid)
        # the ifft carries 1/N, so the peak is the mean symbol energy (1 for
        # unit-modulus QPSK) plus a cross-stream leakage term
        assert abs(z[5, 0]) >= 0.5

    def test_two_targets_resolved(self):
        rng = np.random.default_rng(82)
        spec = ConstellationSpec("psk", 4)
        mask = SubcarrierMask.all_used(64, 2)
        grid, _ = random_reference_grid(rng, spec, mask)
        scene = SensingScene(targets=[Target(delay=10), Target(delay=40)], noise_std=0.0)
        y = synthesize_echo(grid, scene, rng)
        profile = np.mean(np.abs(matched_filter(y, grid)) ** 2, axis=1)
        top2 = set(np.argsort(profile)[-2:])
        assert top2 == {10, 40}


class TestRangeAngleMap:
    def test_peak_location(self):
        rng = np.random.default_rng(83)
        spec = ConstellationSpec("psk", 4)
        mask = SubcarrierMask.all_used(32, 4)
        grid, _ = random_reference_grid(rng, spec, mask)
        scene = SensingScene(targets=[Target(delay=8, angle=0.0)], noise_std=0.0)
        y = synthesize_echo(grid, scene, rng)
        z = matched_filter(y, grid)
        ram = range_angle_map(z, os_range=4, os_angle=8)
        r_idx, a_idx = np.unravel_index(np.argmax(ram.values), ram.values.shape)
        assert r_idx == 8 * 4  # oversampled range bin
        assert a_idx == 0  # broadside

    def test_shape(self):
        z = np.zeros((16, 4), dtype=complex)
        ram = range_angle_map(z, os_range=2, os_angle=4)
        assert ram.values.shape == (32, 16)


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
