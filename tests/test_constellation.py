"""Constellation tables, bit mapping, masks, and the interleaved baseline."""

import numpy as np
import pytest

from pslwave.constellation import (
    ConstellationSpec,
    SubcarrierMask,
    demodulate,
    modulate,
    orthogonal_interleaved_grid,
    random_reference_grid,
    sum_rate_loss,
)
from pslwave.spectrum import cyclic_correlations


class TestConstellationSpec:
    def test_qpsk_table(self):
        spec = ConstellationSpec("psk", 4)
        s = np.sqrt(0.5)
        # positions 0..3 carry Gray labels 0, 1, 3, 2
        assert spec.points[0] == pytest.approx(s + 1j * s)
        assert spec.points[1] == pytest.approx(-s + 1j * s)
        assert spec.points[3] == pytest.approx(-s - 1j * s)
        assert spec.points[2] == pytest.approx(s - 1j * s)

    def test_psk_adjacent_labels_differ_in_one_bit(self):
        spec = ConstellationSpec("psk", 8)
        angles = np.angle(spec.points)
        order = np.argsort(angles)
        for a, b in zip(order, np.roll(order, -1)):
            assert bin(a ^ b).count("1") == 1

    def test_16qam_table(self):
        spec = ConstellationSpec("qam", 16)
        assert spec.points[0b0000] == pytest.approx(-3 - 3j)
        assert spec.points[0b0101] == pytest.approx(-1 - 1j)
        assert spec.points[0b1010] == pytest.approx(3 + 3j)
        assert spec.mean_symbol_energy == pytest.approx(10.0)

    def test_16qam_axis_gray(self):
        spec = ConstellationSpec("qam", 16)
        # neighbors along the real axis differ in one bit of the first half
        by_point = {complex(p): label for label, p in enumerate(spec.points)}
        for im in (-3, -1, 1, 3):
            for re_a, re_b in ((-3, -1), (-1, 1), (1, 3)):
                la = by_point[complex(re_a, im)]
                lb = by_point[complex(re_b, im)]
                assert bin(la ^ lb).count("1") == 1

    def test_tolerances(self):
        spec = ConstellationSpec("psk", 4, rho=0.15)
        assert spec.eps_p == pytest.approx(2 * np.pi * 0.15 / 4)
        assert spec.eps_r == pytest.approx(0.3)

    def test_validation(self):
        with pytest.raises(ValueError):
            ConstellationSpec("psk", 3)
        with pytest.raises(ValueError):
            ConstellationSpec("qam", 8)
        with pytest.raises(ValueError):
            ConstellationSpec("psk", 4, rho=0.6)
        with pytest.raises(ValueError):
            ConstellationSpec("psk", 4, eps_a=1.5)


class TestModulation:
    @pytest.mark.parametrize("family,order", [("psk", 4), ("psk", 8), ("qam", 16)])
    def test_round_trip(self, family, order):
        rng = np.random.default_rng(4)
        spec = ConstellationSpec(family, order)
        mask = SubcarrierMask.random(rng, 32, 3, 0.1)
        grid, bits = random_reference_grid(rng, spec, mask)
        assert np.array_equal(demodulate(grid, spec, mask), bits)

    @pytest.mark.parametrize("family,order", [("psk", 4), ("qam", 16)])
    def test_stack_matches_single_calls(self, family, order):
        rng = np.random.default_rng(6)
        spec = ConstellationSpec(family, order)
        mask = SubcarrierMask.random(rng, 32, 3, 0.1)
        grid, _ = random_reference_grid(rng, spec, mask)
        noisy = grid.symbols + 0.8 * (
            rng.standard_normal((5, 32, 3)) + 1j * rng.standard_normal((5, 32, 3))
        )
        stacked = demodulate(noisy, spec, mask)
        assert stacked.shape == (5, spec.bits_per_symbol * mask.n_used)
        for s in range(5):
            assert np.array_equal(stacked[s], demodulate(noisy[s], spec, mask))

    def test_unused_entries_are_zero(self):
        rng = np.random.default_rng(5)
        spec = ConstellationSpec("psk", 4)
        mask = SubcarrierMask.random(rng, 16, 2, 0.25)
        grid, _ = random_reference_grid(rng, spec, mask)
        assert np.all(grid.symbols[~mask.used] == 0)
        assert np.all(grid.symbols[mask.used] != 0)

    def test_bit_count_enforced(self):
        spec = ConstellationSpec("psk", 4)
        mask = SubcarrierMask.all_used(8, 1)
        with pytest.raises(ValueError):
            modulate(np.zeros(7, dtype=np.int8), spec, mask)

    def test_stacked_fill_order(self):
        # first bits fill antenna 0 top to bottom, then antenna 1
        spec = ConstellationSpec("psk", 4)
        mask = SubcarrierMask.all_used(2, 2)
        bits = np.array([0, 0, 0, 1, 1, 1, 1, 0], dtype=np.int8)
        grid = modulate(bits, spec, mask)
        assert grid.symbols[0, 0] == pytest.approx(spec.points[0b00])
        assert grid.symbols[1, 0] == pytest.approx(spec.points[0b01])
        assert grid.symbols[0, 1] == pytest.approx(spec.points[0b11])
        assert grid.symbols[1, 1] == pytest.approx(spec.points[0b10])


class TestSubcarrierMask:
    def test_random_unused_count_per_antenna(self):
        rng = np.random.default_rng(6)
        mask = SubcarrierMask.random(rng, 128, 4, 0.05)
        unused = np.count_nonzero(~mask.used, axis=0)
        assert np.all(unused == 6)


class TestBaseline:
    def test_interleaved_cross_correlations_vanish(self):
        rng = np.random.default_rng(7)
        spec = ConstellationSpec("psk", 4)
        grid = orthogonal_interleaved_grid(rng, spec, 32, 4)
        r = cyclic_correlations(grid).values
        for m in range(4):
            for k in range(4):
                if m != k:
                    assert np.max(np.abs(r[m, k])) == pytest.approx(0.0, abs=1e-9)

    def test_interleaved_occupancy(self):
        rng = np.random.default_rng(8)
        spec = ConstellationSpec("psk", 4)
        grid = orthogonal_interleaved_grid(rng, spec, 32, 4)
        occupied = grid.symbols != 0
        assert np.all(np.count_nonzero(occupied, axis=1) == 1)
        assert np.all(np.count_nonzero(occupied, axis=0) == 8)

    def test_sum_rate_loss_reference_point(self):
        assert sum_rate_loss(128, 4, 6) == pytest.approx(0.7377049180327868)
