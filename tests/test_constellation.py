"""Constellation tables, bit mapping, masks, and the interleaved baseline."""

import numpy as np
import pytest

from pslwave.constellation import (
    ConstellationSpec,
    SubcarrierMask,
    _region_bits,
    demodulate,
    modulate,
    orthogonal_interleaved_grid,
    random_reference_grid,
    sum_rate_loss,
)
from pslwave.spectrum import cyclic_correlations


def formula_bits(z, spec):
    """Hard-decision bits, (..., entries, bits), of z by the slicer as first written:
    the PSK sector taken mod Q or the QAM level of each axis, Gray-labelled,
    then the label's bits (MSB first) read by fancy indexing."""
    q, bps = spec.order, spec.bits_per_symbol

    def gray(k):
        return k ^ (k >> 1)

    if spec.family == "psk":
        k = np.floor(np.arctan2(z.imag, z.real) * (q / (2.0 * np.pi))).astype(np.int64) % q
        labels = gray(k)
    else:
        root = int(round(np.sqrt(q)))
        levels = np.clip(np.floor((np.stack((z.real, z.imag)) + root) * 0.5), 0, root - 1)
        li, lq = gray(levels.astype(np.int64))
        labels = (li << (bps // 2)) | lq
    table = ((np.arange(q)[:, None] >> np.arange(bps - 1, -1, -1)) & 1).astype(np.int8)
    return table[labels]


def demodulate_entries(z, spec):
    """``demodulate`` of a 1-D array of entries, as one all-used single-antenna grid."""
    return demodulate(z[:, None], spec, SubcarrierMask.all_used(z.size, 1)).reshape(z.size, -1)


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

    def test_16qam_axis_gray(self):
        spec = ConstellationSpec("qam", 16)
        # neighbors along the real axis differ in one bit of the first half
        by_point = {complex(p): label for label, p in enumerate(spec.points)}
        for im in (-3, -1, 1, 3):
            for re_a, re_b in ((-3, -1), (-1, 1), (1, 3)):
                la = by_point[complex(re_a, im)]
                lb = by_point[complex(re_b, im)]
                assert bin(la ^ lb).count("1") == 1

    @pytest.mark.parametrize("family,order", [("psk", 2**b) for b in range(1, 11)]
                             + [("qam", 4**b) for b in range(1, 6)])
    def test_points_match_the_per_entry_loop(self, family, order):
        # the table as first written, one entry at a time: the array formulas must
        # give the same bytes
        def gray(k):
            return k ^ (k >> 1)

        table = np.empty(order, dtype=complex)
        if family == "psk":
            for k in range(order):
                table[gray(k)] = np.exp(2j * np.pi * (k + 0.5) / order)
        else:
            root = int(round(np.sqrt(order)))
            half = (order.bit_length() - 1) // 2
            pam = np.empty(root)
            for level in range(root):
                pam[gray(level)] = 2 * level - (root - 1)
            for li in range(root):
                for lq in range(root):
                    table[(li << half) | lq] = pam[li] + 1j * pam[lq]
        points = ConstellationSpec(family, order).points
        assert points.dtype == table.dtype and points.tobytes() == table.tobytes()
        assert not points.flags.writeable

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

    @pytest.mark.parametrize("family,order", [("psk", 4), ("psk", 8), ("qam", 16), ("qam", 64)])
    def test_table_read_matches_fancy_indexing(self, family, order):
        # demodulate reads one region-to-bits table with np.take; the slicer as
        # first written (Gray labels, then a label-to-bits table read by fancy
        # indexing) gives the same bits on a noisy (2, 3, N, M) stack
        rng = np.random.default_rng(7)
        spec = ConstellationSpec(family, order)
        mask = SubcarrierMask.random(rng, 64, 4, 0.1)
        grid, _ = random_reference_grid(rng, spec, mask)
        noisy = grid.symbols + 0.5 * (
            rng.standard_normal((2, 3, 64, 4)) + 1j * rng.standard_normal((2, 3, 64, 4))
        )
        z = np.swapaxes(noisy, -1, -2)[..., mask.used.T]
        old = formula_bits(z, spec).reshape(*z.shape[:-1], -1)
        got = demodulate(noisy, spec, mask)
        assert got.dtype == old.dtype
        assert np.array_equal(got, old)

    def test_ties_go_to_the_higher_region(self):
        # 16QAM: 0 and 2 lie on axis boundaries, so the levels +1 and +3 win;
        # 8PSK: the origin is in sector 0, and the positive imaginary axis,
        # a boundary, is in sector 2 (point at 5*pi/8), counterclockwise of it
        def decided_points(z, spec):
            bits = demodulate(z, spec, SubcarrierMask.all_used(len(z), 1))
            return modulate(bits, spec, SubcarrierMask.all_used(len(z), 1)).symbols[:, 0]

        qam = ConstellationSpec("qam", 16)
        got = decided_points(np.array([[0.0], [2.0 + 0.0j], [-2.0 + 2.0j]]), qam)
        assert np.allclose(got, [1 + 1j, 3 + 1j, -1 + 3j])
        psk = ConstellationSpec("psk", 8)
        got = decided_points(np.array([[0.0], [1.0j], [1.0]]), psk)
        assert np.allclose(np.angle(got), [np.pi / 8, 5 * np.pi / 8, np.pi / 8])

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

    @pytest.mark.parametrize("bits", [[0, 2], [2, 0], [-1, 0], [0.5, 1], [np.nan, 0]],
                             ids=["0-2", "2-0", "minus-1", "half", "nan"])
    def test_non_binary_bits_rejected(self, bits):
        # [0, 2] read as the label of [1, 0] and [2, 0] raised an IndexError
        spec = ConstellationSpec("psk", 4)
        with pytest.raises(ValueError, match="bits: every bit must be 0 or 1"):
            modulate(np.array(bits), spec, SubcarrierMask.all_used(1, 1))

    def test_binary_bits_of_any_dtype_accepted(self):
        spec = ConstellationSpec("psk", 4)
        mask = SubcarrierMask.all_used(1, 1)
        for bits in ([True, False], [1.0, 0.0], np.array([1, 0], dtype=np.uint8)):
            assert modulate(np.array(bits), spec, mask).symbols[0, 0] == spec.points[0b10]

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


class TestRegionBits:
    """The region-to-bits tables against the slicer as first written, on
    random entries and on entries exactly on the decision boundaries."""

    @pytest.mark.parametrize("order", [2, 4, 8, 16, 64])
    def test_psk(self, order):
        spec = ConstellationSpec("psk", order)
        table = _region_bits("psk", order)
        assert table.shape == (order + 1, spec.bits_per_symbol)
        assert not table.flags.writeable
        # row i is sector i - Q/2, which holds the point at 2*pi*(i - Q/2 + 0.5)/Q
        centres = np.exp(2j * np.pi * (np.arange(order + 1) - order // 2 + 0.5) / order)
        assert np.array_equal(table, formula_bits(centres, spec))
        # the boundaries k * 2*pi/Q, k = -Q/2 .. Q/2, and their neighbours in
        # angle; the negative real axis with +0 and -0 imaginary parts (angles
        # pi and -pi); the origin with every sign of zero
        k = np.arange(-order // 2, order // 2 + 1)
        angles = 2 * np.pi * k / order
        angles = np.concatenate((angles, np.nextafter(angles, 4.0), np.nextafter(angles, -4.0)))
        zeros = [complex(a, b) for a in (0.0, -0.0) for b in (0.0, -0.0)]
        radii = np.random.default_rng(order).standard_normal(200)
        z = np.concatenate((
            np.exp(1j * angles), 3.0 * np.exp(1j * angles),
            [complex(-1.0, 0.0), complex(-1.0, -0.0), -1e-300 + 0j], zeros,
            radii * np.exp(2j * np.pi * np.arange(200) / 200),
        ))
        got = demodulate_entries(z, spec)
        assert np.array_equal(got, formula_bits(z, spec))
        # the origin and the positive real axis go to sector 0, the point at pi/Q
        for entry in (0j, 1 + 0j):
            got = demodulate_entries(np.array([entry]), spec)[0]
            assert np.array_equal(got, table[order // 2])

    @pytest.mark.parametrize("order", [4, 16, 64, 256])
    def test_qam(self, order):
        spec = ConstellationSpec("qam", order)
        table = _region_bits("qam", order)
        assert table.shape == (order, spec.bits_per_symbol)
        assert not table.flags.writeable
        root = int(round(np.sqrt(order)))
        # row li * root + lq is the level pair (li, lq): the point
        # (2*li - (root - 1)) + 1j * (2*lq - (root - 1))
        li, lq = np.divmod(np.arange(order), root)
        points = (2 * li - (root - 1)) + 1j * (2 * lq - (root - 1))
        assert np.array_equal(table, formula_bits(points, spec))
        # every level edge 2*l - root, l = 0 .. root, on both axes and in
        # pairs, with their float neighbours, values beyond the outer levels,
        # and the origin
        edges = 2.0 * np.arange(root + 1) - root
        axis = np.concatenate((edges, np.nextafter(edges, np.inf), np.nextafter(edges, -np.inf),
                               [0.0, -0.0, root + 7.5, -root - 7.5]))
        z = (axis[:, None] + 1j * axis[None, :]).ravel()
        got = demodulate_entries(z, spec)
        assert np.array_equal(got, formula_bits(z, spec))


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
        r = cyclic_correlations(grid)
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
