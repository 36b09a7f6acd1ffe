"""Communication chain: channel, zero-forcing equalizer, BER statistics."""

import numpy as np
import pytest
from scipy import special

from pslwave.comms import (
    ber_campaign,
    bit_errors,
    channel_apply,
    draw_channel,
    zf_equalize,
)
from pslwave.constellation import ConstellationSpec, SubcarrierMask, random_reference_grid
from pslwave.spectrum import SymbolGrid


def qfunc(x):
    return 0.5 * special.erfc(x / np.sqrt(2.0))


class TestChannel:
    def test_dimensions_and_statistics(self):
        rng = np.random.default_rng(90)
        hs = np.stack([draw_channel(rng, 4, 2).h for _ in range(500)])
        assert hs.shape == (500, 4, 2)
        # CN(0, 1): unit variance per entry, zero mean
        assert np.mean(np.abs(hs) ** 2) == pytest.approx(1.0, rel=0.05)
        assert abs(np.mean(hs)) < 0.05

    def test_noise_free_apply(self):
        rng = np.random.default_rng(91)
        grid = SymbolGrid(np.eye(3, 2) + 0j)
        ch = draw_channel(rng, 4, 2)
        rx = channel_apply(grid, ch, 0.0, rng)
        assert np.allclose(rx[0], ch.h[:, 0])
        assert np.allclose(rx[1], ch.h[:, 1])

    def test_supplied_noise_is_used(self):
        rng = np.random.default_rng(92)
        grid = SymbolGrid(np.zeros((4, 2), dtype=complex))
        ch = draw_channel(rng, 2, 2)
        noise = np.full((4, 2), 1.0 + 0.0j)
        rx = channel_apply(grid, ch, 0.5, rng, noise=noise)
        assert np.allclose(rx, 0.5)


class TestZeroForcing:
    def test_perfect_recovery_without_noise(self):
        rng = np.random.default_rng(93)
        spec = ConstellationSpec("psk", 4)
        mask = SubcarrierMask.all_used(16, 3)
        grid, _ = random_reference_grid(rng, spec, mask)
        ch = draw_channel(rng, 4, 3)
        rx = channel_apply(grid, ch, 0.0, rng)
        est = zf_equalize(rx, ch)
        assert np.allclose(est, grid.symbols, atol=1e-10)

    def test_bit_errors_zero_without_noise(self):
        rng = np.random.default_rng(94)
        spec = ConstellationSpec("qam", 16)
        mask = SubcarrierMask.random(rng, 32, 2, 0.1)
        grid, bits = random_reference_grid(rng, spec, mask)
        ch = draw_channel(rng, 3, 2)
        est = zf_equalize(channel_apply(grid, ch, 0.0, rng), ch)
        assert bit_errors(est, bits, spec, mask) == 0


class TestBerStatistics:
    def test_qpsk_awgn_matches_qfunction(self):
        # single antenna, identity channel: uncoded QPSK BER = Q(1/sigma)
        rng = np.random.default_rng(95)
        spec = ConstellationSpec("psk", 4)
        n = 4096
        mask = SubcarrierMask.all_used(n, 1)
        grid, bits = random_reference_grid(rng, spec, mask)
        from pslwave.comms import ChannelRealization

        ch = ChannelRealization(np.array([[1.0 + 0.0j]]))
        for snr_db in (4.0, 8.0):
            sigma = np.sqrt(10 ** (-snr_db / 10.0))
            errs = 0
            n_rep = 8
            for _ in range(n_rep):
                est = zf_equalize(channel_apply(grid, ch, sigma, rng), ch)
                errs += bit_errors(est, bits, spec, mask)
            ber = errs / (n_rep * bits.size)
            expect = qfunc(1.0 / sigma)
            assert ber == pytest.approx(expect, rel=0.25)

    def test_campaign_pairs_share_noise(self):
        # identical grids in both arms must give identical BER at every point
        rng = np.random.default_rng(96)
        spec = ConstellationSpec("psk", 4)
        mask = SubcarrierMask.all_used(64, 2)
        grid, bits = random_reference_grid(rng, spec, mask)
        out = ber_campaign(
            [(grid, grid.copy(), bits)], [0.0, 6.0, 12.0], spec, mask, rng, n_rx=2
        )
        assert np.array_equal(out["original"], out["optimized"])

    def test_campaign_monotone_in_snr(self):
        rng = np.random.default_rng(97)
        spec = ConstellationSpec("psk", 4)
        mask = SubcarrierMask.all_used(128, 2)
        pairs = []
        for _ in range(20):
            grid, bits = random_reference_grid(rng, spec, mask)
            pairs.append((grid, grid.copy(), bits))
        out = ber_campaign(pairs, [0.0, 10.0, 20.0], spec, mask, rng, n_rx=4)
        ber = out["original"]
        assert ber[0] > ber[1] > ber[2]

    @pytest.mark.parametrize("family,order,n,m", [("psk", 4, 128, 4), ("qam", 16, 64, 2)])
    def test_campaign_matches_per_snr_loop(self, family, order, n, m):
        # reference: one 2-D channel_apply / zf_equalize / bit_errors call per SNR point
        spec = ConstellationSpec(family, order)
        mask = SubcarrierMask.random(np.random.default_rng(99), n, m, 0.05)
        grid_rng = np.random.default_rng(100)
        pairs = []
        for _ in range(3):
            ref, bits = random_reference_grid(grid_rng, spec, mask)
            opt = SymbolGrid(ref.symbols * np.exp(0.1j * grid_rng.standard_normal((n, m))))
            pairs.append((ref, opt, bits))
        snr_db = [0.0, 6.0, 12.0, 18.0]
        out = ber_campaign(pairs, snr_db, spec, mask, np.random.default_rng(101), n_rx=m)

        rng = np.random.default_rng(101)
        errors = {"original": np.zeros(len(snr_db)), "optimized": np.zeros(len(snr_db))}
        for ref, opt, bits in pairs:
            es_avg = ref.energy() / mask.n_used
            ch = draw_channel(rng, m, m)
            for si, snr in enumerate(snr_db):
                sigma = float(np.sqrt(es_avg / 10.0 ** (snr / 10.0)))
                noise = (
                    rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m))
                ) / np.sqrt(2.0)
                for key, grid in (("original", ref), ("optimized", opt)):
                    est = zf_equalize(channel_apply(grid, ch, sigma, rng, noise=noise), ch)
                    count = bit_errors(est, bits, spec, mask)
                    assert isinstance(count, int)
                    errors[key][si] += count
        n_bits = sum(b.size for _, _, b in pairs)
        for key in errors:
            assert np.array_equal(out[key], errors[key] / n_bits)

    def test_campaign_returns_rates(self):
        rng = np.random.default_rng(98)
        spec = ConstellationSpec("psk", 4)
        mask = SubcarrierMask.all_used(32, 2)
        grid, bits = random_reference_grid(rng, spec, mask)
        out = ber_campaign([(grid, grid.copy(), bits)], [0.0], spec, mask, rng)
        assert 0.0 <= out["original"][0] <= 1.0
