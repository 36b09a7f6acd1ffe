"""Communication chain: channel, zero-forcing equalizer, BER statistics."""

import sys
import threading
import tracemalloc

import numpy as np
import pytest
from scipy import special

from pslwave import comms
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
        hs = np.stack([draw_channel(rng, 4, 2) for _ in range(500)])
        assert hs.shape == (500, 4, 2)
        # CN(0, 1): unit variance per entry, zero mean
        assert np.mean(np.abs(hs) ** 2) == pytest.approx(1.0, rel=0.05)
        assert abs(np.mean(hs)) < 0.05

    def test_noise_free_apply(self):
        rng = np.random.default_rng(91)
        grid = SymbolGrid(np.eye(3, 2) + 0j)
        h = draw_channel(rng, 4, 2)
        rx = channel_apply(grid, h, 0.0, np.zeros((3, 4)))
        assert np.allclose(rx[0], h[:, 0])
        assert np.allclose(rx[1], h[:, 1])

    def test_supplied_noise_is_used(self):
        rng = np.random.default_rng(92)
        grid = SymbolGrid(np.zeros((4, 2), dtype=complex))
        h = draw_channel(rng, 2, 2)
        noise = np.full((4, 2), 1.0 + 0.0j)
        rx = channel_apply(grid, h, 0.5, noise)
        assert np.allclose(rx, 0.5)


    @pytest.mark.parametrize("k,m", [(2, 2), (4, 4), (8, 4)])
    def test_stack_of_arms_equals_per_arm_calls(self, k, m):
        # a (2, 1, N, M) stack under (S, 1, 1) noise levels gives (2, S, N, K),
        # each arm bit-identical to its own call
        rng = np.random.default_rng(94)
        spec = ConstellationSpec("psk", 4)
        mask = SubcarrierMask.all_used(16, m)
        arms = [random_reference_grid(rng, spec, mask)[0] for _ in range(2)]
        h = draw_channel(rng, k, m)
        sigma = np.array([0.1, 0.5, 2.0])[:, None, None]
        noise = rng.standard_normal((3, 16, k)) + 1j * rng.standard_normal((3, 16, k))
        rx = channel_apply(np.stack([a.symbols for a in arms])[:, None], h, sigma, noise)
        assert rx.shape == (2, 3, 16, k)
        for a, arm in enumerate(arms):
            assert np.array_equal(rx[a], channel_apply(arm, h, sigma, noise))


class TestZeroForcing:
    def test_perfect_recovery_without_noise(self):
        rng = np.random.default_rng(93)
        spec = ConstellationSpec("psk", 4)
        mask = SubcarrierMask.all_used(16, 3)
        grid, _ = random_reference_grid(rng, spec, mask)
        h = draw_channel(rng, 4, 3)
        rx = channel_apply(grid, h, 0.0, np.zeros((16, 4)))
        est = zf_equalize(rx, h)
        assert np.allclose(est, grid.symbols, atol=1e-10)

    @pytest.mark.parametrize("k,m", [(2, 2), (4, 4), (8, 4)])
    def test_stack_equals_per_slice_products(self, k, m):
        # the flattened stack rounds as one 2-D product per (arm, SNR) slice
        rng = np.random.default_rng(95 + k + m)
        h = draw_channel(rng, k, m)
        rx = rng.standard_normal((2, 5, 64, k)) + 1j * rng.standard_normal((2, 5, 64, k))
        est = zf_equalize(rx, h)
        assert est.shape == (2, 5, 64, m)
        w = np.linalg.pinv(h).T
        for a in range(2):
            for s in range(5):
                assert est[a, s].tobytes() == (rx[a, s] @ w).tobytes()
                assert est[a, s].tobytes() == zf_equalize(rx[a, s], h).tobytes()

    def test_bit_errors_zero_without_noise(self):
        rng = np.random.default_rng(94)
        spec = ConstellationSpec("qam", 16)
        mask = SubcarrierMask.random(rng, 32, 2, 0.1)
        grid, bits = random_reference_grid(rng, spec, mask)
        h = draw_channel(rng, 3, 2)
        est = zf_equalize(channel_apply(grid, h, 0.0, np.zeros((32, 3))), h)
        assert bit_errors(est, bits, spec, mask) == 0


class TestBerStatistics:
    def test_qpsk_awgn_matches_qfunction(self):
        # single antenna, identity channel: uncoded QPSK BER = Q(1/sigma)
        rng = np.random.default_rng(95)
        spec = ConstellationSpec("psk", 4)
        n = 4096
        mask = SubcarrierMask.all_used(n, 1)
        grid, bits = random_reference_grid(rng, spec, mask)
        h = np.array([[1.0 + 0.0j]])
        for snr_db in (4.0, 8.0):
            sigma = np.sqrt(10 ** (-snr_db / 10.0))
            errs = 0
            n_rep = 8
            for _ in range(n_rep):
                gauss = rng.standard_normal((2, n, 1))
                noise = (gauss[0] + 1j * gauss[1]) / np.sqrt(2.0)
                est = zf_equalize(channel_apply(grid, h, sigma, noise), h)
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
            h = draw_channel(rng, m, m)
            for si, snr in enumerate(snr_db):
                sigma = float(np.sqrt(es_avg / 10.0 ** (snr / 10.0)))
                noise = (
                    rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m))
                ) / np.sqrt(2.0)
                for key, grid in (("original", ref), ("optimized", opt)):
                    est = zf_equalize(channel_apply(grid, h, sigma, noise), h)
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
        out = ber_campaign([(grid, grid.copy(), bits)], [0.0], spec, mask, rng, n_rx=2)
        assert 0.0 <= out["original"][0] <= 1.0

    def test_campaign_rejects_an_empty_pair_list(self):
        spec = ConstellationSpec("psk", 4)
        mask = SubcarrierMask.all_used(32, 2)
        with pytest.raises(ValueError, match="pair"):
            ber_campaign([], [0.0, 10.0], spec, mask, np.random.default_rng(103), n_rx=2)

    @pytest.mark.parametrize("snr_db", [[], np.array([])], ids=["list", "array"])
    def test_campaign_rejects_an_empty_snr_list(self, snr_db):
        rng = np.random.default_rng(104)
        spec = ConstellationSpec("psk", 4)
        mask = SubcarrierMask.all_used(32, 2)
        grid, bits = random_reference_grid(rng, spec, mask)
        with pytest.raises(ValueError, match="SNR"):
            ber_campaign([(grid, grid.copy(), bits)], snr_db, spec, mask, rng, n_rx=2)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_campaign_rejects_a_non_finite_snr_point(self, bad):
        rng = np.random.default_rng(105)
        spec = ConstellationSpec("psk", 4)
        mask = SubcarrierMask.all_used(32, 2)
        grid, bits = random_reference_grid(rng, spec, mask)
        state = rng.bit_generator.state
        with pytest.raises(ValueError, match="SNR"):
            ber_campaign([(grid, grid.copy(), bits)], [10.0, bad], spec, mask, rng, n_rx=2)
        assert rng.bit_generator.state == state  # rejected before any draw

    @pytest.mark.parametrize("bad,match", [
        (4000.0, "SNR point 4000.0 dB has no finite positive power ratio"),
        (-4000.0, "SNR point -4000.0 dB has no finite positive power ratio"),
        # 10**(-323) is a positive double, but its reciprocal is not finite
        (-3230.0, "SNR point -3230.0 dB has no finite positive power ratio"),
    ])
    def test_campaign_rejects_a_point_without_a_finite_noise_level(self, bad, match):
        rng = np.random.default_rng(106)
        spec = ConstellationSpec("psk", 4)
        mask = SubcarrierMask.all_used(32, 2)
        grid, bits = random_reference_grid(rng, spec, mask)
        state = rng.bit_generator.state
        with pytest.raises(ValueError, match=match):
            ber_campaign([(grid, grid.copy(), bits)], [10.0, bad], spec, mask, rng, n_rx=2)
        assert rng.bit_generator.state == state  # rejected before any draw

    def test_campaign_rejects_an_overflowing_noise_level(self):
        # 1 / 10**(-300) is finite, but Es / 10**(-300) is not when Es = 1e10
        rng = np.random.default_rng(107)
        spec = ConstellationSpec("psk", 4)
        mask = SubcarrierMask.all_used(32, 2)
        grid, bits = random_reference_grid(rng, spec, mask)
        loud = SymbolGrid(grid.symbols * 1e5)
        with pytest.raises(ValueError, match="SNR point -3000.0 dB gives an infinite noise level"):
            ber_campaign([(loud, loud.copy(), bits)], [10.0, -3000.0], spec, mask, rng, n_rx=2)

    def test_campaign_rejects_a_grid_not_of_the_mask_shape(self):
        rng = np.random.default_rng(108)
        spec = ConstellationSpec("psk", 4)
        mask = SubcarrierMask.all_used(32, 2)
        grid, bits = random_reference_grid(rng, spec, mask)
        narrow = SymbolGrid(grid.symbols[:, :1])
        with pytest.raises(ValueError, match="mask's shape"):
            ber_campaign([(grid, narrow, bits)], [10.0], spec, mask, rng, n_rx=2)

    @pytest.mark.parametrize("edit,match", [
        # short bits failed inside the pass with numpy's boolean-assignment error
        (lambda b: b[:-1], "the bits of pair 1: need 128 bits for this mask, got 127"),
        (lambda b: np.append(b, 0), "the bits of pair 1: need 128 bits for this mask, got 129"),
        (lambda b: np.where(np.arange(b.size) == 5, 2, b), "the bits of pair 1: every bit must"),
        (lambda b: np.where(np.arange(b.size) == 5, -1, b), "the bits of pair 1: every bit must"),
        (lambda b: np.where(np.arange(b.size) == 5, 0.5, b), "the bits of pair 1: every bit must"),
    ], ids=["short", "long", "two", "minus-one", "half"])
    def test_campaign_rejects_bad_bits_before_any_draw(self, edit, match):
        rng = np.random.default_rng(109)
        spec = ConstellationSpec("psk", 4)
        mask = SubcarrierMask.all_used(32, 2)
        grid, bits = random_reference_grid(rng, spec, mask)
        pairs = [(grid, grid.copy(), bits), (grid, grid.copy(), edit(bits))]
        state = rng.bit_generator.state
        with pytest.raises(ValueError, match=match):
            ber_campaign(pairs, [10.0], spec, mask, rng, n_rx=2)
        assert rng.bit_generator.state == state  # rejected before any draw

    def test_campaign_rejects_fewer_receive_than_transmit_antennas(self):
        rng = np.random.default_rng(102)
        spec = ConstellationSpec("psk", 4)
        mask = SubcarrierMask.all_used(32, 4)
        grid, bits = random_reference_grid(rng, spec, mask)
        with pytest.raises(ValueError):
            ber_campaign([(grid, grid.copy(), bits)], [0.0], spec, mask, rng, n_rx=2)


def chain_campaign(pairs, snr_db, spec, mask, rng, n_rx):
    """``ber_campaign`` through the public reference chain, as it ran before its pass:
    one ``channel_apply`` of the stack of both arms, ``zf_equalize``, ``bit_errors``."""
    n_snr = len(snr_db)
    errors = np.zeros((2, n_snr))
    for ref, opt, bits in pairs:
        n, m = ref.symbols.shape
        es_avg = ref.energy() / mask.n_used
        sigma = np.array([np.sqrt(es_avg / 10.0 ** (s / 10.0)) for s in snr_db])
        h = draw_channel(rng, n_rx, m)
        gauss = rng.standard_normal((n_snr, 2, n, n_rx))
        noise = np.empty((n_snr, n, n_rx), dtype=complex)
        np.multiply(gauss[:, 0], 1.0 / np.sqrt(2.0), out=noise.real)
        np.multiply(gauss[:, 1], 1.0 / np.sqrt(2.0), out=noise.imag)
        arms = np.stack((ref.symbols, opt.symbols))[:, None]
        rx = channel_apply(arms, h, sigma[:, None, None], noise)
        errors += bit_errors(zf_equalize(rx, h), bits, spec, mask)
    n_bits = sum(b.size for _, _, b in pairs)
    return {"original": errors[0] / n_bits, "optimized": errors[1] / n_bits}


def perturbed_pairs(seed, spec, mask, count):
    """``count`` (reference, phase-perturbed reference, bits) pairs."""
    rng = np.random.default_rng(seed)
    pairs = []
    for _ in range(count):
        ref, bits = random_reference_grid(rng, spec, mask)
        opt = SymbolGrid(ref.symbols * np.exp(0.1j * rng.standard_normal(ref.symbols.shape)))
        pairs.append((ref, opt, bits))
    return pairs


# (family, order, N, M, n_rx, unused fraction)
PASS_CASES = [
    ("psk", 4, 64, 2, 2, 0.0),
    ("psk", 4, 128, 4, 4, 0.05),
    ("psk", 8, 48, 3, 5, 0.1),
    ("qam", 16, 64, 2, 2, 0.05),
    ("qam", 16, 32, 2, 4, 0.0),
    ("qam", 64, 40, 3, 3, 0.1),
]
PASS_IDS = [f"{f}{q}-{n}x{m}-rx{k}-unused{u}" for f, q, n, m, k, u in PASS_CASES]
PASS_SNR_DB = [-6.0, 0.0, 6.0, 12.0, 18.0, 24.0]


class TestBerPass:
    """``ber_campaign``'s workspace pass against the reference chain."""

    @staticmethod
    def _case(family, order, n, m, unused, seed=120):
        spec = ConstellationSpec(family, order)
        mask = SubcarrierMask.random(np.random.default_rng(seed), n, m, unused)
        return spec, mask, perturbed_pairs(seed + 1, spec, mask, 3)

    @pytest.mark.parametrize("family,order,n,m,n_rx,unused", PASS_CASES, ids=PASS_IDS)
    def test_pass_equals_the_reference_chain(self, family, order, n, m, n_rx, unused):
        spec, mask, pairs = self._case(family, order, n, m, unused)
        before = [(r.symbols.copy(), o.symbols.copy(), b.copy()) for r, o, b in pairs]
        out = ber_campaign(pairs, PASS_SNR_DB, spec, mask, np.random.default_rng(7), n_rx=n_rx)
        want = chain_campaign(pairs, PASS_SNR_DB, spec, mask, np.random.default_rng(7), n_rx)
        n_bits = sum(b.size for _, _, b in pairs)
        for key in ("original", "optimized"):
            assert np.array_equal(out[key], want[key]), key
        # the low points make errors in both arms, so the counts are compared, not zeros
        assert out["original"][0] * n_bits > 10 and out["optimized"][0] * n_bits > 10
        for (r, o, b), (r0, o0, b0) in zip(pairs, before):  # nothing written into the inputs
            assert np.array_equal(r.symbols, r0) and np.array_equal(o.symbols, o0)
            assert np.array_equal(b, b0)

    @pytest.mark.parametrize("family,order,n,m,n_rx,unused", PASS_CASES, ids=PASS_IDS)
    def test_pass_equals_the_chain_on_an_ill_conditioned_channel(
        self, monkeypatch, family, order, n, m, n_rx, unused
    ):
        # the pass equalizes only the noise, so its estimates differ from the chain's by
        # (pinv(H) H - I) x, which grows with the condition number: here about 1e6
        rng = np.random.default_rng(150)
        u = np.linalg.qr(rng.standard_normal((n_rx, m)) + 1j * rng.standard_normal((n_rx, m)))[0]
        v = np.linalg.qr(rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m)))[0]
        h = (u * np.geomspace(1.0, 1e-6, m)) @ v.conj().T
        assert np.linalg.cond(h) == pytest.approx(1e6)
        assert np.max(np.abs(np.linalg.pinv(h) @ h - np.eye(m))) > 1e-11
        for module in (comms, sys.modules[__name__]):  # the pass and chain_campaign
            monkeypatch.setattr(module, "draw_channel", lambda rng, n_rx, n_tx: h)
        spec, mask, pairs = self._case(family, order, n, m, unused)
        # the noise on the weakest direction is 120 dB up: points from 0 to 140 dB
        snr_db = [0.0, 100.0, 110.0, 120.0, 130.0, 140.0]
        out = ber_campaign(pairs, snr_db, spec, mask, np.random.default_rng(7), n_rx=n_rx)
        want = chain_campaign(pairs, snr_db, spec, mask, np.random.default_rng(7), n_rx)
        n_bits = sum(b.size for _, _, b in pairs)
        for key in ("original", "optimized"):
            assert np.array_equal(out[key], want[key]), key
            assert out[key][0] * n_bits > 10 and out[key][-1] < out[key][0]

    def test_interleaved_shapes_give_the_results_of_fresh_calls(self):
        # shapes change from call to call, and each shape runs twice in a row on other
        # grids, so a reused workspace holds the last campaign's values
        cases = [(c, snr) for c in PASS_CASES[:5] for snr in (PASS_SNR_DB, PASS_SNR_DB[:2])]
        runs = []
        for (family, order, n, m, n_rx, unused), snr in cases * 2:
            for seed in (120, 130):
                spec, mask, pairs = self._case(family, order, n, m, unused, seed)
                runs.append((pairs, snr, spec, mask, n_rx))
        reused = [ber_campaign(p, s, spec, mask, np.random.default_rng(9), n_rx=k)
                  for p, s, spec, mask, k in runs]
        for (p, s, spec, mask, k), out in zip(runs, reused):
            comms._LOCAL.ws = None
            fresh = ber_campaign(p, s, spec, mask, np.random.default_rng(9), n_rx=k)
            for key in ("original", "optimized"):
                assert np.array_equal(out[key], fresh[key])

    def test_concurrent_campaigns_give_the_sequential_results(self):
        # more threads than cores, switching often, all on one shape: a workspace
        # shared by two running campaigns would mix their counts
        spec, mask, pairs = self._case("qam", 16, 64, 2, 0.05)
        seeds = range(32)
        n_threads = 4

        def run(seed):
            return ber_campaign(pairs, PASS_SNR_DB, spec, mask, np.random.default_rng(seed),
                                n_rx=3)

        sequential = [run(seed) for seed in seeds]
        results = [None] * len(seeds)
        start = threading.Barrier(n_threads)

        def worker(offset):
            start.wait()
            for i in range(offset, len(seeds), n_threads):
                results[i] = run(seeds[i])

        threads = [threading.Thread(target=worker, args=(k,)) for k in range(n_threads)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        for want, got in zip(sequential, results):
            for key in ("original", "optimized"):
                assert np.array_equal(want[key], got[key])

    def test_a_warm_default_campaign_allocates_little(self):
        # the default shape: QPSK, N = 128, M = 4, n_rx = 4, 11 SNR points
        spec = ConstellationSpec("psk", 4)
        mask = SubcarrierMask.random(np.random.default_rng(130), 128, 4, 0.05)
        pairs = perturbed_pairs(131, spec, mask, 1)
        snr = [float(s) for s in np.arange(16.0, 36.5, 2.0)]
        ber_campaign(pairs, snr, spec, mask, np.random.default_rng(0), n_rx=4)
        tracemalloc.start()
        try:
            ber_campaign(pairs, snr, spec, mask, np.random.default_rng(1), n_rx=4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 128 * 1024, peak
