"""Property-based invariants over randomized inputs."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from pslwave.constellation import (
    ConstellationSpec,
    SubcarrierMask,
    demodulate,
    modulate,
    random_reference_grid,
)
from pslwave.optimizer import OptimizerConfig, optimize
from pslwave.projector import project_grid, psk_project, qam_project
from pslwave.spectrum import LagWeights, SymbolGrid, cyclic_correlations

FAMILIES = st.sampled_from([("psk", 4), ("psk", 8), ("qam", 16)])


class TestCorrelationProperties:
    @given(st.integers(0, 2**32 - 1), st.integers(2, 4), st.integers(4, 16))
    @settings(max_examples=30, deadline=None)
    def test_conjugate_lag_symmetry(self, seed, m, n):
        rng = np.random.default_rng(seed)
        g = SymbolGrid(rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m)))
        r = cyclic_correlations(g)
        flipped = np.conj(np.roll(r[:, :, ::-1], 1, axis=2))
        assert np.allclose(r, np.swapaxes(flipped, 0, 1), atol=1e-8 * np.max(np.abs(r)))

    @given(st.integers(0, 2**32 - 1), st.floats(0.1, 3.0))
    @settings(max_examples=30, deadline=None)
    def test_scaling_is_quadratic(self, seed, s):
        rng = np.random.default_rng(seed)
        g = SymbolGrid(rng.standard_normal((8, 2)) + 1j * rng.standard_normal((8, 2)))
        r1 = cyclic_correlations(g)
        r2 = cyclic_correlations(SymbolGrid(s * g.symbols))
        assert np.allclose(r2, s**2 * r1, atol=1e-8 * max(np.max(np.abs(r2)), 1.0))


class TestModulationProperties:
    @given(
        st.integers(0, 2**32 - 1),
        st.sampled_from([("psk", 4), ("psk", 8), ("qam", 16), ("qam", 64)]),
    )
    @settings(max_examples=40, deadline=None)
    def test_round_trip(self, seed, family_order):
        family, order = family_order
        rng = np.random.default_rng(seed)
        spec = ConstellationSpec(family, order)
        mask = SubcarrierMask.random(rng, 16, 2, 0.1)
        bits = rng.integers(0, 2, size=spec.bits_per_symbol * mask.n_used, dtype=np.int8)
        assert np.array_equal(demodulate(modulate(bits, spec, mask), spec, mask), bits)

    @given(
        st.integers(0, 2**32 - 1),
        st.sampled_from(
            [("psk", 2), ("psk", 4), ("psk", 8), ("psk", 16), ("qam", 4), ("qam", 16), ("qam", 64)]
        ),
        st.integers(1, 3), st.integers(4, 24), st.integers(1, 4), st.floats(0.05, 2.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_slicer_is_minimum_distance(self, seed, family_order, s, n, m, noise):
        rng = np.random.default_rng(seed)
        spec = ConstellationSpec(*family_order)
        mask = SubcarrierMask.random(rng, n, m, 0.2)
        grid, _ = random_reference_grid(rng, spec, mask)
        scale = noise * np.max(np.abs(spec.points))
        stack = grid.symbols + scale * (
            rng.standard_normal((s, n, m)) + 1j * rng.standard_normal((s, n, m))
        )
        # brute force: distance to every point, in the stacked order modulate reads
        z = np.swapaxes(stack, -1, -2)[..., mask.used.T]
        dist = np.abs(z[..., None] - spec.points)
        labels = np.argmin(dist, axis=-1)
        bps = spec.bits_per_symbol
        expect = (labels[..., None] >> np.arange(bps - 1, -1, -1)) & 1
        # exact ties (up to round-off) may go either way; compare every other entry
        nearest = np.sort(dist, axis=-1)
        clear = nearest[..., 1] - nearest[..., 0] > 1e-9 * scale
        got = demodulate(stack, spec, mask).reshape(s, -1, bps)
        assert np.array_equal(got[clear], expect[clear])


class TestProjectorProperties:
    @given(st.integers(0, 2**32 - 1), st.floats(0.05, 0.45), st.floats(0.05, 0.5))
    @settings(max_examples=40, deadline=None)
    def test_psk_feasibility(self, seed, rho, eps_a):
        eps_p = 2 * np.pi * rho / 4
        rng = np.random.default_rng(seed)
        z = 3 * (rng.standard_normal(64) + 1j * rng.standard_normal(64))
        xr = np.exp(2j * np.pi * rng.random(64))
        out = psk_project(z, xr, eps_p, eps_a)
        u = out * np.conj(xr)
        assert np.all(np.abs(np.angle(u)) <= eps_p + 1e-9)
        assert np.all(np.abs(u) >= 1.0 - eps_a - 1e-9)
        assert np.all(np.abs(u) <= 1.0 + 1e-9)

    @given(st.integers(0, 2**32 - 1), st.floats(0.05, 1.0))
    @settings(max_examples=40, deadline=None)
    def test_qam_feasibility_and_idempotence(self, seed, eps_r):
        rng = np.random.default_rng(seed)
        z = 3 * (rng.standard_normal(64) + 1j * rng.standard_normal(64))
        xr = rng.standard_normal(64) + 1j * rng.standard_normal(64)
        out = qam_project(z, xr, eps_r)
        assert np.all(np.abs(out - xr) <= eps_r + 1e-9)
        assert np.allclose(qam_project(out, xr, eps_r), out, atol=1e-9)


class TestLagWeightProperties:
    @given(st.integers(2, 64).flatmap(lambda n: st.tuples(st.just(n), st.integers(2, n))))
    @settings(max_examples=40, deadline=None)
    def test_window_support(self, n_cp_pair):
        n, n_cp = n_cp_pair
        w = LagWeights(n, n_cp)
        assert w.mask.dtype == bool and w.mask.shape == (n,)
        assert np.array_equal(np.flatnonzero(w.mask), np.arange(1, n_cp))


class TestOptimizeProperties:
    @given(
        st.integers(0, 2**32 - 1), FAMILIES, st.sampled_from([16, 24, 32]),
        st.floats(0.0, 0.3), st.integers(1, 3),
    )
    @settings(max_examples=25, deadline=None)
    def test_single_antenna(self, seed, family_order, n, unused, l_max):
        rng = np.random.default_rng(seed)
        spec = ConstellationSpec(*family_order)
        mask = SubcarrierMask.random(rng, n, 1, unused)
        ref, _ = random_reference_grid(rng, spec, mask)
        w = LagWeights(n, n // 4)
        config = OptimizerConfig(l_max=l_max)
        report = optimize(ref, spec, mask, w, config)
        assert report.grid.symbols.shape == (n, 1)
        reproj = project_grid(report.grid, ref, spec, mask)
        assert np.allclose(reproj.symbols, report.grid.symbols, atol=1e-9)
        assert np.all(np.diff(report.eta_trace) <= 0.0)
        assert np.all(np.diff(report.psl_db_trace) <= 0.0)
        assert report.iterations <= l_max
        assert report.stop_reason in (
            "small_gain", "objective_increased", "max_iterations", "zero_sidelobe"
        )
        again = optimize(ref, spec, mask, w, config)
        assert np.array_equal(again.grid.symbols, report.grid.symbols)
        assert again.eta_trace == report.eta_trace

    @given(
        st.integers(0, 2**32 - 1), FAMILIES, st.sampled_from([8, 16, 32, 64]),
        st.integers(1, 4),
    )
    @settings(max_examples=25, deadline=None)
    def test_constant_grid_has_zero_sidelobes(self, seed, family_order, n, m):
        # one symbol per antenna on every sub-carrier: every correlation is a
        # delta at lag 0 (exactly so in the power-of-two FFT)
        rng = np.random.default_rng(seed)
        spec = ConstellationSpec(*family_order)
        ref = SymbolGrid(np.tile(spec.points[rng.integers(0, spec.order, m)], (n, 1)))
        report = optimize(ref, spec, SubcarrierMask.all_used(n, m), LagWeights(n, n // 4))
        assert report.stop_reason == "zero_sidelobe"
        assert report.iterations == 0 and report.eta_trace == [0.0]
        assert report.psl_db_before == report.psl_db_after == -np.inf
        assert np.array_equal(report.grid.symbols, ref.symbols)
