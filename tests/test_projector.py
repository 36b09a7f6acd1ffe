"""Similarity-region projectors: feasibility, idempotence, and near-optimality."""

import numpy as np
import pytest

from pslwave import config
from pslwave.constellation import ConstellationSpec, SubcarrierMask, random_reference_grid
from pslwave.projector import (
    Projection, _sector, clamp_unused, project_grid, psk_project, qam_project,
)
from pslwave.spectrum import SymbolGrid

EPS_P = 2 * np.pi * 0.15 / 4  # QPSK, rho = 0.15
EPS_A = 0.2


def random_points(rng, n, scale=3.0):
    return scale * (rng.standard_normal(n) + 1j * rng.standard_normal(n))


def psk_feasible(out, xr, eps_p, eps_a, tol=1e-9):
    """Region invariant: phase within eps_p, amplitude in [1-eps_a, 1]."""
    u = out * np.conj(xr)
    phase_ok = np.abs(np.angle(u)) <= eps_p + tol
    r = np.abs(u)
    amp_ok = (r >= 1.0 - eps_a - tol) & (r <= 1.0 + tol)
    return phase_ok & amp_ok


def psk_project_one(z, eps_p=EPS_P, eps_a=EPS_A):
    """Projection of one point with the reference at 1 + 0j."""
    return complex(psk_project(np.array([z]), np.array([1.0 + 0.0j]), eps_p, eps_a)[0])


class TestPskProjector:
    def test_feasible_points_cover_all_cases(self):
        rng = np.random.default_rng(30)
        xr = np.exp(2j * np.pi * rng.random(20000))
        z = random_points(rng, 20000)
        out = psk_project(z, xr, EPS_P, EPS_A)
        assert np.all(psk_feasible(out, xr, EPS_P, EPS_A))

    def test_interior_points_are_fixed(self):
        rng = np.random.default_rng(31)
        # strictly inside the region: phase and amplitude well within bounds
        phases = rng.uniform(-0.9 * EPS_P, 0.9 * EPS_P, 500)
        radii = rng.uniform(1.0 - 0.9 * EPS_A, 0.999, 500)
        u = radii * np.exp(1j * phases)
        out = psk_project(u, np.ones_like(u), EPS_P, EPS_A)
        assert np.allclose(out, u, atol=1e-12)

    def test_idempotent(self):
        rng = np.random.default_rng(32)
        xr = np.exp(2j * np.pi * rng.random(5000))
        z = random_points(rng, 5000)
        once = psk_project(z, xr, EPS_P, EPS_A)
        twice = psk_project(once, xr, EPS_P, EPS_A)
        assert np.allclose(twice, once, atol=1e-9)

    def test_a_scalar_projects_as_a_one_entry_array(self):
        z, xr = 2.0 - 0.5j, np.exp(0.3j)
        out = psk_project(z, xr, EPS_P, EPS_A)
        assert np.ndim(out) == 0
        assert out == psk_project(np.array([z]), np.array([xr]), EPS_P, EPS_A)[0]

    def test_origin_maps_to_inner_radius(self):
        out = psk_project_one(0.0 + 0.0j)
        assert abs(out) == pytest.approx(1.0 - EPS_A)
        assert np.angle(out) == pytest.approx(0.0, abs=1e-12)

    def test_far_radial_point_hits_unit_arc(self):
        out = psk_project_one(5.0 + 0.0j)
        assert out == pytest.approx(1.0 + 0.0j)

    def test_large_angle_outside_hits_nearest_corner(self):
        # outside the wedge the foot on the upper edge lies beyond radius 1
        # (1.5 * cos(0.8) > 1), so the nearest point is the unit corner
        z = 1.5 * np.exp(1j * (EPS_P + 0.8))
        out = psk_project_one(z)
        assert out == pytest.approx(np.exp(1j * EPS_P), abs=1e-12)

    def test_far_point_above_wedge_hits_unit_corner(self):
        z = 1.5 * np.exp(1j * (EPS_P + 0.05))  # Re still above 1
        out = psk_project_one(z)
        assert abs(out) == pytest.approx(1.0)
        assert np.angle(out) == pytest.approx(EPS_P)

    def test_behind_sector_projects_onto_inner_corner(self):
        out = psk_project_one(-2.0 + 0.05j)
        assert out == pytest.approx((1.0 - EPS_A) * np.exp(1j * EPS_P), abs=1e-12)

    def test_within_factor_of_grid_optimum(self):
        # nearest-point distance against a dense grid over the sector
        # {|phase| <= eps_p, 1 - eps_a <= |u| <= 1}; the projection is exact,
        # so only the grid resolution separates the two
        rng = np.random.default_rng(33)
        z = random_points(rng, 400)
        for rho, order in [(0.15, 4), (0.3, 4), (0.45, 2), (0.1, 8)]:
            eps_p = ConstellationSpec("psk", order, rho=rho).eps_p
            phases = np.linspace(-eps_p, eps_p, 401)
            radii = np.linspace(1.0 - EPS_A, 1.0, 201)
            sector = (radii[:, None] * np.exp(1j * phases[None, :])).ravel()
            out = psk_project(z, np.ones_like(z), eps_p, EPS_A)
            assert np.all(psk_feasible(out, np.ones_like(z), eps_p, EPS_A)), (rho, order)
            d_out = np.abs(out - z)
            d_grid = np.min(np.abs(z[:, None] - sector[None, :]), axis=1)
            assert np.all(d_out <= 1.0 * d_grid + 1e-3), (rho, order)

    def test_rotation_equivariance(self):
        rng = np.random.default_rng(34)
        z = random_points(rng, 200)
        rot = np.exp(1j * 1.234)
        a = psk_project(z * rot, np.full_like(z, rot), EPS_P, EPS_A)
        b = psk_project(z, np.ones_like(z), EPS_P, EPS_A) * rot
        assert np.allclose(a, b, atol=1e-9)


def exp_psk_project_canonical(u: np.ndarray, eps_p: float, eps_a: float) -> np.ndarray:
    """The canonical PSK projection in two branches (radial clamp inside the
    wedge, nearer edge outside it), kept as a reference for the closed form."""
    r = np.abs(u)
    inner = 1.0 - eps_a
    radial = np.where(r > 0.0, u * (np.clip(r, inner, 1.0) / np.where(r > 0.0, r, 1.0)), inner)
    edge = np.exp(1j * np.where(u.imag >= 0.0, eps_p, -eps_p))
    along = np.clip((u * np.conj(edge)).real, inner, 1.0) * edge
    return np.where(np.abs(np.angle(u)) <= eps_p, radial, along)


class TestPskEdgeMatchesExp:
    """The closed form ``_sector`` gives the two-branch result within 2 ulp of 1."""

    @staticmethod
    def assert_same(u: np.ndarray, eps_p: float = EPS_P, eps_a: float = EPS_A):
        u = np.asarray(u, dtype=complex)
        diff = _sector(u, eps_p, 1.0 - eps_a) - exp_psk_project_canonical(u, eps_p, eps_a)
        assert np.max(np.abs(diff)) <= 2 * np.finfo(float).eps

    @pytest.mark.parametrize("eps_p,eps_a", [(EPS_P, EPS_A), (np.pi / 8, 0.0), (0.05, 1.0)])
    def test_random_points(self, eps_p, eps_a):
        rng = np.random.default_rng(43)
        for scale in (0.1, 1.0, 3.0):
            self.assert_same(random_points(rng, 2000, scale), eps_p, eps_a)

    def test_origin(self):
        self.assert_same(np.zeros(3))

    def test_on_the_edges(self):
        r = np.array([0.1, 1.0 - EPS_A, 0.9, 1.0, 2.5])
        self.assert_same(np.concatenate([r * np.exp(1j * EPS_P), r * np.exp(-1j * EPS_P)]))

    def test_on_the_real_axis(self):
        re = np.array([-2.0, -0.5, -0.0, 0.0, 0.3, 0.8, 1.0, 4.0])
        for im in (0.0, -0.0):
            u = np.empty(re.size, dtype=complex)
            u.real, u.imag = re, im
            self.assert_same(u)

    def test_on_the_inner_circle(self):
        phase = np.linspace(-np.pi, np.pi, 41)
        self.assert_same((1.0 - EPS_A) * np.exp(1j * phase))


class TestQamProjector:
    def test_exact_metric_projection(self):
        rng = np.random.default_rng(35)
        xr = random_points(rng, 2000, scale=2.0)
        z = random_points(rng, 2000)
        eps_r = 0.3
        out = qam_project(z, xr, eps_r)
        far = np.abs(z - xr) > eps_r
        # outside points land exactly on the circle toward z
        assert np.allclose(np.abs(out[far] - xr[far]), eps_r, atol=1e-12)
        expect = xr[far] + eps_r * (z[far] - xr[far]) / np.abs(z[far] - xr[far])
        assert np.allclose(out[far], expect, atol=1e-12)
        assert np.allclose(out[~far], z[~far], atol=1e-15)

    def test_nonexpansive(self):
        rng = np.random.default_rng(36)
        xr = 1.0 + 1.0j
        z1 = random_points(rng, 1000)
        z2 = random_points(rng, 1000)
        p1 = qam_project(z1, np.full(1000, xr), 0.3)
        p2 = qam_project(z2, np.full(1000, xr), 0.3)
        assert np.all(np.abs(p1 - p2) <= np.abs(z1 - z2) + 1e-12)

    def test_idempotent(self):
        rng = np.random.default_rng(37)
        xr = random_points(rng, 500, scale=2.0)
        z = random_points(rng, 500)
        once = qam_project(z, xr, 0.3)
        assert np.allclose(qam_project(once, xr, 0.3), once, atol=1e-12)

    def test_single_point(self):
        out = qam_project(np.array([3 + 4j]), np.array([0j]), 1.0)
        assert out[0] == pytest.approx(0.6 + 0.8j)

    def test_negative_radius_is_rejected(self):
        # a disc of negative radius is empty; the formula would send z away from xr
        with pytest.raises(ValueError, match="eps_r"):
            qam_project(np.array([1.0 + 0j]), np.array([0j]), -0.3)


class TestClampUnused:
    def test_psk_unit_disc(self):
        spec = ConstellationSpec("psk", 4)
        z = np.array([0.3 + 0.4j, 3.0 + 4.0j])
        out = clamp_unused(z, spec)
        assert out[0] == pytest.approx(0.3 + 0.4j)
        assert out[1] == pytest.approx(0.6 + 0.8j)
        rng = np.random.default_rng(44)
        for scale in (0.1, 1.0, 3.0):
            z = random_points(rng, 2000, scale)
            r = np.abs(z)
            radial = np.where(r > 1.0, z / r, z)
            assert np.max(np.abs(clamp_unused(z, spec) - radial)) <= 1e-15
        assert np.all(clamp_unused(np.zeros(2, dtype=complex), spec) == 0.0)

    def test_qam_square(self):
        spec = ConstellationSpec("qam", 16)
        out = clamp_unused(np.array([6.0 + 1.0j, 1.0 - 2.0j, 2.0 - 6.0j]), spec)
        assert out == pytest.approx(np.array([3.0 + 0.5j, 1.0 - 2.0j, 1.0 - 3.0j]))


class TestProjectGrid:
    def _setup(self, family, order, seed):
        rng = np.random.default_rng(seed)
        spec = ConstellationSpec(family, order)
        mask = SubcarrierMask.random(rng, 32, 2, 0.2)
        from pslwave.constellation import random_reference_grid

        ref, _ = random_reference_grid(rng, spec, mask)
        z = SymbolGrid(
            ref.symbols + 0.5 * (rng.standard_normal((32, 2)) + 1j * rng.standard_normal((32, 2)))
        )
        return spec, mask, ref, z

    @pytest.mark.parametrize("family,order", [("psk", 4), ("qam", 16)])
    def test_idempotent(self, family, order):
        spec, mask, ref, z = self._setup(family, order, 38)
        once = project_grid(z, ref, spec, mask)
        twice = project_grid(once, ref, spec, mask)
        assert np.allclose(twice.symbols, once.symbols, atol=1e-9)

    def test_psk_used_entries_feasible(self):
        spec, mask, ref, z = self._setup("psk", 4, 39)
        out = project_grid(z, ref, spec, mask)
        used = mask.used
        assert np.all(
            psk_feasible(out.symbols[used], ref.symbols[used], spec.eps_p, spec.eps_a)
        )

    def test_unused_entries_clamped_not_projected(self):
        spec, mask, ref, z = self._setup("psk", 4, 40)
        out = project_grid(z, ref, spec, mask)
        unused = ~mask.used
        assert np.all(np.abs(out.symbols[unused]) <= 1.0 + 1e-12)
        small = np.abs(z.symbols[unused]) <= 1.0
        assert np.allclose(out.symbols[unused][small], z.symbols[unused][small])

    def test_zero_grid(self):
        spec, mask, ref, _ = self._setup("psk", 4, 41)
        zero = SymbolGrid(np.zeros((32, 2), dtype=complex))
        out = project_grid(zero, ref, spec, mask)
        used = mask.used
        assert np.allclose(np.abs(out.symbols[used]), 1.0 - spec.eps_a, atol=1e-12)
        assert np.all(out.symbols[~mask.used] == 0)

    def test_shape_mismatch(self):
        spec, mask, ref, _ = self._setup("psk", 4, 42)
        with pytest.raises(ValueError):
            project_grid(SymbolGrid(np.zeros((16, 2), dtype=complex)), ref, spec, mask)


def indexed_projection(z, xr, spec, mask):
    """The boolean-indexed composition of the element projectors, kept as the
    reference for the full-grid ``Projection``."""
    out = np.empty_like(z)
    used, unused = mask.used, ~mask.used
    if spec.family == "psk":
        out[used] = psk_project(z[used], xr[used], spec.eps_p, spec.eps_a)
    else:
        out[used] = qam_project(z[used], xr[used], spec.eps_r)
    out[unused] = clamp_unused(z[unused], spec)
    return out


class TestProjectionPlan:
    """``Projection`` projects whole grids as the boolean-indexed composition does."""

    CASES = {
        "default": {},
        "unused0": {"unused_fraction": 0.0},
        "m1": {"n_antennas": 1},
        "qam16-unused": {"family": "qam", "order": 16, "n_subcarriers": 64, "n_antennas": 2,
                         "n_cp": 16, "unused_fraction": 0.2},
    }

    @staticmethod
    def seeded(overrides, trial):
        cfg = config.ExperimentConfig(**overrides)
        spec = cfg.constellation()
        rng = config.trial_rng(0, trial)
        mask = cfg.mask(rng)
        ref, _ = random_reference_grid(rng, spec, mask)
        return spec, mask, ref, rng

    @staticmethod
    def special_points(spec, ref, rng):
        """A grid near the reference whose first rows hold the hard cases: points
        on both wedge edges (inside and beyond the annulus), the origin, and
        -0.0 + 0j and -0.0 - 0j as entries."""
        xr = ref.symbols
        z = xr + 0.6 * (rng.standard_normal(xr.shape) + 1j * rng.standard_normal(xr.shape))
        n, m = z.shape
        radii = np.array([0.1, 1.0 - spec.eps_a, 0.9, 1.0, 2.5])
        edges = np.concatenate([radii * np.exp(1j * spec.eps_p), radii * np.exp(-1j * spec.eps_p)])
        k = min(edges.size, n)
        z[:k, 0] = xr[:k, 0] * edges[:k]
        z[k, :] = 0.0
        z[k + 1, :] = complex(-0.0, 0.0)
        z[k + 2, :] = complex(-0.0, -0.0)
        return z

    @pytest.mark.parametrize("case", CASES)
    def test_matches_the_indexed_composition(self, case):
        overrides = self.CASES[case]
        for trial in range(6):
            spec, mask, ref, rng = self.seeded(overrides, trial)
            plan = Projection(ref, spec, mask)
            for z in (self.special_points(spec, ref, rng),
                      ref.symbols + 3.0 * (rng.standard_normal(ref.symbols.shape)
                                           + 1j * rng.standard_normal(ref.symbols.shape))):
                expected = indexed_projection(z, ref.symbols, spec, mask)
                assert np.max(np.abs(plan(z) - expected)) <= 1e-15
                assert np.array_equal(project_grid(SymbolGrid(z), ref, spec, mask).symbols,
                                      plan(z))

    def test_a_rotated_origin_stays_outside_the_wedge(self):
        # z = -0.0 + 0j on a reference e^{-i pi/4} rotates to u = -0.0 + 0j, which
        # np.angle puts at pi: the projection is the inner corner on the upper edge
        spec = ConstellationSpec("psk", 4)
        xr = np.exp(-0.25j * np.pi)
        assert np.signbit((complex(-0.0, 0.0) * np.conj(xr)).real)
        mask = SubcarrierMask.all_used(1, 1)
        out = Projection(SymbolGrid(np.array([[xr]])), spec, mask)(np.array([[complex(-0.0, 0.0)]]))
        # inside the wedge it would go to the inner radius on the axis, 0.19 away
        expected = (1.0 - spec.eps_a) * np.exp(1j * spec.eps_p) * xr
        assert abs(out[0, 0] - expected) <= 1e-15
        assert out[0, 0] == psk_project(np.array([complex(-0.0, 0.0)]), np.array([xr]),
                                        spec.eps_p, spec.eps_a)[0]

    @pytest.mark.parametrize("case", CASES)
    def test_inputs_are_not_written(self, case):
        # the sector is built in its own arrays: z and the references stay as they were
        spec, mask, ref, rng = self.seeded(self.CASES[case], 0)
        z = self.special_points(spec, ref, rng)
        kept, kept_ref = z.copy(), ref.symbols.copy()
        Projection(ref, spec, mask)(z)
        clamp_unused(z, spec)
        if spec.family == "psk":
            psk_project(z, ref.symbols, spec.eps_p, spec.eps_a)
        # bytes, so that a -0.0 written over as +0.0 shows
        assert z.tobytes() == kept.tobytes()
        assert ref.symbols.tobytes() == kept_ref.tobytes()

    @pytest.mark.parametrize("eps_p", [0.5 * np.pi, 2.0, -0.1])
    def test_phase_tolerance_outside_the_tangent_domain(self, eps_p):
        with pytest.raises(ValueError, match="eps_p"):
            psk_project(np.ones(3), np.ones(3), eps_p, EPS_A)

    @pytest.mark.parametrize("eps_a", [1.5, -0.1])
    def test_amplitude_tolerance_outside_the_unit_interval(self, eps_a):
        # an inner radius 1 - eps_a below 0 would send the origin to phase pi
        with pytest.raises(ValueError, match="eps_a"):
            psk_project(np.array([0j]), np.ones(1), EPS_P, eps_a)

    def test_shape_mismatch(self):
        spec, mask, ref, _ = self.seeded({}, 0)
        with pytest.raises(ValueError):
            Projection(SymbolGrid(ref.symbols[:-1]), spec, mask)
        with pytest.raises(ValueError):
            Projection(ref, spec, mask)(ref.symbols[:, :1])
