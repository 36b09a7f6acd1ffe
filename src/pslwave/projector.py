"""Similarity-region projectors: the nearest feasible point of every grid entry.

A used sub-carrier stays near its reference point xr: PSK in the annular
sector |angle(z) - angle(xr)| <= eps_p, 1 - eps_a <= |z| <= 1, QAM in the
disc |z - xr| <= eps_r.  An unused one is only power-limited: PSK to the
unit disc (the sector with phase limit pi and inner radius 0), QAM to the
square of half-side sqrt(Q) - 1 (the outermost ring).  Every projection is
exact.  ``Projection`` is one run's plan, set up once, which projects a
whole (N, M) array without writing it; ``project_grid`` applies a plan once.
"""

from __future__ import annotations

import numpy as np

from .constellation import ConstellationSpec, SubcarrierMask
from .spectrum import SymbolGrid

__all__ = ["psk_project", "qam_project", "clamp_unused", "Projection", "project_grid"]


def _check_psk(eps_p: float, eps_a: float) -> None:
    # every ConstellationSpec gives eps_p < pi/2 (rho < 1/2, Q >= 2) and eps_a in
    # [0, 1]; anything else is not one of its similarity regions
    if not 0.0 <= eps_p < 0.5 * np.pi:
        raise ValueError("eps_p must lie in [0, pi/2)")
    if not 0.0 <= eps_a <= 1.0:
        raise ValueError("eps_a must lie in [0, 1]")


def _sector(u: np.ndarray, eps, inner, _lower=None) -> np.ndarray:
    """Exact projection onto the annular sector |angle(u)| <= eps, inner <= |u| <= 1.

    The nearest point lies on the ray at the phase of u clipped to [-eps, eps]:
    u's own ray inside the wedge, the nearer edge outside it.  On that ray it is
    the foot of the perpendicular from u, clipped to the segment [inner, 1].
    ``+ 0.0`` makes Im u = -0.0 positive, so the whole negative real axis goes
    to the upper edge.  ``eps`` and ``inner`` are scalars or per-entry arrays;
    clamps are minimum(maximum()), np.clip's values at a lower cost per call.
    ``_lower``, when given, is -eps held by the caller, so a plan does not
    negate its per-entry limits on every call.

    ``u`` is only read.  The phase is clipped in place, the edge e^{i*phase}
    is cos and sin written into the real and imaginary views of one complex
    array (with numpy 2.4 on x86-64 glibc, bit for bit ``np.exp(1j *
    phase)``), and the point t * edge is written over the edge.  A 0-d ``u``
    gives a 0-d array.
    """
    edge = np.empty(np.shape(u), dtype=complex)
    phase = np.arctan2(u.imag + 0.0, u.real, out=np.empty(edge.shape))
    np.maximum(phase, -eps if _lower is None else _lower, out=phase)
    np.minimum(phase, eps, out=phase)
    np.cos(phase, out=edge.real)
    np.sin(phase, out=edge.imag)
    t = np.minimum(np.maximum((u * np.conj(edge)).real, inner), 1.0)
    return np.multiply(t, edge, out=edge)


def psk_project(z: np.ndarray, xr: np.ndarray, eps_p: float, eps_a: float) -> np.ndarray:
    """Project each z onto the PSK similarity sector around unit-modulus xr."""
    _check_psk(eps_p, eps_a)
    z = np.asarray(z, dtype=complex)
    xr = np.asarray(xr, dtype=complex)
    # rotate so the reference sits on the positive real axis
    return _sector(z * np.conj(xr), eps_p, 1.0 - eps_a) * xr


def qam_project(z: np.ndarray, xr: np.ndarray, eps_r: float) -> np.ndarray:
    """Exact projection onto the disc of radius eps_r around each xr."""
    if not eps_r >= 0.0:
        raise ValueError("eps_r must be >= 0")
    z = np.asarray(z, dtype=complex)
    xr = np.asarray(xr, dtype=complex)
    diff = z - xr
    dist = np.abs(diff)
    far = dist > eps_r
    scale = np.where(far, eps_r / np.where(dist > 0.0, dist, 1.0), 1.0)
    return xr + diff * scale


def clamp_unused(z: np.ndarray, spec: ConstellationSpec) -> np.ndarray:
    """Power-limit unused-carrier entries without a reference point."""
    z = np.asarray(z, dtype=complex)
    if spec.family == "psk":
        return _sector(z, np.pi, 0.0)
    limit = np.sqrt(spec.order) - 1.0
    d = np.maximum(np.abs(z.real), np.abs(z.imag))
    over = d > limit
    return np.where(over, z * (limit / np.where(over, d, 1.0)), z)


class Projection:
    """The projection onto one run's feasible set, set up once per run.

    ``reference``, ``spec`` and ``mask`` fix the region of every entry;
    calling the plan on an (N, M) array returns the entrywise projection.
    For PSK each entry gets its sector's phase limit and inner radius:
    eps_p and 1 - eps_a on a used carrier, pi and 0 (the unit disc) on an
    unused one, whose rotation is 1.  ``radius`` is sqrt(E) of the
    reference, the radius of the energy sphere that the optimizer's steps
    land on.  The conjugate rotation and the negated limits are kept too:
    forming them per call cost 1.5-2.4% of an optimize trial.
    """

    def __init__(self, reference: SymbolGrid, spec: ConstellationSpec, mask: SubcarrierMask):
        xr = reference.symbols
        if xr.shape != mask.used.shape:
            raise ValueError("grid, reference and mask shapes disagree")
        self.radius = np.sqrt(reference.energy())
        self._spec = spec
        self._used = used = mask.used
        if spec.family == "psk":
            _check_psk(spec.eps_p, spec.eps_a)
            self._rot = np.where(used, xr, 1.0)
            self._conj_rot = np.conj(self._rot)
            self._eps = np.where(used, spec.eps_p, np.pi)
            self._neg_eps = -self._eps
            self._inner = np.where(used, 1.0 - spec.eps_a, 0.0)
        else:
            self._xr = xr

    def __call__(self, z: np.ndarray) -> np.ndarray:
        if z.shape != self._used.shape:
            raise ValueError("grid, reference and mask shapes disagree")
        spec = self._spec
        if spec.family == "psk":
            # ``* self._rot`` stays out of place: on a 1 x 1 array an in-place complex
            # product rounds differently (one path fuses with FMA; numpy 2.4, x86-64)
            return _sector(z * self._conj_rot, self._eps, self._inner, self._neg_eps) * self._rot
        return np.where(self._used, qam_project(z, self._xr, spec.eps_r), clamp_unused(z, spec))


def project_grid(
    grid: SymbolGrid,
    reference: SymbolGrid,
    spec: ConstellationSpec,
    mask: SubcarrierMask,
) -> SymbolGrid:
    """Entrywise projection of a full grid onto the feasible set (a one-shot ``Projection``)."""
    return SymbolGrid(Projection(reference, spec, mask)(grid.symbols))
