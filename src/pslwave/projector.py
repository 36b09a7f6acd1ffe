"""Similarity-region projectors: nearest feasible point for every grid entry.

Each used sub-carrier must stay close to its reference constellation point
``xr``:

* PSK: the annular sector |angle(z) - angle(xr)| <= eps_p, 1 - eps_a <= |z| <= 1,
  projected exactly.  Inside the wedge the phase is kept and the radius
  clamped; outside it the nearest point lies on the nearer straight edge.
* QAM: the Euclidean disc |z - xr| <= eps_r, projected exactly.

Unused sub-carriers are only power-limited: PSK entries are clamped to the
unit disc, QAM entries to the square of half-side sqrt(Q) - 1 (the outermost
constellation ring).

All projectors are written as vectorized array operations.  ``Projection``
is the plan of one run: it takes once what does not change between calls
(the used mask, the reference rotation and its conjugate, the mask of
unused PSK carriers and the sphere radius sqrt(E) of the reference) and
projects a whole (N, M) array with full-grid arithmetic, without boolean
indexing.  For PSK an unused carrier is the annulus with inner radius 0 and
no phase limit, that is the unit disc, so used and unused entries go
through one call of the sector projection; QAM takes the disc or the
square clamp per entry.  ``project_grid`` is the one-shot form: build a
plan, apply it once.
"""

from __future__ import annotations

import numpy as np

from .constellation import ConstellationSpec, SubcarrierMask
from .spectrum import SymbolGrid

__all__ = ["psk_project", "qam_project", "clamp_unused", "Projection", "project_grid"]


def psk_project(z: np.ndarray, xr: np.ndarray, eps_p: float, eps_a: float) -> np.ndarray:
    """Project each z onto the PSK similarity sector around unit-modulus xr."""
    z = np.asarray(z, dtype=complex)
    xr = np.asarray(xr, dtype=complex)
    # rotate so the reference sits on the positive real axis
    u = z * np.conj(xr)
    proj = _psk_project_canonical(u, eps_p, eps_a)
    return proj * xr


def _psk_project_canonical(
    u: np.ndarray, eps_p: float, eps_a: float, free: np.ndarray | None = None
) -> np.ndarray:
    """Exact projection onto the annular sector with the reference at 1 + 0j.

    ``eps_p`` lies in [0, pi/2), as ``ConstellationSpec`` gives it (rho < 1/2,
    Q >= 2).  Where the optional boolean ``free`` is True the region is the
    unit disc instead: inner radius 0 and no phase limit (an unused PSK
    carrier).
    """
    if not 0.0 <= eps_p < 0.5 * np.pi:
        raise ValueError("eps_p must lie in [0, pi/2)")
    r = np.abs(u)
    inner = 1.0 - eps_a
    # |angle(u)| <= eps_p without an arctan; the sign bit keeps u = -0.0 + 0j
    # outside, where np.angle puts it (at pi)
    wedge = (np.abs(u.imag) <= np.tan(eps_p) * u.real) & ~np.signbit(u.real)
    if free is not None:
        inner = np.where(free, 0.0, inner)
        wedge |= free
    # inside the wedge: keep the phase, clamp the radius (the origin goes to the inner
    # radius); clamps are minimum(maximum()), np.clip's values at a lower cost per call
    nonzero = r > 0.0
    clamped = np.minimum(np.maximum(r, inner), 1.0)
    radial = np.where(nonzero, u * (clamped / np.where(nonzero, r, 1.0)), inner)
    # outside it: the nearer edge in angle is the one on the side of Im u; the
    # foot of the perpendicular on that edge is clipped to the segment [inner, 1]
    e_pos, e_neg = np.exp(1j * np.array([eps_p, -eps_p]))
    edge = np.where(u.imag >= 0.0, e_pos, e_neg)
    along = np.minimum(np.maximum((u * np.conj(edge)).real, inner), 1.0) * edge
    return np.where(wedge, radial, along)


def qam_project(z: np.ndarray, xr: np.ndarray, eps_r: float) -> np.ndarray:
    """Exact projection onto the disc of radius eps_r around each xr."""
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
        r = np.abs(z)
        over = r > 1.0
        return np.where(over, z / np.where(over, r, 1.0), z)
    limit = np.sqrt(spec.order) - 1.0
    d = np.maximum(np.abs(z.real), np.abs(z.imag))
    over = d > limit
    return np.where(over, z * (limit / np.where(over, d, 1.0)), z)


class Projection:
    """The projection onto one run's feasible set, set up once per run.

    ``reference``, ``spec`` and ``mask`` fix the region of every entry;
    calling the plan on an (N, M) array returns the entrywise projection.
    ``radius`` is sqrt(E) of the reference, the radius of the energy sphere
    that the optimizer's steps land on.
    """

    def __init__(self, reference: SymbolGrid, spec: ConstellationSpec, mask: SubcarrierMask):
        xr = reference.symbols
        if xr.shape != mask.used.shape:
            raise ValueError("grid, reference and mask shapes disagree")
        self.radius = np.sqrt(reference.energy())
        self._spec = spec
        self._used = mask.used
        if spec.family == "psk":
            # an unused carrier is rotated by 1: its entry is its own canonical u
            self._rot = np.where(self._used, xr, 1.0)
            self._conj_rot = np.conj(self._rot)
            self._free = None if self._used.all() else ~self._used
        else:
            self._xr = xr

    def __call__(self, z: np.ndarray) -> np.ndarray:
        if z.shape != self._used.shape:
            raise ValueError("grid, reference and mask shapes disagree")
        spec = self._spec
        if spec.family == "psk":
            u = z * self._conj_rot
            return _psk_project_canonical(u, spec.eps_p, spec.eps_a, self._free) * self._rot
        return np.where(self._used, qam_project(z, self._xr, spec.eps_r), clamp_unused(z, spec))


def project_grid(
    grid: SymbolGrid,
    reference: SymbolGrid,
    spec: ConstellationSpec,
    mask: SubcarrierMask,
) -> SymbolGrid:
    """Entrywise projection of a full grid onto the feasible set (a one-shot ``Projection``)."""
    return SymbolGrid(Projection(reference, spec, mask)(grid.symbols))
