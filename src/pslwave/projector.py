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

All projectors are written as vectorized array operations.
"""

from __future__ import annotations

import numpy as np

from .constellation import ConstellationSpec, SubcarrierMask
from .spectrum import SymbolGrid

__all__ = ["psk_project", "qam_project", "clamp_unused", "project_grid"]


def psk_project(z: np.ndarray, xr: np.ndarray, eps_p: float, eps_a: float) -> np.ndarray:
    """Project each z onto the PSK similarity sector around unit-modulus xr."""
    z = np.asarray(z, dtype=complex)
    xr = np.asarray(xr, dtype=complex)
    # rotate so the reference sits on the positive real axis
    u = z * np.conj(xr)
    proj = _psk_project_canonical(u, eps_p, eps_a)
    return proj * xr


def _psk_project_canonical(u: np.ndarray, eps_p: float, eps_a: float) -> np.ndarray:
    """Exact projection onto the annular sector with the reference at 1 + 0j."""
    r = np.abs(u)
    inner = 1.0 - eps_a
    # inside the wedge: keep the phase, clamp the radius (the origin goes to 1 - eps_a)
    nonzero = r > 0.0
    radial = np.where(nonzero, u * (np.clip(r, inner, 1.0) / np.where(nonzero, r, 1.0)), inner)
    # outside it: the nearer edge in angle is the one on the side of Im u; the
    # foot of the perpendicular on that edge is clipped to the segment [inner, 1]
    e_pos, e_neg = np.exp(1j * np.array([eps_p, -eps_p]))
    edge = np.where(u.imag >= 0.0, e_pos, e_neg)
    along = np.clip((u * np.conj(edge)).real, inner, 1.0) * edge
    return np.where(np.abs(np.angle(u)) <= eps_p, radial, along)


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


def project_grid(
    grid: SymbolGrid,
    reference: SymbolGrid,
    spec: ConstellationSpec,
    mask: SubcarrierMask,
) -> SymbolGrid:
    """Entrywise projection of a full grid onto the feasible set."""
    z = grid.symbols
    xr = reference.symbols
    if z.shape != xr.shape or z.shape != mask.used.shape:
        raise ValueError("grid, reference and mask shapes disagree")
    out = np.empty_like(z)
    used, unused = mask.used, ~mask.used
    if spec.family == "psk":
        out[used] = psk_project(z[used], xr[used], spec.eps_p, spec.eps_a)
    else:
        out[used] = qam_project(z[used], xr[used], spec.eps_r)
    out[unused] = clamp_unused(z[unused], spec)
    return SymbolGrid(out)
