"""Reference symbol grids: Gray-labelled PSK and square QAM, sub-carrier masks, baselines.

The bit labelling is fixed here, so BER results are reproducible.  PSK
position k (counterclockwise, k = 0..Q-1) sits at angle 2*pi*(k + 0.5)/Q
and carries the Gray label k ^ (k >> 1), MSB first: QPSK maps bits 00 to
exp(1j*pi/4).  QAM labels its real level with the first half of the bits
and its imaginary level with the second, the levels -(sqrt(Q)-1) ..
sqrt(Q)-1 (step 2) Gray-labelled alike: 16-QAM maps 0000 to -3-3j.  QAM
points stay unnormalized, so the disc radius eps_r = 2*rho applies
literally.

``demodulate`` and ``comms.ber_campaign`` share one slicer
(``_decision_regions``) and one cached region-to-bits table per (family,
order), from which the table of bit errors (``_error_table``) is built, so
the slicer and the labelling each exist once.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from math import isqrt

import numpy as np

from .spectrum import SymbolGrid

__all__ = [
    "ConstellationSpec",
    "SubcarrierMask",
    "modulate",
    "demodulate",
    "random_reference_grid",
    "orthogonal_interleaved_grid",
    "sum_rate_loss",
]


def _gray(n: int) -> int:
    return n ^ (n >> 1)


@dataclass(frozen=True)
class ConstellationSpec:
    family: str  # "psk" or "qam"
    order: int
    rho: float = 0.15
    eps_a: float = 0.2

    def __post_init__(self):
        if self.family not in ("psk", "qam"):
            raise ValueError("family must be 'psk' or 'qam'")
        q = self.order
        if q < 2 or q & (q - 1):
            raise ValueError("order must be a power of two >= 2")
        if self.family == "qam" and isqrt(q) ** 2 != q:
            raise ValueError("QAM order must be a perfect square")
        if not 0.0 < self.rho < 0.5:
            raise ValueError("rho must lie in (0, 0.5)")
        # eps_a > 1 would put the inner radius 1 - eps_a below zero
        if not 0.0 <= self.eps_a <= 1.0:
            raise ValueError("eps_a must lie in [0, 1]")

    @property
    def bits_per_symbol(self) -> int:
        return int(self.order).bit_length() - 1

    @property
    def eps_p(self) -> float:
        """PSK phase tolerance: rho times the angular spacing 2*pi/Q."""
        return 2.0 * np.pi * self.rho / self.order

    @property
    def eps_r(self) -> float:
        """QAM disc radius: rho times the minimum point distance 2."""
        return 2.0 * self.rho

    @cached_property
    def points(self) -> np.ndarray:
        """Constellation points indexed by their Gray bit label."""
        q = self.order
        if self.family == "psk":
            k = np.arange(q)
            table = np.empty(q, dtype=complex)
            table[_gray(k)] = np.exp(2j * np.pi * (k + 0.5) / q)
        else:
            # level l_I labels the high half of the bits: label l_I * sqrt(Q) + l_Q
            levels = np.arange(isqrt(q))
            pam = np.empty(levels.size)
            pam[_gray(levels)] = 2 * levels - (levels.size - 1)
            table = (pam[:, None] + 1j * pam).ravel()
        table.setflags(write=False)
        return table


@dataclass(eq=False)
class SubcarrierMask:
    """Per-antenna used/unused sub-carrier partition; ``used`` is N x M boolean."""

    used: np.ndarray

    def __post_init__(self):
        self.used = np.asarray(self.used, dtype=bool)
        if self.used.ndim != 2:
            raise ValueError("used must be an N x M boolean matrix")

    @property
    def n_used(self) -> int:
        return int(np.count_nonzero(self.used))

    @classmethod
    def all_used(cls, n_subcarriers: int, n_antennas: int) -> "SubcarrierMask":
        return cls(np.ones((n_subcarriers, n_antennas), dtype=bool))

    @classmethod
    def random(
        cls,
        rng: np.random.Generator,
        n_subcarriers: int,
        n_antennas: int,
        unused_fraction: float,
    ) -> "SubcarrierMask":
        n_un = int(round(unused_fraction * n_subcarriers))
        used = np.ones((n_subcarriers, n_antennas), dtype=bool)
        for m in range(n_antennas):
            idx = rng.choice(n_subcarriers, size=n_un, replace=False)
            used[idx, m] = False
        return cls(used)


def _check_bits(bits: np.ndarray, n_bits: int, name: str = "bits") -> np.ndarray:
    """``bits`` as an array; a ``ValueError`` naming ``name`` unless it holds
    ``n_bits`` values, each 0 or 1."""
    bits = np.asarray(bits)
    if bits.size != n_bits:
        raise ValueError(f"{name}: need {n_bits} bits for this mask, got {bits.size}")
    if np.count_nonzero(bits.astype(bool) != bits):  # only 0 and 1 equal their truth values
        raise ValueError(f"{name}: every bit must be 0 or 1")
    return bits


def _bits_to_labels(bits: np.ndarray, bps: int) -> np.ndarray:
    groups = np.asarray(bits, dtype=np.int64).reshape(-1, bps)
    weights = 1 << np.arange(bps - 1, -1, -1)
    return groups @ weights


def _label_bits(labels: np.ndarray, bps: int) -> np.ndarray:
    """The bits, MSB first, of each label: (..., bps) int8."""
    return ((labels[..., None] >> np.arange(bps - 1, -1, -1)) & 1).astype(np.int8)


@lru_cache(maxsize=8)
def _region_bits(family: str, order: int) -> np.ndarray:
    """Read-only table of the bits, MSB first, that each decision region carries.

    PSK has Q + 1 rows: row i is the sector k = i - Q/2, whose centre point
    at 2*pi*(k + 0.5)/Q has the Gray label of k mod Q (rows 0 and Q, the
    angles -pi and pi, are the same sector).  Square QAM has Q rows: row
    l_I * sqrt(Q) + l_Q is the level pair (l_I, l_Q), labelled with the Gray
    label of l_I on the high half of the bits and of l_Q on the low half.
    """
    bps = order.bit_length() - 1
    if family == "psk":
        labels = _gray((np.arange(order + 1) - order // 2) % order)
    else:
        levels = _gray(np.arange(isqrt(order)))
        labels = ((levels[:, None] << (bps // 2)) | levels).ravel()
    bits = _label_bits(labels, bps)
    bits.setflags(write=False)
    return bits


@lru_cache(maxsize=8)
def _error_table(family: str, order: int) -> np.ndarray:
    """Read-only flat table of bit errors per (decision region, sent label).

    Entry region * (Q + 1) + label is the number of bits in which the row
    ``region`` of ``_region_bits`` differs from the bits of ``label``.  The
    last column, label Q, is all zeros: an unused entry sends no bits.
    """
    regions = _region_bits(family, order)
    sent = _label_bits(np.arange(order), regions.shape[1])
    table = np.zeros((regions.shape[0], order + 1), dtype=np.uint8)
    table[:, :order] = np.count_nonzero(regions[:, None, :] != sent, axis=-1)
    table = table.ravel()
    table.setflags(write=False)
    return table


def _decision_regions(
    z: np.ndarray, family: str, order: int, out: np.ndarray, spare: np.ndarray | None = None
) -> np.ndarray:
    """Write each entry's decision region, the row of ``_region_bits``, into ``out``.

    ``out`` is a float array of ``z``'s shape; the regions are exact
    integers.  QAM works its imaginary levels in ``spare`` (same shape; one
    is made when it is None).  ``demodulate`` documents the slicer.
    """
    if family == "psk":
        np.arctan2(z.imag, z.real, out=out)
        out *= order / (2.0 * np.pi)
        np.floor(out, out=out)
        out += order // 2
    else:
        root = isqrt(order)
        if spare is None:
            spare = np.empty_like(out)
        for part, level in ((z.real, out), (z.imag, spare)):
            np.add(part, root, out=level)
            level *= 0.5
            np.floor(level, out=level)
            np.clip(level, 0, root - 1, out=level)
        out *= root
        out += spare
    return out


def modulate(
    bits: np.ndarray,
    spec: ConstellationSpec,
    mask: SubcarrierMask,
) -> SymbolGrid:
    """Map bits onto the used sub-carriers (stacked order); unused entries are 0.

    A ``ValueError`` unless there are bits_per_symbol * n_used bits, each 0 or 1.
    """
    bps = spec.bits_per_symbol
    labels = _bits_to_labels(_check_bits(bits, bps * mask.n_used), bps)
    symbols = np.zeros(mask.used.shape, dtype=complex)
    # column-major (antenna-by-antenna) fill matches the stacked vector order
    flat_used = mask.used.reshape(-1, order="F")
    flat = symbols.reshape(-1, order="F")
    flat[flat_used] = spec.points[labels]
    return SymbolGrid(flat.reshape(mask.used.shape, order="F"))


def demodulate(
    grid: SymbolGrid | np.ndarray,
    spec: ConstellationSpec,
    mask: SubcarrierMask,
) -> np.ndarray:
    """Hard-decision (minimum distance) demodulation of the used entries.

    A (..., N, M) stack of grids gives (..., n_bits) bits, one row per grid,
    each in the stacked (antenna-by-antenna) order that ``modulate`` reads.

    The decisions come from a closed-form slicer, not a distance table:

    * PSK: the points have unit modulus, so the nearest one is the nearest
      in angle.  The entry's phase picks the sector
      k = floor(angle * Q / (2*pi)), -Q/2 <= k <= Q/2, whose centre is the
      point at 2*pi*(k + 0.5)/Q; its table row is k + Q/2.
    * Square QAM: the squared distance is a sum of one term per axis, so
      the nearest point takes the nearest PAM level on each axis,
      l = clip(floor((x + sqrt(Q)) / 2), 0, sqrt(Q) - 1); the pair's table
      row is l_I * sqrt(Q) + l_Q.

    Both give the minimum-distance decision.  An exact tie, an entry
    on a decision boundary, goes to the higher region: the sector
    counterclockwise of the boundary for PSK (up to the round-off of the
    entry's angle; the origin goes to the sector of angle 0, and the
    negative real axis to the sector at pi whatever the sign of its zero
    imaginary part), the higher level on that axis for QAM.  The region's
    row of a cached region-to-bits table gives the bits.  A NaN entry has no
    region: its index is out of the table's range and ``np.take`` raises
    ``IndexError``.
    """
    z = np.swapaxes(np.asarray(grid), -1, -2)[..., mask.used.T]
    region = _decision_regions(z, spec.family, spec.order, np.empty(z.shape))
    # np.take on the small table is far cheaper than fancy indexing it
    bits = np.take(_region_bits(spec.family, spec.order), region.astype(np.intp), axis=0)
    return bits.reshape(*z.shape[:-1], -1)


def random_reference_grid(
    rng: np.random.Generator,
    spec: ConstellationSpec,
    mask: SubcarrierMask,
) -> tuple[SymbolGrid, np.ndarray]:
    """Draw a random data grid; returns (grid, bits)."""
    bits = rng.integers(0, 2, size=spec.bits_per_symbol * mask.n_used, dtype=np.int8)
    return modulate(bits, spec, mask), bits


def orthogonal_interleaved_grid(
    rng: np.random.Generator,
    spec: ConstellationSpec,
    n_subcarriers: int,
    n_antennas: int,
) -> SymbolGrid:
    """Baseline: antenna m occupies sub-carriers m, m+M, m+2M, ... only.

    Disjoint frequency supports make every cross-correlation identically
    zero, at the cost of each antenna carrying only N/M data symbols.
    """
    symbols = np.zeros((n_subcarriers, n_antennas), dtype=complex)
    for m in range(n_antennas):
        idx = np.arange(m, n_subcarriers, n_antennas)
        labels = rng.integers(0, spec.order, size=idx.size)
        symbols[idx, m] = spec.points[labels]
    return SymbolGrid(symbols)


def sum_rate_loss(n_subcarriers: int, n_antennas: int, n_unused: int) -> float:
    """Sum-rate loss of the interleaved baseline vs. a full grid with n_unused idle carriers."""
    return 1.0 - (n_subcarriers / n_antennas) / (n_subcarriers - n_unused)
