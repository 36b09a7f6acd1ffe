"""Reference symbol grids: Gray-mapped PSK/QAM, sub-carrier masks, baselines.

Bit labeling is fixed here (the standards leave it open) so BER results are
reproducible:

* PSK: constellation position ``k`` (counterclockwise, ``k = 0..Q-1``) sits at
  angle ``2*pi*(k + 0.5)/Q`` and carries the binary-reflected Gray label
  ``k ^ (k >> 1)`` read MSB-first.  QPSK therefore maps bits ``00`` to
  ``exp(1j*pi/4)``.
* Square QAM: the first half of the bits selects the real level, the second
  half the imaginary level; levels ``-(sqrt(Q)-1), ..., sqrt(Q)-1`` (step 2)
  are Gray-labeled the same way.  16QAM maps bits ``0000`` to ``-3-3j``.

QAM points are left unnormalized (odd-integer coordinates) so the disc
projector's radius ``eps_r = 2*rho`` applies literally; average-power scaling
happens only where a transmit SNR is defined.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np

from .spectrum import SymbolGrid

__all__ = [
    "ConstellationSpec",
    "SubcarrierMask",
    "modulate",
    "demodulate",
    "random_bits",
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
        if self.family == "qam":
            root = int(round(np.sqrt(q)))
            if root * root != q:
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
        table = np.empty(q, dtype=complex)
        if self.family == "psk":
            for k in range(q):
                table[_gray(k)] = np.exp(2j * np.pi * (k + 0.5) / q)
        else:
            root = int(round(np.sqrt(q)))
            half = self.bits_per_symbol // 2
            pam = np.empty(root)
            for level in range(root):
                pam[_gray(level)] = 2 * level - (root - 1)
            for li in range(root):
                for lq in range(root):
                    table[(li << half) | lq] = pam[li] + 1j * pam[lq]
        table.setflags(write=False)
        return table

    @property
    def mean_symbol_energy(self) -> float:
        return float(np.mean(np.abs(self.points) ** 2))


@dataclass
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
        unused_fraction: float = 0.05,
    ) -> "SubcarrierMask":
        n_un = int(round(unused_fraction * n_subcarriers))
        used = np.ones((n_subcarriers, n_antennas), dtype=bool)
        for m in range(n_antennas):
            idx = rng.choice(n_subcarriers, size=n_un, replace=False)
            used[idx, m] = False
        return cls(used)


def random_bits(rng: np.random.Generator, n: int) -> np.ndarray:
    return rng.integers(0, 2, size=n, dtype=np.int8)


def _bits_to_labels(bits: np.ndarray, bps: int) -> np.ndarray:
    groups = np.asarray(bits, dtype=np.int64).reshape(-1, bps)
    weights = 1 << np.arange(bps - 1, -1, -1)
    return groups @ weights


@lru_cache(maxsize=8)
def _label_bits(bps: int) -> np.ndarray:
    """Read-only (2**bps, bps) table: row l holds the bits of label l, MSB first."""
    labels = np.arange(1 << bps)
    bits = ((labels[:, None] >> np.arange(bps - 1, -1, -1)) & 1).astype(np.int8)
    bits.setflags(write=False)
    return bits


def _slice_labels(z: np.ndarray, spec: ConstellationSpec) -> np.ndarray:
    """Gray labels of the decision regions that hold the entries of z (see ``demodulate``)."""
    q = spec.order
    if spec.family == "psk":
        # sector k, angles [2*pi*k/Q, 2*pi*(k+1)/Q), holds the point at 2*pi*(k+0.5)/Q
        k = np.floor(np.arctan2(z.imag, z.real) * (q / (2.0 * np.pi))).astype(np.int64) % q
        return _gray(k)
    root = int(round(np.sqrt(q)))
    # level l, at 2*l - (root-1), decides the axis interval [2*l - root, 2*l - root + 2)
    levels = np.clip(np.floor((np.stack((z.real, z.imag)) + root) * 0.5), 0, root - 1)
    li, lq = _gray(levels.astype(np.int64))
    return (li << (spec.bits_per_symbol // 2)) | lq


def modulate(
    bits: np.ndarray,
    spec: ConstellationSpec,
    mask: SubcarrierMask,
) -> SymbolGrid:
    """Map bits onto the used sub-carriers (stacked order); unused entries are 0."""
    bps = spec.bits_per_symbol
    bits = np.asarray(bits)
    if bits.size != bps * mask.n_used:
        raise ValueError(
            f"need {bps * mask.n_used} bits for this mask, got {bits.size}"
        )
    labels = _bits_to_labels(bits, bps)
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
      k = floor(angle * Q / (2*pi)) mod Q, whose centre is the point at
      2*pi*(k + 0.5)/Q.
    * Square QAM: the squared distance is a sum of one term per axis, so
      the nearest point takes the nearest PAM level on each axis,
      l = clip(floor((x + sqrt(Q)) / 2), 0, sqrt(Q) - 1).

    Both give the minimum-distance decision.  An exact tie, an entry
    on a decision boundary, goes to the higher region: the sector
    counterclockwise of the boundary for PSK (up to the round-off of the
    entry's angle; the origin goes to sector 0), the higher level on that
    axis for QAM.  Labels map to bits through a cached table.
    """
    z = np.swapaxes(np.asarray(grid), -1, -2)[..., mask.used.T]
    # np.take on the small table is far cheaper than fancy indexing it
    bits = np.take(_label_bits(spec.bits_per_symbol), _slice_labels(z, spec), axis=0)
    return bits.reshape(*z.shape[:-1], -1)


def random_reference_grid(
    rng: np.random.Generator,
    spec: ConstellationSpec,
    mask: SubcarrierMask,
) -> tuple[SymbolGrid, np.ndarray]:
    """Draw a random data grid; returns (grid, bits)."""
    bits = random_bits(rng, spec.bits_per_symbol * mask.n_used)
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
