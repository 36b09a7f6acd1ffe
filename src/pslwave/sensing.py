"""Monostatic sensing: echo synthesis, matched filtering and CA-CFAR detection.

Every target sits at broadside, so the M antennas' symbols add coherently
into one beam, sum_m x_m[n], and a point scatterer at integer delay tau
multiplies the received spectrum by b_n(tau) = exp(-2j*pi*n*tau/N).  The
receiver matched-filters per transmit antenna, so the sidelobes of its
delay profiles are the cyclic correlations the optimizer suppresses, sums
the M power profiles noncoherently and runs cell-averaging CFAR with cyclic
reference windows (Rohling, IEEE TAES 1983).  Sensing SNR is M * Es_avg /
sigma^2 with unit-modulus scatterer gains.

``synthesize_echo``, ``matched_filter`` and ``cfar_detect`` are the full
chain over all N cells and the reference the tests hold
``detection_campaign`` to; ``cfar_detect`` also serves ``pslwave verify``.
``detection_campaign`` draws the chain's stream (the delays, one gain per
delay, then the noise) and makes the chain's decisions, but filters and
tests only the 2h + 1 cells around each target, h = n_guard + n_ref + 1:
a hit is CFAR firing at d - 1, d or d + 1, and those three tests read no
other cell.
"""

from __future__ import annotations

import cmath
import operator
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .spectrum import _INV_SQRT2, SymbolGrid, noise_level, snr_ratio

__all__ = [
    "CfarConfig",
    "range_steer",
    "synthesize_echo",
    "matched_filter",
    "cfar_threshold_factor",
    "cfar_detect",
    "detection_campaign",
]


@dataclass
class CfarConfig:
    p_fa: float = 1e-4
    n_ref: int = 7  # one-sided reference window length
    n_guard: int = 1  # one-sided guard cells

    def __post_init__(self):
        cfar_threshold_factor(self.p_fa, self.n_ref)  # raises unless p_fa in (0, 1), n_ref >= 1
        if self.n_guard < 0:
            raise ValueError("n_guard must be >= 0")

    def check_profile_length(self, n: int) -> None:
        """Raise unless an n-cell profile holds the window's 2 * (n_ref + n_guard) + 1 cells."""
        if n < (least := 2 * (self.n_ref + self.n_guard) + 1):
            raise ValueError(f"N = {n} cells are too short for the CFAR window of {least} cells")

    def max_targets(self, n: int) -> int:
        """The most targets that always fit in n cells, n_guard + n_ref + 1 bins apart.

        Each placed target rules out 2 * (n_guard + n_ref) + 1 cells.
        """
        return 1 + (n - 1) // (2 * (self.n_guard + self.n_ref) + 1)


@lru_cache(maxsize=32)
def _roots_of_unity(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only exp(-2j*pi*k/n) and k for k = 0..n-1."""
    k = np.arange(n)
    roots = np.exp(-2j * np.pi * k / n)
    roots.setflags(write=False)
    k.setflags(write=False)
    return roots, k


def range_steer(n_subcarriers: int, delay: int) -> np.ndarray:
    """Per-subcarrier phase ramp of an integer delay, b_n = exp(-2j*pi*n*delay/N).

    Read from the N-th roots of unity at (n*delay) mod N: the reduction is
    exact in integers, so b is accurate to double precision even where
    n*delay/N is large.
    """
    roots, n = _roots_of_unity(n_subcarriers)
    return roots[n * operator.index(delay) % n_subcarriers]


def synthesize_echo(
    grid: SymbolGrid,
    delays: np.ndarray,
    gains: np.ndarray,
    noise_std: float,
    rng: np.random.Generator,
) -> np.ndarray:
    """Frequency-domain receive vector: broadside echoes at integer delays plus noise."""
    if len(delays) != len(gains):
        raise ValueError(f"got {len(delays)} delays but {len(gains)} gains")
    n, m = grid.symbols.shape
    # a product with ones, not a sum over axis 1: the two round differently
    beam = grid.symbols @ np.ones(m)
    y = np.zeros(n, dtype=complex)
    for delay, gain in zip(delays, gains):
        y += gain * beam * range_steer(n, delay)
    y += _noise(rng, n, noise_std)
    return y


def _noise(rng: np.random.Generator, n: int, noise_std: float) -> np.ndarray:
    """Complex white noise of n entries at level noise_std (zeros, without a draw, at 0)."""
    if not noise_std >= 0.0:
        raise ValueError(f"noise_std must be >= 0, got {noise_std}")
    noise = np.zeros(n, dtype=complex)
    if noise_std > 0:
        # one draw, real parts first: the stream of two length-n draws, scaled
        # as noise_std * (g[0] + 1j * g[1]) / sqrt(2) rounds; set as the real and
        # imaginary parts, since a multiply into the interleaved pairs reads the
        # draw with a stride (slower on numpy 2.4, x86-64)
        g = rng.standard_normal((2, n))
        g *= noise_std
        g *= _INV_SQRT2
        noise.real = g[0]
        noise.imag = g[1]
    return noise


def matched_filter(y: np.ndarray, grid: SymbolGrid) -> np.ndarray:
    """Per-antenna delay profiles: z[:, m] = idft(y * conj(x_m)), shape (N, M)."""
    prod = y[:, None] * np.conj(grid.symbols)
    return np.fft.ifft(prod, axis=0)


def cfar_threshold_factor(p_fa: float, n_ref: int) -> float:
    """Cell-averaging CFAR scale: beta = 2*n_ref * (p_fa**(-1/(2*n_ref)) - 1)."""
    if not 0.0 < p_fa < 1.0:
        raise ValueError("p_fa must lie in (0, 1)")
    if n_ref < 1:
        raise ValueError("n_ref must be >= 1")
    return 2.0 * n_ref * (p_fa ** (-1.0 / (2.0 * n_ref)) - 1.0)


def _cfar_kernel(p_fa: float, n_ref: int, n_guard: int) -> np.ndarray:
    """Window kernel: beta/(2*n_ref) on the reference cells, 0 on the guard and test cells."""
    kernel = np.full(2 * (n_guard + n_ref) + 1, cfar_threshold_factor(p_fa, n_ref) / (2.0 * n_ref))
    kernel[n_ref : n_ref + 2 * n_guard + 1] = 0.0
    return kernel


def cfar_detect(power: np.ndarray, config: CfarConfig) -> np.ndarray:
    """Cell-averaging CFAR with cyclic reference windows on a 1-D power profile.

    Returns a boolean detection mask.  Each cell is compared against
    beta * mean of 2*n_ref reference cells taken symmetrically outside
    n_guard guard cells on each side.  The thresholds come from one
    convolution of the cyclically padded profile with the window kernel,
    pre-scaled by beta/(2*n_ref).
    """
    power = np.asarray(power, dtype=float)
    n = power.size
    config.check_profile_length(n)
    kernel = _cfar_kernel(config.p_fa, config.n_ref, config.n_guard)
    half = config.n_guard + config.n_ref
    padded = np.concatenate((power[n - half :], power, power[:half]))
    return power > np.convolve(padded, kernel, mode="valid")


@lru_cache(maxsize=4)
def _window_rows(n: int, h: int) -> np.ndarray:
    """Read-only (n + 2h, n) table: row i is the inverse-DFT row of cell (i - h) mod n.

    Without the 1/n, exp(2j*pi*k*c/n) is read from the roots of unity at (k*c) mod n:
    a CFAR decision does not depend on the profile's scale, so the receiver also
    sums the power over antennas instead of averaging it.  The table takes
    (n + 2h) * n * 16 bytes: 0.3 MB at n = 128, 68 MB at n = 2048.
    """
    roots, k = _roots_of_unity(n)
    powers = np.outer((np.arange(n + 2 * h) - h) % n, k)
    powers %= n
    rows = np.conj(roots[powers])
    rows.setflags(write=False)
    return rows


@lru_cache(maxsize=16)
def _hit_table(p_fa: float, n_ref: int, n_guard: int, m: int) -> np.ndarray:
    """Read-only D_M, (3, 2m(2h + 1)): D = sel - thr with each column repeated 2m times.

    Row j of D is +1 at the test cell h - 1 + j minus the scaled kernel around
    it, so ``D_M @ (zf * zf).ravel() > 0`` is CFAR at window cells h - 1 .. h + 1.
    """
    kernel = _cfar_kernel(p_fa, n_ref, n_guard)
    h = n_guard + n_ref + 1
    table = np.zeros((3, 2 * h + 1))
    for j in range(3):
        table[j, j : j + kernel.size] = -kernel
        table[j, h - 1 + j] = 1.0  # the kernel is 0 at its test cell
    table = np.repeat(table, 2 * m, axis=1)
    table.setflags(write=False)
    return table


def _echo_profile(grid: SymbolGrid, h: int, rows: np.ndarray) -> np.ndarray:
    """Read-only P = rows @ (beam[:, None] * conj(X)), (N + 2h) x M, built once per grid and h.

    Row i of P is cell (i - h) mod N of a unit echo at delay 0, so the window
    of delay d of a unit echo at delay e is ``P[(d - e) % N :][: 2h + 1]``.
    Filtering each trial's synthesized echo instead made detection sweeps
    1.21-1.29x slower.
    """
    profile = grid._echo_profiles.get(h)
    if profile is None:
        x = grid.symbols
        beam = x @ np.ones(x.shape[1])  # as synthesize_echo forms it
        profile = rows @ (beam[:, None] * np.conj(x))
        profile.setflags(write=False)
        grid._echo_profiles[h] = profile
    return profile


def detection_campaign(
    grids: list[SymbolGrid],
    snr_db: float,
    cfar: CfarConfig,
    rng: np.random.Generator,
    n_targets: int = 1,
) -> float:
    """Empirical detection probability over one trial per supplied grid.

    Each trial draws uniform target delays, pairwise at least
    h = n_guard + n_ref + 1 bins apart cyclically, so no target sits in the
    reference window of the cell at another's delay; then one unit-modulus
    random-phase gain per target, and the noise of the broadside echo at the
    given sensing SNR.
    A target counts as detected when CA-CFAR on the noncoherent sum of the
    per-antenna matched-filter power profiles fires within one bin of its
    true delay.  Only the 2h + 1 cells around the delay that this decision
    reads are filtered and tested.  Of the received vector only the noise is
    filtered per trial; each target's window adds to it, for every target e,
    g_e times the window of the grid's unit-echo profile (``_echo_profile``)
    shifted by e.  The decisions are those of the full chain.  An SNR point
    without a finite positive power ratio or fewer than one target (both
    rejected before any draw), or a noise level that overflows, is a
    ``ValueError``.
    Returns detections / (trials * n_targets).
    """
    snr_ratio(snr_db)  # rejected before any draw, even without grids
    if n_targets < 1:
        raise ValueError(f"need n_targets >= 1, got {n_targets}")
    h = cfar.n_guard + cfar.n_ref + 1
    span = 2 * h + 1
    hits = 0
    for grid in grids:
        x = grid.symbols
        n, m = x.shape
        cfar.check_profile_length(n)
        rows = _window_rows(n, h)
        profile = _echo_profile(grid, h, rows)
        decide = _hit_table(cfar.p_fa, cfar.n_ref, cfar.n_guard, m)
        noise_std = noise_level(m * (grid.energy() / x.size), snr_db)
        delays = _draw_delays(rng, n, n_targets, h)
        # scalar draws, bit for bit np.exp(2j * np.pi * rng.random(n_targets))
        gains = [cmath.exp(2j * cmath.pi * rng.random()) for _ in delays]
        heard = _noise(rng, n, noise_std)[:, None] * np.conj(x)
        for d in delays:
            z = rows[d : d + span] @ heard
            for e, gain in zip(delays, gains):
                z += gain * profile[(d - e) % n :][:span]
            zf = z.view(float)
            if True in (decide @ (zf * zf).ravel() > 0).tolist():
                hits += 1
    total = len(grids) * n_targets
    return hits / total if total else 0.0


def _draw_delays(rng: np.random.Generator, n: int, n_targets: int, separation: int) -> list[int]:
    """Uniform delays in 0 .. n - 1, pairwise at least ``separation`` bins apart cyclically."""
    delays: list[int] = []
    attempts = 0
    while len(delays) < n_targets:
        cand = int(rng.integers(0, n))
        if all(min((cand - d) % n, (d - cand) % n) >= separation for d in delays):
            delays.append(cand)
        attempts += 1
        if attempts > 1000 * n_targets:
            raise RuntimeError("cannot place targets with the requested separation")
    return delays
