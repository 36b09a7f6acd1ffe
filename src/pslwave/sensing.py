"""Monostatic sensing chain: echo synthesis, matched filtering, CFAR detection.

Geometry and conventions:

* A uniform linear array with half-wavelength spacing transmits antenna m's
  OFDM symbol; the angle steering entry is a_m(theta) = exp(-1j*pi*m*sin(theta)).
* A point scatterer at integer delay tau multiplies the received spectrum by
  b_n(tau) = exp(-2j*pi*n*tau/N).
* The receiver matched-filters per transmit antenna in the frequency domain,
  giving a delay profile whose sidelobes are exactly the cyclic correlations
  the optimizer suppresses.
* Sensing SNR is defined as M * Es_avg / sigma^2 with unit-modulus scatterer
  gains: the coherent array collects the energy of all M antennas.

Detection averages the M per-antenna matched-filter power profiles
noncoherently, mean_m |z[:, m]|^2, and runs cell-averaging CFAR with cyclic
reference windows on that N-cell delay profile.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .spectrum import SymbolGrid

__all__ = [
    "Target",
    "SensingScene",
    "CfarConfig",
    "steering",
    "range_steer",
    "synthesize_echo",
    "matched_filter",
    "cfar_threshold_factor",
    "cfar_detect",
    "detection_campaign",
    "MIN_SEPARATION",
]

# Minimum cyclic distance, in range bins, between the targets of one trial
MIN_SEPARATION = 3


@dataclass
class Target:
    delay: int  # integer range bin in [0, N)
    angle: float = 0.0  # radians
    gain: complex = 1.0 + 0.0j


@dataclass
class SensingScene:
    targets: list[Target]
    noise_std: float  # per-sample complex noise standard deviation


@dataclass
class CfarConfig:
    p_fa: float = 1e-4
    n_ref: int = 7  # one-sided reference window length
    n_guard: int = 1  # one-sided guard cells

    def __post_init__(self):
        if self.n_guard < 0:
            raise ValueError("n_guard must be >= 0")

    def check_profile_length(self, n: int) -> None:
        """Raise unless an n-cell profile holds both one-sided windows around a cell."""
        if n <= 2 * (self.n_ref + self.n_guard):
            raise ValueError("profile too short for the reference window")


def steering(n_antennas: int, angle: float) -> np.ndarray:
    """Half-wavelength ULA steering vector a_m = exp(-1j*pi*m*sin(angle))."""
    m = np.arange(n_antennas)
    return np.exp(-1j * np.pi * m * np.sin(angle))


def range_steer(n_subcarriers: int, delay: int) -> np.ndarray:
    """Per-subcarrier phase ramp of an integer delay, b_n = exp(-2j*pi*n*delay/N)."""
    n = np.arange(n_subcarriers)
    return np.exp(-2j * np.pi * n * delay / n_subcarriers)


def synthesize_echo(
    grid: SymbolGrid,
    scene: SensingScene,
    rng: np.random.Generator,
) -> np.ndarray:
    """Frequency-domain receive vector: superposed delayed/steered echoes plus noise."""
    n, m = grid.symbols.shape
    y = np.zeros(n, dtype=complex)
    for t in scene.targets:
        y += t.gain * (grid.symbols @ steering(m, t.angle)) * range_steer(n, t.delay)
    if scene.noise_std > 0:
        y += scene.noise_std * (
            rng.standard_normal(n) + 1j * rng.standard_normal(n)
        ) / np.sqrt(2.0)
    return y


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


def cfar_detect(power: np.ndarray, config: CfarConfig) -> np.ndarray:
    """Cell-averaging CFAR with cyclic reference windows on a 1-D power profile.

    Returns a boolean detection mask.  Each cell is compared against
    beta * mean of 2*n_ref reference cells taken symmetrically outside
    n_guard guard cells on each side.  The reference sums come from one
    convolution of the cyclically padded profile with a 0/1 window kernel.
    """
    power = np.asarray(power, dtype=float)
    n = power.size
    config.check_profile_length(n)
    beta = cfar_threshold_factor(config.p_fa, config.n_ref)
    half = config.n_guard + config.n_ref
    kernel = np.ones(2 * half + 1)
    kernel[config.n_ref : config.n_ref + 2 * config.n_guard + 1] = 0.0
    padded = np.concatenate((power[n - half :], power, power[:half]))
    ref_sum = np.convolve(padded, kernel, mode="valid")
    threshold = beta * ref_sum / (2.0 * config.n_ref)
    return power > threshold


def detection_campaign(
    grids: list[SymbolGrid],
    snr_db: float,
    cfar: CfarConfig,
    rng: np.random.Generator,
    n_targets: int = 1,
    min_separation: int = MIN_SEPARATION,
) -> float:
    """Empirical detection probability over one trial per supplied grid.

    Each trial draws uniform target delays (pairwise separation at least
    min_separation bins, cyclically), unit-modulus random-phase gains at
    angle zero, synthesizes the echo at the given sensing SNR, matched
    filters, noncoherently averages the per-antenna delay profiles, and runs
    CFAR.  A target counts as detected when a detection falls within one bin
    of its true delay.  Returns detections / (trials * n_targets).
    """
    hits = 0
    total = 0
    for grid in grids:
        n, m = grid.symbols.shape
        es_avg = grid.energy() / grid.symbols.size
        sigma2 = m * es_avg / (10.0 ** (snr_db / 10.0))
        delays = _draw_delays(rng, n, n_targets, min_separation)
        targets = [
            Target(delay=d, angle=0.0, gain=np.exp(2j * np.pi * rng.random()))
            for d in delays
        ]
        scene = SensingScene(targets=targets, noise_std=float(np.sqrt(sigma2)))
        y = synthesize_echo(grid, scene, rng)
        z = matched_filter(y, grid)
        profile = np.mean(np.abs(z) ** 2, axis=1)
        det = cfar_detect(profile, cfar)
        for d in delays:
            window = [(d - 1) % n, d, (d + 1) % n]
            hits += bool(np.any(det[window]))
            total += 1
    return hits / total if total else 0.0


def _draw_delays(
    rng: np.random.Generator, n: int, n_targets: int, min_separation: int
) -> list[int]:
    delays: list[int] = []
    attempts = 0
    while len(delays) < n_targets:
        cand = int(rng.integers(0, n))
        ok = all(
            min((cand - d) % n, (d - cand) % n) >= min_separation for d in delays
        )
        if ok:
            delays.append(cand)
        attempts += 1
        if attempts > 1000 * n_targets:
            raise RuntimeError("cannot place targets with the requested separation")
    return delays
