"""DFT conventions, cyclic correlations of symbol grids, PSL metrics and SNR helpers.

Conventions, fixed here once and relied on by every other module:

* ``dft(v)[q] = sum_n v[n] exp(-2j pi n q / N)`` (``np.fft.fft``);
  ``idft`` carries the ``1/N`` (``np.fft.ifft``).
* ``r[m, k, i] = N * sum_n exp(+2j pi n i / N) * x_m[n] * conj(x_k[n])
  = N**2 * idft(x_m * conj(x_k))[i]``, the cyclic cross-correlation at lag
  ``i`` of the time-domain waveforms of antennas ``m`` and ``k``.  The
  factor ``N`` keeps r equal to the quadratic form in the stacked symbol
  vector, which the majorizer's eigenvalue bounds assume.

Correlations are the plain (M, M, N) array of ``cyclic_correlations``, and
the lag window is written once, in ``LagWeights``.  The correlation FFT
writes into a given array (``out=``, numpy 2.0 or newer).  ``noise_level``
is the one noise formula of the config check and both campaigns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "SymbolGrid",
    "LagWeights",
    "cyclic_correlations",
    "window_abs",
    "peak_sidelobe",
    "mean_mainlobe",
    "sidelobes_vanish",
    "psl_db",
    "psl_db_of_peak",
    "snr_ratio",
    "noise_level",
]

# Window sidelobes count as zero when the peak is at most 1024 machine
# epsilons times the mean mainlobe.  Exactly vanishing correlations (a
# constant grid, say) keep FFT round-off of up to ~2 eps of the mainlobe
# when N is not a power of two; real sidelobes sit hundreds of dB higher.
_ZERO_SIDELOBE_TOL = 1024 * np.finfo(float).eps

# complex white noise of level sigma: sigma * (g_re + 1j * g_im) / sqrt(2), g standard
# normal, written with this factor by both campaigns
_INV_SQRT2 = 1.0 / np.sqrt(2.0)


@dataclass(eq=False)
class SymbolGrid:
    """N x M frequency-domain data symbols; column m belongs to antenna m.

    Treated as a value (nothing writes into ``symbols``), so it can keep the
    energy that ``energy`` takes on first read, and the unit-echo profiles
    that ``sensing.detection_campaign`` builds on first use, one per window
    half-width h.  A ``copy`` starts with neither.  Grids compare and hash by
    identity; compare their ``symbols`` for equal contents.
    """

    symbols: np.ndarray
    _energy: float | None = field(default=None, init=False, repr=False)
    _echo_profiles: dict[int, np.ndarray] = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        self.symbols = np.asarray(self.symbols, dtype=complex)
        if self.symbols.ndim != 2:
            raise ValueError("symbols must be an N x M matrix")
        if not np.all(np.isfinite(self.symbols)):
            raise ValueError("symbols must be finite")

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        """The symbols, so that ``np.asarray`` reads a grid and an (N, M) array alike."""
        return np.array(self.symbols, dtype=dtype, copy=copy)

    @property
    def n_subcarriers(self) -> int:
        return self.symbols.shape[0]

    @property
    def n_antennas(self) -> int:
        return self.symbols.shape[1]

    def stacked(self) -> np.ndarray:
        """Length-MN vector [x_0; x_1; ...; x_{M-1}], antenna by antenna."""
        return self.symbols.flatten(order="F")

    @classmethod
    def from_stacked(cls, x: np.ndarray, n_subcarriers: int) -> "SymbolGrid":
        if n_subcarriers < 1:
            raise ValueError("n_subcarriers must be >= 1")
        x = np.asarray(x, dtype=complex).ravel()
        if x.size % n_subcarriers:
            raise ValueError("stacked length not divisible by n_subcarriers")
        m = x.size // n_subcarriers
        return cls(x.reshape(n_subcarriers, m, order="F"))

    def energy(self) -> float:
        """||x||^2, taken once and kept."""
        if self._energy is None:
            self._energy = float(np.vdot(self.symbols, self.symbols).real)
        return self._energy

    def copy(self) -> "SymbolGrid":
        return SymbolGrid(self.symbols.copy())


@dataclass(eq=False)
class LagWeights:
    """The cyclic-prefix lag window: lags [1, n_cp - 1], never the zero lag.

    ``lags`` is the window as the slice ``1:n_cp`` of the lag axis, which the
    fast paths read (``window_abs``, ``majorizer.v_fields``) after
    ``check_lags``; ``mask`` is True on the same lags.
    """

    n_lags: int
    n_cp: int
    lags: slice = field(init=False)
    mask: np.ndarray = field(init=False)

    def __post_init__(self):
        if not 2 <= self.n_cp <= self.n_lags:
            raise ValueError(f"need 2 <= n_cp <= n_lags = {self.n_lags}, got n_cp = {self.n_cp}")
        self.lags = slice(1, self.n_cp)
        self.mask = np.zeros(self.n_lags, dtype=bool)
        self.mask[self.lags] = True

    def check_lags(self, n: int) -> None:
        """ValueError unless ``n`` lags, those of correlations or an iterate, are this
        window's N; the slice ``lags`` alone would silently read a window of another N."""
        if n != self.n_lags:
            raise ValueError(f"N = {n} and the weights (N = {self.n_lags}) disagree on lag count")


def cyclic_correlations(grid: SymbolGrid | np.ndarray) -> np.ndarray:
    """All cyclic auto-/cross-correlations of the time-domain waveforms, as the
    (M, M, N) array r with r[m, k, i] the correlation of antennas (m, k) at lag i.

    ``grid`` is a ``SymbolGrid`` or its (N, M) array, taken as complex128.
    One IFFT per antenna pair, written over the product; the N**2 scale keeps
    r equal to the stacked quadratic form.  It scales the real view: half the
    multiplies of a complex scale, and for finite r the same values.
    """
    x = np.asarray(grid, dtype=complex)
    # prod[m, k, :] = x_m * conj(x_k) over subcarriers, from a contiguous (M, N)
    # copy: the product runs on unit strides, entrywise the same arithmetic
    xt = x.T.copy()
    prod = xt[:, None, :] * xt.conj()[None, :, :]
    r = np.fft.ifft(prod, axis=2, out=prod)
    r.view(np.float64)[...] *= x.shape[0] ** 2
    return r


def window_abs(r: np.ndarray, w: LagWeights) -> np.ndarray:
    """(M, M, n_cp - 1) magnitudes |r| of the (M, M, N) correlations r on the lag
    window; index j holds lag j + 1.

    ``ValueError`` unless r is 3-D with equal first two axes, then unless its
    lag count is the window's N (``LagWeights.check_lags``).
    """
    if r.ndim != 3 or r.shape[0] != r.shape[1]:
        raise ValueError(f"correlations must be an (M, M, N) array, got shape {r.shape}")
    w.check_lags(r.shape[2])
    return np.abs(r[:, :, w.lags])


def peak_sidelobe(r: np.ndarray, w: LagWeights) -> tuple[float, tuple[int, int, int]]:
    """Largest |r| in the lag window and its first (m, k, i) triple in lexicographic order."""
    r_abs = window_abs(r, w)
    flat = int(np.argmax(r_abs))  # first maximum in C order == lexicographic (m, k, window lag)
    m, k, j = np.unravel_index(flat, r_abs.shape)
    return float(r_abs[m, k, j]), (int(m), int(k), int(j) + 1)


def mean_mainlobe(values: np.ndarray) -> float:
    """Zero-lag autocorrelation r[m, m, 0] of an (M, M, N) array r, averaged over the antennas."""
    return float(values[:, :, 0].real.diagonal().sum()) / values.shape[0]


def sidelobes_vanish(eta: float, mainlobe: float) -> bool:
    """Whether a window peak eta is round-off of zero sidelobes: at most 1024 eps of the mainlobe."""
    return eta <= _ZERO_SIDELOBE_TOL * mainlobe


def psl_db(r: np.ndarray, w: LagWeights) -> float:
    """Peak sidelobe in dB relative to the mean zero-lag autocorrelation; -inf when they vanish."""
    return psl_db_of_peak(peak_sidelobe(r, w)[0], mean_mainlobe(r))


def psl_db_of_peak(eta: float, mainlobe: float) -> float:
    """``psl_db`` from a window peak ``eta`` and its ``mean_mainlobe``."""
    if mainlobe <= 0:
        raise ValueError("zero mainlobe; cannot normalize")
    if sidelobes_vanish(eta, mainlobe):
        return -np.inf
    return 20.0 * np.log10(eta / mainlobe)


def snr_ratio(snr_db: float) -> float:
    """Linear power ratio 10**(snr_db/10) of an SNR point; a ``ValueError`` naming
    the point unless the ratio and its reciprocal are finite and positive."""
    try:
        ratio = 10.0 ** (snr_db / 10.0)
    except OverflowError:  # a Python float power overflows with an error, not inf
        ratio = np.inf
    # a subnormal ratio (about -3230 .. -3080 dB) is positive, but 1 / ratio is not finite
    if not (0.0 < ratio < np.inf and 1.0 / ratio < np.inf):
        raise ValueError(f"SNR point {snr_db} dB has no finite positive power ratio")
    return ratio


def noise_level(energy: float, snr_db: float) -> float:
    """Noise standard deviation sqrt(energy / snr_ratio(snr_db)) for a signal of the
    given energy; a ``ValueError`` naming the point if it is not finite."""
    level = math.sqrt(energy / snr_ratio(snr_db))  # correctly rounded, as np.sqrt
    if level == math.inf:
        raise ValueError(f"SNR point {snr_db} dB gives an infinite noise level")
    return level
