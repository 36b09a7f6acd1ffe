"""DFT conventions and FFT-based cyclic correlations of multi-antenna OFDM symbol grids.

Conventions, fixed here once and relied on by every other module:

* ``dft(v)[q] = sum_n v[n] exp(-2j pi n q / N)`` -- unnormalized forward
  transform (``np.fft.fft``); ``idft`` carries the ``1/N`` factor
  (``np.fft.ifft``).
* ``r[m, k, i] = N * sum_n exp(+2j pi n i / N) * x_m[n] * conj(x_k[n])
  = N**2 * idft(x_m * conj(x_k))[i]``.

The second line is the cyclic cross-correlation, at lag ``i``, of the
time-domain waveforms of antennas ``m`` and ``k``, written as a quadratic
form in the stacked frequency-domain symbol vector.  The factor ``N``
relative to the plain pointwise-product IDFT keeps the correlation equal to
that quadratic form exactly, which is what the eigenvalue bounds in the
majorizer assume.

A correlation tensor keeps its window |r| once ``window_abs`` has taken it,
so the peak search, ``psl_db`` and the majorizer's weights share one array.
The arithmetic of the correlations (``correlation_values``), of the mean
mainlobe and of the normalized PSL (``psl_db_of_peak``) also runs on plain
arrays and floats, which the majorizer's per-run plan
(``majorizer.MMPlan``) reads without building a tensor.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "SymbolGrid",
    "CorrelationTensor",
    "LagWeights",
    "cyclic_correlations",
    "correlation_values",
    "window_abs",
    "peak_sidelobe",
    "ZERO_SIDELOBE_EPS",
    "mean_mainlobe",
    "sidelobes_vanish",
    "psl_db",
    "psl_db_of_peak",
]

# Window sidelobes count as zero when the peak is at most this many machine
# epsilons times the mean mainlobe.  Exactly vanishing correlations (a
# constant grid, say) keep FFT round-off of up to ~2 eps of the mainlobe
# when N is not a power of two; real sidelobes sit hundreds of dB higher.
ZERO_SIDELOBE_EPS = 1024
_ZERO_SIDELOBE_TOL = ZERO_SIDELOBE_EPS * np.finfo(float).eps


@dataclass
class SymbolGrid:
    """N x M frequency-domain data symbols; column m belongs to antenna m.

    Treated as a value (nothing writes into ``symbols``), so it can keep the
    energy that ``energy`` takes on first read.
    """

    symbols: np.ndarray
    _energy: float | None = field(default=None, init=False, repr=False, compare=False)

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


@dataclass
class CorrelationTensor:
    """values[m, k, i] = cyclic correlation r of antennas (m, k) at lag i.

    Treated as a value (nothing writes into ``values``), so it can keep the
    window |r| that ``window_abs`` takes.
    """

    values: np.ndarray
    _window_abs: np.ndarray | None = field(default=None, init=False, repr=False, compare=False)

    @property
    def n_antennas(self) -> int:
        return self.values.shape[0]

    @property
    def n_lags(self) -> int:
        return self.values.shape[2]


@dataclass
class LagWeights:
    """The cyclic-prefix lag window: ``mask`` is True on lags [1, n_cp - 1], never the zero lag.

    The fast paths read the window as the slice ``1:n_cp`` of the lag axis
    (``window_abs``, ``majorizer.MMPlan``).
    """

    n_lags: int
    n_cp: int
    mask: np.ndarray = field(init=False)

    def __post_init__(self):
        if not 2 <= self.n_cp <= self.n_lags:
            raise ValueError(f"need 2 <= n_cp <= n_lags = {self.n_lags}, got n_cp = {self.n_cp}")
        self.mask = np.zeros(self.n_lags, dtype=bool)
        self.mask[1 : self.n_cp] = True


def cyclic_correlations(grid: SymbolGrid | np.ndarray) -> CorrelationTensor:
    """All M x M x N cyclic auto-/cross-correlations of the time-domain waveforms.

    ``grid`` is a ``SymbolGrid`` or its (N, M) array.  One IFFT per antenna
    pair; the N**2 scale keeps r equal to the stacked quadratic form.
    """
    return CorrelationTensor(correlation_values(np.asarray(grid)))


def correlation_values(x: np.ndarray) -> np.ndarray:
    """The (M, M, N) array r of ``cyclic_correlations`` of the (N, M) array ``x``."""
    n = x.shape[0]
    # prod[m, k, :] = x_m * conj(x_k) over subcarriers, from a contiguous (M, N)
    # copy: the product runs on unit strides, entrywise the same arithmetic
    xt = x.T.copy()
    prod = xt[:, None, :] * xt.conj()[None, :, :]
    values = np.fft.ifft(prod, axis=2)
    values *= n**2  # in place: rounds as n**2 * ifft(prod)
    return values


def window_abs(corr: CorrelationTensor, w: LagWeights) -> np.ndarray:
    """(M, M, n_cp - 1) magnitudes |r| on the lag window; index j holds lag j + 1.

    Taken once and kept on ``corr``; a window of another length takes and
    keeps its own.  The lag count N is checked on every read (ValueError), since
    the slice 1:n_cp alone would silently read a window of another N.
    """
    if corr.n_lags != w.n_lags:
        raise ValueError("correlation tensor and weights disagree on lag count")
    r_abs = corr._window_abs
    if r_abs is None or r_abs.shape[2] != w.n_cp - 1:
        r_abs = corr._window_abs = np.abs(corr.values[:, :, 1 : w.n_cp])
    return r_abs


def peak_sidelobe(corr: CorrelationTensor, w: LagWeights) -> tuple[float, tuple[int, int, int]]:
    """Largest |r| in the lag window and its first (m, k, i) triple in lexicographic order."""
    r_abs = window_abs(corr, w)
    flat = int(np.argmax(r_abs))  # first maximum in C order == lexicographic (m, k, window lag)
    m, k, j = np.unravel_index(flat, r_abs.shape)
    return float(r_abs[m, k, j]), (int(m), int(k), int(j) + 1)


def mean_mainlobe(values: np.ndarray) -> float:
    """Zero-lag autocorrelation r[m, m, 0] of an (M, M, N) array r, averaged over the antennas."""
    return float(values[:, :, 0].real.diagonal().sum()) / values.shape[0]


def sidelobes_vanish(eta: float, mainlobe: float) -> bool:
    """Whether a window peak eta is round-off of zero sidelobes (see ``ZERO_SIDELOBE_EPS``)."""
    return eta <= _ZERO_SIDELOBE_TOL * mainlobe


def psl_db(corr: CorrelationTensor, w: LagWeights) -> float:
    """Peak sidelobe in dB relative to the mean zero-lag autocorrelation; -inf when they vanish."""
    return psl_db_of_peak(peak_sidelobe(corr, w)[0], mean_mainlobe(corr.values))


def psl_db_of_peak(eta: float, mainlobe: float) -> float:
    """``psl_db`` from a window peak ``eta`` and its ``mean_mainlobe``."""
    if mainlobe <= 0:
        raise ValueError("zero mainlobe; cannot normalize")
    if sidelobes_vanish(eta, mainlobe):
        return -np.inf
    return 20.0 * np.log10(eta / mainlobe)
