"""Downlink evaluation: flat Rayleigh MIMO channel, zero-forcing receiver, uncoded BER.

The channel H is K x M with iid CN(0, 1) entries, constant across the OFDM
band (frequency-flat).  On sub-carrier n the K receive streams are
H @ X[n, :] plus white noise; the zero-forcing receiver applies the
pseudoinverse of H.  SNR is defined per transmit symbol: Es_avg / sigma_n^2,
where Es_avg is the average energy of the grid's nonzero entries.

BER campaigns compare a reference grid against its sidelobe-optimized
counterpart on the same channel draw and the same noise realization, so the
measured SNR penalty reflects only the symbol perturbation.

``channel_apply``, ``zf_equalize`` and ``bit_errors`` (over
``constellation.demodulate``) are the reference chain.  ``ber_campaign``
makes its decisions in one pass per pair:

* Only the noise is equalized.  With n_rx >= M, which ``ber_campaign``
  requires, H has full column rank and pinv(H) (H x + n) = x + pinv(H) n.
  The pass forms E = (sigma n) pinv(H)^T once per pair, and each arm's
  estimate is its grid plus E.  That differs from the chain's estimate by
  the round-off of (pinv(H) H - I) x, so the decisions are the chain's
  unless an entry lies within that round-off of a decision boundary.
* Workspace.  Every large intermediate is written with ``out=`` into the
  preallocated arrays of one ``_Workspace`` per shape (n_snr, N, n_rx, M).
  Each thread keeps the workspace of its last campaign and reuses it while
  the shape stays the same, so concurrent campaigns never share one.
* Bit errors.  The slicer that ``demodulate`` uses
  (``constellation._decision_regions``) gives every entry of the estimate
  its decision region, and a cached table of bit errors per (region, sent
  label) (``constellation._error_table``, built from the region-to-bits
  table) counts them; unused entries read its zero column.  No bits are
  expanded or compared.
"""

from __future__ import annotations

import threading

import numpy as np

from .constellation import (
    ConstellationSpec,
    SubcarrierMask,
    _bits_to_labels,
    _decision_regions,
    _error_table,
    demodulate,
)
from .spectrum import SymbolGrid, noise_level, snr_ratio

__all__ = [
    "draw_channel",
    "channel_apply",
    "zf_equalize",
    "bit_errors",
    "ber_campaign",
]

_INV_SQRT2 = 1.0 / np.sqrt(2.0)


def draw_channel(rng: np.random.Generator, n_rx: int, n_tx: int) -> np.ndarray:
    """iid CN(0, 1) frequency-flat (n_rx, n_tx) channel matrix H."""
    return (rng.standard_normal((n_rx, n_tx)) + 1j * rng.standard_normal((n_rx, n_tx))) / np.sqrt(2.0)


def channel_apply(
    grid: SymbolGrid | np.ndarray, h: np.ndarray, noise_std: float | np.ndarray, noise: np.ndarray
) -> np.ndarray:
    """Received (..., N, K) array: per-subcarrier H @ x plus ``noise_std * noise``.

    ``grid`` is a ``SymbolGrid`` or an (..., N, M) stack of grids.  The
    noiseless H @ x and ``noise_std * noise`` are each computed once and
    broadcast against each other: an (S, 1, 1) ``noise_std`` with (S, N, K)
    noise gives S noisy copies, and a (2, 1, N, M) stack of two grids with
    them gives (2, S, N, K), both grids under the same scaled noise.  The
    caller draws the noise, so the arms of a comparison can share it.
    """
    return np.asarray(grid) @ h.T + noise_std * noise


def zf_equalize(received: np.ndarray, h: np.ndarray) -> np.ndarray:
    """Zero-forcing estimate of the transmitted grid: (..., N, K) -> (..., N, M).

    The stack is flattened to rows of K and equalized by one 2-D product.
    """
    n_rx, n_tx = h.shape
    flat = received.reshape(-1, n_rx) @ np.linalg.pinv(h).T
    return flat.reshape(received.shape[:-1] + (n_tx,))


def bit_errors(
    estimate: np.ndarray,
    bits: np.ndarray,
    spec: ConstellationSpec,
    mask: SubcarrierMask,
) -> int | np.ndarray:
    """Hard-decision bit errors of an equalized grid against the transmitted bits.

    An (N, M) estimate gives an ``int``; a (..., N, M) stack gives one count
    per leading index.
    """
    decided = demodulate(estimate, spec, mask)
    counts = np.count_nonzero(decided != np.asarray(bits), axis=-1)
    return int(counts) if counts.ndim == 0 else counts


class _Workspace:
    """The arrays of one ``ber_campaign`` pass for a shape (n_snr, N, n_rx, M).

    Every large intermediate of a pair is written into these; a warm
    campaign allocates only numpy's transient iterator buffers.
    """

    def __init__(self, n_snr: int, n: int, n_rx: int, m: int):
        self.shape = (n_snr, n, n_rx, m)
        stack = (2, n_snr, n, m)  # arm, SNR point, sub-carrier, antenna
        self.gauss = np.empty((n_snr, 2, n, n_rx))
        self.noise = np.empty((n_snr, n, n_rx), dtype=complex)
        self.equalized = np.empty((n_snr, n, m), dtype=complex)
        self.estimate = np.empty(stack, dtype=complex)
        self.region = np.empty(stack)
        self.spare = np.empty(stack)  # QAM's imaginary levels
        self.index = np.empty(stack, dtype=np.intp)
        self.errors = np.empty(stack, dtype=np.uint8)
        self.labels = np.empty((n, m))


# each thread keeps the workspace of its last campaign, so threads never share one
_LOCAL = threading.local()


def _workspace(shape: tuple[int, int, int, int]) -> _Workspace:
    ws = getattr(_LOCAL, "ws", None)
    if ws is None or ws.shape != shape:
        ws = _LOCAL.ws = _Workspace(*shape)
    return ws


def _pair_errors(
    ws: _Workspace,
    ref: SymbolGrid,
    opt: SymbolGrid,
    bits: np.ndarray,
    sigma: np.ndarray,
    spec: ConstellationSpec,
    mask: SubcarrierMask,
    rng: np.random.Generator,
) -> np.ndarray:
    """(2, n_snr) bit errors of one pair: the reference chain's decisions, written into ``ws``.

    Draws the channel, then the unit noise, from ``rng``; each arm's estimate
    is its grid plus the equalized noise.  The slicer gives every entry its
    region, used or not; ``_error_table`` at (region, sent label) counts its
    bit errors, and unused entries carry the label Q, whose column is zero.
    """
    q = spec.order
    n_rx, n_tx = ws.shape[2:]
    h = draw_channel(rng, n_rx, n_tx)
    rng.standard_normal(out=ws.gauss)
    np.multiply(ws.gauss[:, 0], _INV_SQRT2, out=ws.noise.real)
    np.multiply(ws.gauss[:, 1], _INV_SQRT2, out=ws.noise.imag)
    np.multiply(sigma[:, None, None], ws.noise, out=ws.noise)
    np.matmul(ws.noise.reshape(-1, n_rx), np.linalg.pinv(h).T,
              out=ws.equalized.reshape(-1, n_tx))
    np.add(ref.symbols, ws.equalized, out=ws.estimate[0])
    np.add(opt.symbols, ws.equalized, out=ws.estimate[1])
    region = _decision_regions(ws.estimate, spec.family, q, ws.region, ws.spare)
    ws.labels.fill(q)
    ws.labels.T[mask.used.T] = _bits_to_labels(bits, spec.bits_per_symbol)
    region *= q + 1
    region += ws.labels
    np.copyto(ws.index, region, casting="unsafe")
    np.take(_error_table(spec.family, q), ws.index, out=ws.errors)
    return ws.errors.sum(axis=(2, 3))


def ber_campaign(
    pairs: list[tuple[SymbolGrid, SymbolGrid, np.ndarray]],
    snr_db_list: list[float],
    spec: ConstellationSpec,
    mask: SubcarrierMask,
    rng: np.random.Generator,
    n_rx: int,
) -> dict[str, np.ndarray]:
    """Uncoded BER vs SNR for (reference, optimized, bits) grid pairs.

    Both arms of each pair share the channel draw and the noise realization
    at every SNR point.  Es_avg is measured on the reference grid; sigma_n is
    set per SNR point as sqrt(Es_avg / snr) (``spectrum.noise_level``).
    Returns arrays of BER per SNR for keys "original" and "optimized".

    All SNR points of a pair are processed as one (S, N, K) stack.  Their
    noise is drawn at once as (S, 2, N, K) standard normals, which consumes
    the stream as per-point draws would: point by point, real part first.
    The unit noise is written straight into the real and imaginary views of
    one complex array, each part times 1/sqrt(2): the rounding of
    (re + 1j*im) / sqrt(2).
    Both arms share one equalized noise, so each channel draw costs one
    pseudoinverse and one noise product (``_pair_errors``, written into the
    calling thread's ``_Workspace``).
    An empty ``pairs`` or ``snr_db_list`` is a ``ValueError``: there is no
    rate to report.  So is a grid whose shape is not the mask's, fewer
    receive than transmit antennas, an SNR point that ``snr_ratio`` rejects
    (a NaN or infinite point, or one outside about -3080 .. 3080 dB), or one
    whose noise level overflows.
    """
    if len(pairs) == 0:
        raise ValueError("ber_campaign needs at least one grid pair")
    n_snr = len(snr_db_list)
    if n_snr == 0:
        raise ValueError("ber_campaign needs at least one SNR point")
    for s in snr_db_list:  # rejected before any draw
        snr_ratio(s)
    n, m = mask.used.shape
    if n_rx < m:
        raise ValueError("zero forcing needs n_rx >= the number of transmit antennas")
    if any(g.symbols.shape != (n, m) for ref, opt, _ in pairs for g in (ref, opt)):
        raise ValueError(f"every grid of ber_campaign must have the mask's shape {(n, m)}")
    n_bits_total = sum(b.size for _, _, b in pairs)
    errors = np.zeros((2, n_snr))
    ws = _workspace((n_snr, n, n_rx, m))
    for ref, opt, bits in pairs:
        es_avg = ref.energy() / mask.n_used
        sigma = np.array([noise_level(es_avg, s) for s in snr_db_list])
        errors += _pair_errors(ws, ref, opt, bits, sigma, spec, mask, rng)
    return {"original": errors[0] / n_bits_total, "optimized": errors[1] / n_bits_total}
