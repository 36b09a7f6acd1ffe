"""Downlink evaluation: flat Rayleigh MIMO channel, zero-forcing receiver, uncoded BER.

H is K x M with iid CN(0, 1) entries, constant across the band.  On
sub-carrier n the K receive streams are H @ X[n, :] plus white noise, and
zero forcing applies pinv(H).  SNR is per transmit symbol, Es_avg /
sigma_n^2, with Es_avg the mean energy of the grid's nonzero entries.  Both
grids of a (reference, optimized) pair see the same channel and noise, so
the measured SNR penalty reflects only the symbol perturbation.

``channel_apply``, ``zf_equalize`` and ``bit_errors`` are the reference
chain.  ``ber_campaign`` makes its decisions in one pass per pair
(``_pair_errors``).  With n_rx >= M, pinv(H) (H x + n) = x + pinv(H) n, so
the pass equalizes only the noise and adds it to each grid; its estimate
differs from the chain's by the round-off of (pinv(H) H - I) x.  The pass
writes every large intermediate into a workspace kept per thread and
shape: with fresh arrays, whose pages fault in on every pair, campaigns ran
1.40-1.50x slower.
"""

from __future__ import annotations

import threading

import numpy as np

from .constellation import (
    ConstellationSpec,
    SubcarrierMask,
    _bits_to_labels,
    _check_bits,
    _decision_regions,
    _error_table,
    demodulate,
)
from .spectrum import _INV_SQRT2, SymbolGrid, noise_level, snr_ratio

__all__ = [
    "draw_channel",
    "channel_apply",
    "zf_equalize",
    "bit_errors",
    "ber_campaign",
]

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
    rate to report.  So is a grid whose shape is not the mask's, bits that
    are not bits_per_symbol * n_used values of 0 or 1 (named by pair), fewer
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
    n_used = mask.n_used
    for j, (_, _, bits) in enumerate(pairs):
        _check_bits(bits, spec.bits_per_symbol * n_used, f"the bits of pair {j}")
    n_bits_total = spec.bits_per_symbol * n_used * len(pairs)
    errors = np.zeros((2, n_snr))
    ws = _workspace((n_snr, n, n_rx, m))
    for ref, opt, bits in pairs:
        es_avg = ref.energy() / n_used
        sigma = np.array([noise_level(es_avg, s) for s in snr_db_list])
        errors += _pair_errors(ws, ref, opt, bits, sigma, spec, mask, rng)
    return {"original": errors[0] / n_bits_total, "optimized": errors[1] / n_bits_total}
