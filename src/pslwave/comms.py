"""Downlink evaluation: flat Rayleigh MIMO channel, zero-forcing receiver, uncoded BER.

The channel H is K x M with iid CN(0, 1) entries, constant across the OFDM
band (frequency-flat).  On sub-carrier n the K receive streams are
H @ X[n, :] plus white noise; the zero-forcing receiver applies the
pseudoinverse of H.  SNR is defined per transmit symbol: Es_avg / sigma_n^2,
where Es_avg is the average energy of the grid's nonzero entries.

BER campaigns compare a reference grid against its sidelobe-optimized
counterpart on the same channel draw and the same noise realization, so the
measured SNR penalty reflects only the symbol perturbation.  Each step of a
pair runs once for both arms: one ``channel_apply`` on the (2, 1, N, M) stack
of the arms scales the shared unit noise once, per SNR point, and adds it
to both noiseless receptions; one ``zf_equalize`` and one ``bit_errors``
(a one-pass slicer, ``constellation.demodulate``) follow.
"""

from __future__ import annotations

import numpy as np

from .constellation import ConstellationSpec, SubcarrierMask, demodulate
from .spectrum import SymbolGrid, snr_ratio

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
    set per SNR point as sqrt(Es_avg / snr).  Returns arrays of BER per SNR
    for keys "original" and "optimized".

    All SNR points of a pair are processed as one (S, N, K) stack.  Their
    noise is drawn at once as (S, 2, N, K) standard normals, which consumes
    the stream as per-point draws would: point by point, real part first.
    The unit noise is written straight into the real and imaginary views of
    one complex array, each part times 1/sqrt(2): the rounding of
    (re + 1j*im) / sqrt(2).
    Both arms go through one ``channel_apply`` as a (2, 1, N, M) stack, so
    the noise is scaled once and each channel draw costs one pseudoinverse.
    An empty ``pairs`` or ``snr_db_list`` is a ``ValueError``: there is no
    rate to report.  So is an SNR point without a finite positive power
    ratio (a NaN or infinite point, or one outside about -3230 .. 3080 dB), or one
    whose noise level overflows.
    """
    if len(pairs) == 0:
        raise ValueError("ber_campaign needs at least one grid pair")
    n_snr = len(snr_db_list)
    if n_snr == 0:
        raise ValueError("ber_campaign needs at least one SNR point")
    # scalar powers: numpy's array power can differ from them in the last bit
    ratios = [snr_ratio(s) for s in snr_db_list]
    n_bits_total = sum(b.size for _, _, b in pairs)
    errors = {"original": np.zeros(n_snr), "optimized": np.zeros(n_snr)}
    for ref, opt, bits in pairs:
        n, m = ref.symbols.shape
        if n_rx < m:
            raise ValueError("zero forcing needs n_rx >= the number of transmit antennas")
        es_avg = ref.energy() / mask.n_used
        sigma = np.array([np.sqrt(es_avg / r) for r in ratios])
        if sigma.max() == np.inf:
            raise ValueError(f"SNR point {min(snr_db_list)} dB gives an infinite noise level")
        h = draw_channel(rng, n_rx, m)
        gauss = rng.standard_normal((n_snr, 2, n, n_rx))
        noise = np.empty((n_snr, n, n_rx), dtype=complex)
        np.multiply(gauss[:, 0], _INV_SQRT2, out=noise.real)
        np.multiply(gauss[:, 1], _INV_SQRT2, out=noise.imag)
        arms = np.stack((ref.symbols, opt.symbols))[:, None]
        rx = channel_apply(arms, h, sigma[:, None, None], noise)  # (2, S, N, K)
        counts = bit_errors(zf_equalize(rx, h), bits, spec, mask)  # (2, S)
        errors["original"] += counts[0]
        errors["optimized"] += counts[1]
    return {key: e / n_bits_total for key, e in errors.items()}
