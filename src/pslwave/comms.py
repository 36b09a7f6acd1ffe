"""Downlink evaluation: flat Rayleigh MIMO channel, zero-forcing receiver, uncoded BER.

The channel H is K x M with iid CN(0, 1) entries, constant across the OFDM
band (frequency-flat).  On sub-carrier n the K receive streams are
H @ X[n, :] plus white noise; the zero-forcing receiver applies the
pseudoinverse of H.  SNR is defined per transmit symbol: Es_avg / sigma_n^2,
where Es_avg is the average energy of the grid's nonzero entries.

BER campaigns compare a reference grid against its sidelobe-optimized
counterpart on the same channel draw and the same noise realization, so the
measured SNR penalty reflects only the symbol perturbation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .constellation import ConstellationSpec, SubcarrierMask, demodulate
from .spectrum import SymbolGrid

__all__ = [
    "ChannelRealization",
    "draw_channel",
    "channel_apply",
    "zf_equalize",
    "bit_errors",
    "ber_campaign",
]


@dataclass
class ChannelRealization:
    h: np.ndarray  # (K, M)

    @property
    def n_rx(self) -> int:
        return self.h.shape[0]

    @property
    def n_tx(self) -> int:
        return self.h.shape[1]


def draw_channel(rng: np.random.Generator, n_rx: int, n_tx: int) -> ChannelRealization:
    """iid CN(0, 1) frequency-flat channel matrix."""
    h = (rng.standard_normal((n_rx, n_tx)) + 1j * rng.standard_normal((n_rx, n_tx))) / np.sqrt(2.0)
    return ChannelRealization(h)


def channel_apply(
    grid: SymbolGrid,
    channel: ChannelRealization,
    noise_std: float | np.ndarray,
    rng: np.random.Generator,
    noise: np.ndarray | None = None,
) -> np.ndarray:
    """Received (..., N, K) array: per-subcarrier H @ x plus white noise.

    The noiseless H @ x is computed once and broadcast against ``noise_std``
    and ``noise``: an (S, 1, 1) ``noise_std`` with (S, N, K) noise gives S
    noisy copies.  A pre-drawn noise array may be supplied to pair arms of a
    comparison; otherwise noise of the broadcast shape is drawn.
    """
    received = grid.symbols @ channel.h.T
    if noise is None:
        shape = np.broadcast_shapes(np.shape(noise_std), received.shape)
        noise = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2.0)
    return received + noise_std * noise


def zf_equalize(received: np.ndarray, channel: ChannelRealization) -> np.ndarray:
    """Zero-forcing estimate of the transmitted grid: (..., N, K) -> (..., N, M)."""
    return received @ np.linalg.pinv(channel.h).T


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
    n_rx: int | None = None,
) -> dict[str, np.ndarray]:
    """Uncoded BER vs SNR for (reference, optimized, bits) grid pairs.

    Both arms of each pair share the channel draw and the noise realization
    at every SNR point.  Es_avg is measured on the reference grid; sigma_n is
    set per SNR point as sqrt(Es_avg / snr).  Returns arrays of BER per SNR
    for keys "original" and "optimized".

    All SNR points of a pair are processed as one (S, N, K) stack.  Their
    noise is drawn at once as (S, 2, N, K) standard normals, which consumes
    the stream as per-point draws would: point by point, real part first.
    """
    n_snr = len(snr_db_list)
    n_bits_total = sum(b.size for _, _, b in pairs)
    errors = {"original": np.zeros(n_snr), "optimized": np.zeros(n_snr)}
    for ref, opt, bits in pairs:
        n, m = ref.symbols.shape
        k = n_rx if n_rx is not None else m
        es_avg = ref.energy() / mask.n_used
        channel = draw_channel(rng, k, m)
        # scalar powers: numpy's array power can differ from them in the last bit
        sigma = np.array([np.sqrt(es_avg / 10.0 ** (s / 10.0)) for s in snr_db_list])
        gauss = rng.standard_normal((n_snr, 2, n, k))
        noise = (gauss[:, 0] + 1j * gauss[:, 1]) / np.sqrt(2.0)
        for key, grid in (("original", ref), ("optimized", opt)):
            rx = channel_apply(grid, channel, sigma[:, None, None], rng, noise=noise)
            errors[key] += bit_errors(zf_equalize(rx, channel), bits, spec, mask)
    return {key: e / n_bits_total for key, e in errors.items()}
