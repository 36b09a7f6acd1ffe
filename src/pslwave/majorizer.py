"""One majorization pass: p-norm surrogate coefficients, eigenvalue bounds, descent direction.

The peak-sidelobe objective, the sum of |r|^p over the lag window, is
majorized in three stages:

1. each |r|^p by a quadratic a*|r|^2 + b*|r| touching at the current iterate
   and at r_bar, the largest |r| in the window (Song, Babu & Palomar, IEEE
   TSP 2016).  The fast path reads two closed forms of it.  By tangency the
   linearized weight is c = a + b/(2|r|) = (p/2) * |r|^(p-2).  And a is a
   divided difference of the convex x^p on [|r|, r_bar], so it is at most
   p(p-1)/2 * r_bar^(p-2), with equality at the peak lag;
2. the resulting quadratic form in x* (x) Kronecker x by a linear term using
   the closed-form top eigenvalue N^3 * max(a) = N^3 * p(p-1)/2 *
   r_bar^(p-2) of the stacked Gram matrix;
3. the remaining quadratic x^H Q x by mu_bar * ||x||^2 + linear, where Q is
   block-diagonal per sub-carrier, so mu_bar is the max over N decoupled
   M x M Hermitian eigenproblems.

The per-subcarrier blocks are Q_n[m, k] = v_mk[n] + conj(v_km[n]) with
v_mk = N * DFT(c * r_mk), where c is zero off the lag window.  With the
causal window (lags 1..N_cp-1 only) these blocks are genuinely complex
Hermitian; they collapse to real symmetric 2*Re{v_mk} only when the window is
mirror symmetric.  The dense-matrix oracle pins this structure.

Everything is computed in r_bar-factored form: with p = 50 the raw
coefficients overflow double precision, so the common factor r_bar**(p-2) is
dropped throughout.  It multiplies a, c, lambda_bar, Q and mu_bar alike and
cancels in the normalized minimization step, leaving the direction vector y
unchanged up to a positive scale.

One pass computes each quantity once.  The window magnitudes |r| (lags
1..N_cp-1, read as a slice) give eta, its (m, k, i), r_bar and c_hat; the
correlation tensor keeps them (``spectrum.window_abs``), so correlations
passed in come with their |r|.  The product c_hat * r is formed on the
window lags only before the one FFT to v.  The (N, M, M) block stack is
built once and serves both the eigensolve for mu_bar and Qx.  The pass
itself keeps no state between calls; which tensor an accepted iterate
carries into its next pass is the optimizer's choice.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .spectrum import (
    CorrelationTensor, LagWeights, SymbolGrid, cyclic_correlations, mean_mainlobe, peak_sidelobe,
    sidelobes_vanish, window_abs, window_lags,
)

__all__ = [
    "MajorizerCoeffs",
    "MajorizerOutput",
    "ZeroSidelobeError",
    "coefficients",
    "lambda_bar",
    "v_fields",
    "hermitian_blocks",
    "mu_bar",
    "majorize_direction",
]


class ZeroSidelobeError(ValueError):
    """All correlations in the lag window vanish up to round-off (``spectrum.sidelobes_vanish``)."""


@dataclass
class MajorizerCoeffs:
    """r_bar-factored surrogate coefficients; multiply c_hat by r_bar**(p-2)
    to recover the raw values."""

    p: int
    r_bar: float
    c_hat: np.ndarray  # (M, M, N), zero off the lag window


@dataclass
class MajorizerOutput:
    """One pass's results in the common r_bar**(p-2) scale; y, qx and mu_bar
    are None when the sidelobes in the lag window vanish."""

    y: np.ndarray | None  # length-MN direction (Q - 2*lambda_bar*x x^H - mu_bar*I) x
    eta: float
    argmax: tuple[int, int, int]
    qx: np.ndarray | None = None  # (N, M) product Q x, column m for antenna m
    mu_bar: float | None = None  # lambda_max(Q)


def coefficients(corr: CorrelationTensor, w: LagWeights, p: int) -> MajorizerCoeffs:
    """Linearized weights c = (p/2) * |r|^(p-2) on the lag window, in r_bar-factored form."""
    if p < 2:
        raise ValueError("p must be >= 2")
    lags = window_lags(corr, w)
    r_abs = window_abs(corr, w)
    r_bar = float(np.max(r_abs))
    if sidelobes_vanish(r_bar, mean_mainlobe(corr)):
        raise ZeroSidelobeError("all correlations in the lag window are zero up to round-off")
    c_hat = np.zeros(corr.values.shape)
    c_hat[:, :, lags] = 0.5 * p * (r_abs / r_bar) ** (p - 2)
    return MajorizerCoeffs(p=p, r_bar=r_bar, c_hat=c_hat)


def lambda_bar(coeffs: MajorizerCoeffs, w: LagWeights) -> float:
    """Scaled top eigenvalue of the stacked Gram matrix: N^3 * max(a) = N^3 * p(p-1)/2.

    The largest quadratic coefficient a sits at the peak lag, where it equals
    its limit p(p-1)/2 * r_bar^(p-2) (module docstring, stage 1).
    """
    return w.n_lags**3 * 0.5 * coeffs.p * (coeffs.p - 1)


def v_fields(corr: CorrelationTensor, coeffs: MajorizerCoeffs, w: LagWeights) -> np.ndarray:
    """Diagonal-block generators: v[m, k] = N * DFT(c_hat * r), c_hat zero off the window."""
    # The diagonal blocks Lambda_mk = Diag(v_mk + conj(v_km)) require v_mk to
    # carry a factor N on top of the DFT of (c * r): expanding the diagonal
    # of sum_i c (conj(r) Diag(N conj(F_i)) + h.c.) over window lags i entrywise
    # gives N * [DFT(c r_mk)]_n + conj(N * [DFT(c r_km)]_n).  The dense-matrix
    # oracle pins this constant; test_majorizer asserts it as a regression.
    lags = window_lags(corr, w)
    weighted = np.zeros(corr.values.shape, dtype=complex)
    weighted[:, :, lags] = coeffs.c_hat[:, :, lags] * corr.values[:, :, lags]
    return corr.n_lags * np.fft.fft(weighted, axis=2)


def hermitian_blocks(v: np.ndarray) -> np.ndarray:
    """(N, M, M) stack of per-subcarrier blocks Q_n[m, k] = v_mk[n] + conj(v_km[n])."""
    return (v + v.transpose(1, 0, 2).conj()).transpose(2, 0, 1)


def mu_bar(v: np.ndarray, _blocks: np.ndarray | None = None) -> float:
    """max_n lambda_max(Q_n) over the Hermitian per-subcarrier blocks.

    One batched LAPACK Hermitian eigensolve (``eigvalsh``, ascending
    eigenvalues) over the (N, M, M) block stack.  The blocks are Hermitian by
    construction; ``v`` is checked to be finite first, since a NaN or an
    infinity would otherwise pass through as a bound.  ``_blocks`` may carry
    the already built ``hermitian_blocks(v)``.
    """
    if not np.all(np.isfinite(v)):
        raise ValueError("v fields must be finite")
    blocks = hermitian_blocks(v) if _blocks is None else _blocks
    return float(np.max(np.linalg.eigvalsh(blocks)[:, -1]))


def majorize_direction(
    grid: SymbolGrid,
    w: LagWeights,
    p: int,
    corr: CorrelationTensor | None = None,
) -> MajorizerOutput:
    """Full majorization pass at the current iterate.

    Returns the direction vector y = (Q - 2*lambda_bar*x x^H - mu_bar*I) x in
    the common r_bar**(p-2) scale, with the product Qx and mu_bar it was built
    from, or y = None when the sidelobes in the lag window already vanish
    (``coefficients`` raises ``ZeroSidelobeError``).
    ``corr`` may carry the already computed correlations of ``grid``.  Cost
    O(M^2 N log N) plus N small eigenproblems.
    """
    if corr is None:
        corr = cyclic_correlations(grid)
    eta, amax = peak_sidelobe(corr, w)
    try:
        coeffs = coefficients(corr, w, p)
    except ZeroSidelobeError:
        return MajorizerOutput(y=None, eta=eta, argmax=amax)
    lam = lambda_bar(coeffs, w)
    v = v_fields(corr, coeffs, w)
    blocks = hermitian_blocks(v)
    mu = mu_bar(v, _blocks=blocks)

    x = grid.symbols  # (N, M)
    qx = np.matmul(blocks, x[:, :, None])[:, :, 0]
    y = qx - (2.0 * lam * grid.energy() + mu) * x
    return MajorizerOutput(y=y.reshape(-1, order="F"), eta=eta, argmax=amax, qx=qx, mu_bar=mu)
