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
   M x M Hermitian eigenproblems.  Any L >= mu_bar bounds it as well; the
   closed-form trace bound L = max_n ``lambda_max_bound(Q_n)`` costs O(M^2)
   per block and needs no eigensolve.

The per-subcarrier blocks are Q_n[m, k] = v_mk[n] + conj(v_km[n]) with
v_mk = N * DFT(c * r_mk), where c is zero off the lag window.  With the
causal window (lags 1..N_cp-1 only) these blocks are genuinely complex
Hermitian; they collapse to real symmetric 2*Re{v_mk} only when the window is
mirror symmetric.  The dense-matrix oracle pins this structure.

Everything is computed in r_bar-factored form: with p = 50 the raw
coefficients overflow double precision, so the common factor r_bar**(p-2) is
dropped throughout.  It multiplies a, c, lambda_bar, Q, mu_bar and L alike and
cancels in the normalized minimization step, leaving the direction vector y
unchanged up to a positive scale.

One pass computes each quantity once and returns Qx and L, the two values an
optimizer step reads.  The exact mu_bar and the MM direction y are computed
when first read (``MajorizerOutput``), from the blocks the pass keeps, so a
step that never reads them runs no eigensolve.  The window magnitudes |r|
(lags 1..N_cp-1, read as a slice) give r_bar and c_hat, which lives on the
window lags only; the correlation tensor keeps them (``spectrum.window_abs``),
so correlations passed in come with their |r|.  The product c_hat * r fills
the window lags of the pass's one (M, M, N) array before the one FFT to v.
The (N, M, M) block stack is built once and serves L, Qx and, when read, the
eigensolve for mu_bar.  When the window sidelobes vanish
(``spectrum.sidelobes_vanish``) there is no surrogate: ``coefficients``
raises ``ZeroSidelobeError`` and the pass lets it through.  The pass itself
keeps no state between calls; which tensor an accepted iterate carries into
its next pass is the optimizer's choice.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

# peak_sidelobe is not called here; perfbench/tracer.py still wraps it at this site
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
    "lambda_max_bound",
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
    c_hat: np.ndarray  # (M, M, n_cp - 1) on the lag window; index j holds lag j + 1


@dataclass
class MajorizerOutput:
    """One pass's results in the common r_bar**(p-2) scale.

    The pass fills ``qx`` and ``mu_bound``; ``mu_bar`` and ``y`` are computed
    on first read from the kept ``grid``, ``lambda_bar``, ``v`` and ``blocks``.
    """

    qx: np.ndarray  # (N, M) product Q x, column m for antenna m
    mu_bound: float  # L = max_n lambda_max_bound(Q_n) >= mu_bar
    grid: SymbolGrid = field(repr=False)  # the iterate x
    lambda_bar: float = field(repr=False)
    v: np.ndarray = field(repr=False)  # (M, M, N) v fields
    blocks: np.ndarray = field(repr=False)  # (N, M, M) hermitian_blocks(v)

    @cached_property
    def mu_bar(self) -> float:
        """lambda_max(Q), through the module-level ``mu_bar`` (one eigensolve)."""
        return mu_bar(self.v, _blocks=self.blocks)

    @cached_property
    def y(self) -> np.ndarray:
        """Length-MN MM direction (Q - 2*lambda_bar*x x^H - mu_bar*I) x."""
        x = self.grid.symbols
        y = self.qx - (2.0 * self.lambda_bar * self.grid.energy() + self.mu_bar) * x
        return y.reshape(-1, order="F")


def coefficients(corr: CorrelationTensor, w: LagWeights, p: int) -> MajorizerCoeffs:
    """Linearized weights c = (p/2) * |r|^(p-2) on the lag window, in r_bar-factored form."""
    if p < 2:
        raise ValueError("p must be >= 2")
    r_abs = window_abs(corr, w)
    r_bar = float(r_abs.max())
    if sidelobes_vanish(r_bar, mean_mainlobe(corr)):
        raise ZeroSidelobeError("all correlations in the lag window are zero up to round-off")
    return MajorizerCoeffs(p=p, r_bar=r_bar, c_hat=0.5 * p * (r_abs / r_bar) ** (p - 2))


def lambda_bar(coeffs: MajorizerCoeffs, w: LagWeights) -> float:
    """Scaled top eigenvalue of the stacked Gram matrix: N^3 * max(a) = N^3 * p(p-1)/2.

    The largest quadratic coefficient a sits at the peak lag, where it equals
    its limit p(p-1)/2 * r_bar^(p-2) (module docstring, stage 1).
    """
    return w.n_lags**3 * 0.5 * coeffs.p * (coeffs.p - 1)


def v_fields(corr: CorrelationTensor, coeffs: MajorizerCoeffs, w: LagWeights) -> np.ndarray:
    """Diagonal-block generators: v[m, k] = N * DFT(c_hat * r), zero-filled off the window."""
    # The diagonal blocks Lambda_mk = Diag(v_mk + conj(v_km)) require v_mk to
    # carry a factor N on top of the DFT of (c * r): expanding the diagonal
    # of sum_i c (conj(r) Diag(N conj(F_i)) + h.c.) over window lags i entrywise
    # gives N * [DFT(c r_mk)]_n + conj(N * [DFT(c r_km)]_n).  The dense-matrix
    # oracle pins this constant; test_majorizer asserts it as a regression.
    # N scales c_hat on the window lags, before the FFT, rather than the whole
    # (M, M, N) result; for N a power of two the two orders round alike.
    lags = window_lags(corr, w)
    weighted = np.zeros(corr.values.shape, dtype=complex)
    weighted[:, :, lags] = (corr.n_lags * coeffs.c_hat) * corr.values[:, :, lags]
    return np.fft.fft(weighted, axis=2)


def hermitian_blocks(v: np.ndarray) -> np.ndarray:
    """(N, M, M) stack of per-subcarrier blocks Q_n[m, k] = v_mk[n] + conj(v_km[n])."""
    return (v + v.transpose(1, 0, 2).conj()).transpose(2, 0, 1)


def lambda_max_bound(blocks: np.ndarray) -> np.ndarray:
    """(N,) upper bounds on lambda_max of each Hermitian block of an (N, M, M) stack.

    With t = Re tr Q_n and f = ||Q_n||_F^2 (= tr Q_n^2), the eigenvalues have
    mean t/M and variance f/M - (t/M)^2, and
    lambda_max <= t/M + sqrt((M - 1) * (f/M - (t/M)^2))
    (Wolkowicz & Styan, Lin. Alg. Appl. 29, 1980).  It is attained when the
    M - 1 smallest eigenvalues are equal, so it is exact for M <= 2 (one
    eigenvalue is the mean, or two sit symmetric about it) and for rank-one
    blocks.  The variance is clipped at 0 against round-off.  A non-finite
    block gives a non-finite bound.
    """
    m = blocks.shape[-1]
    mean = blocks.trace(axis1=1, axis2=2).real / m
    frob2 = np.square(np.abs(blocks)).sum(axis=(1, 2))
    return mean + np.sqrt((m - 1) * np.maximum(frob2 / m - mean * mean, 0.0))


def mu_bar(v: np.ndarray, _blocks: np.ndarray | None = None) -> float:
    """max_n lambda_max(Q_n) over the Hermitian per-subcarrier blocks, exactly.

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

    Returns the product Qx and the bound L = max_n ``lambda_max_bound(Q_n)``
    >= mu_bar in the common r_bar**(p-2) scale; the exact mu_bar and the
    direction y = (Q - 2*lambda_bar*x x^H - mu_bar*I) x are computed on first
    read.  Raises ``ZeroSidelobeError`` when the sidelobes in the lag window
    already vanish, and ``ValueError`` when the v fields are not finite.
    ``corr`` may carry the already computed correlations of ``grid``.  Cost
    O(M^2 N log N); reading mu_bar or y adds N small eigenproblems.
    """
    if corr is None:
        corr = cyclic_correlations(grid)
    coeffs = coefficients(corr, w, p)
    lam = lambda_bar(coeffs, w)
    v = v_fields(corr, coeffs, w)
    blocks = hermitian_blocks(v)
    bound = float(lambda_max_bound(blocks).max())
    # a NaN or an infinity anywhere in v makes the bound non-finite
    if not math.isfinite(bound):
        raise ValueError("v fields must be finite")
    qx = np.matmul(blocks, grid.symbols[:, :, None])[:, :, 0]
    return MajorizerOutput(qx=qx, mu_bound=bound, grid=grid, lambda_bar=lam, v=v, blocks=blocks)
