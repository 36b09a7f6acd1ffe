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
optimizer step reads.  It runs through an ``MMPlan``, set up once for the
iterate shape (N, M) and the lag window: the window is the slice
``1:N_cp`` of the lag axis, its lag count checked when the plan is built,
and the plan's (M, M, N) work array, zero off the window, is the one input
of the FFT to v.  ``plan.correlate(x)`` gives the correlations with their
window magnitudes |r|, the window peak r_bar and the mean mainlobe, from one
product and IFFT and no peak search; ``plan.direction`` turns them into
c_hat (window lags only), v, the (N, M, M) block stack, L and Qx, each in one
place.  ``optimize`` builds one plan per run; ``majorize_direction`` and
``v_fields`` are one-shot wrappers that build one per call, and
``majorize_direction`` keeps the blocks in a ``MajorizerOutput``, whose exact
mu_bar and MM direction y are computed when first read, so a step that never
reads them runs no eigensolve.  ``coefficients`` reads the window |r| that a
``CorrelationTensor`` keeps (``spectrum.window_abs``) and the same c_hat
formula.  When the window sidelobes vanish (``spectrum.sidelobes_vanish``)
there is no surrogate: the pass raises ``ZeroSidelobeError``.  A plan keeps no
state from one pass to the next; which correlations an accepted iterate
carries into its next pass is the optimizer's choice.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

# cyclic_correlations and peak_sidelobe are not called here; perfbench/tracer.py
# still wraps them at this site
from .spectrum import (
    CorrelationTensor, LagWeights, SymbolGrid, correlation_values, cyclic_correlations,
    mean_mainlobe, peak_sidelobe, sidelobes_vanish, window_abs,
)

__all__ = [
    "MajorizerCoeffs",
    "MajorizerOutput",
    "MMPlan",
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
    on first read from the kept ``x``, ``lambda_bar``, ``v`` and ``blocks``.
    """

    qx: np.ndarray  # (N, M) product Q x, column m for antenna m
    mu_bound: float  # L = max_n lambda_max_bound(Q_n) >= mu_bar
    x: np.ndarray = field(repr=False)  # (N, M) iterate
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
        x = self.x
        y = self.qx - (2.0 * self.lambda_bar * float(np.vdot(x, x).real) + self.mu_bar) * x
        return y.reshape(-1, order="F")


def coefficients(corr: CorrelationTensor, w: LagWeights, p: int) -> MajorizerCoeffs:
    """Linearized weights c = (p/2) * |r|^(p-2) on the lag window, in r_bar-factored form."""
    r_abs = window_abs(corr, w)
    r_bar = float(r_abs.max())
    return MajorizerCoeffs(p=p, r_bar=r_bar,
                           c_hat=_c_hat(r_abs, r_bar, mean_mainlobe(corr.values), p))


def _c_hat(r_abs: np.ndarray, r_bar: float, mainlobe: float, p: int) -> np.ndarray:
    """c_hat = 0.5 * p * (|r| / r_bar)^(p-2) on the window; ``ZeroSidelobeError``
    when r_bar is round-off of zero sidelobes."""
    if p < 2:
        raise ValueError("p must be >= 2")
    if sidelobes_vanish(r_bar, mainlobe):
        raise ZeroSidelobeError("all correlations in the lag window are zero up to round-off")
    return 0.5 * p * (r_abs / r_bar) ** (p - 2)


def lambda_bar(coeffs: MajorizerCoeffs, w: LagWeights) -> float:
    """Scaled top eigenvalue of the stacked Gram matrix: N^3 * max(a) = N^3 * p(p-1)/2.

    The largest quadratic coefficient a sits at the peak lag, where it equals
    its limit p(p-1)/2 * r_bar^(p-2) (module docstring, stage 1).
    """
    return _lambda_bar(w.n_lags, coeffs.p)


def _lambda_bar(n: int, p: int) -> float:
    return n**3 * 0.5 * p * (p - 1)


def v_fields(corr: CorrelationTensor, coeffs: MajorizerCoeffs, w: LagWeights) -> np.ndarray:
    """Diagonal-block generators: v[m, k] = N * DFT(c_hat * r), zero-filled off the window.

    One-shot: the FFT of a plan (``MMPlan.v``) set up for ``corr`` alone.
    """
    return MMPlan((corr.n_lags, corr.n_antennas), w).v(corr.values, coeffs.c_hat)


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


class MMPlan:
    """The majorization pass set up once for (N, M) iterates and one lag window.

    It holds the window as the slice ``1:n_cp`` of the lag axis, whose lag
    count N is checked against the iterate's shape here, once, and the
    (M, M, N) work array of the FFT to v.  That array is zero off the window,
    and every pass overwrites all of its window lags, so nothing of one pass
    reaches the next.  ``optimize`` builds one plan per run; ``v_fields`` and
    ``majorize_direction`` build one per call.

    Correlations travel as the tuple (r, window |r|, eta, mean mainlobe) that
    ``correlate`` returns, with r the (M, M, N) array and eta = r_bar the
    window peak.
    """

    def __init__(self, shape: tuple[int, int], w: LagWeights):
        n, m = shape
        if n != w.n_lags:
            raise ValueError(f"N = {n} and the weights (N = {w.n_lags}) disagree on lag count")
        self.n_lags = n
        self.lags = slice(1, w.n_cp)
        self._work = np.zeros((m, m, n), dtype=complex)

    def correlate(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray, float, float]:
        """(r, window |r|, eta, mean mainlobe) of the (N, M) array ``x``, from one
        product and IFFT (``spectrum.correlation_values``)."""
        values = correlation_values(x)
        r_abs = np.abs(values[:, :, self.lags])
        return values, r_abs, float(r_abs.max()), mean_mainlobe(values)

    def v(self, values: np.ndarray, c_hat: np.ndarray) -> np.ndarray:
        """v[m, k] = N * DFT(c_hat * r), from the window lags of the (M, M, N) array r."""
        # The diagonal blocks Lambda_mk = Diag(v_mk + conj(v_km)) require v_mk to
        # carry a factor N on top of the DFT of (c * r): expanding the diagonal
        # of sum_i c (conj(r) Diag(N conj(F_i)) + h.c.) over window lags i entrywise
        # gives N * [DFT(c r_mk)]_n + conj(N * [DFT(c r_km)]_n).  The dense-matrix
        # oracle pins this constant; test_majorizer asserts it as a regression.
        # N scales c_hat on the window lags, before the FFT, rather than the whole
        # (M, M, N) result; for N a power of two the two orders round alike.
        lags = self.lags
        np.multiply(self.n_lags * c_hat, values[:, :, lags], out=self._work[:, :, lags])
        return np.fft.fft(self._work, axis=2)

    def direction(
        self, x: np.ndarray, p: int,
        corr: tuple[np.ndarray, np.ndarray, float, float] | None = None,
    ) -> tuple[np.ndarray, float, np.ndarray, np.ndarray]:
        """One pass at the (N, M) array ``x``: (Qx, L, v, blocks).

        L = max_n ``lambda_max_bound(Q_n)`` >= mu_bar, in the common
        r_bar**(p-2) scale.  ``corr`` may carry what ``correlate(x)`` returns.
        Raises ``ZeroSidelobeError`` when the window sidelobes of ``x`` vanish,
        and ``ValueError`` when the v fields are not finite.
        """
        values, r_abs, r_bar, mainlobe = self.correlate(x) if corr is None else corr
        v = self.v(values, _c_hat(r_abs, r_bar, mainlobe, p))
        blocks = hermitian_blocks(v)
        bound = float(lambda_max_bound(blocks).max())
        # a NaN or an infinity anywhere in v makes the bound non-finite
        if not math.isfinite(bound):
            raise ValueError("v fields must be finite")
        return np.matmul(blocks, x[:, :, None])[:, :, 0], bound, v, blocks


def majorize_direction(
    grid: SymbolGrid | np.ndarray,
    w: LagWeights,
    p: int,
    corr: CorrelationTensor | None = None,
) -> MajorizerOutput:
    """Full majorization pass at the current iterate, through a plan of its own.

    Returns the product Qx and the bound L = max_n ``lambda_max_bound(Q_n)``
    >= mu_bar in the common r_bar**(p-2) scale; the exact mu_bar and the
    direction y = (Q - 2*lambda_bar*x x^H - mu_bar*I) x are computed on first
    read.  Raises ``ZeroSidelobeError`` when the sidelobes in the lag window
    already vanish, and ``ValueError`` when the v fields are not finite.
    ``grid`` is a ``SymbolGrid`` or its (N, M) array; ``corr`` may carry its
    correlations.  Cost O(M^2 N log N); reading mu_bar or y adds N small
    eigenproblems.
    """
    x = np.asarray(grid)
    plan = MMPlan(x.shape, w)
    if corr is not None:
        r_abs = window_abs(corr, w)
        corr = (corr.values, r_abs, float(r_abs.max()), mean_mainlobe(corr.values))
    qx, bound, v, blocks = plan.direction(x, p, corr)
    return MajorizerOutput(qx=qx, mu_bound=bound, x=x, lambda_bar=_lambda_bar(w.n_lags, p),
                           v=v, blocks=blocks)
