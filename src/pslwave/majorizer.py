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
``LagWeights.lags`` (``1:N_cp``) of the lag axis, its lag count checked when
the plan is built, and the plan's (M, M, N) work array, zero off the window,
is the one input of the FFT to v.  ``plan.correlate(x)`` gives the
correlations with their window magnitudes |r|, the window peak r_bar and the
mean mainlobe, from one product and IFFT and no peak search;
``plan.direction(x, corr, p)`` takes that record of x as a required input
and turns it into c_hat (window lags only), v, the (N, M, M) block stack, L
and Qx, each in one place.  Within a pass c_hat is formed in place in its
own array, the blocks are one C-contiguous (M, M, N) array
Q = conj(v^T) + v whose pair axes ``lambda_max_bound`` reads contiguously,
and nothing of x or its record is written.  ``optimize`` builds one plan per run and
correlates each point once, passing its record to the pass.
``majorize_direction`` and ``v_fields`` are one-shot wrappers that build one
per call; ``majorize_direction`` correlates its grid through its plan and
keeps x and v in a ``MajorizerOutput``,
whose exact mu_bar and MM direction y are computed when first read, so a step
that never reads them runs no eigensolve.  ``coefficients`` takes the window
|r| of an (M, M, N) correlation array (``spectrum.window_abs``) and applies
the same c_hat formula.  When the window sidelobes vanish
(``spectrum.sidelobes_vanish``) there is no surrogate: ``_c_hat`` raises
``ZeroSidelobeError``.  A plan keeps nothing from one pass to the next.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

# peak_sidelobe is not called here; perfbench/tracer.py still wraps it at this site
from .spectrum import (
    LagWeights, SymbolGrid, cyclic_correlations, mean_mainlobe, peak_sidelobe, sidelobes_vanish,
    window_abs,
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
    on first read from the kept ``x``, ``lambda_bar`` and ``v``.
    """

    qx: np.ndarray  # (N, M) product Q x, column m for antenna m
    mu_bound: float  # L = max_n lambda_max_bound(Q_n) >= mu_bar
    x: np.ndarray = field(repr=False)  # (N, M) iterate
    lambda_bar: float = field(repr=False)
    v: np.ndarray = field(repr=False)  # (M, M, N) v fields

    @cached_property
    def mu_bar(self) -> float:
        """lambda_max(Q), through the module-level ``mu_bar`` (one eigensolve)."""
        return mu_bar(self.v)

    @cached_property
    def y(self) -> np.ndarray:
        """Length-MN MM direction (Q - 2*lambda_bar*x x^H - mu_bar*I) x."""
        x = self.x
        y = self.qx - (2.0 * self.lambda_bar * float(np.vdot(x, x).real) + self.mu_bar) * x
        return y.reshape(-1, order="F")


def coefficients(r: np.ndarray, w: LagWeights, p: int) -> MajorizerCoeffs:
    """Linearized weights c = (p/2) * |r|^(p-2) on the lag window of the (M, M, N)
    correlations r, in r_bar-factored form."""
    r_abs = window_abs(r, w)
    r_bar = float(r_abs.max())
    return MajorizerCoeffs(p=p, r_bar=r_bar, c_hat=_c_hat(r_abs, r_bar, mean_mainlobe(r), p))


def _c_hat(r_abs: np.ndarray, r_bar: float, mainlobe: float, p: int) -> np.ndarray:
    """c_hat = 0.5 * p * (|r| / r_bar)^(p-2) on the window, built in place in a
    new array (``r_abs`` is only read); ``ZeroSidelobeError`` when r_bar is
    round-off of zero sidelobes."""
    if p < 2:
        raise ValueError("p must be >= 2")
    if sidelobes_vanish(r_bar, mainlobe):
        raise ZeroSidelobeError("all correlations in the lag window are zero up to round-off")
    c = r_abs / r_bar
    c **= p - 2
    c *= 0.5 * p
    return c


def lambda_bar(coeffs: MajorizerCoeffs, w: LagWeights) -> float:
    """Scaled top eigenvalue of the stacked Gram matrix: N^3 * max(a) = N^3 * p(p-1)/2.

    The largest quadratic coefficient a sits at the peak lag, where it equals
    its limit p(p-1)/2 * r_bar^(p-2) (module docstring, stage 1).
    """
    return _lambda_bar(w.n_lags, coeffs.p)


def _lambda_bar(n: int, p: int) -> float:
    return n**3 * 0.5 * p * (p - 1)


def v_fields(r: np.ndarray, coeffs: MajorizerCoeffs, w: LagWeights) -> np.ndarray:
    """Diagonal-block generators: v[m, k] = N * DFT(c_hat * r), zero-filled off the window.

    One-shot: the FFT of a plan (``MMPlan.v``) set up for the (M, M, N) array r alone.
    """
    return MMPlan((r.shape[2], r.shape[0]), w).v(r, coeffs.c_hat)


def hermitian_blocks(v: np.ndarray) -> np.ndarray:
    """(N, M, M) stack of per-subcarrier blocks Q_n[m, k] = v_mk[n] + conj(v_km[n]).

    Q is formed as one C-contiguous (M, M, N) array, conj(v^T) + v, and the
    stack is its transposed view, so each block pair (m, k) is one contiguous
    run of N values.
    """
    pairs = np.conjugate(v.transpose(1, 0, 2), order="C")
    pairs += v
    return pairs.transpose(2, 0, 1)


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

    Both sums run over the (M, M, N) view of the stack, whose pair axes come
    first: for a ``hermitian_blocks`` stack that view is contiguous, and f
    adds M^2 contiguous rows of N.  |Q|^2 is ``np.square(np.abs(.))``; the
    cheaper Re^2 + Im^2 rounds differently.
    """
    n, _, m = blocks.shape
    pairs = blocks.transpose(1, 2, 0)
    mean = pairs.real.trace() / m
    frob2 = np.add.reduce(np.square(np.abs(pairs)).reshape(m * m, n), axis=0)
    return mean + np.sqrt((m - 1) * np.maximum(frob2 / m - mean * mean, 0.0))


def mu_bar(v: np.ndarray) -> float:
    """max_n lambda_max(Q_n) over the Hermitian per-subcarrier blocks, exactly.

    One batched LAPACK Hermitian eigensolve (``eigvalsh``, ascending
    eigenvalues) over the (N, M, M) block stack.  The blocks are Hermitian by
    construction; ``v`` is checked to be finite first, since a NaN or an
    infinity would otherwise pass through as a bound.
    """
    if not np.all(np.isfinite(v)):
        raise ValueError("v fields must be finite")
    return float(np.max(np.linalg.eigvalsh(hermitian_blocks(v))[:, -1]))


class MMPlan:
    """The majorization pass set up once for (N, M) iterates and one lag window.

    It holds the window's slice ``LagWeights.lags``, whose lag count N is
    checked against the iterate's shape here, once, and the (M, M, N) work
    array of the FFT to v.  That array is zero off the window,
    and every pass overwrites all of its window lags, so nothing of one pass
    reaches the next.  ``optimize`` builds one plan per run; ``v_fields`` and
    ``majorize_direction`` build one per call.

    Correlations travel as the record (r, window |r|, eta, mean mainlobe) that
    ``correlate`` returns, with r the (M, M, N) array and eta = r_bar the
    window peak; ``direction`` takes the record of its point and never correlates.
    """

    def __init__(self, shape: tuple[int, int], w: LagWeights):
        n, m = shape
        w.check_lags(n)
        self.n_lags = n
        self.lags = w.lags
        self._work = np.zeros((m, m, n), dtype=complex)

    def correlate(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray, float, float]:
        """(r, window |r|, eta, mean mainlobe) of the (N, M) array ``x``, from one
        product and IFFT (``spectrum.cyclic_correlations``)."""
        values = cyclic_correlations(x)
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
        self, x: np.ndarray, corr: tuple[np.ndarray, np.ndarray, float, float], p: int,
    ) -> tuple[np.ndarray, float, np.ndarray]:
        """One pass at the (N, M) array ``x`` with its record ``corr =
        correlate(x)``: (Qx, L, v).

        L = max_n ``lambda_max_bound(Q_n)`` >= mu_bar, in the common
        r_bar**(p-2) scale.  Raises ``ZeroSidelobeError`` when the window
        sidelobes of ``x`` vanish, and ``ValueError`` when the v fields are
        not finite.
        """
        values, r_abs, r_bar, mainlobe = corr
        v = self.v(values, _c_hat(r_abs, r_bar, mainlobe, p))
        blocks = hermitian_blocks(v)
        bound = float(lambda_max_bound(blocks).max())
        # a NaN or an infinity anywhere in v makes the bound non-finite
        if not math.isfinite(bound):
            raise ValueError("v fields must be finite")
        return np.matmul(blocks, x[:, :, None])[:, :, 0], bound, v


def majorize_direction(
    grid: SymbolGrid | np.ndarray,
    w: LagWeights,
    p: int,
) -> MajorizerOutput:
    """Full majorization pass at the current iterate, through a plan of its own.

    Returns the product Qx and the bound L = max_n ``lambda_max_bound(Q_n)``
    >= mu_bar in the common r_bar**(p-2) scale; the exact mu_bar and the
    direction y = (Q - 2*lambda_bar*x x^H - mu_bar*I) x are computed on first
    read.  Raises ``ZeroSidelobeError`` when the sidelobes in the lag window
    already vanish, and ``ValueError`` when the v fields are not finite.
    ``grid`` is a ``SymbolGrid`` or its (N, M) array.  Cost O(M^2 N log N);
    reading mu_bar or y adds N small eigenproblems.
    """
    x = np.asarray(grid)
    plan = MMPlan(x.shape, w)
    qx, bound, v = plan.direction(x, plan.correlate(x), p)
    return MajorizerOutput(qx=qx, mu_bound=bound, x=x, lambda_bar=_lambda_bar(w.n_lags, p), v=v)
