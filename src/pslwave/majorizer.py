"""One majorization pass: p-norm surrogate coefficients, eigenvalue bounds, descent direction.

The peak-sidelobe objective sum_i w_i |r_i|^p is majorized in three stages:

1. each |r|^p by a quadratic a*|r|^2 + b*|r| touching at the current iterate
   (coefficients from the scalar p-norm majorizer on [0, r_bar]);
2. the resulting quadratic form in x* (x) Kronecker x by a linear term using
   the closed-form top eigenvalue N^3 * max(a*w) of the stacked Gram matrix;
3. the remaining quadratic x^H Q x by mu_bar * ||x||^2 + linear, where Q is
   block-diagonal per sub-carrier, so mu_bar is the max over N decoupled
   M x M Hermitian eigenproblems.

The per-subcarrier blocks are Q_n[m, k] = v_mk[n] + conj(v_km[n]) with
v_mk = N * DFT(w * c * r_mk).  With the causal lag window (weights on lags
1..N_cp-1 only) these blocks are genuinely complex Hermitian; they collapse
to real symmetric 2*Re{v_mk} only when the weighted lag set is mirror
symmetric.  The dense-matrix oracle pins this structure.

Everything is computed in r_bar-factored form: with p = 50 the raw
coefficients overflow double precision, so the common factor r_bar**(p-2) is
dropped throughout.  It multiplies a, c, lambda_bar, Q and mu_bar alike and
cancels in the normalized minimization step, leaving the direction vector y
unchanged up to a positive scale.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .spectrum import CorrelationTensor, LagWeights, SymbolGrid, cyclic_correlations, peak_sidelobe

__all__ = [
    "MajorizerCoeffs",
    "MajorizerOutput",
    "ZeroSidelobeError",
    "scalar_pnorm_majorizer",
    "coefficients",
    "lambda_bar",
    "v_fields",
    "hermitian_blocks",
    "mu_bar",
    "majorize_direction",
]

# relative distance below which the 0/0 limit of the quadratic coefficient is used
_LIMIT_TOL = 1e-6


class ZeroSidelobeError(ValueError):
    """All weighted correlations vanish; the objective is already zero."""


@dataclass
class MajorizerCoeffs:
    """r_bar-factored surrogate coefficients; multiply a/c by r_bar**(p-2)
    (and b by r_bar**(p-1)) to recover the raw values."""

    p: int
    r_bar: float
    a_hat: np.ndarray  # (M, M, N), zero on unweighted lags
    b_hat: np.ndarray
    c_hat: np.ndarray


@dataclass
class MajorizerOutput:
    y: np.ndarray | None  # length-MN direction, common r_bar**(p-2) scale dropped
    eta: float
    argmax: tuple[int, int, int]
    lambda_bar_scaled: float
    mu_bar_scaled: float
    v_fields: np.ndarray | None  # (M, M, N)
    r_bar: float


def scalar_pnorm_majorizer(p: int, x0: float, x_bar: float) -> tuple[float, float]:
    """Quadratic majorizer of x**p on [0, x_bar] touching tangentially at x0.

    Returns (a, b) with g(x) = a*x**2 + b*x + C >= x**p on the interval,
    g(x0) = x0**p, g(x_bar) = x_bar**p.
    """
    if p < 2:
        raise ValueError("p must be >= 2")
    if x0 < 0 or x0 > x_bar:
        raise ValueError("need 0 <= x0 <= x_bar")
    if x_bar == 0.0:
        return 0.0, 0.0
    if (x_bar - x0) < _LIMIT_TOL * x_bar:
        a = 0.5 * p * (p - 1) * x_bar ** (p - 2)
    else:
        a = (x_bar**p - x0**p - p * x0 ** (p - 1) * (x_bar - x0)) / (x_bar - x0) ** 2
    b = p * x0 ** (p - 1) - 2 * a * x0
    return a, b


def coefficients(corr: CorrelationTensor, w: LagWeights, p: int) -> MajorizerCoeffs:
    """Surrogate coefficients for every weighted lag, in r_bar-factored form."""
    if p < 2:
        raise ValueError("p must be >= 2")
    wmask = w.mask
    r_abs = np.abs(corr.values[:, :, wmask])
    r_bar = float(np.max(r_abs)) if r_abs.size else 0.0
    if r_bar == 0.0:
        raise ZeroSidelobeError("all weighted correlations are zero")

    rho = np.clip(r_abs / r_bar, 0.0, 1.0)
    one_minus = 1.0 - rho
    near = one_minus < _LIMIT_TOL
    denom = np.where(near, 1.0, one_minus)
    a_win = (1.0 - rho**p - p * rho ** (p - 1) * one_minus) / denom**2
    a_win = np.where(near, 0.5 * p * (p - 1), a_win)
    b_win = p * rho ** (p - 1) - 2.0 * a_win * rho
    # c = a + b / (2|r|); the quotient is defined as 0 on |r| = 0 lags
    # (those terms vanish downstream since c always multiplies r)
    c_win = a_win + np.where(rho > 0.0, 0.5 * p * rho ** (p - 2) - a_win, 0.0)

    a_hat, b_hat, c_hat = (np.zeros(corr.values.shape) for _ in range(3))
    a_hat[:, :, wmask] = a_win
    b_hat[:, :, wmask] = b_win
    c_hat[:, :, wmask] = c_win
    return MajorizerCoeffs(p=p, r_bar=r_bar, a_hat=a_hat, b_hat=b_hat, c_hat=c_hat)


def lambda_bar(coeffs: MajorizerCoeffs, w: LagWeights) -> float:
    """Scaled top eigenvalue of the stacked Gram matrix: N^3 * max(a_hat * w)."""
    n = w.n_lags
    return float(n**3 * np.max(coeffs.a_hat * w.weights))


def v_fields(corr: CorrelationTensor, coeffs: MajorizerCoeffs, w: LagWeights) -> np.ndarray:
    """Diagonal-block generators: v[m, k] = N * DFT(w * c_hat * r) over lags."""
    seq = w.weights * coeffs.c_hat * corr.values
    # The diagonal blocks Lambda_mk = Diag(v_mk + conj(v_km)) require v_mk to
    # carry a factor N on top of the DFT of (w * c * r): expanding the diagonal
    # of sum_i w c (conj(r) Diag(N conj(F_i)) + h.c.) entrywise gives
    # N * [DFT(w c r_mk)]_n + conj(N * [DFT(w c r_km)]_n).  The dense-matrix
    # oracle pins this constant; test_majorizer asserts it as a regression.
    return corr.n_lags * np.fft.fft(seq, axis=2)


def hermitian_blocks(v: np.ndarray) -> np.ndarray:
    """(N, M, M) stack of per-subcarrier blocks Q_n[m, k] = v_mk[n] + conj(v_km[n])."""
    h = v + np.conj(np.swapaxes(v, 0, 1))
    return np.moveaxis(h, 2, 0)


def mu_bar(v: np.ndarray) -> float:
    """max_n lambda_max(Q_n) over the Hermitian per-subcarrier blocks.

    One batched LAPACK Hermitian eigensolve (``eigvalsh``, ascending
    eigenvalues) over the (N, M, M) block stack.  The blocks are Hermitian by
    construction; ``v`` is checked to be finite first, since a NaN or an
    infinity would otherwise pass through as a bound.
    """
    if not np.all(np.isfinite(v)):
        raise ValueError("v fields must be finite")
    return float(np.max(np.linalg.eigvalsh(hermitian_blocks(v))[:, -1]))


def majorize_direction(
    grid: SymbolGrid, w: LagWeights, p: int, corr: CorrelationTensor | None = None
) -> MajorizerOutput:
    """Full majorization pass at the current iterate.

    Returns the direction vector y = (Q - 2*lambda_bar*x x^H - mu_bar*I) x in
    the common r_bar**(p-2) scale, or y = None when the weighted sidelobes
    already vanish.  ``corr`` may carry the already computed correlations of
    ``grid``.  Cost O(M^2 N log N) plus N small eigenproblems.
    """
    if corr is None:
        corr = cyclic_correlations(grid)
    eta, amax = peak_sidelobe(corr, w)
    if eta == 0.0:
        return MajorizerOutput(
            y=None, eta=0.0, argmax=amax, lambda_bar_scaled=0.0,
            mu_bar_scaled=0.0, v_fields=None, r_bar=0.0,
        )
    coeffs = coefficients(corr, w, p)
    lam = lambda_bar(coeffs, w)
    v = v_fields(corr, coeffs, w)
    mu = mu_bar(v)

    x = grid.symbols  # (N, M)
    gain = v + np.conj(np.swapaxes(v, 0, 1))  # (M, M, N): diagonal of block (m, k)
    qx = np.einsum("mkn,nk->nm", gain, x)
    energy = float(np.sum(np.abs(x) ** 2))
    y = qx - (2.0 * lam * energy + mu) * x
    return MajorizerOutput(
        y=y.reshape(-1, order="F"),
        eta=eta,
        argmax=amax,
        lambda_bar_scaled=lam,
        mu_bar_scaled=mu,
        v_fields=v,
        r_bar=coeffs.r_bar,
    )
