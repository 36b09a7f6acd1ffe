"""Dense-matrix reference implementations for verifying the fast algorithm paths.

Everything here is deliberately slow and explicit: correlations as raw
double sums, the correlation quadratic forms as dense (MN x MN) matrices,
the quartic Gram operator as a dense (MN)^2 x (MN)^2 matrix, and the
majorization chain evaluated function-by-function.  Size guards keep these
constructions to toy problems (N <= 16, M <= 8).

The fast modules must agree with these references to near machine precision.
Nothing here is imported from them: the per-lag surrogate comes from the
scalar majorizer below instead of the closed forms, correlations from double
sums instead of FFTs, and the eigenvalue bounds from dense matrices instead
of the per-sub-carrier blocks.
"""

from __future__ import annotations

import numpy as np

from .spectrum import LagWeights, SymbolGrid

__all__ = [
    "MAX_N",
    "MAX_M",
    "scalar_pnorm_majorizer",
    "dft_matrix",
    "selection_matrix",
    "shift_matrix",
    "dense_A",
    "brute_correlations",
    "coefficients_raw",
    "dense_sum_gram",
    "lambda_bar_raw",
    "dense_Q",
    "mu_bar_raw",
    "chain_values",
    "majorization_chain_check",
]

MAX_N = 16
MAX_M = 8

# relative distance below which the 0/0 limit of the quadratic coefficient is used
_LIMIT_TOL = 1e-6


def _guard(n: int, m: int) -> None:
    if n > MAX_N or m > MAX_M:
        raise ValueError(f"oracle limited to N <= {MAX_N}, M <= {MAX_M}")


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


def dft_matrix(n: int) -> np.ndarray:
    """F[a, b] = exp(-2j*pi*a*b/n)."""
    grid = np.outer(np.arange(n), np.arange(n))
    return np.exp(-2j * np.pi * grid / n)


def selection_matrix(m: int, n_antennas: int, n: int) -> np.ndarray:
    """S_m (n x n_antennas*n) picking antenna m's block out of the stacked vector."""
    s = np.zeros((n, n_antennas * n))
    s[:, m * n : (m + 1) * n] = np.eye(n)
    return s


def shift_matrix(n: int, i: int) -> np.ndarray:
    """Cyclic shift U_i with (U_i v)[a] = v[(a + i) mod n]."""
    return np.roll(np.eye(n), -i, axis=0)


def dense_A(m: int, k: int, i: int, n_antennas: int, n: int) -> np.ndarray:
    """Quadratic-form matrix of r[m, k, i]: x^H A x equals the correlation.

    Built two independent ways (diagonalized shift vs. explicit DFT-shift-IDFT
    product) and cross-checked before returning.
    """
    _guard(n, n_antennas)
    f = dft_matrix(n)
    diag_form = np.diag(n * np.conj(f[:, i]))
    product_form = f @ shift_matrix(n, i) @ np.conj(f.T)
    if not np.allclose(diag_form, product_form, rtol=1e-12, atol=1e-9 * n):
        raise AssertionError("diagonal and product forms of A disagree")
    sk = selection_matrix(k, n_antennas, n)
    sm = selection_matrix(m, n_antennas, n)
    return np.conj(sk.T) @ diag_form @ sm


def brute_correlations(grid: SymbolGrid) -> np.ndarray:
    """(M, M, N) correlations by the raw double sum
    r = N * sum_n e^{+2j pi n i / N} x_m conj(x_k)."""
    n, m_ant = grid.symbols.shape
    _guard(n, m_ant)
    x = grid.symbols
    out = np.zeros((m_ant, m_ant, n), dtype=complex)
    for m in range(m_ant):
        for k in range(m_ant):
            for i in range(n):
                acc = 0.0 + 0.0j
                for nn in range(n):
                    acc += np.exp(2j * np.pi * nn * i / n) * x[nn, m] * np.conj(x[nn, k])
                out[m, k, i] = n * acc
    return out


def coefficients_raw(
    r: np.ndarray, w: LagWeights, p: int
) -> tuple[float, np.ndarray, np.ndarray, np.ndarray]:
    """Unscaled (a, b, c) per lag of the (M, M, N) correlations r from the scalar
    majorizer; zero off the lag window."""
    m_ant, _, n = r.shape
    _guard(n, m_ant)
    r_abs = np.abs(r)
    wmask = w.mask
    r_bar = float(np.max(r_abs[:, :, wmask]))
    a = np.zeros((m_ant, m_ant, n))
    b = np.zeros_like(a)
    c = np.zeros_like(a)
    for m in range(m_ant):
        for k in range(m_ant):
            for i in range(n):
                if not wmask[i]:
                    continue
                ai, bi = scalar_pnorm_majorizer(p, r_abs[m, k, i], r_bar)
                a[m, k, i] = ai
                b[m, k, i] = bi
                if r_abs[m, k, i] > 0:
                    c[m, k, i] = ai + bi / (2.0 * r_abs[m, k, i])
                else:
                    # the |r| -> 0 limit of a + b / (2|r|)
                    c[m, k, i] = ai if p == 2 else 0.0
    return r_bar, a, b, c


def dense_sum_gram(
    a: np.ndarray, w: LagWeights, n_antennas: int, n: int
) -> np.ndarray:
    """The (MN)^2 x (MN)^2 Gram operator of the weighted quartic term.

    sum_j w_j a_j vec(A_j^H) vec(A_j^H)^H, acting on vec(x x^H); its top
    eigenvalue is the quantity the closed-form bound N^3 * max(w a) caps.
    """
    _guard(n, n_antennas)
    dim = (n_antennas * n) ** 2
    gram = np.zeros((dim, dim), dtype=complex)
    for m in range(n_antennas):
        for k in range(n_antennas):
            for i in range(n):
                coeff = w.mask[i] * a[m, k, i]
                if coeff == 0.0:
                    continue
                u = np.conj(dense_A(m, k, i, n_antennas, n).T).reshape(-1, order="F")
                gram += coeff * np.outer(u, np.conj(u))
    return gram


def lambda_bar_raw(a: np.ndarray, w: LagWeights, n: int) -> float:
    return float(n**3 * np.max(a * w.mask))


def dense_Q(
    r: np.ndarray, c: np.ndarray, w: LagWeights
) -> np.ndarray:
    """Dense (MN x MN) matrix of the linearized cross term.

    Q = sum_j w_j c_j (conj(r_j) A_j + r_j A_j^H); Hermitian, block-diagonal
    per sub-carrier after reordering (each antenna-pair block is diagonal).
    """
    m_ant, _, n = r.shape
    _guard(n, m_ant)
    q = np.zeros((m_ant * n, m_ant * n), dtype=complex)
    for m in range(m_ant):
        for k in range(m_ant):
            for i in range(n):
                coeff = w.mask[i] * c[m, k, i]
                if coeff == 0.0:
                    continue
                am = dense_A(m, k, i, m_ant, n)
                r_i = r[m, k, i]
                q += coeff * (np.conj(r_i) * am + r_i * np.conj(am.T))
    herm = np.max(np.abs(q - np.conj(q.T)))
    if herm > 1e-8 * max(np.max(np.abs(q)), 1.0):
        raise AssertionError("dense Q lost Hermitian symmetry")
    for m in range(m_ant):
        for k in range(m_ant):
            block = q[m * n : (m + 1) * n, k * n : (k + 1) * n]
            off = block - np.diag(np.diag(block))
            if np.max(np.abs(off)) > 1e-8 * max(np.max(np.abs(q)), 1.0):
                raise AssertionError("antenna-pair blocks of Q are not diagonal")
    return q


def mu_bar_raw(q: np.ndarray) -> float:
    """Top eigenvalue of dense Q by the library Hermitian eigensolver."""
    return float(np.max(np.linalg.eigvalsh(q)))


def chain_values(
    x: np.ndarray,
    x_l: np.ndarray,
    r_l: np.ndarray,
    w: LagWeights,
    p: int,
) -> dict[str, float]:
    """All four majorization levels, evaluated at trial point x around iterate x_l.

    Keys: f (true objective), fB (per-lag quadratic surrogate), fC (after the
    quartic-to-quadratic step), fD (final linear surrogate).  Each level is
    tangent at x == x_l and dominates the previous one wherever the per-lag
    majorizer is valid (max weighted |r(x)| <= r_bar).
    """
    m_ant, _, n = r_l.shape
    _guard(n, m_ant)
    ww = w.mask
    r_bar, a, b, c = coefficients_raw(r_l, w, p)
    lam = lambda_bar_raw(a, w, n)
    q = dense_Q(r_l, c, w)
    mu = mu_bar_raw(q)
    rl_abs = np.abs(r_l)

    r_x = brute_correlations(SymbolGrid.from_stacked(x, n))
    rx_abs = np.abs(r_x)
    f = float(np.sum(ww * rx_abs**p))

    c_b = float(np.sum(ww * (rl_abs**p - a * rl_abs**2 - b * rl_abs)))
    f_b = float(np.sum(ww * (a * rx_abs**2 + b * rx_abs))) + c_b

    c_c = lam * float(np.vdot(x_l, x_l).real) ** 2 - float(np.sum(ww * a * rl_abs**2)) + c_b
    xqx = float(np.real(np.conj(x) @ q @ x))
    inner = abs(np.vdot(x_l, x))  # |x^H x_l|
    norm2 = float(np.vdot(x, x).real)
    f_c = xqx - 2.0 * lam * inner**2 + lam * norm2**2 + c_c

    a_prime = q - 2.0 * lam * np.outer(x_l, np.conj(x_l))
    y = a_prime @ x_l - mu * x_l
    const_d = float(np.real(np.conj(x_l) @ (mu * x_l - a_prime @ x_l)))
    f_d = mu * norm2 + 2.0 * float(np.real(np.conj(x) @ y)) + const_d + lam * norm2**2 + c_c

    return {"f": f, "fB": f_b, "fC": f_c, "fD": f_d, "r_bar": r_bar,
            "max_weighted_r": float(np.max(rx_abs[:, :, w.mask])), "y": y,
            "lambda_bar": lam, "mu_bar": mu}


def majorization_chain_check(
    grid: SymbolGrid,
    w: LagWeights,
    p: int,
    rng: np.random.Generator,
    n_trials: int = 100,
    scale: float = 0.3,
    rel_tol: float = 1e-9,
) -> dict[str, float]:
    """Verify f <= fB <= fC <= fD on random perturbations, and tangency at the iterate.

    Trial points whose weighted correlations exceed r_bar are shrunk back
    inside the validity region of the per-lag majorizer (scaling x by s
    scales every correlation by s^2).  Returns the worst slacks observed;
    raises AssertionError on any violation.
    """
    n, m_ant = grid.symbols.shape
    _guard(n, m_ant)
    x_l = grid.stacked()
    r_l = brute_correlations(grid)
    vals_l = chain_values(x_l, x_l, r_l, w, p)
    ref = max(abs(vals_l["f"]), 1.0)
    for hi, lo in (("fB", "f"), ("fC", "fB"), ("fD", "fC")):
        if abs(vals_l[hi] - vals_l[lo]) > rel_tol * ref:
            raise AssertionError(f"{hi} does not touch {lo} at the iterate")

    worst = {"fB-f": np.inf, "fC-fB": np.inf, "fD-fC": np.inf}
    for _ in range(n_trials):
        noise = rng.standard_normal(x_l.shape) + 1j * rng.standard_normal(x_l.shape)
        x = x_l + scale * noise
        vals = chain_values(x, x_l, r_l, w, p)
        if vals["max_weighted_r"] > vals["r_bar"]:
            x = x * np.sqrt(vals["r_bar"] / vals["max_weighted_r"])
            vals = chain_values(x, x_l, r_l, w, p)
        ref = max(abs(vals["f"]), abs(vals["fD"]), 1.0)
        for key, hi, lo in (("fB-f", "fB", "f"), ("fC-fB", "fC", "fB"), ("fD-fC", "fD", "fC")):
            slack = (vals[hi] - vals[lo]) / ref
            if slack < -rel_tol:
                raise AssertionError(f"majorization violated: {hi} < {lo} by {-slack:.3e} (rel)")
            worst[key] = min(worst[key], slack)
    return worst
