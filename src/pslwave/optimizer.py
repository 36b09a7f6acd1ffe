"""Peak-sidelobe minimization: one loop of projected MM steps with squared extrapolation.

One MM step minimizes the linear surrogate over the energy sphere of the
reference grid (the minimizer is -sqrt(E) * y / ||y||), then projects the
result entrywise onto the constellation similarity region.  ``optimize`` runs
one loop that accepts iterates only while the peak sidelobe eta does not
increase; the first increase terminates and returns the previous iterate.

Each iteration takes the squared extrapolation (SQUAREM) of two MM steps:
they give a step r and curvature v, the extrapolated point
x - 2*alpha*r + alpha**2 * v is projected, and alpha is backtracked toward -1
(which recovers the plain double step) until the objective does not exceed
the current one, at most ``BACKTRACK_CAP`` times.  When the sidelobes of the
first step's grid already vanish there is no second step, and that grid is
the candidate.

Each quantity is computed once per iterate.  The correlations of a grid are
taken where its eta is, and the tensor keeps its window |r|; an accepted
iterate carries the tensor into the first MM step of the next iteration, and
the last one into ``psl_db_after`` (that of the reference gives
``psl_db_before``).  The second MM step of an iteration computes its own,
since x1 is never an accepted iterate.  The sphere radius sqrt(E) of the
reference is computed once per ``optimize`` call and passed to every step.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .constellation import ConstellationSpec, SubcarrierMask
from .majorizer import majorize_direction
from .projector import project_grid
from .spectrum import (
    CorrelationTensor, LagWeights, SymbolGrid, cyclic_correlations, peak_sidelobe, psl_db,
)

__all__ = ["BACKTRACK_CAP", "OptimizerConfig", "OptimizationReport", "mm_step", "optimize"]

# backtracking moves of the SQUAREM alpha toward -1 before the plain double step is taken
BACKTRACK_CAP = 20


@dataclass
class OptimizerConfig:
    p: int = 50
    l_max: int = 10

    def __post_init__(self):
        if self.p < 2:
            raise ValueError("p must be >= 2")
        if self.l_max < 1:
            raise ValueError("l_max must be >= 1")


@dataclass
class OptimizationReport:
    grid: SymbolGrid
    eta_trace: list[float]
    psl_db_before: float
    psl_db_after: float
    stop_reason: str  # "objective_increased" | "max_iterations" | "zero_sidelobe"

    @property
    def iterations(self) -> int:
        return max(len(self.eta_trace) - 1, 0)


def _eta(grid: SymbolGrid, w: LagWeights) -> tuple[float, CorrelationTensor]:
    """Peak sidelobe of ``grid`` with the correlations it came from, which the
    next majorization pass at an accepted iterate reuses, window |r| and all."""
    corr = cyclic_correlations(grid)
    return peak_sidelobe(corr, w)[0], corr


def mm_step(
    grid: SymbolGrid,
    reference: SymbolGrid,
    spec: ConstellationSpec,
    mask: SubcarrierMask,
    w: LagWeights,
    p: int,
    corr: CorrelationTensor | None = None,
    _radius: float | None = None,
) -> SymbolGrid | None:
    """One majorize-minimize-project step; None if the sidelobes already vanish.

    ``corr`` may carry the already computed correlations of ``grid`` and
    ``_radius`` the sphere radius sqrt(E) of ``reference``.
    """
    out = majorize_direction(grid, w, p, corr=corr)
    if out.y is None:
        return None
    radius = np.sqrt(reference.energy()) if _radius is None else _radius
    # y = (Q - sI)x is nonzero: s = 2*lambda_bar*E + mu_bar > mu_bar = lambda_max(Q), x != 0
    # sphere minimizer, scaled to the reference energy budget
    x_new = -radius * out.y / float(np.linalg.norm(out.y))
    candidate = SymbolGrid.from_stacked(x_new, grid.n_subcarriers)
    return project_grid(candidate, reference, spec, mask)


def optimize(
    reference: SymbolGrid,
    spec: ConstellationSpec,
    mask: SubcarrierMask,
    w: LagWeights,
    config: OptimizerConfig | None = None,
) -> OptimizationReport:
    """Monotone projected MM with squared extrapolation from the reference grid.

    Stops when a step would increase eta, when the sidelobes vanish, or after
    ``config.l_max`` iterations.
    """
    config = config or OptimizerConfig()
    radius = np.sqrt(reference.energy())
    current = reference.copy()
    eta, corr = _eta(current, w)
    corr_ref, trace = corr, [eta]
    reason = "max_iterations"
    for _ in range(config.l_max):
        x1 = mm_step(current, reference, spec, mask, w, config.p, corr=corr, _radius=radius)
        if x1 is None:
            reason = "zero_sidelobe"
            break
        x2 = mm_step(x1, reference, spec, mask, w, config.p, _radius=radius)
        if x2 is None:
            # x1 already has no sidelobes: take it, and the next iteration stops
            candidate, (eta_next, corr_next) = x1, _eta(x1, w)
        else:
            candidate, eta_next, corr_next = _squarem(
                current, x1, x2, trace[-1], reference, spec, mask, w
            )
        if eta_next > trace[-1]:
            reason = "objective_increased"
            break
        current, corr = candidate, corr_next
        trace.append(eta_next)
    return OptimizationReport(
        grid=current,
        eta_trace=trace,
        psl_db_before=psl_db(corr_ref, w),
        psl_db_after=psl_db(corr, w),
        stop_reason=reason,
    )


def _squarem(
    x0: SymbolGrid,
    x1: SymbolGrid,
    x2: SymbolGrid,
    eta0: float,
    reference: SymbolGrid,
    spec: ConstellationSpec,
    mask: SubcarrierMask,
    w: LagWeights,
) -> tuple[SymbolGrid, float, CorrelationTensor]:
    """Projected extrapolation of the double step x0 -> x1 -> x2, backtracked
    until eta does not exceed eta0; falls back to x2 when no alpha does."""
    x0v, x1v = x0.stacked(), x1.stacked()
    r = x1v - x0v
    v = x2.stacked() - x1v - r
    v_norm = float(np.linalg.norm(v))
    if v_norm == 0.0:
        return (x2, *_eta(x2, w))

    def extrapolate(alpha: float) -> tuple[SymbolGrid, float, CorrelationTensor]:
        x = SymbolGrid.from_stacked(x0v - 2.0 * alpha * r + alpha**2 * v, x0.n_subcarriers)
        grid = project_grid(x, reference, spec, mask)
        return (grid, *_eta(grid, w))

    alpha = -float(np.linalg.norm(r)) / v_norm
    candidate = extrapolate(alpha)
    backtracks = 0
    while candidate[1] > eta0 and alpha < -1.0 and backtracks < BACKTRACK_CAP:
        alpha = (alpha - 1.0) / 2.0
        candidate = extrapolate(alpha)
        backtracks += 1
    if candidate[1] > eta0:
        # alpha = -1 reduces the scheme to the plain double MM step
        candidate = (x2, *_eta(x2, w))
    return candidate
