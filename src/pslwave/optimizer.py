"""Peak-sidelobe minimization loop: projected MM steps with squared-extrapolation acceleration.

One MM step minimizes the linear surrogate over the energy sphere of the
reference grid (the minimizer is -sqrt(E) * y / ||y||), then projects the
result entrywise onto the constellation similarity region.  The outer loop
accepts iterates only while the peak sidelobe eta decreases; the first
increase terminates and returns the previous iterate.

Acceleration follows the squared-extrapolation scheme: two MM steps give a
step r and curvature v, the extrapolated point x - 2*alpha*r + alpha**2 * v
is projected, and alpha is backtracked toward -1 (which recovers the plain
double step) until the objective does not exceed the current one.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .constellation import ConstellationSpec, SubcarrierMask
from .majorizer import majorize_direction
from .projector import project_grid
from .spectrum import (
    CorrelationTensor, LagWeights, SymbolGrid, cyclic_correlations, peak_sidelobe, psl_db,
)

__all__ = ["OptimizerConfig", "OptimizationReport", "mm_step", "run_mm", "run_squarem", "optimize"]


@dataclass
class OptimizerConfig:
    p: int = 50
    l_max: int = 10
    backtrack_cap: int = 20
    accelerated: bool = True

    def __post_init__(self):
        if self.p < 2:
            raise ValueError("p must be >= 2")
        if self.l_max < 1:
            raise ValueError("l_max must be >= 1")
        if self.backtrack_cap < 0:
            raise ValueError("backtrack_cap must be >= 0")


@dataclass
class OptimizationReport:
    grid: SymbolGrid
    eta_trace: list[float]
    psl_db_before: float
    psl_db_after: float
    stop_reason: str  # "objective_increased" | "max_iterations" | "zero_sidelobe"
    iterations: int = field(init=False)

    def __post_init__(self):
        self.iterations = max(len(self.eta_trace) - 1, 0)


def _eta(grid: SymbolGrid, w: LagWeights) -> tuple[float, CorrelationTensor]:
    """Peak sidelobe of ``grid`` and the correlations it came from, which the
    next majorization pass at an accepted iterate reuses."""
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
) -> SymbolGrid | None:
    """One majorize-minimize-project step; None if the sidelobes already vanish.

    ``corr`` may carry the already computed correlations of ``grid``.
    """
    out = majorize_direction(grid, w, p, corr=corr)
    if out.y is None:
        return None
    norm = float(np.linalg.norm(out.y))
    if norm == 0.0:
        return None
    # sphere minimizer, scaled to the reference energy budget
    x_new = -np.sqrt(reference.energy()) * out.y / norm
    candidate = SymbolGrid.from_stacked(x_new, grid.n_subcarriers)
    return project_grid(candidate, reference, spec, mask)


def run_mm(
    reference: SymbolGrid,
    spec: ConstellationSpec,
    mask: SubcarrierMask,
    w: LagWeights,
    config: OptimizerConfig,
) -> OptimizationReport:
    """Plain monotone MM: iterate until eta increases or l_max steps elapse."""
    current = reference.copy()
    eta, corr = _eta(current, w)
    corr_ref, trace = corr, [eta]
    reason = "max_iterations"
    for _ in range(config.l_max):
        nxt = mm_step(current, reference, spec, mask, w, config.p, corr=corr)
        if nxt is None:
            reason = "zero_sidelobe"
            break
        eta_next, corr_next = _eta(nxt, w)
        if eta_next > trace[-1]:
            reason = "objective_increased"
            break
        current, corr = nxt, corr_next
        trace.append(eta_next)
    return _report(corr_ref, current, corr, trace, w, reason)


def run_squarem(
    reference: SymbolGrid,
    spec: ConstellationSpec,
    mask: SubcarrierMask,
    w: LagWeights,
    config: OptimizerConfig,
) -> OptimizationReport:
    """Squared-extrapolation acceleration of the MM iteration."""
    current = reference.copy()
    eta, corr = _eta(current, w)
    corr_ref, trace = corr, [eta]
    reason = "max_iterations"
    for _ in range(config.l_max):
        x1 = mm_step(current, reference, spec, mask, w, config.p, corr=corr)
        if x1 is None:
            reason = "zero_sidelobe"
            break
        x2 = mm_step(x1, reference, spec, mask, w, config.p)
        if x2 is None:
            current = x1
            eta_x1, corr = _eta(x1, w)
            trace.append(eta_x1)
            reason = "zero_sidelobe"
            break

        x0v = current.stacked()
        r = x1.stacked() - x0v
        v = x2.stacked() - x1.stacked() - r
        v_norm = float(np.linalg.norm(v))
        if v_norm == 0.0:
            candidate = x2
            eta_cand, corr_cand = _eta(candidate, w)
        else:
            alpha = -float(np.linalg.norm(r)) / v_norm
            candidate, eta_cand, corr_cand = _extrapolate(
                x0v, r, v, alpha, current.n_subcarriers, reference, spec, mask, w
            )
            backtracks = 0
            while eta_cand > trace[-1] and alpha < -1.0 and backtracks < config.backtrack_cap:
                alpha = (alpha - 1.0) / 2.0
                candidate, eta_cand, corr_cand = _extrapolate(
                    x0v, r, v, alpha, current.n_subcarriers, reference, spec, mask, w
                )
                backtracks += 1
            if eta_cand > trace[-1]:
                # alpha = -1 reduces the scheme to the plain double MM step
                candidate = x2
                eta_cand, corr_cand = _eta(x2, w)

        if eta_cand > trace[-1]:
            reason = "objective_increased"
            break
        current, corr = candidate, corr_cand
        trace.append(eta_cand)
    return _report(corr_ref, current, corr, trace, w, reason)


def _extrapolate(
    x0: np.ndarray,
    r: np.ndarray,
    v: np.ndarray,
    alpha: float,
    n_subcarriers: int,
    reference: SymbolGrid,
    spec: ConstellationSpec,
    mask: SubcarrierMask,
    w: LagWeights,
) -> tuple[SymbolGrid, float, CorrelationTensor]:
    x = x0 - 2.0 * alpha * r + alpha**2 * v
    grid = project_grid(
        SymbolGrid.from_stacked(x, n_subcarriers), reference, spec, mask
    )
    return (grid, *_eta(grid, w))


def _report(
    corr_reference: CorrelationTensor,
    final: SymbolGrid,
    corr_final: CorrelationTensor,
    trace: list[float],
    w: LagWeights,
    reason: str,
) -> OptimizationReport:
    return OptimizationReport(
        grid=final,
        eta_trace=trace,
        psl_db_before=psl_db(corr_reference, w),
        psl_db_after=psl_db(corr_final, w),
        stop_reason=reason,
    )


def optimize(
    reference: SymbolGrid,
    spec: ConstellationSpec,
    mask: SubcarrierMask,
    w: LagWeights,
    config: OptimizerConfig | None = None,
) -> OptimizationReport:
    """Entry point: accelerated loop by default, plain MM when disabled."""
    config = config or OptimizerConfig()
    runner = run_squarem if config.accelerated else run_mm
    return runner(reference, spec, mask, w, config)
