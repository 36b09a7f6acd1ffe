"""Peak-sidelobe minimization: one loop of projected MM steps with squared extrapolation.

One MM step minimizes a linear surrogate over the energy sphere of the
reference grid, then projects the result entrywise onto the constellation
similarity region.  ``optimize`` runs one loop that accepts iterates only
while neither the peak sidelobe eta nor the normalized PSL increases; the
first increase terminates and returns the previous iterate.

**Step rule.**  The majorizer's exact shift s = 2*lambda_bar*E + mu_bar
(the direction y of ``majorizer.majorize_direction``) is a valid but very
loose bound: lambda_bar bounds the quartic term over the whole sphere, s
exceeds mu_bar by about five orders of magnitude at the default point, and the
step -y/||y|| then moves the grid by about 3e-6 relative.  An MM step goes
along y_c = Qx - STEP_C * L * x instead, with the sphere minimizer
-sqrt(E) * y_c / ||y_c||.  That is a projected gradient step on the
linearized surrogate x^H Q x with the fixed step 1/(STEP_C * L), where L is
the closed-form bound of the pass (``majorizer.direction``) >= mu_bar =
lambda_max(Q), the Lipschitz constant of the gradient; any constant at least
mu_bar gives a valid step (Beck & Teboulle, SIAM J. Imaging Sci. 2009), and
this one needs no eigensolve.  Since x^H Q x = 2 * sum c_hat * |r|^2 > 0
while a window sidelobe is nonzero, 0 < mu_bar <= L and

    x^H y_c <= (mu_bar - STEP_C * L) * ||x||^2 <= (1 - STEP_C) * L * ||x||^2 < 0,

so y_c never vanishes.  L is exact for M <= 2.  Over every pass of 30
seeded trials per case, the median L / mu_bar was 1.18 at the default point
(N = 128, M = 4, p = 50; p90 1.26, max 1.44), 1.14 at p = 8 and 1.44 at
M = 8.

**Why descent still holds.**  The shift STEP_C * L drops the quartic
term's curvature, so the surrogate no longer majorizes the objective over the
whole sphere and a step may raise eta.  Descent is kept by the acceptance
test instead: a candidate whose eta or normalized PSL (``psl_db``) exceeds
the current one ends the run, so both accepted traces are non-increasing
whatever the step does.  eta is the window peak |r| itself and does not
depend on p.  The PSL is checked as well because eta alone does not bound
it: the projection also moves the mainlobe, and a candidate can lower eta
while its PSL rises.

**Continuation in p.**  Iteration k runs both of its MM steps at
p_k = min(P_SCHEDULE[k], config.p), and at ``config.p`` from
k = len(P_SCHEDULE) on, so p_k depends on k alone.  A small p weighs many lags
(the p-norm MM of Song, Babu & Palomar, IEEE TSP 2016) and makes the large
early moves; the growing p then closes in on the peak.

**Stop rule.**  After an accepted iteration whose normalized PSL (``psl_db``)
falls by less than MIN_GAIN_DB, the run stops with reason ``small_gain``.  It
also stops when a candidate raises eta or the PSL (``objective_increased``),
or after ``config.l_max`` iterations (``max_iterations``).  An iteration
starts only while ``spectrum.sidelobes_vanish`` is false on the record of the
last accepted iterate (its PSL is then finite); it is the test on which the
pass's ``majorizer._c_hat`` raises ``ZeroSidelobeError``, so the loop stops
with ``zero_sidelobe`` before a pass that has no surrogate.

Each iteration takes the squared extrapolation (SQUAREM) of two MM steps:
they give a step r and curvature v, and the one candidate of the iteration is
the projection of x - 2*alpha*r + alpha**2 * v at alpha = -||r|| / ||v||,
which the acceptance test takes or ends the run at.  The norms come from
``np.vdot``.  When v vanishes the second step's point is the candidate, and
when ``sidelobes_vanish`` holds on the record of the first step's point x1,
there is no second pass: x1 is the candidate, with that record.

The loop runs on (N, M) symbol arrays and wraps one ``SymbolGrid``, the
last accepted iterate in ``report.grid``.  ``optimize`` builds one
``projector.Projection`` of the reference per run, which carries the sphere
radius sqrt(E), and correlates each point once (``majorizer.correlate``):
the reference, and per iteration x1 and the candidate.  Eta, the normalized
PSL and the zero-sidelobe test are read off that record, and an MM step
(``_step``) receives the record of its point.  ``mm_step`` is one step from
a grid.  A step and a candidate write only arrays of their own; the
candidate x - 2*alpha*r + alpha**2 * v is formed in place in r and v, in the
formula's order, so it rounds as the expression does.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .constellation import ConstellationSpec, SubcarrierMask
# majorize_direction is not called here; perfbench/tracer.py still wraps it at this site
from .majorizer import correlate, direction, majorize_direction
# project_grid is not called here; perfbench/tracer.py still wraps it at this site
from .projector import Projection, project_grid
# cyclic_correlations and peak_sidelobe are not called here; perfbench/tracer.py
# still wraps them at this site
from .spectrum import (
    LagWeights, SymbolGrid, cyclic_correlations, peak_sidelobe, psl_db_of_peak, sidelobes_vanish,
)

__all__ = [
    "MIN_GAIN_DB", "P_SCHEDULE", "STEP_C",
    "OptimizerConfig", "OptimizationReport", "mm_step", "optimize",
]

# an MM step goes along (Q - STEP_C * L * I) x, L >= mu_bar; of 1.5, 2, 3, 5 and 10
# at the default point (40 trials, stepping on mu_bar itself), 5 gave the largest
# median PSL gain (5.69 dB against 4.56..5.53), and all of 2..10 gained >= 3 dB in
# every trial within 3 iterations
STEP_C = 5.0
# p of iterations 0, 1, 2, each capped at config.p; config.p from iteration 3 on
P_SCHEDULE = (8, 16, 32)
# an accepted iteration that lowers the normalized PSL by less than this ends the run
MIN_GAIN_DB = 1.0


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
    eta_trace: list[float]  # accepted window peak |r|, reference first
    psl_db_trace: list[float]  # normalized PSL of the same iterates (``psl_db``)
    # why the loop ended: "small_gain" (the last accepted iteration gained less
    # than MIN_GAIN_DB), "objective_increased" (a candidate raised eta or the
    # PSL and was dropped), "zero_sidelobe" (the window sidelobes vanish) or
    # "max_iterations" (l_max iterations ran)
    stop_reason: str

    @property
    def iterations(self) -> int:
        return max(len(self.eta_trace) - 1, 0)

    @property
    def psl_db_before(self) -> float:
        return self.psl_db_trace[0]

    @property
    def psl_db_after(self) -> float:
        return self.psl_db_trace[-1]


def _step(x: np.ndarray, corr: tuple, p: int, w: LagWeights,
          projection: Projection) -> np.ndarray:
    """One MM step from the (N, M) array ``x`` with its record ``corr =
    correlate(x, w)``: along y_c = (Q - STEP_C * L * I) x, L = the pass's
    bound >= mu_bar, onto the sphere of radius ``projection.radius``, then
    through ``projection``.  Raises ``ZeroSidelobeError`` when the sidelobes
    of ``x`` already vanish."""
    y_c, bound, _ = direction(x, corr, p, w)  # Qx, fresh from the pass, becomes y_c
    # nonzero: x^H y_c <= (1 - STEP_C) * L * ||x||^2 < 0 (module docstring)
    y_c -= STEP_C * bound * x
    # sphere minimizer, scaled to the reference energy budget
    y_c *= -projection.radius / float(np.linalg.norm(y_c))
    return projection(y_c)


def mm_step(grid: SymbolGrid, reference: SymbolGrid, spec: ConstellationSpec,
            mask: SubcarrierMask, w: LagWeights, p: int) -> SymbolGrid:
    """``_step`` from ``grid`` once, through a ``Projection(reference, spec,
    mask)`` of its own."""
    x = np.asarray(grid)
    return SymbolGrid(_step(x, correlate(x, w), p, w, Projection(reference, spec, mask)))


def optimize(
    reference: SymbolGrid,
    spec: ConstellationSpec,
    mask: SubcarrierMask,
    w: LagWeights,
    config: OptimizerConfig | None = None,
) -> OptimizationReport:
    """Monotone projected MM with squared extrapolation from the reference grid.

    Stops after an iteration that gains less than MIN_GAIN_DB, when a step
    would increase eta or the PSL, when the sidelobes vanish, or after
    ``config.l_max`` iterations (module docstring).
    """
    config = config or OptimizerConfig()
    projection = Projection(reference, spec, mask)
    x = reference.symbols.copy()  # report.grid never shares the reference's array
    corr = correlate(x, w)  # the record (r, window |r|, eta, mean mainlobe) of x
    trace, psl_trace = [corr[2]], [psl_db_of_peak(*corr[2:])]
    reason = "max_iterations"
    for k in range(config.l_max):
        if sidelobes_vanish(*corr[2:]):
            reason = "zero_sidelobe"
            break
        p = min(P_SCHEDULE[k], config.p) if k < len(P_SCHEDULE) else config.p
        x1 = _step(x, corr, p, w, projection)
        corr1 = correlate(x1, w)
        if sidelobes_vanish(*corr1[2:]):
            # no sidelobes, no surrogate: x1 is the candidate, record and all
            candidate, corr_next = x1, corr1
        else:
            x2 = _step(x1, corr1, p, w, projection)
            # the SQUAREM candidate (module docstring); x2 itself when v vanishes
            r = x1 - x
            v = x2 - x1
            v -= r
            v_norm = np.sqrt(np.vdot(v, v).real)
            candidate = x2
            if v_norm > 0.0:
                alpha = -np.sqrt(np.vdot(r, r).real) / v_norm
                # x - 2*alpha*r + alpha**2 * v, in the same order, in r and v
                r *= 2.0 * alpha
                np.subtract(x, r, out=r)
                v *= alpha**2
                r += v
                candidate = projection(r)
            corr_next = correlate(candidate, w)
        eta_next, psl_next = corr_next[2], psl_db_of_peak(*corr_next[2:])
        if eta_next > trace[-1] or psl_next > psl_trace[-1]:
            reason = "objective_increased"
            break
        x, corr = candidate, corr_next
        trace.append(eta_next)
        psl_trace.append(psl_next)
        # vanished sidelobes gain inf dB here; the next iteration stops at zero_sidelobe
        if psl_trace[-2] - psl_trace[-1] < MIN_GAIN_DB:
            reason = "small_gain"
            break
    return OptimizationReport(
        grid=SymbolGrid(x), eta_trace=trace, psl_db_trace=psl_trace, stop_reason=reason
    )
