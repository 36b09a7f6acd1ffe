"""Correctness gate: every optimize trial and every evaluation unit is checked.

The checks run outside the timed region and with tracing off.  Each function
returns a list of problems; an empty list means the operation passed.
"""

from __future__ import annotations

import numpy as np

from pslwave import spectrum

# slack on the similarity-region bounds, as in the acceptance criteria
TOL = 1e-9
# the reported PSL must match a recomputation on the returned grid
PSL_TOL_DB = 1e-9


def optimize_problems(report, reference, spec, mask, weights) -> list[str]:
    """Checks on one ``optimizer.optimize`` report against its reference grid."""
    z = report.grid.symbols
    if not np.all(np.isfinite(z)):
        return ["non-finite grid"]
    problems = []
    used = mask.used
    zu, xr = z[used], reference.symbols[used]
    if spec.family == "psk":
        u = zu * np.conj(xr)  # reference points are unit-modulus
        if np.any(np.abs(np.angle(u)) > spec.eps_p + TOL):
            problems.append("used entry outside the PSK phase tolerance")
        amp = np.abs(u)
        if np.any(amp < 1.0 - spec.eps_a - TOL) or np.any(amp > 1.0 / np.cos(spec.eps_p) + TOL):
            problems.append("used entry outside the PSK amplitude range")
    elif np.any(np.abs(zu - xr) > spec.eps_r + TOL):
        problems.append("used entry outside the QAM disc")
    zn = z[~used]
    if spec.family == "psk":
        over = np.abs(zn) > 1.0 + TOL
    else:
        over = np.maximum(np.abs(zn.real), np.abs(zn.imag)) > np.sqrt(spec.order) - 1.0 + TOL
    if np.any(over):
        problems.append("unused entry above its power limit")
    trace = np.asarray(report.eta_trace, dtype=float)
    if trace.size and np.any(np.diff(trace) > 1e-12 * trace[0]):
        problems.append("eta_trace increases")
    after = spectrum.psl_db(spectrum.cyclic_correlations(report.grid), weights)
    if not (after == report.psl_db_after or abs(after - report.psl_db_after) <= PSL_TOL_DB):
        problems.append(
            f"reported psl_db_after {report.psl_db_after!r} != recomputed {after!r}"
        )
    return problems


def probability_problems(name: str, values) -> list[str]:
    """A detection probability or a BER must be finite and lie in [0, 1]."""
    v = np.asarray(values, dtype=float)
    if not np.all(np.isfinite(v)):
        return [f"non-finite {name}"]
    if np.any(v < 0.0) or np.any(v > 1.0):
        return [f"{name} outside [0, 1]"]
    return []
