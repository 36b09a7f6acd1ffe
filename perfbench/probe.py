"""Per-layer probe: min-of-k timings of each MM-step layer at fixed (N, M).

The sizes follow ROADMAP item 1 and acceptance criterion 11 (n_cp = N / 4).
(2048, 2) uses 16-QAM, so the QAM disc projector is timed at large N;
the other sizes use QPSK.  k stops growing once a function has used its time
budget, so at (2048, 8), where one ``mu_bar`` call takes seconds at the
seed, each expensive function is timed once.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

from pslwave import config, constellation, majorizer, optimizer, projector, spectrum

SIZES = ((128, 4, "psk", 4), (2048, 2, "qam", 16), (2048, 8, "psk", 4))
TINY_SIZES = ((32, 2, "psk", 4), (64, 2, "qam", 16))
FUNCTIONS = (
    "cyclic_correlations", "peak_sidelobe", "coefficients", "v_fields",
    "project_grid", "mu_bar", "majorize_direction", "mm_step",
)
K_MAX = 5
BUDGET_S = 1.0
# spawn key of the probe grids, outside the range of trial indices
PROBE_KEY = 2 * 10**7


def min_of_k(fn) -> tuple[float, int]:
    best, spent, k = np.inf, 0.0, 0
    while k < K_MAX and (k == 0 or spent < BUDGET_S):
        t0 = perf_counter()
        fn()
        dt = perf_counter() - t0
        best, spent, k = min(best, dt), spent + dt, k + 1
    return best, k


def run(seed: int, sizes=SIZES) -> tuple[dict[str, float], dict[str, int]]:
    """Returns {probe.<function>.<N>x<M>.ms: best time} and the k used for each."""
    times, ks = {}, {}
    for n, m, family, order in sizes:
        cfg = config.ExperimentConfig(
            n_subcarriers=n, n_antennas=m, n_cp=n // 4, family=family, order=order
        )
        spec, w, p = cfg.constellation(), cfg.lag_weights(), cfg.p
        rng = config.trial_rng(seed, PROBE_KEY)
        mask = cfg.mask(rng)
        reference, _ = constellation.random_reference_grid(rng, spec, mask)
        # an off-region candidate, so that the projector has work to do
        noise = rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m))
        candidate = spectrum.SymbolGrid(reference.symbols + 0.3 * noise)
        corr = spectrum.cyclic_correlations(reference)
        coeffs = majorizer.coefficients(corr, w, p)
        v = majorizer.v_fields(corr, coeffs, w)
        calls = {
            "cyclic_correlations": lambda: spectrum.cyclic_correlations(reference),
            "peak_sidelobe": lambda: spectrum.peak_sidelobe(corr, w),
            "coefficients": lambda: majorizer.coefficients(corr, w, p),
            "v_fields": lambda: majorizer.v_fields(corr, coeffs, w),
            "project_grid": lambda: projector.project_grid(candidate, reference, spec, mask),
            "mu_bar": lambda: majorizer.mu_bar(v),
            "majorize_direction": lambda: majorizer.majorize_direction(reference, w, p),
            "mm_step": lambda: optimizer.mm_step(reference, reference, spec, mask, w, p),
        }
        for name in FUNCTIONS:
            key = f"probe.{name}.{n}x{m}.ms"
            best, ks[key] = min_of_k(calls[name])
            times[key] = best * 1e3
    return times, ks
