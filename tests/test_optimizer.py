"""Optimization loop behavior: monotone traces, feasibility, determinism, stop rules."""

import numpy as np
import pytest

from pslwave import config, majorizer, optimizer, spectrum
from pslwave.constellation import ConstellationSpec, SubcarrierMask, random_reference_grid
from pslwave.majorizer import ZeroSidelobeError, coefficients, correlate, majorize_direction
from pslwave.optimizer import (
    MIN_GAIN_DB, P_SCHEDULE, STEP_C, OptimizerConfig, mm_step, optimize,
)
from pslwave.projector import Projection, project_grid
from pslwave.spectrum import (
    LagWeights, SymbolGrid, cyclic_correlations, peak_sidelobe, psl_db, psl_db_of_peak,
)


def setup_problem(n=32, m=2, seed=60, unused=0.0):
    rng = np.random.default_rng(seed)
    spec = ConstellationSpec("psk", 4)
    if unused > 0:
        mask = SubcarrierMask.random(rng, n, m, unused)
    else:
        mask = SubcarrierMask.all_used(n, m)
    ref, _ = random_reference_grid(rng, spec, mask)
    w = LagWeights(n, n // 4)
    return spec, mask, ref, w


def seeded_trial(trial, **overrides):
    """The reference grid of ``pslwave optimize``'s trial ``trial`` (seed 0)."""
    cfg = config.ExperimentConfig(**overrides)
    spec, w = cfg.constellation(), cfg.lag_weights()
    rng = config.trial_rng(0, trial)
    mask = cfg.mask(rng)
    ref, _ = random_reference_grid(rng, spec, mask)
    return spec, mask, ref, w, cfg


def iterations_run(report) -> int:
    """Iterations run, the dropped last one of an ``objective_increased`` run included."""
    return report.iterations + (report.stop_reason == "objective_increased")


class TestMmStep:
    def test_output_is_feasible(self):
        spec, mask, ref, w = setup_problem()
        out = mm_step(ref, ref, spec, mask, w, 50)
        reproj = project_grid(out, ref, spec, mask)
        assert np.allclose(reproj.symbols, out.symbols, atol=1e-9)

    def test_preserves_shape_and_finiteness(self):
        spec, mask, ref, w = setup_problem(seed=61, unused=0.1)
        out = mm_step(ref, ref, spec, mask, w, 50)
        assert out.symbols.shape == ref.symbols.shape
        assert np.all(np.isfinite(out.symbols))

    @pytest.mark.parametrize("overrides", [{}, {"n_antennas": 1}, {"unused_fraction": 0.0},
                                           {"family": "qam", "order": 16, "n_subcarriers": 64,
                                            "n_antennas": 2, "n_cp": 16}])
    def test_a_plan_steps_as_project_grid_does(self, overrides):
        # two steps through one reused projection, as optimize takes them, project
        # each sphere point as project_grid does and match the one-shot mm_step
        spec, mask, ref, w, cfg = seeded_trial(1, **overrides)
        points = []

        class RecordingPlan(Projection):
            def __call__(self, z):
                points.append(z)
                return super().__call__(z)

        plan = RecordingPlan(ref, spec, mask)
        x1 = optimizer._step(ref.symbols, correlate(ref.symbols, w), 8, w, plan)
        x2 = optimizer._step(x1, correlate(x1, w), 8, w, plan)
        assert len(points) == 2
        for z, out in zip(points, (x1, x2)):
            assert np.array_equal(project_grid(SymbolGrid(z), ref, spec, mask).symbols, out)
        assert np.array_equal(mm_step(ref, ref, spec, mask, w, 8).symbols, x1)
        assert np.array_equal(mm_step(SymbolGrid(x1), ref, spec, mask, w, 8).symbols, x2)

    @pytest.mark.parametrize("overrides", [{}, {"n_antennas": 1},
                                           {"family": "qam", "order": 16, "n_subcarriers": 64,
                                            "n_antennas": 2, "n_cp": 16}])
    def test_a_step_leaves_x_and_its_record_unchanged(self, overrides):
        # the step turns the pass's own Qx into y_c and the sphere point in place
        spec, mask, ref, w, cfg = seeded_trial(2, **overrides)
        plan = Projection(ref, spec, mask)
        x = ref.symbols.copy()
        for p in (8, 50):
            corr = correlate(x, w)
            kept_x, kept = x.copy(), [np.copy(item) for item in corr]
            x_next = optimizer._step(x, corr, p, w, plan)
            assert np.array_equal(x, kept_x)
            for item, copy in zip(corr, kept):
                assert np.array_equal(item, copy)
            x = x_next

    def test_zero_sidelobe_raises(self):
        spec = ConstellationSpec("psk", 4)
        mask = SubcarrierMask.all_used(8, 1)
        # flat spectrum has zero weighted sidelobes; mm_step must signal it
        flat = SymbolGrid(np.ones((8, 1), dtype=complex))
        with pytest.raises(ZeroSidelobeError):
            mm_step(flat, flat, spec, mask, LagWeights(8, 4), 50)


class TestRunSquarem:
    @pytest.mark.parametrize("overrides", [{}, {"n_antennas": 1}], ids=["default", "m1"])
    def test_a_run_writes_neither_the_reference_nor_an_accepted_iterate(self, overrides):
        # the SQUAREM candidate is formed in place in its own r and v: the
        # returned grid is the iterate whose eta and PSL the traces end on, also
        # when a dropped candidate ends the run (most M = 1 runs)
        reasons = set()
        for trial in range(4):
            spec, mask, ref, w, cfg = seeded_trial(trial, **overrides)
            kept = ref.symbols.copy()
            report = optimize(ref, spec, mask, w, cfg.optimizer())
            reasons.add(report.stop_reason)
            assert np.array_equal(ref.symbols, kept)
            corr = cyclic_correlations(report.grid)
            assert report.eta_trace[-1] == peak_sidelobe(corr, w)[0]
            assert report.psl_db_after == psl_db(corr, w)
        if overrides:
            assert "objective_increased" in reasons

    def test_trace_non_increasing(self):
        for seed in (62, 65):
            spec, mask, ref, w = setup_problem(seed=seed)
            report = optimize(ref, spec, mask, w)
            diffs = np.diff(report.eta_trace)
            assert np.all(diffs <= 1e-12 * report.eta_trace[0])

    def test_iteration_cap(self):
        spec, mask, ref, w = setup_problem(seed=63)
        report = optimize(ref, spec, mask, w, OptimizerConfig(l_max=2))
        assert report.iterations <= 2

    def test_stop_reason_values(self):
        spec, mask, ref, w = setup_problem(seed=64)
        report = optimize(ref, spec, mask, w, OptimizerConfig(l_max=3))
        assert report.stop_reason in (
            "small_gain", "objective_increased", "max_iterations", "zero_sidelobe"
        )

    @pytest.mark.parametrize("seed", [60, 62, 64, 69])
    def test_shorter_run_traces_a_prefix(self, seed):
        # an iteration depends only on the iterate it starts from, not on l_max
        spec, mask, ref, w = setup_problem(seed=seed)
        full = optimize(ref, spec, mask, w, OptimizerConfig(l_max=3)).eta_trace
        for k in (1, 2):
            short = optimize(ref, spec, mask, w, OptimizerConfig(l_max=k)).eta_trace
            assert len(short) == k + 1
            assert full[: k + 1] == short

    @pytest.mark.parametrize("overrides", [{}, {"n_antennas": 1}])
    def test_one_candidate_per_iteration(self, monkeypatch, overrides):
        # the loop correlates each point once, outside the MM steps: the reference,
        # then per iteration run its x1 and its one candidate (no backtracking in
        # alpha, no fallback to the double step; the M = 1 trial drops the
        # candidate of its second iteration), and every step receives the record
        # of its own point
        spec, mask, ref, w, cfg = seeded_trial(0, **overrides)
        records, in_steps, steps, stepping = [], [], [], []
        exact, step = optimizer.correlate, optimizer._step

        def recording(x, w):
            record = exact(x, w)
            (in_steps if stepping else records).append((x, record))
            return record

        def flagged_step(x, corr, *args):
            steps.append((x, corr))
            stepping.append(True)
            try:
                return step(x, corr, *args)
            finally:
                stepping.pop()

        monkeypatch.setattr(optimizer, "correlate", recording)
        monkeypatch.setattr(optimizer, "_step", flagged_step)
        report = optimize(ref, spec, mask, w, cfg.optimizer())
        n = iterations_run(report)
        assert len(records) == 1 + 2 * n
        assert in_steps == []
        assert len({id(x) for x, _ in records}) == len(records)
        assert len(steps) == 2 * n
        for k in range(n):
            # iteration k steps from the reference or the candidate accepted at
            # k - 1, then from its x1, each with that point's one record
            for (x, corr), (x_rec, corr_rec) in zip(steps[2 * k:2 * k + 2],
                                                    records[2 * k:2 * k + 2]):
                assert x is x_rec and corr is corr_rec

    def test_one_peak_search_per_candidate(self, monkeypatch):
        # eta and the PSL of an iterate come from its one correlation pass: the
        # PSL reads that pass's eta and mainlobe, and no argmax peak search
        # (peak_sidelobe, or psl_db through it) runs
        spec, mask, ref, w, cfg = seeded_trial(0)
        passes, read = [], []
        exact = optimizer.correlate

        def recording(x, w):
            passes.append(exact(x, w))
            return passes[-1]

        def recording_psl(eta, mainlobe):
            read.append(next(c for c in passes if c[2] is eta and c[3] is mainlobe))
            return psl_db_of_peak(eta, mainlobe)

        def no_search(*args):
            raise AssertionError("a peak search ran")

        monkeypatch.setattr(optimizer, "correlate", recording)
        monkeypatch.setattr(optimizer, "psl_db_of_peak", recording_psl)
        monkeypatch.setattr(optimizer, "peak_sidelobe", no_search)
        monkeypatch.setattr(spectrum, "peak_sidelobe", no_search)
        report = optimize(ref, spec, mask, w, cfg.optimizer())
        assert len(read) == 1 + iterations_run(report)
        assert len({id(c) for c in read}) == len(read)

    def test_correlations_pass_the_traced_name(self, monkeypatch):
        # each correlate of a run calls majorizer.cyclic_correlations, and each
        # direction majorizer.v_fields, by that module-level name: the sites the
        # benchmark's tracer wraps
        spec, mask, ref, w, cfg = seeded_trial(0)
        named, records, v_named, directions = [], [], [], []
        cyclic, exact = majorizer.cyclic_correlations, optimizer.correlate
        v_fields, direction = majorizer.v_fields, optimizer.direction

        def counting(x):
            named.append(x)
            return cyclic(x)

        def recording(x, w):
            records.append(x)
            return exact(x, w)

        def counting_v(*args):
            v_named.append(args)
            return v_fields(*args)

        def recording_direction(*args):
            directions.append(args)
            return direction(*args)

        monkeypatch.setattr(majorizer, "cyclic_correlations", counting)
        monkeypatch.setattr(optimizer, "correlate", recording)
        monkeypatch.setattr(majorizer, "v_fields", counting_v)
        monkeypatch.setattr(optimizer, "direction", recording_direction)
        optimize(ref, spec, mask, w, cfg.optimizer())
        assert len(named) == len(records) > 0
        assert len(v_named) == len(directions) > 0

    @pytest.mark.parametrize("overrides", [{}, {"n_antennas": 1}])
    def test_one_plan_per_run(self, monkeypatch, overrides):
        # the projection is set up once per run, and every step and candidate uses it
        spec, mask, ref, w, cfg = seeded_trial(0, **overrides)
        plans, calls, steps = [], [], []

        class CountingPlan(Projection):
            def __init__(self, *args):
                super().__init__(*args)
                plans.append(self)

            def __call__(self, z):
                calls.append(z)
                return super().__call__(z)

        def recording_step(x, corr, p, w, projection):
            steps.append(projection)
            return step(x, corr, p, w, projection)

        step = optimizer._step
        monkeypatch.setattr(optimizer, "Projection", CountingPlan)
        monkeypatch.setattr(optimizer, "_step", recording_step)
        report = optimize(ref, spec, mask, w, cfg.optimizer())
        assert len(plans) == 1
        # two MM steps through the run's projection and the SQUAREM candidate per iteration run
        assert len(steps) == 2 * iterations_run(report)
        assert all(plan is plans[0] for plan in steps)
        assert len(calls) == 3 * iterations_run(report)

    def test_first_step_without_sidelobes_is_the_candidate(self, monkeypatch):
        # x1 has no sidelobes, so a second step would have no surrogate: x1 is
        # taken with its one record, and the next iteration stops at once
        spec, mask, ref, w = setup_problem()
        flat = np.tile(spec.points[[0, 1]], (32, 1))
        steps, correlated = [], []
        exact = optimizer.correlate

        def first_step_flat(x, *args):
            steps.append(x)
            return flat if len(steps) == 1 else step(x, *args)

        def recording(x, w):
            correlated.append(x)
            return exact(x, w)

        step = optimizer._step
        monkeypatch.setattr(optimizer, "_step", first_step_flat)
        monkeypatch.setattr(optimizer, "correlate", recording)
        report = optimize(ref, spec, mask, w)
        assert len(steps) == 1
        assert sum(x is flat for x in correlated) == 1
        assert np.array_equal(report.grid.symbols, flat)
        assert report.psl_db_after == -np.inf
        assert report.stop_reason == "zero_sidelobe"
        assert report.iterations == 1

    def test_candidate_raising_the_psl_is_dropped(self):
        # M = 1 trial 48: the first candidate lowers eta (481.4 -> 468.9) but, with
        # the projection shrinking the mainlobe, raises the PSL (-30.22 -> -29.79 dB)
        spec, mask, ref, w, cfg = seeded_trial(48, n_antennas=1)
        report = optimize(ref, spec, mask, w, cfg.optimizer())
        assert report.stop_reason == "objective_increased"
        assert report.iterations == 0
        assert np.array_equal(report.grid.symbols, ref.symbols)

    def test_final_grid_feasible(self):
        spec, mask, ref, w = setup_problem(seed=66, unused=0.1)
        report = optimize(ref, spec, mask, w)
        reproj = project_grid(report.grid, ref, spec, mask)
        assert np.allclose(reproj.symbols, report.grid.symbols, atol=1e-9)

    def test_never_worse_than_reference(self):
        spec, mask, ref, w = setup_problem(seed=67)
        report = optimize(ref, spec, mask, w)
        assert report.eta_trace[-1] <= report.eta_trace[0] + 1e-12 * report.eta_trace[0]
        assert report.psl_db_after <= report.psl_db_before + 1e-9


def recorded_ps(monkeypatch) -> list[int]:
    """The p of every majorization pass the optimizer makes from now on."""
    ps = []
    direction = optimizer.direction

    def recording(x, corr, p, w):
        ps.append(p)
        return direction(x, corr, p, w)

    monkeypatch.setattr(optimizer, "direction", recording)
    return ps


def passes_per_iteration(report, p_of_k) -> list[int]:
    """Two passes at p_k per iteration run, the dropped last one included."""
    return [p_of_k(k) for k in range(iterations_run(report)) for _ in range(2)]


class TestStepRule:
    @pytest.mark.parametrize("p", [50, 12])
    def test_p_schedule(self, monkeypatch, p):
        # trial 7 at N = 64 runs 4 (p = 50) and 6 (p = 12) iterations once the gain
        # rule is off, so k >= 3 is reached
        spec, mask, ref, w, cfg = seeded_trial(7, n_subcarriers=64, n_cp=16, p=p, l_max=6)
        monkeypatch.setattr(optimizer, "MIN_GAIN_DB", -np.inf)
        ps = recorded_ps(monkeypatch)
        report = optimize(ref, spec, mask, w, cfg.optimizer())
        assert report.iterations >= 4
        expected = passes_per_iteration(
            report, lambda k: min(P_SCHEDULE[k], p) if k < len(P_SCHEDULE) else p
        )
        assert ps == expected
        assert ps[:6] == [min(8, p)] * 2 + [min(16, p)] * 2 + [min(32, p)] * 2
        assert ps[6:] == [p] * (len(ps) - 6)

    @pytest.mark.parametrize("seed", [60, 61, 64, 66])
    def test_p_schedule_with_the_gain_rule(self, monkeypatch, seed):
        spec, mask, ref, w = setup_problem(seed=seed)
        ps = recorded_ps(monkeypatch)
        report = optimize(ref, spec, mask, w)
        assert ps == passes_per_iteration(report, lambda k: (8, 16, 32, 50)[min(k, 3)])

    def test_small_gain_ends_on_the_first_small_step(self):
        reasons = set()
        for seed in range(60, 72):
            spec, mask, ref, w = setup_problem(seed=seed)
            report = optimize(ref, spec, mask, w)
            reasons.add(report.stop_reason)
            gains = -np.diff(report.psl_db_trace)
            assert len(report.psl_db_trace) == len(report.eta_trace)
            if report.stop_reason == "small_gain":
                assert gains[-1] < MIN_GAIN_DB
                assert np.all(gains[:-1] >= MIN_GAIN_DB)
            else:
                assert np.all(gains >= MIN_GAIN_DB)
        assert "small_gain" in reasons and "objective_increased" in reasons

    @pytest.mark.parametrize("n,m,n_cp", [(32, 1, 8), (32, 2, 8), (64, 4, 16), (16, 3, 15)])
    def test_step_direction_is_finite_and_descends(self, n, m, n_cp):
        rng = np.random.default_rng(n + m)
        for p in (2, 8, 50):
            grid = SymbolGrid(rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m)))
            out = majorize_direction(grid, LagWeights(n, n_cp), p)
            assert out.mu_bar > 0.0
            y_c = out.qx - STEP_C * out.mu_bar * grid.symbols
            assert np.all(np.isfinite(y_c))
            assert np.linalg.norm(y_c) > 0.0
            # x^H y_c <= (1 - STEP_C) * mu_bar * ||x||^2
            bound = (1.0 - STEP_C) * out.mu_bar * grid.energy()
            assert np.vdot(grid.symbols, y_c).real <= bound * (1 - 1e-12)
            # the step mm_step takes: x^H y_c <= (mu_bar - STEP_C * L) * ||x||^2 < 0
            assert out.mu_bound >= out.mu_bar * (1 - 1e-12)  # exact at M <= 2 up to round-off
            y_c = out.qx - STEP_C * out.mu_bound * grid.symbols
            assert np.all(np.isfinite(y_c))
            bound = (out.mu_bar - STEP_C * out.mu_bound) * grid.energy()
            assert bound < 0.0
            assert np.vdot(grid.symbols, y_c).real <= bound * (1 - 1e-12)

    @pytest.mark.parametrize("overrides", [{}, {"n_antennas": 8}], ids=["default", "m8"])
    def test_optimizer_runs_no_eigensolve(self, monkeypatch, overrides):
        # the steps read qx and the bound L; the exact mu_bar is never computed
        def no_eigensolve(*args, **kwargs):
            raise AssertionError("the optimizer computed mu_bar")

        monkeypatch.setattr(majorizer, "mu_bar", no_eigensolve)
        for trial in range(3):
            spec, mask, ref, w, cfg = seeded_trial(trial, **overrides)
            report = optimize(ref, spec, mask, w, cfg.optimizer())
            assert report.iterations >= 1
            assert report.psl_db_after < report.psl_db_before
            reproj = project_grid(report.grid, ref, spec, mask)
            assert np.allclose(reproj.symbols, report.grid.symbols, atol=1e-9)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_v_raises_before_a_step(self, monkeypatch, bad):
        # the one-shot mm_step raises before its own plan projects
        exact = majorizer.v_fields

        def broken(r, coeffs, w):
            v = exact(r, coeffs, w)
            v[1, 0, 2] = bad
            return v

        projected = []

        class RecordingPlan(Projection):
            def __call__(self, z):
                projected.append(z)
                return super().__call__(z)

        monkeypatch.setattr(majorizer, "v_fields", broken)
        monkeypatch.setattr(optimizer, "Projection", RecordingPlan)
        spec, mask, ref, w = setup_problem(seed=63)
        with pytest.raises(ValueError, match="finite"):
            mm_step(ref, ref, spec, mask, w, 50)
        assert projected == []

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_v_raises_before_the_plan_projects(self, monkeypatch, bad):
        # a step through the run's own plan raises before that plan projects
        exact = majorizer.v_fields

        def broken(r, coeffs, w):
            v = exact(r, coeffs, w)
            v[1, 0, 2] = bad
            return v

        projected = []

        class RecordingPlan(Projection):
            def __call__(self, z):
                projected.append(z)
                return super().__call__(z)

        monkeypatch.setattr(majorizer, "v_fields", broken)
        spec, mask, ref, w = setup_problem(seed=63)
        plan = RecordingPlan(ref, spec, mask)
        with pytest.raises(ValueError, match="finite"):
            optimizer._step(ref.symbols, correlate(ref.symbols, w), 50, w, plan)
        assert projected == []

    def test_psl_db_before_and_after_read_the_trace(self):
        spec, mask, ref, w = setup_problem(seed=62)
        report = optimize(ref, spec, mask, w)
        assert report.psl_db_before == report.psl_db_trace[0]
        assert report.psl_db_after == report.psl_db_trace[-1]
        assert report.psl_db_after == psl_db(cyclic_correlations(report.grid), w)


class TestOptimize:
    def test_deterministic(self):
        spec, mask, ref, w = setup_problem(seed=68)
        a = optimize(ref, spec, mask, w)
        b = optimize(ref, spec, mask, w)
        assert np.array_equal(a.grid.symbols, b.grid.symbols)
        assert a.eta_trace == b.eta_trace

    def test_qam_family(self):
        rng = np.random.default_rng(70)
        spec = ConstellationSpec("qam", 16)
        mask = SubcarrierMask.all_used(16, 2)
        ref, _ = random_reference_grid(rng, spec, mask)
        report = optimize(ref, spec, mask, LagWeights(16, 4), OptimizerConfig(l_max=2))
        diffs = np.diff(report.eta_trace)
        assert np.all(diffs <= 1e-12 * report.eta_trace[0])
        # every entry stays inside its similarity disc
        assert np.all(np.abs(report.grid.symbols - ref.symbols) <= spec.eps_r + 1e-9)

    def test_one_symbol_grid_per_run(self, monkeypatch):
        # the loop runs on (N, M) arrays and wraps only report.grid; a run that
        # accepts no iteration (M = 1 trial 48) still returns a grid of its own
        runs = [seeded_trial(t) for t in range(10)] + [seeded_trial(48, n_antennas=1)]
        built = []
        post_init = SymbolGrid.__post_init__

        def counting(grid):
            built.append(grid)
            post_init(grid)

        monkeypatch.setattr(SymbolGrid, "__post_init__", counting)
        for spec, mask, ref, w, cfg in runs:
            built.clear()
            report = optimize(ref, spec, mask, w, cfg.optimizer())
            assert len(built) == 1 and built[0] is report.grid
        assert report.iterations == 0
        assert np.array_equal(report.grid.symbols, ref.symbols)
        assert not np.shares_memory(report.grid.symbols, ref.symbols)

    def test_report_counts_iterations(self):
        spec, mask, ref, w = setup_problem(seed=71)
        report = optimize(ref, spec, mask, w, OptimizerConfig(l_max=1))
        assert report.iterations == len(report.eta_trace) - 1


class TestZeroSidelobeUnderRoundOff:
    """A constant grid's window correlations vanish exactly, but the FFT at N
    not a power of two leaves |r| of 1e-30..1e-11: that is still a zero."""

    @pytest.mark.parametrize("n", [20, 22, 28, 50, 100, 127])
    def test_constant_two_symbol_grid_stops_at_once(self, n):
        spec = ConstellationSpec("psk", 8)
        ref = SymbolGrid(np.tile(spec.points[[0, 1]], (n, 1)))
        w = LagWeights(n, n // 4)
        corr = cyclic_correlations(ref)
        assert np.max(np.abs(corr[:, :, w.mask])) > 0.0  # round-off, not exact zeros
        with pytest.raises(ZeroSidelobeError):
            coefficients(corr, w, 50)
        with pytest.raises(ZeroSidelobeError):
            majorize_direction(ref, w, 50)
        report = optimize(ref, spec, SubcarrierMask.all_used(n, 2), w)
        assert report.stop_reason == "zero_sidelobe"
        assert report.iterations == 0
        assert report.psl_db_before == report.psl_db_after == -np.inf
        assert np.array_equal(report.grid.symbols, ref.symbols)

    def test_small_real_sidelobes_are_not_zero(self):
        # one entry moved by 1e-6 rad gives a PSL of about -146 dB: optimize runs
        spec = ConstellationSpec("psk", 8)
        symbols = np.tile(spec.points[[0, 1]], (20, 1))
        symbols[3, 0] *= np.exp(1e-6j)
        ref = SymbolGrid(symbols)
        w = LagWeights(20, 5)
        assert np.all(np.isfinite(majorize_direction(ref, w, 50).y))
        report = optimize(ref, spec, SubcarrierMask.all_used(20, 2), w, OptimizerConfig(l_max=1))
        assert np.isfinite(report.psl_db_before)
        assert report.stop_reason != "zero_sidelobe"


class TestConfigValidation:
    def test_bad_values_rejected(self):
        with pytest.raises(ValueError):
            OptimizerConfig(p=1)
        with pytest.raises(ValueError):
            OptimizerConfig(l_max=0)
