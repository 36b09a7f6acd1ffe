"""pslwave benchmark: closed-loop workloads, a correctness gate, and a traced per-layer run.

Usage (from the repository root):

    python3 perfbench/run.py                     # every workload, untraced
    python3 perfbench/run.py --workload optimize-default --seed 3 --seconds 30 --trace 0

Every metric is printed by name with its unit, and the last line of standard
output is one JSON object: {"correct", "attempted", "failed", "metrics"}.
With --trace 0 the metrics are the end-to-end ones, with --trace 1 the
per-layer ones (see perfbench/README.md).  The exit code is 1 when a
correctness check fails and 2 when pslwave cannot be imported.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

# Single process, BLAS pinned to one thread; must precede the numpy import.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"
sys.path.insert(0, str(ROOT / "src"))

import argparse  # noqa: E402
import contextlib  # noqa: E402
import csv  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import traceback  # noqa: E402
from time import perf_counter  # noqa: E402

import numpy as np  # noqa: E402

from calibrate import REFERENCE_S, Calibration  # noqa: E402

WORKLOAD_NAMES = ("optimize-default", "evaluate")

# name -> unit; the JSON line of an untraced run carries exactly these
END_TO_END = {
    "setup_s": "s",
    "trials_per_s": "1/s",
    "trial_ms_p50": "ms",
    "trial_ms_tail": "ms",
    "psl_gain_db_p50": "dB",
    "psl_suppression_db_p50": "dB",
    "peak_rss_mb": "MB",
}
# printed with every untraced run but not bounded (zero at the seed, or defined
# on one workload only); see README.md
EXTRAS = {
    "fail_share": "share",
    "frac_gain_ge_3db": "share",
    "psl_db_after_p50": "dB",
    "sense_trials_per_s": "1/s",
    "ber_bits_per_s": "bit/s",
    "dp_snr_gap_db": "dB",
    "ber_snr_penalty_db": "dB",
    "dp085_snr_db.original": "dB",
    "dp085_snr_db.optimized": "dB",
    "dp085_snr_db.orthogonal": "dB",
    "ber1e-3_snr_db.original": "dB",
    "ber1e-3_snr_db.optimized": "dB",
}
LAYER_SELF_MS = (
    "majorizer.mu_bar", "majorizer.majorize_direction", "majorizer.coefficients",
    "majorizer.v_fields", "spectrum.cyclic_correlations", "spectrum.peak_sidelobe",
    "projector.project_grid", "optimizer.mm_step", "optimizer.optimize",
    "sensing.synthesize_echo", "sensing.matched_filter", "sensing.cfar_detect",
    "sensing.detection_campaign", "comms.channel_apply", "comms.zf_equalize",
    "comms.bit_errors", "comms.ber_campaign", "constellation.demodulate",
    "constellation.random_reference_grid",
)
LAYER_CALLS = (
    "majorizer.majorize_direction", "spectrum.cyclic_correlations",
    "spectrum.peak_sidelobe", "projector.project_grid", "optimizer.mm_step",
)


def per_layer_units(probe_names) -> dict[str, str]:
    units = {f"{s}.self_ms": "ms" for s in LAYER_SELF_MS}
    units.update({f"{s}.calls": "count" for s in LAYER_CALLS})
    units.update({
        "optimizer.iterations_p50": "count",
        "optimizer.accept_ratio": "ratio",
        "optimizer.stop_max_iterations_share": "share",
        "trace.overhead_pct": "%",
    })
    units.update({name: "ms" for name in probe_names})
    return units


def tail(values) -> tuple[float, float, int]:
    """Highest percentile with at least ten samples beyond it: (value, percentile, n).

    With 20 samples or fewer that percentile would not lie above the median,
    so the maximum is returned as percentile 100.
    """
    v = np.sort(np.asarray(values))
    n = v.size
    if n <= 20:
        return float(v[-1]), 100.0, n
    return float(v[n - 11]), 100.0 * (n - 10) / n, n


def git_commit() -> str | None:
    """The checked-out commit, read from .git without running git; None outside a clone."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(seed: int, workload) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads": BLAS_THREADS,
        "workers": 1,
        "git_commit": git_commit(),
        "seed": seed,
        "workload": workload.name,
        "input_size": workload.input_size,
    }


def cli_problems(workload, records: dict, out_dir: Path) -> list[str]:
    """The first trials must equal the rows `pslwave optimize --workers 1 --no-timestamp` writes."""
    from pslwave import cli

    n = 2
    if not all(t in records for t in range(n)):
        return [f"fewer than {n} passing trials to compare with the CLI"]
    out_dir.mkdir(parents=True, exist_ok=True)
    ini = out_dir / "waveform.ini"
    c = workload.cfg
    ini.write_text(
        f"[waveform]\nn_subcarriers = {c.n_subcarriers}\nn_antennas = {c.n_antennas}\n"
        f"n_cp = {c.n_cp}\n"
    )
    argv = ["optimize", "--config", str(ini), "--seed", str(workload.seed),
            "--trials", str(n), "--workers", "1", "--no-timestamp", "--out", str(out_dir)]
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    if code != 0:
        return [f"pslwave optimize exited with {code}"]
    with open(out_dir / "optimize_summary.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    problems = []
    for row in rows:
        r = records[int(row["trial"])]
        mine = {
            "psl_db_before": f"{r.psl_db_before:.6f}",
            "psl_db_after": f"{r.psl_db_after:.6f}",
            "iterations": str(r.iterations),
            "stop_reason": r.stop_reason,
        }
        for key, value in mine.items():
            if row[key] != value:
                problems.append(f"trial {row['trial']} {key}: bench {value} != CLI {row[key]}")
    if len(rows) != n:
        problems.append(f"CLI wrote {len(rows)} rows, expected {n}")
    return problems


class Gate:
    """Counts operations attempted and failed, and keeps each failure's reason."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, where: str, verdict: list[str]) -> None:
        self.attempted += 1
        if verdict:
            self.failed += 1
            self.problems.append(f"{where}: {'; '.join(verdict)}")


def set_up(workload, gate: Gate, cal: Calibration) -> tuple[list[float], list[float]]:
    """Run every set-up repetition; returns their wall times, raw and scaled."""
    raw, scaled = [], []
    for rep in range(workload.setup_repeats):
        t0 = perf_counter()
        workload.setup(rep)
        raw.append(perf_counter() - t0)
        scaled.append(raw[-1] * cal.bracket_scale())
        for verdict in workload.gate_setup():
            gate.record(f"setup {rep}", verdict)
    return raw, scaled


def closed_loop(workload, seconds: float, tracer, gate: Gate, cal: Calibration):
    """Trials back to back until `seconds` have passed (at least one trial).

    Untraced, each trial runs once.  Traced, each trial runs untraced and
    traced, in alternating order, so that the pairs give the tracing overhead.
    Returns the raw durations of each kind, the scaled untraced durations, and
    the gate's record of each passing trial (of the traced copy, when traced).
    """
    durations: dict[bool, list[float]] = {False: [], True: []}
    scaled: list[float] = []
    records: dict[int, object] = {}
    t = 0
    t_end = perf_counter() + seconds
    while t == 0 or perf_counter() < t_end:
        modes = (False,) if not tracer else ((False, True) if t % 2 == 0 else (True, False))
        for traced in modes:
            if tracer:
                tracer.enabled, tracer.trial = traced, t
            t0 = perf_counter()
            try:
                out = workload.trial(t)
            except Exception:  # a failing trial is counted and reported, not fatal
                out, verdict = None, ["raised " + traceback.format_exc(limit=3)]
            dt = perf_counter() - t0
            if tracer:
                tracer.enabled = False
            scale = cal.bracket_scale()
            durations[traced].append(dt)
            if not traced:
                scaled.append(dt * scale)
            if out is not None:
                verdict, record = workload.check(out)
            gate.record(f"trial {t}", verdict)
            if not verdict and (traced or not tracer):
                records[t] = record
        t += 1
    return durations, scaled, records


def per_layer(tracer, durations, records, summary) -> dict[str, float]:
    """Self time and calls per traced trial, optimizer ratios, and the tracing overhead."""
    n = len(durations[True])
    layers = {f"{s}.self_ms": tracer.self_s.get(s, 0.0) * 1e3 / n for s in LAYER_SELF_MS}
    layers.update({f"{s}.calls": tracer.calls.get(s, 0) / n for s in LAYER_CALLS})
    # over the optimize calls of the traced loop; evaluate's loop makes none
    optimized = [r for r in records.values() if hasattr(r, "iterations")]
    projected = tracer.calls.get("projector.project_grid", 0)
    layers.update({
        "optimizer.iterations_p50": summary["iterations_p50"] if optimized else 0.0,
        "optimizer.accept_ratio":
            sum(r.iterations for r in optimized) / projected if projected else 0.0,
        "optimizer.stop_max_iterations_share":
            summary["stop_max_iterations_share"] if optimized else 0.0,
        "trace.overhead_pct": 100.0 * (sum(durations[True]) / sum(durations[False]) - 1.0),
    })
    return layers


def run_workload(name: str, seed: int, seconds: float, trace: bool, tiny: bool = False) -> dict:
    """One run: set-up, the closed loop for `seconds`, the gate, and (traced) the probe.

    `tiny` shrinks the grids and the probe sizes for the smoke test.
    """
    import probe
    from tracer import Tracer
    from workloads import WORKLOADS

    workload = WORKLOADS[name](seed, tiny)
    gate = Gate()
    cal = Calibration()
    cal.measure()  # opens the first set-up repetition's bracket
    tracer = Tracer() if trace else None
    if tracer:
        tracer.install()
    try:
        setup_raw, setup_scaled = set_up(workload, gate, cal)
        durations, scaled, records = closed_loop(workload, seconds, tracer, gate, cal)
    finally:
        if tracer:
            tracer.uninstall()

    summary = workload.summary(list(records.values())) if records else {}
    timed = np.asarray(scaled)
    tail_ms, tail_pct, n_timed = tail(timed * 1e3)
    raw = np.asarray(durations[False])
    report = {
        "setup_s": float(np.median(setup_scaled)),
        "trials_per_s": timed.size / float(timed.sum()),
        "trial_ms_p50": float(np.median(timed)) * 1e3,
        "trial_ms_tail": tail_ms,
        "psl_gain_db_p50": summary.get("psl_gain_db_p50", float("nan")),
        # -psl_db_after_p50, so that the bounded value stays positive
        "psl_suppression_db_p50": -summary.get("psl_db_after_p50", float("nan")),
        "fail_share": gate.failed / gate.attempted,
    }
    report.update({k: v for k, v in summary.items() if k in EXTRAS})
    notes = {
        "setup_times_s": setup_raw,
        "raw_wall_time": {
            "setup_s": float(np.median(setup_raw)),
            "trials_per_s": raw.size / float(raw.sum()),
            "trial_ms_p50": float(np.median(raw)) * 1e3,
            "trial_ms_tail": tail(raw * 1e3)[0],
        },
        "calibration_ms_p50": float(np.median(cal.samples)) * 1e3,
        "calibration_samples": len(cal.samples),
        "trial_ms_tail": {"percentile": tail_pct, "samples": n_timed},
        "trials": n_timed,
        "seconds": seconds,
    }
    if "curves" in summary:
        notes["curves"] = summary["curves"]

    if name == "optimize-default" and not trace:
        for p in cli_problems(workload, records, RESULTS / f"cli-{name}-seed{seed}"):
            gate.problems.append(f"CLI check: {p}")

    RESULTS.mkdir(parents=True, exist_ok=True)
    layers: dict[str, float] = {}
    if tracer:
        layers = per_layer(tracer, durations, records, summary)
        probe_times, notes["probe_k"] = probe.run(seed, probe.TINY_SIZES if tiny else probe.SIZES)
        layers.update(probe_times)
        notes["trace_sites_missing"] = tracer.missing
        notes["spans"] = len(tracer.names)
        tracer.save(RESULTS / f"{name}-seed{seed}-spans.npz")

    report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if trace:
        units = per_layer_units(k for k in layers if k.startswith("probe."))
        metrics = {k: {"value": layers[k], "unit": units[k]} for k in units}
    else:
        metrics = {k: {"value": report[k], "unit": u} for k, u in END_TO_END.items()}
    result = {
        "environment": environment(seed, workload),
        "correct": gate.failed == 0 and not gate.problems,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "problems": gate.problems,
        "end_to_end": {k: report[k] for k in END_TO_END},
        "extras": {k: report[k] for k in EXTRAS if k in report},
        "per_layer": layers,
        "notes": notes,
        "metrics": metrics,
    }
    with open(RESULTS / f"{name}-seed{seed}-trace{int(trace)}.json", "w") as fh:
        json.dump(result, fh, indent=1, default=float)
    return result


def print_result(result: dict) -> None:
    env = result["environment"]
    print(
        f"env: nproc={env['nproc']} usable_cpus={env['cpus_usable']} python={env['python']} "
        f"numpy={env['numpy']} blas={env['blas']} blas_threads={env['blas_threads']} "
        f"workers={env['workers']} commit={env['git_commit']} seed={env['seed']}"
    )
    print(f"workload {env['workload']}: {json.dumps(env['input_size'])}")
    notes = result["notes"]
    print(f"  trials measured: {notes['trials']} in >= {notes['seconds']} s "
          f"(setup repeats {len(notes['setup_times_s'])})")
    print(f"  times scaled to the reference speed: calibration kernel "
          f"{notes['calibration_ms_p50']:.4f} ms (median of {notes['calibration_samples']}) "
          f"vs {REFERENCE_S * 1e3:g} ms; raw wall time: "
          + ", ".join(f"{k} {v:.6g}" for k, v in notes["raw_wall_time"].items()))
    for key, value in result["end_to_end"].items():
        extra = ""
        if key == "trial_ms_tail":
            tn = notes["trial_ms_tail"]
            extra = f"  (p{tn['percentile']:.1f} of {tn['samples']} samples)"
        print(f"  {key:<26} {value:14.6g} {END_TO_END[key]}{extra}")
    for key, value in result["extras"].items():
        print(f"  {key:<26} {value:14.6g} {EXTRAS[key]}  (unbounded)")
    print(f"  {'attempted / failed':<26} {result['attempted']} / {result['failed']}")
    if result["per_layer"]:
        units = per_layer_units(k for k in result["per_layer"] if k.startswith("probe."))
        for key, value in result["per_layer"].items():
            print(f"  {key:<40} {value:14.6g} {units[key]}")
    for p in result["problems"]:
        print(f"  FAILED CHECK: {p}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        import pslwave  # noqa: F401
    except ImportError as exc:
        print(f"cannot import pslwave from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    results = []
    for name in names:
        result = run_workload(name, args.seed, args.seconds, bool(args.trace))
        print_result(result)
        results.append(result)
    ok = all(r["correct"] for r in results)
    if args.workload == "all":
        print(f"all workloads: {'every check passed' if ok else 'A CHECK FAILED'}")
    else:
        r = results[0]
        print(json.dumps({k: r[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
