"""Smoke test of the benchmark: every workload at a tiny size, untraced and traced.

Run from the repository root (takes well under a minute):

    python3 perfbench/smoke.py

It checks that each run passes its gate and reports exactly the metric names
and units that BENCHMARK.json lists, that the gate rejects each kind of
faulty result, and that the command fails cleanly without ``src/``.  The file
name keeps it out of the pytest suite.
"""

from __future__ import annotations

import json
import math
import os
import re
import shutil
import subprocess
import sys
import tempfile
from types import SimpleNamespace

import run  # pins BLAS threads and puts src/ on the path

import numpy as np  # noqa: E402

import gate  # noqa: E402
from pslwave import config, constellation, optimizer, spectrum  # noqa: E402


def generic(name: str) -> str:
    """probe.<function>.<N>x<M>.ms -> probe.<function>.NxM.ms, so tiny sizes compare."""
    return re.sub(r"^(probe\.\w+)\.\d+x\d+\.ms$", r"\1.NxM.ms", name)


def check_runs(bench: dict) -> None:
    e2e = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    layer = {generic(m["name"]): m["unit"] for m in bench["per_layer"]}
    assert e2e == run.END_TO_END, "BENCHMARK.json end_to_end differs from run.END_TO_END"
    assert tuple(w["name"] for w in bench["workloads"]) == run.WORKLOAD_NAMES
    for w in bench["workloads"]:
        for trace in (False, True):
            r = run.run_workload(w["name"], seed=3, seconds=0.5, trace=trace, tiny=True)
            label = f"{w['name']} trace={int(trace)}"
            assert r["correct"] and r["failed"] == 0, (label, r["problems"])
            assert r["attempted"] >= 1, label
            units = {generic(k): v["unit"] for k, v in r["metrics"].items()}
            assert units == (layer if trace else e2e), (label, sorted(set(units) ^ set(layer)))
            values = [v["value"] for v in r["metrics"].values()]
            assert all(math.isfinite(v) for v in values), label
            if not trace:
                assert all(v > 0 for v in values), (label, r["metrics"])
            print(f"ok  {label}: {r['attempted']} operations, {len(values)} metrics")


def check_gate() -> None:
    for family, order in (("psk", 4), ("qam", 16)):
        cfg = config.ExperimentConfig(
            n_subcarriers=32, n_antennas=2, n_cp=8, family=family, order=order
        )
        spec, w = cfg.constellation(), cfg.lag_weights()
        rng = config.trial_rng(0, 0)
        mask = cfg.mask(rng)
        ref, _ = constellation.random_reference_grid(rng, spec, mask)
        good = optimizer.optimize(ref, spec, mask, w, cfg.optimizer())
        assert gate.optimize_problems(good, ref, spec, mask, w) == [], family

        used = np.argwhere(mask.used)[0]
        unused = np.argwhere(~mask.used)[0]

        def with_entry(idx, value):
            z = good.grid.symbols.copy()
            z[tuple(idx)] = value
            grid = spectrum.SymbolGrid(z)
            psl = spectrum.psl_db(spectrum.cyclic_correlations(grid), w)
            return SimpleNamespace(grid=grid, eta_trace=good.eta_trace, psl_db_after=psl)

        x = ref.symbols[tuple(used)]
        faults = {
            "non-finite": SimpleNamespace(
                grid=SimpleNamespace(symbols=np.full_like(good.grid.symbols, np.nan)),
                eta_trace=good.eta_trace, psl_db_after=good.psl_db_after,
            ),
            "unused power": with_entry(unused, 2.0 * np.sqrt(order)),
            "eta increases": SimpleNamespace(
                grid=good.grid, eta_trace=[1.0, 2.0], psl_db_after=good.psl_db_after
            ),
            "psl mismatch": SimpleNamespace(
                grid=good.grid, eta_trace=good.eta_trace, psl_db_after=good.psl_db_after + 0.1
            ),
        }
        if family == "psk":
            faults["phase"] = with_entry(used, x * np.exp(2j * spec.eps_p))
            faults["amplitude"] = with_entry(used, 0.5 * x)
        else:
            faults["disc"] = with_entry(used, x + 2.0 * spec.eps_r)
        for fault, report in faults.items():
            assert gate.optimize_problems(report, ref, spec, mask, w), (family, fault)
    assert gate.probability_problems("p", [0.5, 1.2])
    assert gate.probability_problems("p", [np.nan])
    assert not gate.probability_problems("p", [0.0, 1.0])
    assert run.tail(np.arange(20.0)) == (19.0, 100.0, 20)
    assert run.tail(np.arange(21.0)) == (10.0, 100.0 * 11 / 21, 21)
    assert run.tail(np.arange(100.0))[:2] == (89.0, 90.0)
    print("ok  gate rejects every fault kind")


def check_without_src() -> None:
    """With only BENCHMARK.json and perfbench/, the command exits non-zero and prints no result."""
    run.RESULTS.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.RESULTS) as tmp:
        shutil.copy(run.ROOT / "BENCHMARK.json", tmp)
        shutil.copytree(run.HERE, os.path.join(tmp, "perfbench"),
                        ignore=shutil.ignore_patterns("results", "__pycache__"))
        env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "optimize-default",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=tmp, env=env, capture_output=True, text=True, timeout=120,
        )
    assert proc.returncode != 0 and not proc.stdout.strip(), (proc.returncode, proc.stdout)
    print(f"ok  without src/: exit code {proc.returncode}, no result printed")


def main() -> int:
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    check_gate()
    check_runs(bench)
    check_without_src()
    print("smoke test passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
