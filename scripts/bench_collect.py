"""Merge perfbench result files into one BENCH_<n>.json at the repository root.

    python3 scripts/bench_collect.py 7 parent=../parent/perfbench/results change=perfbench/results

Each LABEL=DIR argument names a results directory written by
`python3 perfbench/run.py` (default: change=perfbench/results).  For every
label the output keeps each `<workload>-seed<n>-trace<0|1>.json` run of both
workloads, with its environment record (the sweep curves are dropped), and a
summary: per workload, the median and quartiles of each end-to-end metric
over the untraced runs.  With two or more labels it also counts, per metric,
the seeds on which each later label beats the first, using the direction
that BENCHMARK.json gives.
"""

from __future__ import annotations

import argparse
import json
import re
import statistics
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN_NAME = re.compile(r"(?P<workload>.+)-seed(?P<seed>\d+)-trace(?P<trace>[01])")


def load_runs(directory: Path) -> dict[str, dict]:
    runs = {}
    for path in sorted(directory.glob("*-trace[01].json")):
        if not RUN_NAME.fullmatch(path.stem):
            continue
        result = json.loads(path.read_text())
        result.get("notes", {}).pop("curves", None)
        runs[path.stem] = result
    return runs


def untraced(runs: dict[str, dict]) -> dict[str, dict[int, dict]]:
    """{workload: {seed: end-to-end metrics}} over the trace0 runs."""
    out: dict[str, dict[int, dict]] = {}
    for stem, result in runs.items():
        m = RUN_NAME.fullmatch(stem)
        if m["trace"] == "0":
            out.setdefault(m["workload"], {})[int(m["seed"])] = result["end_to_end"]
    return out


def summarize(by_seed: dict[int, dict]) -> dict[str, dict]:
    summary = {}
    for metric in next(iter(by_seed.values())):
        values = [e2e[metric] for e2e in by_seed.values()]
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
        summary[metric] = {"median": statistics.median(values), "q1": q1, "q3": q3,
                           "runs": len(values)}
    return summary


def pair_wins(base: dict[int, dict], other: dict[int, dict], better: dict[str, str]) -> dict:
    seeds = sorted(set(base) & set(other))
    wins = {}
    for metric, direction in better.items():
        sign = 1.0 if direction == "higher" else -1.0
        won = sum(sign * (other[s][metric] - base[s][metric]) > 0 for s in seeds)
        wins[metric] = {"wins": won, "pairs": len(seeds)}
    return wins


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("number", type=int, help="n in the output name BENCH_<n>.json")
    parser.add_argument("dirs", nargs="*", default=[f"change={ROOT / 'perfbench' / 'results'}"],
                        help="LABEL=DIR results directories; the first is the baseline")
    args = parser.parse_args(argv)
    better = {m["name"]: m["better"]
              for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]}

    bench: dict = {"number": args.number, "labels": {}}
    seeds_by_label = {}
    for item in args.dirs:
        label, sep, directory = item.partition("=")
        if not sep:
            parser.error(f"expected LABEL=DIR, got {item!r}")
        runs = load_runs(Path(directory))
        if not runs:
            parser.error(f"no perfbench results in {directory}")
        seeds_by_label[label] = untraced(runs)
        bench["labels"][label] = {
            "runs": runs,
            "summary": {w: summarize(s) for w, s in seeds_by_label[label].items()},
        }
    base_label, *others = seeds_by_label
    for label in others:
        bench["labels"][label]["wins_over_" + base_label] = {
            w: pair_wins(seeds_by_label[base_label][w], s, better)
            for w, s in seeds_by_label[label].items() if w in seeds_by_label[base_label]
        }
    out = ROOT / f"BENCH_{args.number}.json"
    out.write_text(json.dumps(bench, indent=1, default=float) + "\n")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
