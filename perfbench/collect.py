"""Run every workload over ten seeds and record medians and spreads.

    python3 perfbench/collect.py --label baseline

Runs seeds 1..10 of every workload for BENCHMARK.json's run_seconds,
the workloads taking turns within each seed, then one traced run per
workload. Writes perfbench/results/<label>.json. For each workload it
holds:

- each end-to-end metric's median, quartiles and spread over the runs,
  with the run count and the number of passes behind each run;
- the same summary of each run's raw (unpaced) median wall time;
- for the scans, each run's certificate-latency p50 and p99 summarised
  over the runs, with the number of certificates behind each run;
- the per-layer metrics of one traced run (the first seed).

Spread is (Q3 - Q1) / median, with quartiles as
statistics.quantiles(values, n=4) gives them.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402

SEEDS = range(1, 11)
SECONDS = json.loads((HERE.parent / "BENCHMARK.json").read_text())["run_seconds"]
RUN_TIMEOUT_S = 200
PASSES = re.compile(r"passes (\d+)")
RAW_WALL = re.compile(r"raw times\s+setup [\d.]+ s, wall ([\d.]+) s")
CASES = re.compile(r"case_p50_ms\s+([\d.]+) ms\s+case_p99_ms ([\d.]+) ms\s+\(n=(\d+)")


def run_once(workload: str, seed: int, trace: int) -> tuple[dict, str]:
    cmd = [
        sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
        "--seconds", str(SECONDS), "--trace", str(trace),
    ]
    proc = subprocess.run(cmd, cwd=HERE.parent, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed} failed with exit code {proc.returncode}:\n{proc.stdout}")
    return json.loads(lines[-1]), proc.stdout


def summarize(values: list[float]) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "spread": (q3 - q1) / q2, "n": len(values)}


def machine() -> dict:
    """Interpreter, CPU model and CPU count of the machine the figures were taken on."""
    model = platform.processor()
    try:
        with open("/proc/cpuinfo") as handle:
            model = next((line.split(":", 1)[1].strip() for line in handle if line.startswith("model name")), model)
    except OSError:
        pass
    return {"python": platform.python_version(), "cpu": model, "cpus": len(os.sched_getaffinity(0))}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="run every workload over ten seeds")
    parser.add_argument("--label", required=True)
    args = parser.parse_args(argv)

    out = {"label": args.label, "machine": machine(), "seconds": SECONDS, "order": "round-robin", "workloads": {}}
    runs = {workload: [] for workload in WORKLOADS}
    # workloads take turns, so a slow spell of the machine falls on all of them alike
    for seed in SEEDS:
        for workload in WORKLOADS:
            report, text = run_once(workload, seed, 0)
            runs[workload].append((report, text))
            print(workload, seed, json.dumps(report["metrics"]), flush=True)
    for workload in WORKLOADS:
        reports = [report for report, _ in runs[workload]]
        texts = [text for _, text in runs[workload]]
        entry = {
            "seeds": list(SEEDS),
            "passes_per_run": [int(PASSES.search(text).group(1)) for text in texts],
            "attempted": sum(r["attempted"] for r in reports),
            "failed": sum(r["failed"] for r in reports),
            "end_to_end": {},
        }
        for name, metric in reports[0]["metrics"].items():
            values = [r["metrics"][name]["value"] for r in reports]
            entry["end_to_end"][name] = dict(summarize(values), unit=metric["unit"], values=values)
        raw_walls = [float(RAW_WALL.search(text).group(1)) for text in texts]
        entry["raw_wall_s"] = dict(summarize(raw_walls), unit="s", values=raw_walls)
        cases = [CASES.search(text) for text in texts]
        if all(cases):
            entry["case_latency_ms"] = {
                "p50_median_over_runs": summarize([float(m.group(1)) for m in cases]),
                "p99_median_over_runs": summarize([float(m.group(2)) for m in cases]),
                "samples_per_run": [int(m.group(3)) for m in cases],
            }
        traced, _ = run_once(workload, SEEDS[0], 1)
        entry["per_layer_seed"] = SEEDS[0]
        entry["per_layer"] = {name: m["value"] for name, m in traced["metrics"].items()}
        out["workloads"][workload] = entry

    results = HERE / "results"
    results.mkdir(exist_ok=True)
    (results / f"{args.label}.json").write_text(json.dumps(out, indent=1) + "\n")
    for workload, entry in out["workloads"].items():
        for name, m in entry["end_to_end"].items():
            print(f"{workload:11s} {name:12s} median {m['median']:.6g} {m['unit']}  spread {m['spread']:.3f}  (n={m['n']})")
        m = entry["raw_wall_s"]
        print(f"{workload:11s} {'raw wall':12s} median {m['median']:.6g} s  spread {m['spread']:.3f}  (n={m['n']})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
