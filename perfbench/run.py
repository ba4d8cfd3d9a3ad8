"""Benchmark entry point for class-spectrum.

    python3 perfbench/run.py --workload scan --seed 1 --seconds 30 --trace 0

Runs from the root of a source checkout. Each pass of a workload runs in
a fresh interpreter (perfbench/worker.py), so module-level state
(``shared_table``, ``_fpf_profile``, ``_moved_heights``) is cold on every
pass, as it is for a command-line user. Passes repeat until --seconds is
used up, at least one; set-up is also timed on its own in at least
MIN_SETUPS more fresh interpreters, run between the passes.

Workers are pinned to the first CPU, or the first two for scan-jobs2,
and a pacer (perfbench/pacer.py) runs at the lowest priority on each of
those CPUs. Every timing is divided by how much slower than nominal the
pacer found the host over the same interval, so the end-to-end times are
times at nominal host speed; the raw times are printed beside them.

--trace 0 prints the end-to-end metrics; --trace 1 runs one traced pass
and prints the per-layer metrics, with names and units as BENCHMARK.json
lists them. The last line of standard output is one JSON object with the
keys correct, attempted, failed and metrics. The exit code is 0 only when every output matched
the committed references.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
from pathlib import Path
from statistics import median
from time import monotonic, perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from check import Tally  # noqa: E402
from pacer import Pacers, slowdown  # noqa: E402
from stats import percentile, tail_percentile  # noqa: E402
from workloads import WORKLOADS, jobs_for  # noqa: E402

# set-up is timed in set-up-only interpreters between the passes, at least MIN_SETUPS times
SETUPS_PER_PASS = 4
MIN_SETUPS = 20
# a run must end within 180 s; leave room for the last pass to be killed and reported
DEADLINE_S = 170
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
OPS_NAME = {"scan": "certs_per_s", "scan-jobs2": "certs_per_s", "tables": "requests_per_s", "primes": "requests_and_sweeps_per_s"}


class RunError(Exception):
    pass


def child_env(workdir: Path) -> dict:
    """Environment that keeps the program away from the user's cache and temp directories."""
    env = dict(os.environ)
    env["CLASS_SPECTRUM_CACHE"] = str(workdir / "user-cache")
    env["XDG_CACHE_HOME"] = str(workdir / "xdg-cache")
    env["TMPDIR"] = str(workdir / "tmp")
    env.pop("PYTHONPATH", None)
    return env


class Runner:
    def __init__(self, workload: str, seed: int, workdir: Path, cpus: list[int]):
        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        self.cpus = cpus
        self.deadline = monotonic() + DEADLINE_S
        self.count = 0

    def worker(self, *extra: str, cpus=None) -> dict:
        """Run one worker pass in a fresh interpreter pinned to cpus (default: all of the run's) and return its result."""
        cpus = set(cpus or self.cpus)
        self.count += 1
        passdir = self.workdir / f"pass{self.count}"
        passdir.mkdir()
        env = child_env(passdir)
        (passdir / "tmp").mkdir()
        result_path = passdir / "result.json"
        cmd = [
            sys.executable, str(HERE / "worker.py"),
            "--workload", self.workload, "--seed", str(self.seed),
            "--workdir", str(passdir), "--result", str(result_path), *extra,
        ]
        timeout = self.deadline - monotonic()
        if timeout <= 0:
            raise RunError("out of time before a pass could start")
        try:
            proc = subprocess.run(
                cmd, env=env, cwd=ROOT, timeout=timeout, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                preexec_fn=lambda: os.sched_setaffinity(0, cpus),
            )
        except subprocess.TimeoutExpired:
            # subprocess.run kills the child and waits for it before raising
            raise RunError(f"pass {self.count} exceeded the {DEADLINE_S} s budget") from None
        if proc.returncode != 0 or not result_path.exists():
            raise RunError(f"pass {self.count} failed with exit code {proc.returncode}:\n{proc.stderr[-4000:]}")
        result = json.loads(result_path.read_text())
        shutil.rmtree(passdir)
        return result

    def setup_block(self) -> tuple[list[float], tuple[float, float]]:
        """SETUPS_PER_PASS set-up-only interpreters on the first CPU: their set-up times and the block's interval."""
        start = perf_counter()
        times = [self.worker("--setup-only", cpus=self.cpus[:1])["setup_s"] for _ in range(SETUPS_PER_PASS)]
        return times, (start, perf_counter())


def host_slowdown(logs: dict, cpus, start: float, end: float) -> float:
    """How much slower than nominal the pacers on cpus found the host over [start, end]."""
    try:
        return slowdown(logs, cpus, start, end)
    except (KeyError, ValueError) as exc:
        raise RunError(f"no host-speed reading for {end - start:.3f} s from {start:.3f}: {exc}") from None


def run(workload: str, seed: int, seconds: int, trace: bool, workdir: Path) -> tuple[dict, list[str]]:
    cpus = sorted(available_cpus())[: jobs_for(workload)]
    runner = Runner(workload, seed, workdir, cpus)
    passes = []
    if trace:
        spans_path = HERE / "out" / f"trace-{workload}.jsonl"
        passes.append(runner.worker("--trace", str(spans_path)))
    else:
        # set-ups run between the passes so that both sample the same machine load
        blocks = []
        pacers = Pacers(cpus, workdir)
        try:
            started = monotonic()
            while True:
                blocks.append(runner.setup_block())
                passes.append(runner.worker())
                elapsed = monotonic() - started
                if elapsed + elapsed / len(passes) > seconds:
                    break
            while len(blocks) * SETUPS_PER_PASS < MIN_SETUPS:
                blocks.append(runner.setup_block())
        finally:
            logs = pacers.stop()
        raw_setups = [t for times, _ in blocks for t in times]
        setup_factors = [host_slowdown(logs, cpus[:1], *window) for _, window in blocks]
        setups = [t / factor for (times, _), factor in zip(blocks, setup_factors) for t in times]
        raw_walls = [p["wall_s"] for p in passes]
        pass_factors = [host_slowdown(logs, cpus, p["body_start"], p["body_start"] + p["wall_s"]) for p in passes]
        walls = [wall / factor for wall, factor in zip(raw_walls, pass_factors)]

    tally = Tally()
    for p in passes:
        tally.merge(p["attempted"], p["failed"], p["problems"])
    lines = [f"workload {workload}  seed {seed}  passes {len(passes)}  trace {int(trace)}"]
    if trace:
        traced = passes[0]
        try:
            metrics = {m["name"]: traced["per_layer"][m["name"]] for m in BENCHMARK["per_layer"]}
        except KeyError as exc:
            raise RunError(f"the traced pass reports no {exc}") from None
        units = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
        lines.append(f"  traced wall {traced['wall_s']:.4f} s, of which the recorder is estimated at {traced['recorder_s']:.4f} s")
        for name, value in metrics.items():
            lines.append(f"  {name:48s} {value:.6g} {units[name]}")
    else:
        metrics = {
            "setup_s": median(setups),
            "wall_s": median(walls),
            "peak_rss_mb": max(p["peak_rss_mb"] for p in passes),
        }
        units = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
        lines += [
            f"  setup_s      {metrics['setup_s']:.4f} s    median of {len(setups)} set-ups",
            f"  wall_s       {metrics['wall_s']:.4f} s    median of {len(walls)} passes: {' '.join(f'{w:.3f}' for w in walls)}",
            f"  raw times    setup {median(raw_setups):.4f} s, wall {median(raw_walls):.4f} s: {' '.join(f'{w:.3f}' for w in raw_walls)}",
            f"  host slowdown  passes {' '.join(f'{f:.3f}' for f in pass_factors)}, set-ups {min(setup_factors):.3f}..{max(setup_factors):.3f}",
            f"  peak_rss_mb  {metrics['peak_rss_mb']:.1f} MB   max of {len(walls)} passes",
            f"  {OPS_NAME[workload]}  {median(p['ops_per_s'] for p in passes):.4f} 1/s  median of {len(walls)} passes",
        ]
        if workload == "primes":
            rates = [p["omega_degrees_per_s"] for p in passes]
            lines.append(f"  omega_degrees_per_s  {median(rates):.1f} 1/s  median of {len(rates)} sweeps of omega_sweep(1362, 10^6)")
        elapsed = [e for p in passes for e in p["case_elapsed"]]
        if elapsed:
            tail = tail_percentile(elapsed)
            lines.append(
                f"  case_p50_ms  {percentile(elapsed, 50) * 1e3:.4f} ms  case_p99_ms {percentile(elapsed, 99) * 1e3:.4f} ms"
                f"  (n={len(elapsed)}; highest percentile with ten beyond: p{tail[0]:g} = {tail[1] * 1e3:.4f} ms, {tail[2]} beyond)"
            )
    lines.append(f"  fail_ratio   {tally.failed}/{tally.attempted} = {tally.fail_ratio:.6g}")
    lines += [f"  problem: {msg}" for msg in tally.problems]
    report = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    return report, lines


def available_cpus() -> set[int]:
    return os.sched_getaffinity(0)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="class-spectrum benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "class_spectrum" / "cli.py").is_file():
        print(f"error: no class_spectrum sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    jobs = jobs_for(args.workload)
    if jobs > len(available_cpus()):
        print(f"error: {args.workload} needs --jobs {jobs}, above the {len(available_cpus())} available CPUs", file=sys.stderr)
        return 2

    # a terminated run still stops its pacers and workers on the way out
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(1))
    workdir = HERE / "out" / f"run-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        report, lines = run(args.workload, args.seed, args.seconds, bool(args.trace), workdir)
    except RunError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print("\n".join(lines))
    print(json.dumps(report))
    return 0 if report["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
