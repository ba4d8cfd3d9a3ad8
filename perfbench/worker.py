"""One pass of one workload, in a fresh interpreter.

    python3 perfbench/worker.py --workload scan --seed 1 --workdir DIR --result FILE [--setup-only] [--trace FILE]

Set-up (package import, primality table, input generation) is timed
separately from the workload body. The body's outputs are checked
against the committed references after the clock stops, and the result
is written as JSON to --result. With --trace the body runs under the span
recorder and the spans are written as JSONL to that file; the recorder's
own cost is then estimated from a calibration of its wrapper.
"""

from __future__ import annotations

import argparse
import importlib
import json
import resource
import sys
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

import spans
import workloads
from check import Tally

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def load_library() -> SimpleNamespace:
    """Import the program from the checkout's source tree."""
    sys.path.insert(0, str(SRC))
    return SimpleNamespace(
        **{name: importlib.import_module(f"class_spectrum.{name}") for name in ("cli", "verify", "primes")}
    )


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--workdir", required=True, type=Path)
    parser.add_argument("--result", required=True, type=Path)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace", type=Path, default=None)
    args = parser.parse_args(argv)

    started = perf_counter()
    lib = load_library()
    lib.primes.shared_table(workloads.table_limit(args.workload))
    inputs = workloads.generate_inputs(args.workload, args.seed, args.workdir)
    result = {"setup_s": perf_counter() - started}
    if args.setup_only:
        args.result.write_text(json.dumps(result))
        return 0

    recorder = None
    if args.trace is not None:
        recorder = spans.install(args.workload)
    started = perf_counter()
    try:
        outputs = workloads.run_body(args.workload, inputs, args.workdir, lib)
        wall = perf_counter() - started
    finally:
        if recorder is not None:
            recorder.uninstall()
    result["peak_rss_mb"] = peak_rss_mb()
    result["body_start"] = started
    result["wall_s"] = wall
    result["ops_per_s"] = workloads.operations(args.workload, outputs) / wall
    if args.workload == "primes":
        result["omega_degrees_per_s"] = (workloads.OMEGA_SWEEP[1] - workloads.OMEGA_SWEEP[0] + 1) / outputs["omega_seconds"]

    tally = Tally()
    certs = workloads.check(args.workload, outputs, tally) or []
    result.update(attempted=tally.attempted, failed=tally.failed, problems=tally.problems)
    result["case_elapsed"] = [c["elapsed"] for c in certs if isinstance(c.get("elapsed"), (int, float))]

    if recorder is not None:
        result["recorder_s"] = spans.recorder_cost(recorder, *spans.wrapper_costs())
        result["per_layer"] = spans.per_layer(
            recorder, result["case_elapsed"], wall, workloads.jobs_for(args.workload), result["recorder_s"]
        )
        recorder.write_jsonl(args.trace)
    args.result.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
