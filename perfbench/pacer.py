"""Host-speed pacer: times a fixed pure-Python kernel beside the passes.

    python3 perfbench/pacer.py --cpu 0 --log FILE

run.py starts one pacer per CPU a pass may use (``Pacers``) and stops
them when the run ends.

On a shared host the same pass can run at very different speeds from
one minute to the next, as other tenants load the physical cores. The
pacer runs at the lowest priority on a CPU that a pass uses. Every
INTERVAL_S it wakes and times a note, BATCH runs of a fixed kernel, in
its own CPU time, which measures how fast the core is at that moment;
then it sleeps again. So it takes about 2% of that CPU, whether a pass
keeps the CPU busy or not, and its notes are spread evenly over time. run.py divides a pass's wall time by the
kernel's cost over the same interval, and multiplies by the kernel's
cost at nominal host speed, to get the pass's time at nominal speed.

The kernel is the benchmark's own and never changes with the program,
so a faster program still shows as a faster pass. It is a small
divisibility DP over fixed big integers, the same mix of Python loops,
list indexing and big-integer remainders that dominates the scans.

For each note the pacer keeps the clock at its end (time.perf_counter,
the same monotonic clock the workers use) and its CPU cost. On SIGTERM
it writes the notes as JSON to --log and exits. It prints "ready" once
its first note is taken, and exits by itself if run.py is gone.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys
import subprocess
from pathlib import Path
from time import perf_counter, process_time, sleep

BATCH = 4
INTERVAL_S = 0.05
# CPU seconds of one note (BATCH kernels) at nominal host speed. A fixed
# scale: on a shared 2-vCPU Xeon guest with Python 3.11, a note took
# 0.65 ms in quiet spells and up to 1.0 ms under load
NOMINAL_NOTE_S = 0.0009
# fewest notes a window may hold before its cost is trusted
MIN_NOTES = 3
# 50 integers of 8..251 bits sharing small prime factors, so some remainders are 0
VALUES = sorted({(2**a) * (3**b) * (5 ** (a % 4)) * (7 ** (b % 3)) for a in range(1, 30, 3) for b in range(1, 170, 34)})


def kernel(values=VALUES) -> int:
    """Length of the longest divisibility chain in values, by the quadratic DP."""
    dp = [1] * len(values)
    for i in range(1, len(values)):
        vi = values[i]
        best = 1
        for j in range(i):
            if dp[j] >= best and vi % values[j] == 0:
                best = dp[j] + 1
        dp[i] = best
    return max(dp)


def note_cost(log: dict, start: float, end: float) -> float:
    """Mean CPU seconds of the notes that ended within [start, end]."""
    costs = [cost for clock, cost in zip(log["clock"], log["cost"]) if start <= clock <= end]
    if len(costs) < MIN_NOTES:
        raise ValueError(f"the pacer took {len(costs)} notes in a window of {end - start:.3f} s")
    return sum(costs) / len(costs)


class Pacers:
    """One pacer process per CPU, running from construction until stop(), which returns their logs."""

    def __init__(self, cpus, workdir: Path):
        self.logs = {cpu: workdir / f"pacer-{cpu}.json" for cpu in cpus}
        self.procs = {}
        try:
            for cpu, log in self.logs.items():
                cmd = [sys.executable, __file__, "--cpu", str(cpu), "--log", str(log)]
                self.procs[cpu] = subprocess.Popen(cmd, stdout=subprocess.PIPE)
            # each pacer says so once it can be stopped and has taken a note
            for proc in self.procs.values():
                proc.stdout.readline()
        except BaseException:
            self.stop()
            raise

    def stop(self) -> dict:
        for proc in self.procs.values():
            if proc.poll() is None:
                proc.terminate()
        for proc in self.procs.values():
            proc.wait()
            proc.stdout.close()
        return {cpu: json.loads(log.read_text()) for cpu, log in self.logs.items() if log.exists()}


def slowdown(logs: dict, cpus, start: float, end: float) -> float:
    """How much slower than nominal the host ran over [start, end], averaged over cpus."""
    costs = [note_cost(logs[cpu], start, end) for cpu in cpus]
    return sum(costs) / len(costs) / NOMINAL_NOTE_S


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--cpu", required=True, type=int)
    parser.add_argument("--log", required=True)
    args = parser.parse_args(argv)

    os.sched_setaffinity(0, {args.cpu})
    os.nice(19)
    clock, cost = [], []

    def stop(signum, frame):
        with open(args.log, "w") as handle:
            json.dump({"clock": clock, "cost": cost}, handle)
        sys.exit(0)

    signal.signal(signal.SIGTERM, stop)
    parent = os.getppid()
    while os.getppid() == parent:
        started = process_time()
        for _ in range(BATCH):
            kernel()
        cost.append(process_time() - started)
        clock.append(perf_counter())
        if len(clock) == 1:
            print("ready", flush=True)
        sleep(INTERVAL_S)
    return 1


if __name__ == "__main__":
    sys.exit(main())
