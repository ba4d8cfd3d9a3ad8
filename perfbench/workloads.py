"""The four workloads: seeded input generation, timed bodies and output checks.

Every request goes through ``class_spectrum.cli.main`` in-process, as a
user's command line would, except the three sweeps of ``primes``, which
are library calls. The seed reaches only ``generate_inputs``; the program
sees the generated (kind, n, t) triples and degree lists.
"""

from __future__ import annotations

import bisect
import contextlib
import io
import json
import math
import random
from pathlib import Path
from time import perf_counter

from check import Tally, digest, load_reference, matches_digest, mismatched_keys

WORKLOADS = ("scan", "scan-jobs2", "tables", "primes")

SCAN_START, SCAN_STOP = 23, 1361
SCAN_KINDS = ("sym", "alt")
SPECTRUM_N = 45
HZ_MAX_M = 33
# the largest family the scan builds: n=1360 sym with t* = 2r = 1327 + 33
HEIGHT_FAMILY = ("sym", 1360, 1327)
OMEGA_SWEEP = (1362, 10**6)
SIEVE_LIMIT = 10**7
SIEVE_CHECKPOINTS = (10**3, 10**4, 10**5, 10**6, 10**7)
CHEBYSHEV = (10, 10**5)
# `omega --n` lists the primes of (n/2, n] one by one, so it costs ~60 ms at n = 10^6
OMEGA_QUERIES = 16
BOUNDS_QUERIES = 200
QUERY_RANGE = (23, 10**6)


def jobs_for(workload: str) -> int:
    return 2 if workload == "scan-jobs2" else 1


def table_limit(workload: str) -> int:
    """Degree bound of the primality table built during set-up."""
    return OMEGA_SWEEP[1] if workload == "primes" else SCAN_STOP


# -- input generation -----------------------------------------------------


def fpf_partitions(m: int, max_part: int | None = None):
    """Partitions of m into parts >= 2, as descending tuples."""
    if m == 0:
        yield ()
        return
    for k in range(min(m, max_part or m), 1, -1):
        for rest in fpf_partitions(m - k, k):
            yield (k,) + rest


def sym_psi_values(n: int, t: int) -> list[int]:
    """Sym_n class sizes of elements moving 2..n-t points: C(n, j) * j! / z."""
    values = set()
    for j in range(2, n - t + 1):
        choose_fact = math.comb(n, j) * math.factorial(j)
        for parts in fpf_partitions(j):
            z = 1
            for k in set(parts):
                mult = parts.count(k)
                z *= k**mult * math.factorial(mult)
            values.add(choose_fact // z)
    return sorted(values)


def stratified(rng: random.Random, lo: int, hi: int, k: int) -> list[int]:
    """One uniform draw from each of k equal slices of [lo, hi].

    Query cost grows with the degree, so one draw per slice keeps the
    total cost of a pass nearly independent of the seed.
    """
    width = (hi - lo + 1) / k
    return [rng.randint(lo + int(i * width), lo + int((i + 1) * width) - 1) for i in range(k)]


def generate_inputs(workload: str, seed: int, workdir: Path) -> dict:
    rng = random.Random(seed)
    if workload in ("scan", "scan-jobs2"):
        return {"start": SCAN_START, "stop": SCAN_STOP, "jobs": jobs_for(workload)}
    if workload == "tables":
        height_input = workdir / "height_input.txt"
        height_input.write_text("\n".join(map(str, sym_psi_values(*HEIGHT_FAMILY[1:]))) + "\n")
        # one degree per (kind, residual support) of the scan's winning
        # strategies, so the seed varies the degrees but not the family sizes
        pool = load_reference("tables")["family_pool"]
        families = []
        for kind in SCAN_KINDS:
            for m, degrees in sorted(pool[kind].items(), key=lambda item: int(item[0])):
                n = rng.choice(degrees)
                families.append((kind, n, n - int(m)))
        return {"height_input": str(height_input), "families": families}
    if workload == "primes":
        return {
            "omega_degrees": stratified(rng, *QUERY_RANGE, OMEGA_QUERIES),
            "bounds_xs": stratified(rng, *QUERY_RANGE, BOUNDS_QUERIES),
        }
    raise ValueError(f"unknown workload {workload!r}")


# -- timed bodies ------------------------------------------------------------


def cli_request(main, argv: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    t0 = perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    except Exception as exc:  # a request that raises is a failed operation, not a benchmark crash
        code = f"raised {type(exc).__name__}: {exc}"
    seconds = perf_counter() - t0
    return {"argv": argv, "code": code, "stdout": out.getvalue(), "stderr": err.getvalue(), "seconds": seconds}


def scan_argv(inputs: dict, out_dir: Path) -> list[str]:
    return [
        "verify", "scan",
        "--from", str(inputs["start"]), "--to", str(inputs["stop"]),
        "--kinds", ",".join(SCAN_KINDS),
        "--jobs", str(inputs["jobs"]),
        "--out", str(out_dir),
    ]


def spectrum_argv(kind: str, n: int, cache_dir: Path, family: str = "full", t: int | None = None) -> list[str]:
    argv = ["spectrum", "--kind", kind, "--n", str(n), "--family", family, "--format", "json"]
    if t is not None:
        argv += ["--t", str(t)]
    return argv + ["--cache-dir", str(cache_dir)]


def run_body(workload: str, inputs: dict, workdir: Path, lib) -> dict:
    """Run the workload's timed body; returns raw outputs for checking."""
    main = lib.cli.main
    if workload in ("scan", "scan-jobs2"):
        out_dir = workdir / "scan_out"
        return {"requests": [cli_request(main, scan_argv(inputs, out_dir))], "out_dir": str(out_dir)}
    if workload == "tables":
        cache_dir = workdir / "cache"
        requests = []
        for phase in ("cold", "warm"):
            for kind in SCAN_KINDS:
                requests.append(cli_request(main, spectrum_argv(kind, SPECTRUM_N, cache_dir)))
        requests.append(cli_request(main, ["hz-table", "--max-m", str(HZ_MAX_M), "--format", "json"]))
        requests.append(cli_request(main, ["height", "--input", inputs["height_input"]]))
        for kind, n, t in inputs["families"]:
            for family in ("psi", "phi"):
                requests.append(cli_request(main, spectrum_argv(kind, n, cache_dir, family, t)))
        return {"requests": requests}
    if workload == "primes":
        t0 = perf_counter()
        sweep = lib.verify.omega_sweep(*OMEGA_SWEEP)
        omega_seconds = perf_counter() - t0
        table = lib.primes.sieve(SIEVE_LIMIT)
        cheb = lib.primes.chebyshev_sweep(*CHEBYSHEV)
        requests = [cli_request(main, ["omega", "--n", str(n), "--format", "json"]) for n in inputs["omega_degrees"]]
        requests += [cli_request(main, ["bounds", "--x", str(x), "--format", "json"]) for x in inputs["bounds_xs"]]
        return {
            "requests": requests,
            "omega_sweep": sweep,
            "omega_seconds": omega_seconds,
            "sieve": table,
            "chebyshev": cheb,
        }
    raise ValueError(f"unknown workload {workload!r}")


def operations(workload: str, outputs: dict) -> int:
    """Operations behind ops_per_s: certificates for the scans, else requests and sweeps."""
    if workload in ("scan", "scan-jobs2"):
        return (SCAN_STOP - SCAN_START + 1) * len(SCAN_KINDS)
    if workload == "tables":
        return len(outputs["requests"])
    return len(outputs["requests"]) + 3


# -- output checks -------------------------------------------------------------


def read_certificates(out_dir: Path) -> list[dict]:
    path = Path(out_dir) / "certificates.jsonl"
    if not path.exists():
        return []
    certs = []
    for line in path.read_text().splitlines():
        try:
            certs.append(json.loads(line))
        except ValueError:
            continue  # an unreadable line leaves its certificate missing, which counts as a failure
    return certs


def check_scan(outputs: dict, tally: Tally) -> list[dict]:
    """One operation per certificate and one for the request itself; returns the certificates."""
    ref = load_reference("scan")
    request = outputs["requests"][0]
    out_dir = Path(outputs["out_dir"])
    certs = read_certificates(out_dir)
    summary_ok = False
    try:
        summary = json.loads((out_dir / "summary.json").read_text())
        summary_ok = not mismatched_keys(summary, ref["summary"])
        with (out_dir / "certificates.csv").open() as handle:
            csv_rows = sum(1 for _ in handle) - 1
    except (OSError, ValueError):
        csv_rows = -1
    tally.record(
        request["code"] == 0
        and "RESULT: PASS" in request["stdout"]
        and summary_ok
        and csv_rows == len(ref["certificates"]),
        f"scan request: exit {request['code']}, summary ok {summary_ok}, csv rows {csv_rows}",
    )
    keys = ref["certificate_keys"]
    seen = {}
    for cert in certs:
        seen[f"{cert.get('n')}/{cert.get('kind')}"] = cert
    for label, expected in ref["certificates"].items():
        cert = seen.pop(label, None)
        tally.record(cert is not None and matches_digest(cert, keys, expected), f"certificate {label}")
    for label in seen:
        tally.record(False, f"unexpected certificate {label}")
    return certs


def _values(request: dict):
    try:
        return json.loads(request["stdout"])["values"]
    except (ValueError, KeyError, TypeError):
        return None


def _parse_height(stdout: str):
    lines = stdout.splitlines()
    if len(lines) < 2 or not lines[0].isdigit() or not lines[1].startswith("witness:"):
        return None
    return {"height": int(lines[0]), "witness": lines[1].split()[1:]}


def check_tables(outputs: dict, tally: Tally) -> None:
    ref = load_reference("tables")
    requests = list(outputs["requests"])
    for request in requests[:4]:
        kind = request["argv"][2]
        values = _values(request)
        expected = ref["spectrum"][kind]
        ok = request["code"] == 0 and values is not None and len(values) == expected["count"]
        tally.record(ok and digest(values) == expected["digest"], f"spectrum {kind} n={SPECTRUM_N}")
    hz = requests[4]
    try:
        rows = json.loads(hz["stdout"])
    except ValueError:
        rows = []
    rows_by_m = {row.get("m"): row for row in rows if isinstance(row, dict)}
    bad = [
        row["m"]
        for row in ref["hz_table"]
        if row["m"] not in rows_by_m or mismatched_keys(rows_by_m[row["m"]], row)
    ]
    tally.record(hz["code"] == 0 and not bad and len(rows) == len(ref["hz_table"]), f"hz-table rows {bad}")
    height = _parse_height(requests[5]["stdout"])
    expected = ref["height"]
    tally.record(
        requests[5]["code"] == 0
        and height is not None
        and height["height"] == expected["height"]
        and digest(height["witness"]) == expected["witness_digest"],
        "height of the largest scan family",
    )
    for request in requests[6:]:
        argv = request["argv"]
        label = f"{argv[6]}/{argv[2]}/{argv[4]}/{argv[10]}"
        values = _values(request)
        expected = ref["families"].get(label)
        tally.record(
            request["code"] == 0 and values is not None and digest(values) == expected,
            f"family {label}",
        )


def _sieve_flags(limit: int) -> bytearray:
    flags = bytearray([1]) * (limit + 1)
    flags[0:2] = b"\x00\x00"
    for p in range(2, math.isqrt(limit) + 1):
        if flags[p]:
            flags[p * p :: p] = bytes(len(range(p * p, limit + 1, p)))
    return flags


def chebyshev_summary(result) -> dict:
    """Count and digest of each violation list; the upper list alone has ~80,000 entries."""
    out = {"checked": result.checked}
    for side in ("lower", "upper", "gap"):
        xs = list(getattr(result, f"{side}_violations"))
        out[side] = {"count": len(xs), "digest": digest(xs)}
    return out


def check_primes(outputs: dict, tally: Tally) -> None:
    """Sweeps against the committed reference; seeded queries against an independent sieve."""
    ref = load_reference("primes")
    sweep = outputs["omega_sweep"]
    tally.record(
        sweep.checked == ref["omega_sweep"]["checked"]
        and [f.n for f in sweep.failures] == ref["omega_sweep"]["failures"],
        "omega_sweep failure list",
    )
    table = outputs["sieve"]
    counts = {str(x): table.count(x) for x in SIEVE_CHECKPOINTS}
    tally.record(table.limit == SIEVE_LIMIT and counts == ref["sieve_counts"], f"sieve counts {counts}")
    got = chebyshev_summary(outputs["chebyshev"])
    tally.record(not mismatched_keys(got, ref["chebyshev"]), "chebyshev_sweep violations")

    flags = _sieve_flags(QUERY_RANGE[1])
    primes = [k for k, f in enumerate(flags) if f]
    for request in outputs["requests"]:
        argv = request["argv"]
        try:
            data = json.loads(request["stdout"])
        except ValueError:
            data = {}
        x = int(argv[2])
        upto = bisect.bisect_right(primes, x)
        p = primes[upto - 1]
        if argv[0] == "omega":
            omega = [str(k) for k in primes[bisect.bisect_right(primes, x // 2) : upto]]
            ratio = math.prod(range(p + 1, x + 1))
            holds = (1 << len(omega)) > ratio
            expected = {
                "n": x,
                "omega": omega,
                "p": p,
                "count": len(omega),
                "ratio_bits": ratio.bit_length(),
                "pow2_bits": len(omega) + 1,
                "verdict": "PASS" if holds else "FAIL",
            }
            code = 0 if holds else 1
        else:
            expected = {
                "x": x,
                "pi_exact": upto,
                "p": p,
                "gap": x - p,
                "gap_bound_holds": (x - p) ** 40 < x**21,
            }
            code = 0
        tally.record(request["code"] == code and not mismatched_keys(data, expected), f"{argv[0]} {x}")


def check(workload: str, outputs: dict, tally: Tally):
    if workload in ("scan", "scan-jobs2"):
        return check_scan(outputs, tally)
    if workload == "tables":
        return check_tables(outputs, tally)
    return check_primes(outputs, tally)
