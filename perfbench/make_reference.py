"""Regenerate the committed reference outputs under perfbench/reference/.

    python3 perfbench/make_reference.py

Run it only on a commit whose outputs are known to be right: the
benchmark counts every later difference from these files as a failure.
Certificates, spectra and families are stored as digests (certificates
over every key except ``elapsed``); the summary, the hz-table rows and
the omega_sweep failure list are stored in full.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads as w  # noqa: E402
from check import REFERENCE_DIR, digest  # noqa: E402
from worker import load_library  # noqa: E402

POOL_PER_SUPPORT = 4


def spread(items: list, k: int) -> list:
    """Up to k items taken evenly across a sorted list, ends included."""
    if len(items) <= k:
        return list(items)
    return [items[round(i * (len(items) - 1) / (k - 1))] for i in range(k)]


def main() -> int:
    scratch = HERE / "out" / "make-reference"
    shutil.rmtree(scratch, ignore_errors=True)
    scratch.mkdir(parents=True)
    os.environ["CLASS_SPECTRUM_CACHE"] = str(scratch / "user-cache")
    os.environ["XDG_CACHE_HOME"] = str(scratch / "xdg-cache")
    lib = load_library()
    main_ = lib.cli.main

    out_dir = scratch / "scan"
    request = w.cli_request(main_, w.scan_argv({"start": w.SCAN_START, "stop": w.SCAN_STOP, "jobs": 1}, out_dir))
    if request["code"] != 0:
        raise SystemExit(f"scan failed: {request['stderr']}")
    certs = w.read_certificates(out_dir)
    keys = sorted(k for k in certs[0] if k != "elapsed")
    pool = defaultdict(lambda: defaultdict(list))
    for cert in certs:
        pool[cert["kind"]][cert["support_m"]].append(cert["n"])
    scan_ref = {
        "certificate_keys": keys,
        "certificates": {f"{c['n']}/{c['kind']}": digest({k: c[k] for k in keys}) for c in certs},
        "summary": json.loads((out_dir / "summary.json").read_text()),
    }

    cache_dir = scratch / "cache"
    spectrum_ref = {}
    for kind in w.SCAN_KINDS:
        values = json.loads(w.cli_request(main_, w.spectrum_argv(kind, w.SPECTRUM_N, cache_dir))["stdout"])["values"]
        spectrum_ref[kind] = {"count": len(values), "digest": digest(values)}
    hz_rows = json.loads(w.cli_request(main_, ["hz-table", "--max-m", str(w.HZ_MAX_M), "--format", "json"])["stdout"])
    height_input = scratch / "height_input.txt"
    height_input.write_text("\n".join(map(str, w.sym_psi_values(*w.HEIGHT_FAMILY[1:]))) + "\n")
    height = w._parse_height(w.cli_request(main_, ["height", "--input", str(height_input)])["stdout"])
    family_pool = {
        kind: {str(m): spread(sorted(ns), POOL_PER_SUPPORT) for m, ns in sorted(by_m.items())}
        for kind, by_m in pool.items()
    }
    families = {}
    for kind, by_m in family_pool.items():
        for m, degrees in by_m.items():
            for n in degrees:
                t = n - int(m)
                for family in ("psi", "phi"):
                    request = w.cli_request(main_, w.spectrum_argv(kind, n, cache_dir, family, t))
                    families[f"{family}/{kind}/{n}/{t}"] = digest(json.loads(request["stdout"])["values"])
    tables_ref = {
        "spectrum": spectrum_ref,
        "hz_table": hz_rows,
        "height": {"height": height["height"], "witness_digest": digest(height["witness"])},
        "family_pool": family_pool,
        "families": families,
    }

    sweep = lib.verify.omega_sweep(*w.OMEGA_SWEEP)
    table = lib.primes.sieve(w.SIEVE_LIMIT)
    cheb = lib.primes.chebyshev_sweep(*w.CHEBYSHEV)
    primes_ref = {
        "omega_sweep": {"checked": sweep.checked, "failures": [f.n for f in sweep.failures]},
        "sieve_counts": {str(x): table.count(x) for x in w.SIEVE_CHECKPOINTS},
        "chebyshev": w.chebyshev_summary(cheb),
    }

    REFERENCE_DIR.mkdir(exist_ok=True)
    for name, ref in (("scan", scan_ref), ("tables", tables_ref), ("primes", primes_ref)):
        (REFERENCE_DIR / f"{name}.json").write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")
    shutil.rmtree(scratch)
    return 0


if __name__ == "__main__":
    sys.exit(main())
