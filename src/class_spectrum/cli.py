"""Command-line front end.

Exit codes: 0 when every verdict is PASS (or the command has no verdict),
1 when at least one FAIL or INDETERMINATE was produced, 2 on usage or
internal errors. JSON output goes through verify.jsonable: integers inside
lists (class sizes, witness chains, prime sets) are decimal strings, and
scalar fields stay JSON numbers.

main(argv) may be called repeatedly in one process: it builds its argparse
parser once, on the first call, and returns the exit code instead of raising
SystemExit, also for --help, --version and usage errors.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from functools import cache
from pathlib import Path

from . import __version__
from .cache import SpectrumCache
from .classes import (
    DEFAULT_SPECTRUM_CAP,
    GroupKind,
    Spectrum,
    moved_class_sizes,
    phi_set,
    psi_set,
    spectrum,
)
from .divgraph import CONVENTIONS, EDGES, VERTICES, longest_chain
from .errors import DomainError, InvariantError
from .primes import bound_report, factorial_ratio, omega_set
from .verify import (
    CSV_FIELDS,
    DEFAULT_SUPPORT_CAP,
    FAIL,
    PASS,
    certificate_csv_row,
    check_case,
    check_omega_lemma,
    hz_table,
    jsonable,
    scan_range,
)


def dump_json(obj, compact: bool = True) -> str:
    if compact:
        return json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return json.dumps(obj, sort_keys=True, indent=2)


# argparse prints the text of an ArgumentTypeError from a type= callable, but
# replaces that of any other error with "invalid <name> value"
def _parse_kind(text: str) -> GroupKind:
    try:
        return GroupKind.parse(text)
    except DomainError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _parse_kinds(text: str) -> tuple[GroupKind, ...]:
    kinds = tuple(_parse_kind(part) for part in text.split(",") if part.strip())
    if not kinds:
        raise argparse.ArgumentTypeError("no group kinds given")
    if len(set(kinds)) < len(kinds):
        raise argparse.ArgumentTypeError(f"repeated group kind in {text!r}")
    return kinds


# built on the first call rather than at import; parse_args returns a fresh
# Namespace and leaves the parser as it was, so one parser serves every call
@cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="class-spectrum",
        description="Exact class-size spectra, divisibility-chain heights, and verification scans",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("spectrum", help="class-size families of Sym_n / Alt_n")
    sp.add_argument("--kind", required=True, type=_parse_kind)
    sp.add_argument("--n", required=True, type=int)
    sp.add_argument("--family", choices=["full", "moved", "phi", "psi"], default="full")
    sp.add_argument("--t", type=int, default=None, help="required for phi and psi")
    sp.add_argument("--format", choices=["json", "csv", "text"], default="text")
    sp.add_argument("--cap", type=int, default=DEFAULT_SPECTRUM_CAP, help="full-spectrum degree cap")
    sp.add_argument("--cache-dir", type=Path, default=None)
    sp.add_argument("--no-cache", action="store_true")
    sp.set_defaults(run=_cmd_spectrum)

    hp = sub.add_parser("height", help="divisibility-chain height of integers from a file")
    hp.add_argument("--input", required=True, type=Path, help="one decimal integer per line")
    hp.add_argument("--convention", choices=list(CONVENTIONS), default=VERTICES)
    hp.set_defaults(run=_cmd_height)

    op = sub.add_parser("omega", help="half-interval primes and the 2^|omega| vs n!/p! check")
    op.add_argument("--n", required=True, type=int)
    op.add_argument("--format", choices=["json", "text"], default="text")
    op.set_defaults(run=_cmd_omega)

    zp = sub.add_parser("hz-table", help="summed chain heights of fixed-point-free class sizes")
    zp.add_argument("--max-m", required=True, type=int)
    zp.add_argument("--kinds", type=_parse_kinds, default=(GroupKind.SYM, GroupKind.ALT))
    zp.add_argument("--format", choices=["json", "csv", "text"], default="text")
    zp.set_defaults(run=_cmd_hz_table)

    vp = sub.add_parser("verify", help="certificate-emitting case checks")
    vsub = vp.add_subparsers(dest="verify_command", required=True)

    vc = vsub.add_parser("case", help="single-degree certificate")
    vc.add_argument("--n", required=True, type=int)
    vc.add_argument("--kind", required=True, type=_parse_kind)
    vc.add_argument("--support-cap", type=int, default=DEFAULT_SUPPORT_CAP)
    vc.add_argument("--format", choices=["json", "text"], default="text")
    vc.set_defaults(run=_cmd_verify_case)

    vs = vsub.add_parser("scan", help="certificates for a degree range")
    vs.add_argument("--from", dest="start", required=True, type=int)
    vs.add_argument("--to", dest="stop", required=True, type=int)
    vs.add_argument("--kinds", type=_parse_kinds, default=(GroupKind.SYM, GroupKind.ALT))
    vs.add_argument("--jobs", type=int, default=1)
    vs.add_argument("--out", type=Path, default=None, help="directory for summary.json / certificates.csv")
    vs.add_argument("--support-cap", type=int, default=DEFAULT_SUPPORT_CAP)
    vs.set_defaults(run=_cmd_verify_scan)

    bp = sub.add_parser("bounds", help="pi(x) envelope and prime-gap diagnostics")
    bp.add_argument("--x", required=True, type=int)
    bp.add_argument("--format", choices=["json", "text"], default="text")
    bp.set_defaults(run=_cmd_bounds)

    return parser


def _compute_family(args) -> Spectrum:
    if args.family in ("phi", "psi") and args.t is None:
        raise DomainError(f"--family {args.family} requires --t")
    if args.family == "full":
        return spectrum(args.kind, args.n, cap=args.cap)
    if args.family == "moved":
        return moved_class_sizes(args.kind, args.n)
    if args.family == "phi":
        return phi_set(args.kind, args.n, args.t)
    return psi_set(args.kind, args.n, args.t)


def _cmd_spectrum(args) -> int:
    try:
        cache = SpectrumCache(root=args.cache_dir, enabled=not args.no_cache)
    except RuntimeError as exc:
        # no home directory to hold the default cache: the values are still computed and printed
        print(f"warning: spectrum cache not used: {exc}", file=sys.stderr)
        cache = SpectrumCache(enabled=False)
    key = {
        "op": "spectrum",
        "family": args.family,
        "kind": args.kind.value,
        "n": args.n,
        "t": args.t if args.family in ("phi", "psi") else None,
        "cap": args.cap if args.family == "full" else None,
        "version": __version__,
    }
    values = cache.get(key)
    if values is None:
        values = jsonable(_compute_family(args).values)
        try:
            cache.put(key, values)
        except OSError as exc:
            # the values are computed; an unwritable cache only costs the next call a recompute
            print(f"warning: spectrum cache not written: {exc}", file=sys.stderr)
    if args.format == "json":
        print(dump_json({"values": values}))
        return 0
    if args.format == "csv":
        print("value")
    for v in values:
        print(v)
    return 0


def _cmd_height(args) -> int:
    lines = map(str.strip, args.input.read_text().splitlines())
    h, witness = longest_chain(int(text) for text in lines if text)
    print(max(h - 1, 0) if args.convention == EDGES else h)
    print("witness:", " ".join(str(v) for v in witness))
    return 0


def _cmd_omega(args) -> int:
    data = omega_set(args.n)
    check = check_omega_lemma(args.n)
    verdict = PASS if check.holds else FAIL
    if args.format == "json":
        record = jsonable(data) | {"ratio_bits": check.ratio_bits, "pow2_bits": check.pow2_bits, "verdict": verdict}
        print(dump_json(record))
    else:
        print(f"n: {data.n}")
        print(f"p: {data.p}")
        print(f"count: {data.count}")
        print("omega:", " ".join(str(t) for t in data.omega))
        ratio = factorial_ratio(data.n, data.p)
        shown = str(ratio) if check.ratio_bits <= 64 else f"~2^{check.ratio_bits - 1}"
        print(f"comparison: 2^{data.count} ({check.pow2_bits} bits) vs n!/p! = {shown} ({check.ratio_bits} bits)")
        print(f"verdict: {verdict}")
    return 0 if check.holds else 1


def _cmd_hz_table(args) -> int:
    rows = hz_table(args.max_m, kinds=args.kinds)
    combos = [(kind, conv) for kind in args.kinds for conv in CONVENTIONS]
    headers = ["m", "bound"] + [f"{k.value}/{c}" for k, c in combos] + ["exceeds"]
    table_rows = []
    for row in rows:
        exceeds = [
            f"{k.value}/{c}"
            for (k, c) in combos
            if row.reference_bound is not None and row.computed[(k, c)] > row.reference_bound
        ]
        table_rows.append(
            [str(row.m), "-" if row.reference_bound is None else str(row.reference_bound)]
            + [str(row.computed[(k, c)]) for k, c in combos]
            + [",".join(exceeds) or "-"]
        )
    if args.format == "json":
        print(dump_json(jsonable(rows)))
    elif args.format == "csv":
        writer = csv.writer(sys.stdout)
        writer.writerow(headers)
        writer.writerows(table_rows)
    else:
        widths = [max(len(h), max(len(r[i]) for r in table_rows)) for i, h in enumerate(headers)]
        print("  ".join(h.ljust(w) for h, w in zip(headers, widths)))
        for r in table_rows:
            print("  ".join(c.ljust(w) for c, w in zip(r, widths)))
    return 0


def _cmd_verify_case(args) -> int:
    cert = check_case(args.n, args.kind, support_cap=args.support_cap)
    d = jsonable(cert)
    if args.format == "json":
        print(dump_json(d))
    else:
        for key in CSV_FIELDS:
            value = d[key]
            if key == "witness_chain":
                value = " ".join(d[key]) or "-"
            print(f"{key}: {value}")
        print(f"witness_cycle_types: {' '.join('+'.join(map(str, t)) or 'e' for t in d['witness_cycle_types']) or '-'}")
    return 0 if cert.verdict == PASS else 1


def _cmd_verify_scan(args) -> int:
    report = scan_range(
        args.start,
        args.stop,
        kinds=args.kinds,
        jobs=args.jobs,
        support_cap=args.support_cap,
    )
    summary = report.summary_dict()
    # every file is written before any line is printed, so a failed write leaves stdout empty
    if args.out is not None:
        args.out.mkdir(parents=True, exist_ok=True)
        (args.out / "summary.json").write_text(dump_json(summary, compact=False) + "\n")
        with (
            (args.out / "certificates.csv").open("w", newline="") as csv_handle,
            (args.out / "certificates.jsonl").open("w") as jsonl_handle,
        ):
            writer = csv.writer(csv_handle)
            writer.writerow(CSV_FIELDS)
            for cert in report.certificates:
                record = jsonable(cert)
                writer.writerow(certificate_csv_row(record))
                jsonl_handle.write(dump_json(record) + "\n")
    counts = report.counts
    print(
        f"scanned n in [{report.start}, {report.stop}] "
        f"kinds={','.join(k.value for k in report.kinds)} support_cap={report.support_cap}"
    )
    print(
        f"certificates: {summary['total']}  "
        f"PASS: {counts['PASS']}  FAIL: {counts['FAIL']}  INDETERMINATE: {counts['INDETERMINATE']}"
    )
    for problem in summary["problems"]:
        print(
            f"{problem['verdict']} n={problem['n']} kind={problem['kind']} "
            f"h={problem['h_value']} omega={problem['omega_count']} "
            f"witness={'|'.join(problem['witness_chain']) or '-'} reason={problem['reason'] or '-'}"
        )
    print(f"RESULT: {'PASS' if report.all_passed else 'FAIL'}")
    return 0 if report.all_passed else 1


def _cmd_bounds(args) -> int:
    report = bound_report(args.x)
    if args.format == "json":
        print(dump_json(jsonable(report)))
    else:
        print(f"x: {report.x}")
        print(f"pi_exact: {report.pi_exact}")
        print(f"lower: {report.lower:.6f}  lower_holds: {report.lower_holds}")
        print(f"upper: {report.upper:.6f}  upper_holds: {report.upper_holds}")
        print(f"p: {report.p}  gap: {report.gap}  gap_bound_holds: {report.gap_bound_holds}")
    return 0


def main(argv: list[str] | None = None) -> int:
    # class sizes and witnesses pass Python's int/str digit limit (4300 by
    # default) from about n = 1560; lift it for this call only
    set_limit = getattr(sys, "set_int_max_str_digits", None)
    if set_limit is None:
        return _main(argv)
    limit = sys.get_int_max_str_digits()
    set_limit(0)
    try:
        return _main(argv)
    finally:
        set_limit(limit)


def _main(argv: list[str] | None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        return args.run(args)
    except (DomainError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        # exit 1 is a FAIL verdict; running out of memory decides nothing
        print("error: out of memory", file=sys.stderr)
        return 2
    except InvariantError as exc:
        print(f"error: internal invariant failed: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
