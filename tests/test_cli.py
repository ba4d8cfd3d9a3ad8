import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from class_spectrum import GroupKind, phi_set
from class_spectrum import cli
from class_spectrum.cache import SpectrumCache
from class_spectrum.cli import dump_json, main
from class_spectrum.verify import ChainBoundViolation
from oracles import quadratic_longest_chain
from test_divgraph import values_any, values_deep, values_tied
from test_source import DEFERRED_MODULES


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_spectrum_json_example(capsys):
    code, out, _ = run_cli(
        capsys, "spectrum", "--kind", "alt", "--n", "5", "--format", "json", "--no-cache"
    )
    assert code == 0
    assert out == '{"values":["1","12","15","20"]}\n'


def test_spectrum_json_round_trips(capsys):
    code, out, _ = run_cli(
        capsys, "spectrum", "--kind", "sym", "--n", "6", "--format", "json", "--no-cache"
    )
    assert code == 0
    assert dump_json(json.loads(out)) + "\n" == out


def test_spectrum_families(capsys):
    code, out, _ = run_cli(
        capsys, "spectrum", "--kind", "sym", "--n", "10", "--family", "psi", "--t", "7",
        "--format", "csv", "--no-cache",
    )
    assert code == 0
    assert out.splitlines() == ["value", "45", "240"]
    code, out, _ = run_cli(
        capsys, "spectrum", "--kind", "sym", "--n", "4", "--family", "moved", "--no-cache"
    )
    assert code == 0
    assert out.splitlines() == ["3", "6"]


def test_spectrum_phi_requires_t(capsys):
    code, _, err = run_cli(capsys, "spectrum", "--kind", "sym", "--n", "6", "--family", "phi")
    assert code == 2
    assert "requires --t" in err


def test_spectrum_cache_identical_outputs(capsys, tmp_path):
    cache_dir = tmp_path / "cache"
    args = ["spectrum", "--kind", "alt", "--n", "7", "--format", "json", "--cache-dir", str(cache_dir)]
    code1, cold, _ = run_cli(capsys, *args)
    entries = list(cache_dir.glob("*.json"))
    assert code1 == 0 and len(entries) == 1
    code2, warm, _ = run_cli(capsys, *args)
    code3, nocache, _ = run_cli(capsys, *args, "--no-cache")
    assert code2 == code3 == 0
    assert cold == warm == nocache


def test_spectrum_cache_key_ignores_t_outside_phi_and_psi(capsys, tmp_path):
    cache_dir = tmp_path / "cache"
    base = ["spectrum", "--kind", "sym", "--n", "6", "--format", "json", "--cache-dir", str(cache_dir)]
    with_t = ((), ("--t", "3"), ("--t", "4"))
    for family in ("full", "moved"):
        outputs = {run_cli(capsys, *base, "--family", family, *t)[1] for t in with_t}
        assert len(outputs) == 1
    assert len(list(cache_dir.glob("*.json"))) == 2
    for t in ("4", "5"):
        run_cli(capsys, *base, "--family", "phi", "--t", t)
    assert len(list(cache_dir.glob("*.json"))) == 4


def _signed(body):
    # the entry's own key line over a body with a matching checksum, so only the body's lines can reject it
    def corrupt(entry, other):
        head = entry.split(b"\n", 1)[0]
        return b"\n".join((head, hashlib.sha256(body).hexdigest().encode(), body))

    return corrupt


def _older_json_format(entry, other):
    # an entry as the JSON-document cache wrote it, valid in that format, at the same path
    head, _, body = entry.split(b"\n", 2)
    payload = {"values": body.decode().split("\n")}
    checksum = hashlib.sha256(json.dumps(payload, sort_keys=True, separators=(",", ":")).encode()).hexdigest()
    return json.dumps({"key": json.loads(head), "checksum": checksum, "payload": payload}, sort_keys=True, indent=2).encode()


@pytest.mark.parametrize(
    "corrupt",
    [
        lambda entry, other: b"\n".join(entry.split(b"\n", 2)[:2] + [b"999"]),
        lambda entry, other: b"[1, 2]",
        lambda entry, other: b"null",
        _signed(b"[1, 2]"),
        _signed(b"values"),
        lambda entry, other: b"\n".join(entry.split(b"\n", 2)[:2]),
        _signed(b'"1"\n"10"'),
        _signed(b"1.0\n10"),
        _older_json_format,
        lambda entry, other: other,
        lambda entry, other: entry[: len(entry) // 2],
        lambda entry, other: entry[:-1],
        lambda entry, other: entry[:-1] + bytes([entry[-1] ^ 1]),
        _signed(b"1\n\n10"),
        _signed(b"1\n10\n"),
        _signed(b"1\n1O\n15"),
        _signed("1\n\u0661\u0660".encode()),
    ],
    ids=[
        "checksum-mismatch",
        "list-entry",
        "null-entry",
        "list-payload",
        "string-payload",
        "no-values",
        "string-values",
        "number-values",
        "older-json-format",
        "other-key",
        "truncated-checksum",
        "truncated-body",
        "flipped-body-byte",
        "blank-line",
        "trailing-blank-line",
        "non-digit-line",
        "non-ascii-digits",
    ],
)
def test_spectrum_cache_discards_corrupt_entry(capsys, tmp_path, corrupt):
    cache_dir = tmp_path / "cache"
    args = ["spectrum", "--kind", "sym", "--n", "5", "--format", "json", "--cache-dir", str(cache_dir)]
    _, cold, _ = run_cli(capsys, *args)
    (entry,) = cache_dir.glob("*.json")
    written = entry.read_bytes()
    run_cli(capsys, "spectrum", "--kind", "alt", "--n", "5", "--cache-dir", str(tmp_path / "other"))
    (other,) = (tmp_path / "other").glob("*.json")
    entry.write_bytes(corrupt(written, other.read_bytes()))
    code, healed, _ = run_cli(capsys, *args)
    assert code == 0
    assert healed == cold
    assert entry.read_bytes() == written


def test_spectrum_cache_env_var(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("CLASS_SPECTRUM_CACHE", str(tmp_path / "envcache"))
    code, _, _ = run_cli(capsys, "spectrum", "--kind", "sym", "--n", "4", "--format", "json")
    assert code == 0
    assert list((tmp_path / "envcache").glob("*.json"))


def test_spectrum_survives_unwritable_cache(capsys, tmp_path):
    blocker = tmp_path / "not-a-dir"
    blocker.write_text("")
    args = ["spectrum", "--kind", "alt", "--n", "5", "--format", "json"]
    code, out, err = run_cli(capsys, *args, "--cache-dir", str(blocker))
    assert code == 0
    assert out == '{"values":["1","12","15","20"]}\n'
    assert len(err.splitlines()) == 1 and err.startswith("warning: spectrum cache not written")
    assert blocker.read_text() == ""


def test_failed_cache_write_leaves_no_temporary_file(capsys, tmp_path, monkeypatch):
    # the entry is written to a temporary file and renamed into place; when
    # the rename fails, put removes the temporary file and re-raises
    def refuse(src, dst):
        raise OSError("rename refused")

    monkeypatch.setattr(os, "replace", refuse)
    cache = SpectrumCache(root=tmp_path / "direct")
    with pytest.raises(OSError, match="rename refused"):
        cache.put({"op": "spectrum", "n": 5}, ["1", "12"])
    assert list((tmp_path / "direct").iterdir()) == []

    cache_dir = tmp_path / "cache"
    args = ["spectrum", "--kind", "alt", "--n", "5", "--format", "json", "--cache-dir", str(cache_dir)]
    code, out, err = run_cli(capsys, *args)
    assert code == 0
    assert out == '{"values":["1","12","15","20"]}\n'
    assert err == "warning: spectrum cache not written: rename refused\n"
    assert list(cache_dir.iterdir()) == []


def test_spectrum_without_a_home_directory(capsys, monkeypatch):
    # the default cache directory needs a home directory when neither
    # CLASS_SPECTRUM_CACHE nor XDG_CACHE_HOME is set
    for name in ("HOME", "XDG_CACHE_HOME", "CLASS_SPECTRUM_CACHE"):
        monkeypatch.delenv(name, raising=False)

    def no_home(cls):
        raise RuntimeError("Could not determine home directory.")

    monkeypatch.setattr(Path, "home", classmethod(no_home))
    args = ["spectrum", "--kind", "sym", "--n", "5", "--format", "json"]
    expected = '{"values":["1","10","15","20","24","30"]}\n'
    # --no-cache never looks the directory up
    assert run_cli(capsys, *args, "--no-cache") == (0, expected, "")
    code, out, err = run_cli(capsys, *args)
    assert (code, out) == (0, expected)
    assert err == "warning: spectrum cache not used: Could not determine home directory.\n"


def test_height_from_file(capsys, tmp_path):
    chain = tmp_path / "chain.txt"
    chain.write_text("2\n4\n8\n16\n")
    code, out, _ = run_cli(capsys, "height", "--input", str(chain))
    assert code == 0
    assert out.splitlines()[0] == "4"
    code, out, _ = run_cli(capsys, "height", "--input", str(chain), "--convention", "edges")
    assert code == 0
    assert out == "3\nwitness: 2 4 8 16\n"
    # an empty input and a single value have no steps
    for text, witness in [("", ""), ("\n7\n\n", "7")]:
        chain.write_text(text)
        for convention, h in [("vertices", len(witness.split())), ("edges", 0)]:
            code, out, _ = run_cli(capsys, "height", "--input", str(chain), "--convention", convention)
            assert (code, out) == (0, f"{h}\nwitness: {witness}\n"), (text, convention)
    code, out, err = run_cli(capsys, "height", "--input", str(chain), "--convention", "paths")
    assert code == 2 and out == ""
    assert "invalid choice: 'paths'" in err


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"), reason="no int/str digit limit")
def test_integers_past_the_digit_limit(capsys, tmp_path):
    limit = sys.get_int_max_str_digits()
    code, out, _ = run_cli(
        capsys, "spectrum", "--kind", "sym", "--n", "1700", "--family", "phi", "--t", "1699",
        "--format", "json", "--no-cache",
    )
    assert code == 0
    assert sys.get_int_max_str_digits() == limit
    (printed,) = json.loads(out)["values"]
    assert len(printed) > limit
    # v and 10 v: a chain of two values, each past the limit
    values = tmp_path / "big.txt"
    values.write_text(f"{printed}\n{printed}0\n")
    code, out, _ = run_cli(capsys, "height", "--input", str(values))
    assert code == 0
    assert sys.get_int_max_str_digits() == limit
    assert out.splitlines() == ["2", f"witness: {printed} {printed}0"]
    (expected,) = phi_set(GroupKind.SYM, 1700, 1699).values
    sys.set_int_max_str_digits(0)
    try:
        assert int(printed) == expected
    finally:
        sys.set_int_max_str_digits(limit)


# tmp_path and capsys are shared by the examples: each one rewrites the file
# and reads all it printed
@settings(suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.one_of(values_tied, values_deep, values_any))
def test_height_matches_quadratic_dp(capsys, tmp_path, values):
    # smooth (tied) sets take the lcm path, most deep and arbitrary ones the plain DP
    path = tmp_path / "values.txt"
    path.write_text("".join(f"{v}\n" for v in values))
    h, witness = quadratic_longest_chain(values)
    expected = f"{h}\nwitness: {' '.join(map(str, witness))}\n"
    assert run_cli(capsys, "height", "--input", str(path)) == (0, expected, "")


def test_height_rejects_nonpositive(capsys, tmp_path):
    chain = tmp_path / "chain.txt"
    for text in ("4\n0\n", "4\n-8\n8\n"):
        chain.write_text(text)
        code, out, err = run_cli(capsys, "height", "--input", str(chain))
        assert (code, out) == (2, "")
        assert err == "error: divisibility chains need values >= 1\n"


def test_omega_exit_codes(capsys):
    code, out, _ = run_cli(capsys, "omega", "--n", "1362")
    assert code == 0
    assert "verdict: PASS" in out
    code, out, _ = run_cli(capsys, "omega", "--n", "1360")
    assert code == 1
    assert "verdict: FAIL" in out


def test_omega_json(capsys):
    code, out, _ = run_cli(capsys, "omega", "--n", "23", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["omega"] == ["13", "17", "19", "23"]
    assert data["p"] == 23
    assert data["verdict"] == "PASS"


def test_hz_table_formats(capsys):
    code, out, _ = run_cli(capsys, "hz-table", "--max-m", "5")
    assert code == 0
    assert "sym/vertices" in out
    code, out, _ = run_cli(capsys, "hz-table", "--max-m", "5", "--format", "json")
    data = json.loads(out)
    assert data[0]["m"] == 2 and data[0]["reference_bound"] == 1
    code, out, _ = run_cli(capsys, "hz-table", "--max-m", "4", "--kinds", "sym", "--format", "csv")
    assert code == 0
    assert out.splitlines()[0].startswith("m,bound,sym/vertices")


def test_verify_case(capsys):
    code, out, _ = run_cli(capsys, "verify", "case", "--n", "23", "--kind", "alt")
    assert code == 0
    assert "verdict: PASS" in out
    code, out, _ = run_cli(capsys, "verify", "case", "--n", "100", "--kind", "sym", "--format", "json")
    assert code == 0
    cert = json.loads(out)
    assert cert["verdict"] == "PASS"
    assert cert["n"] == 100
    assert all(isinstance(v, str) for v in cert["witness_chain"])


def test_verify_case_text_lines(capsys):
    # one "key: value" line per CSV field, then the witness cycle types as
    # CycleType prints them; an empty witness prints "-" on both lines
    code, out, _ = run_cli(capsys, "verify", "case", "--n", "1360", "--kind", "alt")
    assert code == 0
    lines = out.splitlines()
    assert lines[-2].startswith("elapsed: ")
    assert lines[:-2] + lines[-1:] == [
        "n: 1360",
        "kind: alt",
        "strategy: r-trick",
        "r: 677",
        "t_star: 1354",
        "support_m: 6",
        "omega_count: 94",
        "h_value: 2",
        "h_value_edges: 1",
        "h_sum_bound: 4",
        "verdict: PASS",
        "witness_chain: 836636640 347667794328590400",
        "reason: None",
        "witness_cycle_types: 3 3+3",
    ]
    code, out, _ = run_cli(capsys, "verify", "case", "--n", "520523", "--kind", "sym")
    assert code == 1
    assert "witness_chain: -" in out.splitlines()
    assert out.splitlines()[-1] == "witness_cycle_types: -"


def test_verify_scan_outputs(capsys, tmp_path):
    out_dir = tmp_path / "scan"
    code, out, _ = run_cli(
        capsys, "verify", "scan", "--from", "23", "--to", "30", "--jobs", "1",
        "--out", str(out_dir),
    )
    assert code == 0
    assert "RESULT: PASS" in out
    summary = json.loads((out_dir / "summary.json").read_text())
    assert summary["total"] == 16
    assert summary["verdicts"] == {"PASS": 16, "FAIL": 0, "INDETERMINATE": 0}
    csv_lines = (out_dir / "certificates.csv").read_text().splitlines()
    assert len(csv_lines) == 17
    assert csv_lines[0].startswith("n,kind,strategy")
    jsonl = [json.loads(line) for line in (out_dir / "certificates.jsonl").read_text().splitlines()]
    assert len(jsonl) == 16 and jsonl[0]["n"] == 23


def test_verify_scan_prints_nothing_when_a_write_fails(capsys, monkeypatch, tmp_path):
    # RESULT: PASS must not reach stdout before the files it vouches for exist
    blocker = tmp_path / "not-a-dir"
    blocker.write_text("")
    code, out, err = run_cli(capsys, "verify", "scan", "--from", "23", "--to", "24", "--out", str(blocker / "scan"))
    assert code == 2 and out == ""
    assert err.startswith("error: ")
    out_dir = tmp_path / "scan"

    def print_after_writes(*args, **kwargs):
        assert sorted(p.name for p in out_dir.iterdir()) == ["certificates.csv", "certificates.jsonl", "summary.json"]
        print(*args, **kwargs)

    monkeypatch.setattr(cli, "print", print_after_writes, raising=False)
    code, out, _ = run_cli(capsys, "verify", "scan", "--from", "23", "--to", "24", "--out", str(out_dir))
    assert code == 0 and out.endswith("RESULT: PASS\n")


def test_verify_scan_jobs_do_not_change_summary(capsys, tmp_path):
    dir1 = tmp_path / "a"
    dir2 = tmp_path / "b"
    code1, _, _ = run_cli(
        capsys, "verify", "scan", "--from", "23", "--to", "40", "--jobs", "1", "--out", str(dir1)
    )
    code2, _, _ = run_cli(
        capsys, "verify", "scan", "--from", "23", "--to", "40", "--jobs", "2", "--out", str(dir2)
    )
    assert code1 == code2 == 0
    assert (dir1 / "summary.json").read_bytes() == (dir2 / "summary.json").read_bytes()


def test_bounds(capsys):
    code, out, _ = run_cli(capsys, "bounds", "--x", "100")
    assert code == 0
    assert "upper_holds: False" in out
    code, out, _ = run_cli(capsys, "bounds", "--x", "100", "--format", "json")
    data = json.loads(out)
    assert data["pi_exact"] == 25 and data["lower_holds"] and not data["upper_holds"]


# Exact stdout (summary.json for the scan) of each JSON-emitting command, with
# "elapsed" masked to 0. Integers inside lists are decimal strings, scalar
# fields are JSON numbers, cycle types are lists of ints and hz-table keys
# are "kind/convention".
SCAN_SUMMARY_GOLDEN = """\
{
  "from": 520523,
  "kinds": [
    "sym"
  ],
  "problems": [
    {
      "h_value": 0,
      "kind": "sym",
      "n": 520523,
      "omega_count": 20242,
      "reason": "direct-psi-p: residual support 72 exceeds cap 60; r-trick: residual support 61 exceeds cap 60",
      "strategy": "direct-psi-p",
      "verdict": "INDETERMINATE",
      "witness_chain": []
    }
  ],
  "support_cap": 60,
  "to": 520523,
  "total": 1,
  "verdicts": {
    "FAIL": 0,
    "INDETERMINATE": 1,
    "PASS": 0
  }
}
"""

GOLDEN_JSON = [
    pytest.param(
        ["verify", "case", "--n", "1360", "--kind", "sym", "--format", "json"],
        0,
        (
            '{"elapsed":0,"h_sum_bound":7,"h_value":4,"h_value_edges":3,"kind":"sym","n":1360,'
            '"omega_count":94,"r":677,"reason":null,"strategy":"r-trick","support_m":6,"t_star":1354,'
            '"verdict":"PASS","witness_chain":["924120","851486940360","130375422873221400",'
            '"782252537239328400"],"witness_cycle_types":[[2],[4],[2,2,2],[4,2]]}' "\n"
        ),
        id="verify-case",
    ),
    pytest.param(
        ["omega", "--n", "30", "--format", "json"],
        1,
        '{"count":4,"n":30,"omega":["17","19","23","29"],"p":29,"pow2_bits":5,"ratio_bits":5,"verdict":"FAIL"}\n',
        id="omega",
    ),
    pytest.param(
        ["bounds", "--x", "126", "--format", "json"],
        0,
        (
            '{"gap":13,"gap_bound_holds":false,"lower":23.994879172200474,"lower_holds":true,"p":113,'
            '"pi_exact":30,"upper":28.81469746411914,"upper_holds":false,"x":126}' "\n"
        ),
        id="bounds",
    ),
    pytest.param(
        ["hz-table", "--max-m", "4", "--format", "json"],
        0,
        (
            '[{"computed":{"alt/edges":0,"alt/vertices":0,"sym/edges":0,"sym/vertices":1},"m":2,'
            '"reference_bound":1},{"computed":{"alt/edges":0,"alt/vertices":1,"sym/edges":0,'
            '"sym/vertices":2},"m":3,"reference_bound":2},{"computed":{"alt/edges":0,'
            '"alt/vertices":2,"sym/edges":1,"sym/vertices":4},"m":4,"reference_bound":3}]' "\n"
        ),
        id="hz-table",
    ),
    pytest.param(
        ["verify", "scan", "--from", "520523", "--to", "520523", "--kinds", "sym", "--out"],
        1,
        SCAN_SUMMARY_GOLDEN,
        id="scan-summary",
    ),
]


@pytest.mark.parametrize("argv, code, expected", GOLDEN_JSON)
def test_json_output_matches_golden_bytes(capsys, tmp_path, argv, code, expected):
    if argv[-1] == "--out":
        argv = argv + [str(tmp_path)]
    got, out, _ = run_cli(capsys, *argv)
    if argv[-2] == "--out":
        out = (tmp_path / "summary.json").read_text()
    assert got == code
    assert re.sub(r'"elapsed":[^,}]+', '"elapsed":0', out) == expected


def test_usage_errors_exit_2(capsys):
    assert run_cli(capsys, "spectrum", "--kind", "frob", "--n", "4")[0] == 2
    code, _, err = run_cli(capsys, "spectrum", "--kind", "sym", "--n", "50", "--cap", "-1", "--no-cache")
    assert code == 2 and "exceeds the degree cap -1" in err
    assert run_cli(capsys, "omega", "--n", "2")[0] == 2
    assert run_cli(capsys, "verify", "case", "--n", "10", "--kind", "sym")[0] == 2
    assert main(["no-such-command"]) == 2


def test_support_cap_is_not_an_option(capsys, tmp_path):
    # the residual-support cap is the constant verify.SUPPORT_CAP
    code, out, err = run_cli(capsys, "verify", "case", "--n", "100", "--kind", "sym", "--support-cap", "5")
    assert code == 2 and out == ""
    assert "--support-cap" in err
    code, out, err = run_cli(
        capsys, "verify", "scan", "--from", "23", "--to", "24", "--support-cap", "5", "--out", str(tmp_path)
    )
    assert code == 2 and out == ""
    assert "--support-cap" in err
    assert not list(tmp_path.iterdir())


def test_scan_leaves_no_summary_when_a_certificate_write_fails(capsys, tmp_path):
    # a summary.json from an earlier run is removed, and a new one is written
    # only after both certificate files are complete
    (tmp_path / "summary.json").write_text("{}\n")
    (tmp_path / "certificates.csv").mkdir()
    code, out, err = run_cli(capsys, "verify", "scan", "--from", "23", "--to", "24", "--out", str(tmp_path))
    assert code == 2 and out == ""
    assert "certificates.csv" in err
    assert not (tmp_path / "summary.json").exists()


def test_repeated_kind_is_a_usage_error(capsys, tmp_path):
    # a repeated kind would emit every certificate or column once per copy
    code, out, err = run_cli(
        capsys, "verify", "scan", "--from", "23", "--to", "24", "--kinds", "sym,sym", "--out", str(tmp_path)
    )
    assert code == 2 and out == ""
    assert "sym,sym" in err
    assert not list(tmp_path.iterdir())
    code, out, err = run_cli(capsys, "hz-table", "--max-m", "4", "--kinds", "alt,sym,Alt")
    assert code == 2 and out == ""
    assert "alt,sym,Alt" in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["spectrum", "--kind", "frob", "--n", "4"], "unknown group kind 'frob' (expected 'sym' or 'alt')"),
        (["verify", "case", "--n", "23", "--kind", "frob"], "expected 'sym' or 'alt'"),
        (["hz-table", "--max-m", "4", "--kinds", "sym,frob"], "expected 'sym' or 'alt'"),
        (["hz-table", "--max-m", "4", "--kinds", "sym,sym"], "repeated group kind in 'sym,sym'"),
        (["verify", "scan", "--from", "23", "--to", "24", "--kinds", ","], "no group kinds given"),
    ],
    ids=["spectrum-kind", "case-kind", "hz-table-unknown-kind", "hz-table-repeated-kind", "scan-no-kinds"],
)
def test_kind_errors_show_their_text(capsys, argv, message):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert message in err


def test_parser_is_built_once_and_keeps_no_state(capsys, tmp_path):
    parser = cli._build_parser()
    omega_argv, omega_code, omega_golden = next(p.values for p in GOLDEN_JSON if p.id == "omega")
    for argv, code in (
        (["spectrum", "--kind", "frob", "--n", "4"], 2),
        (["omega"], 2),
        (["--version"], 0),
        (["--help"], 0),
        (["verify", "case", "--help"], 0),
    ):
        assert run_cli(capsys, *argv)[0] == code
        assert run_cli(capsys, *omega_argv) == (omega_code, omega_golden, "")
    assert cli._build_parser() is parser
    assert cli._build_parser.cache_info().misses == 1

    cache_dir = tmp_path / "cache"
    spectrum_argv = ["spectrum", "--kind", "alt", "--n", "5", "--cache-dir", str(cache_dir)]
    assert run_cli(capsys, *spectrum_argv, "--no-cache", "--format", "json")[0] == 0
    assert not cache_dir.exists()
    code, out, _ = run_cli(capsys, *spectrum_argv)
    assert code == 0 and out == "1\n12\n15\n20\n"
    assert len(list(cache_dir.glob("*.json"))) == 1

    code, out, _ = run_cli(capsys, "hz-table", "--max-m", "4", "--kinds", "sym", "--format", "json")
    assert code == 0 and "alt/" not in out
    code, out, _ = run_cli(capsys, "hz-table", "--max-m", "4")
    assert code == 0 and out.splitlines()[0].split()[2:] == [
        "sym/vertices", "sym/edges", "alt/vertices", "alt/edges", "exceeds"
    ]


def test_internal_error_exits_2(capsys, monkeypatch):
    # exit 1 means a FAIL verdict, so a broken invariant must not reach it
    def broken(*args, **kwargs):
        raise ChainBoundViolation("direct height 9 exceeds summed bound 8")

    monkeypatch.setattr(cli, "check_case", broken)
    code, out, err = run_cli(capsys, "verify", "case", "--n", "100", "--kind", "sym")
    assert code == 2 and out == ""
    assert err == "error: internal invariant failed: direct height 9 exceeds summed bound 8\n"


def test_out_of_memory_exits_2(capsys, monkeypatch):
    # exit 1 means a FAIL verdict; a table too large for memory decides nothing
    def exhausted(n):
        raise MemoryError

    monkeypatch.setattr(cli, "omega_set", exhausted)
    code, out, err = run_cli(capsys, "omega", "--n", "100000000000")
    assert code == 2 and out == ""
    assert err == "error: out of memory\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["bounds", "--x", str(10**23)],
        ["omega", "--n", str(10**23)],
        ["verify", "case", "--n", str(10**23), "--kind", "sym"],
        ["spectrum", "--kind", "sym", "--family", "moved", "--n", str(10**23), "--no-cache"],
        ["verify", "scan", "--from", "23", "--to", str(10**23)],
        ["spectrum", "--kind", "sym", "--family", "psi", "--n", str(10**23), "--t", str(10**23), "--no-cache"],
        ["spectrum", "--kind", "sym", "--family", "phi", "--n", str(10**23), "--t", str(10**23), "--no-cache"],
    ],
)
def test_argument_too_large_exits_2(capsys, argv):
    # exit 1 means a FAIL verdict; a degree too large to sieve to or take the
    # factorial of decides nothing, and each of these fails before any large
    # allocation. The error names the limit or degree it was given.
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error:") and "Traceback" not in err
    assert str(10**23) in err


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_verify_scan_rejects_jobs_below_one(capsys, tmp_path, jobs):
    code, out, err = run_cli(
        capsys, "verify", "scan", "--from", "23", "--to", "24", "--jobs", jobs, "--out", str(tmp_path)
    )
    assert code == 2 and out == ""
    assert "jobs >= 1" in err
    assert not list(tmp_path.iterdir())


def test_console_script_entry_point():
    # the child imports the package under test, installed or not
    src = str(Path(cli.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-m", "class_spectrum.cli", "spectrum", "--kind", "alt", "--n", "5",
         "--format", "json", "--no-cache"],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == '{"values":["1","12","15","20"]}'


def _not_recomputed(args):
    raise AssertionError("a cache hit must not recompute the family")


@pytest.mark.parametrize("kind", ["sym", "alt"])
@pytest.mark.parametrize(
    "family", [["--family", "moved", "--n", "1"], ["--family", "psi", "--n", "5", "--t", "4"]], ids=["moved", "psi"]
)
def test_spectrum_cache_round_trips_an_empty_family(capsys, monkeypatch, tmp_path, kind, family):
    # an empty family is stored as an entry with an empty body
    argv = ["spectrum", "--kind", kind, *family, "--format", "json", "--cache-dir", str(tmp_path)]
    assert run_cli(capsys, *argv) == (0, '{"values":[]}\n', "")
    (entry,) = tmp_path.glob("*.json")
    written = entry.read_bytes()
    monkeypatch.setattr(cli, "_compute_family", _not_recomputed)
    assert run_cli(capsys, *argv) == (0, '{"values":[]}\n', "")
    assert entry.read_bytes() == written


@pytest.mark.parametrize("kind", ["sym", "alt"])
def test_spectrum_phi_prints_str_of_each_value(capsys, monkeypatch, tmp_path, kind):
    # phi(1360, 1327) is written through its shared factor; the bytes are those of str()
    expected = [str(v) for v in phi_set(GroupKind(kind), 1360, 1327).values]
    printed = {
        "json": dump_json({"values": expected}) + "\n",
        "text": "".join(v + "\n" for v in expected),
        "csv": "value\n" + "".join(v + "\n" for v in expected),
    }
    cache_dir = tmp_path / "cache"
    argv = ["spectrum", "--kind", kind, "--n", "1360", "--family", "phi", "--t", "1327"]
    assert run_cli(capsys, *argv, "--format", "json", "--cache-dir", str(cache_dir)) == (0, printed["json"], "")
    (entry,) = cache_dir.glob("*.json")
    written = entry.read_bytes()
    key = json.loads(written.split(b"\n", 1)[0])
    assert (key["family"], key["kind"], key["n"], key["t"]) == ("phi", kind, 1360, 1327)
    assert SpectrumCache(cache_dir).get(key) == expected

    monkeypatch.setattr(cli, "_compute_family", _not_recomputed)
    for fmt, out in printed.items():
        assert run_cli(capsys, *argv, "--format", fmt, "--cache-dir", str(cache_dir)) == (0, out, "")
    assert entry.read_bytes() == written


def test_importing_the_cli_leaves_deferred_modules_unloaded():
    # test_source.py keeps these out of module level; this checks a real
    # import. A module that site already loads in a bare interpreter does not
    # count. Records are named tuples, so neither dataclasses nor the inspect
    # module it imports is loaded either
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    show = "import sys; print(' '.join(sorted(sys.modules)))"

    def loaded(code):
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        return set(proc.stdout.split())

    bare = loaded(show)
    with_cli = loaded("import class_spectrum.cli; " + show)
    assert "class_spectrum.verify" in with_cli
    assert sorted(set(DEFERRED_MODULES + ("dataclasses", "inspect")) & (with_cli - bare)) == []
