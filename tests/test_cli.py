"""Command-line interface: formats, exit codes, cache, and prime scans."""

import io
import json
import multiprocessing
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import pytest

import charp.cli as cli_mod
import charp.ring as ring_module
from charp import CharpError, Polynomial
from charp.cli import (
    COMMANDS,
    build_parser,
    cache_key,
    cache_path,
    main,
    parse_prime_range,
    parse_rational,
    run,
)
from charp.errors import UsageError

QUINTIC_ARGS = ["--vars", "x,y,z", "-f", "x^5+y^5+z^5"]


def cli(*args, timeout=240):
    return subprocess.run(
        [sys.executable, "-m", "charp.cli", *args],
        capture_output=True, text=True, timeout=timeout,
    )


def run_job(*args):
    out, err = io.StringIO(), io.StringIO()
    job = build_parser().parse_args(list(args))
    code = run(job, out, err)
    return code, out.getvalue(), err.getvalue()


def test_hsl_text():
    code, out, err = run_job("hsl", "-p", "7", *QUINTIC_ARGS)
    assert (code, out) == (0, "2\n")


def test_fpt_text():
    code, out, _ = run_job("fpt", "-p", "11", *QUINTIC_ARGS)
    assert (code, out) == (0, "3/5 certified\n")


def test_tau_text_ten_generators():
    code, out, _ = run_job("tau", "-p", "7", *QUINTIC_ARGS, "--lambda", "48/49")
    assert code == 0
    inner = out.strip().removeprefix("(").removesuffix(")")
    assert len(inner.split(", ")) == 10


def test_root_matches_tau_at_p_power():
    _, via_root, _ = run_job("root", "-p", "7", *QUINTIC_ARGS, "-m", "6", "-e", "1")
    _, via_tau, _ = run_job("tau", "-p", "7", *QUINTIC_ARGS, "--lambda", "6/7")
    assert via_root == via_tau == "(x*y*z, x^2, y^2, z^2)\n"


def test_lucas_text_and_json():
    code, out, _ = run_job("lucas", "-p", "7", "-m", "10", "-n", "4")
    assert (code, out) == (0, "0\n")
    code, out, _ = run_job("lucas", "-p", "2", "-m", "7", "-n", "3", "--format", "json")
    assert code == 0
    assert json.loads(out) == {"nonzero": True, "residue": 1}


def test_jumps_json_fields():
    code, out, _ = run_job("jumps", "-p", "2", *QUINTIC_ARGS,
                           "--resolution-e", "4", "--format", "json")
    assert code == 0
    certs = json.loads(out)
    assert [c["value"] for c in certs] == ["1/4", "1/2", "3/4"]
    for c in certs:
        assert set(c) == {"value", "status", "tauAt", "tauLeft"}
        assert c["status"] == "certified-jump"


def test_hsl_json_chain():
    code, out, _ = run_job("hsl", "-p", "7", *QUINTIC_ARGS, "--format", "json")
    payload = json.loads(out)
    assert payload["hsl"] == 2
    assert payload["chain"][0] == ["1"]
    assert payload["chain"][-1] == payload["chain"][-2] == payload["stabilized"]


@pytest.mark.parametrize("args", [
    ["tau", "-p", "8", "--vars", "x", "-f", "x", "--lambda", "1/2"],
    ["tau", "-p", "7", "--vars", "x", "-f", "x^", "--lambda", "1/2"],
    ["tau", "-p", "7", "--vars", "x", "-f", "x+w", "--lambda", "1/2"],
    ["tau", "-p", "7", "--vars", "x", "-f", "x", "--lambda", "1/0"],
    ["tau", "-p", "7", "--vars", "x", "-f", "x", "--lambda", "-1/2"],
    ["tau", "-p", "7", "--vars", "x,x", "-f", "x", "--lambda", "1/2"],
    ["jumps", "-p", "7", "--vars", "x", "-f", "x", "--resolution-e", "0"],
    ["scan", "--primes", "2-9", "--vars", "x", "-f", "x"],
    ["scan", "--primes", "2..9", "--vars", "x", "-f", "x", "--report", "zeta"],
    ["scan", "--primes", "2..9", "--vars", "x", "-f", "x", "--depth", "0"],
    ["hsl", "-p", "7", "--vars", "x", "-f", "x", "--depth", "3"],
    ["nosuch", "-p", "7"],
])
def test_usage_errors_exit_1(args):
    r = cli(*args)
    assert r.returncode == 1
    assert r.stderr.startswith("charp:")


def test_json_error_payload():
    # a bad polynomial and a flag value below its minimum take one path
    for args in (
        ["tau", "-p", "7", "--vars", "x", "-f", "x+w", "--lambda", "1/2"],
        ["fpt", "-p", "7", "--vars", "x", "-f", "x", "--depth", "0"],
        ["lucas", "-p", "7", "-m", "-1", "-n", "0"],
    ):
        r = cli(*args, "--format", "json")
        assert r.returncode == 1
        assert "error" in json.loads(r.stdout)
        assert r.stderr.startswith("charp:")


@pytest.mark.parametrize("args", [
    ["tau", "-p", "7", "--vars", "x", "-f", "x", "--lambda", "1/0"],
    ["fpt", "-p", "7", "--vars", "x", "-f", "x", "--depth", "abc"],
    ["hsl", "-p", "x", "--vars", "x", "-f", "x"],
    ["scan", "--primes", "2-9", "--vars", "x", "-f", "x"],
    ["scan", "--primes", "2..9", "--vars", "x", "-f", "x", "--report", "zeta"],
    ["scan", "--primes", "2..3", "--vars", "x", "-f", "x",
     "--timeout-secs", "99999999999"],
], ids=["lambda", "depth", "prime", "primes", "report", "timeout-secs"])
def test_bad_flag_values_print_one_json_error(args):
    code, out, err = run_job(*args, "--format", "json")
    assert code == 1
    assert err.startswith("charp:")
    assert len(out.splitlines()) == 1
    assert set(json.loads(out)) == {"error"}


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("p,lam", [("3", "1/10000019"), ("2", "1/1099511627689")])
def test_huge_denominator_exits_2_at_once(p, lam, fmt):
    # the order of p modulo the denominator exceeds the largest root depth
    start = time.monotonic()
    r = cli("tau", "-p", p, "--vars", "x", "-f", "x", "--lambda", lam,
            "--format", fmt, timeout=10)
    assert time.monotonic() - start < 1
    assert r.returncode == 2
    assert r.stderr.startswith("charp:")
    if fmt == "json":
        assert set(json.loads(r.stdout)) == {"error"}


def test_resource_limit_exit_2():
    r = cli("root", "-p", "7", "--vars", "x", "-f", "x", "-m", "1", "-e", "99")
    assert r.returncode == 2


@pytest.mark.parametrize("depth", [
    ["root", "-m", "1", "-e", "30000000"],
    ["fpt", "--depth", "30000000"],
    ["jumps", "--resolution-e", "30000000"],
])
def test_huge_depth_exits_2_without_forming_the_power(depth):
    r = cli(depth[0], "-p", "3", "--vars", "x", "-f", "x", *depth[1:], timeout=10)
    assert r.returncode == 2


def test_root_depth_zero_is_rejected_by_its_flag():
    r = cli("root", "-p", "3", "--vars", "x", "-f", "x", "-e", "0")
    assert r.returncode == 1


def test_internal_error_exit_3(monkeypatch):
    import charp.cli as cli_mod

    def boom(ring, f, job):
        raise CharpError("invariant violated")

    hsl = cli_mod.COMMANDS["hsl"]._replace(compute=boom)
    monkeypatch.setitem(cli_mod.COMMANDS, "hsl", hsl)
    out, err = io.StringIO(), io.StringIO()
    job = build_parser().parse_args(["hsl", "-p", "7", *QUINTIC_ARGS])
    assert run(job, out, err) == 3
    assert "invariant violated" in err.getvalue()


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_stray_exception_exit_3(monkeypatch, fmt):
    import charp.cli as cli_mod

    def boom(ring, f, job):
        raise RuntimeError("boom\nsecond line")

    hsl = cli_mod.COMMANDS["hsl"]._replace(compute=boom)
    monkeypatch.setitem(cli_mod.COMMANDS, "hsl", hsl)
    out, err = io.StringIO(), io.StringIO()
    job = build_parser().parse_args(["hsl", "-p", "7", *QUINTIC_ARGS, "--format", fmt])
    assert run(job, out, err) == 3
    message = "internal error: RuntimeError('boom\\nsecond line')"
    assert err.getvalue() == f"charp: {message}\n"
    if fmt == "json":
        assert json.loads(out.getvalue()) == {"error": message}
    else:
        assert out.getvalue() == ""


def test_parse_rational_and_range_helpers():
    from fractions import Fraction
    assert parse_rational("48/49") == Fraction(48, 49)
    assert parse_rational("3") == Fraction(3)
    with pytest.raises(UsageError):
        parse_rational("x")
    assert parse_prime_range("2..19") == (2, 19)
    with pytest.raises(UsageError):
        parse_prime_range("19")


def test_scan_fpt_hsl_table():
    r = cli("scan", "--primes", "2..19", *QUINTIC_ARGS, "--report", "fpt,hsl")
    assert r.returncode == 0
    lines = r.stdout.strip().splitlines()
    assert lines[0] == "prime,invariant,value,status,wall_ms"
    got = {}
    for line in lines[1:]:
        prime, invariant, value, status, _ = line.split(",")
        got[(int(prime), invariant)] = (value, status)
    fpt_expected = {2: "1/4", 3: "1/3", 5: "1/5", 7: "4/7",
                    11: "3/5", 13: "7/13", 17: "10/17", 19: "10/19"}
    hsl_expected = {p: ("2" if p % 5 in (2, 3) else "1") for p in fpt_expected}
    for p, v in fpt_expected.items():
        assert got[(p, "fpt")] == (v, "certified")
        assert got[(p, "hsl")] == (hsl_expected[p], "ok")
    primes = [int(line.split(",")[0]) for line in lines[1:]]
    assert primes == sorted(primes)


def test_scan_depth_is_fpt_depth_only():
    # --depth sets fpt's search depth; the hsl chain runs to its proven bound
    code, out, _ = run_job("scan", "--primes", "7..7", *QUINTIC_ARGS,
                           "--report", "hsl", "--depth", "1")
    assert code == 0
    assert out.splitlines()[1].startswith("7,hsl,2,ok,")


def test_scan_empty_range_is_silent():
    r = cli("scan", "--primes", "24..28", "--vars", "x", "-f", "x")
    assert (r.returncode, r.stdout) == (0, "")


def test_scan_records_timeout():
    # fpt of this quartic at p = 47 runs far past one second
    r = cli("scan", "--primes", "47..47", "--vars", "x,y,z",
            "-f", "x^4+x*y^3+y^2*z^2+z^5", "--report", "fpt",
            "--timeout-secs", "1")
    assert r.returncode == 2
    row = r.stdout.strip().splitlines()[1]
    assert row.startswith("47,fpt,,timeout")


def test_scan_jumps_rows():
    # certified when every jump is, else candidate (x^17 at p = 2 ends in
    # an end-of-cell candidate at 1)
    code, out, _ = run_job("scan", "--primes", "2..3", *QUINTIC_ARGS, "--report", "jumps")
    assert code == 0
    assert [line.split(",")[:4] for line in out.splitlines()[1:]] == [
        ["2", "jumps", "1/4;1/2;3/4", "certified"],
        ["3", "jumps", "1/3;2/3;8/9", "certified"],
    ]
    code, out, _ = run_job("scan", "--primes", "2..2", "--vars", "x", "-f", "x^17",
                           "--report", "jumps", "--resolution-e", "1", "--s-max", "1")
    assert code == 0
    value, status = out.splitlines()[1].split(",")[2:4]
    assert value.endswith(";15/16;1") and status == "candidate"


def test_scan_fpt_interval_row():
    code, out, _ = run_job("scan", "--primes", "2..2", *QUINTIC_ARGS,
                           "--depth", "1", "--s-max", "2")
    assert code == 0
    assert out.splitlines()[1].startswith("2,fpt,1/8..1/4,interval,")


def test_scan_timeout_marks_later_reports(monkeypatch):
    import charp.cli as cli_mod

    def slow(ring, f, job):
        time.sleep(10)

    hsl = cli_mod.COMMANDS["hsl"]._replace(compute=slow)
    monkeypatch.setitem(cli_mod.COMMANDS, "hsl", hsl)
    code, out, _ = run_job("scan", "--primes", "7..7", *QUINTIC_ARGS,
                           "--report", "hsl,fpt", "--timeout-secs", "1",
                           "--format", "json")
    rows = [json.loads(line) for line in out.splitlines()]
    assert code == 2
    assert [(r["invariant"], r["status"]) for r in rows] == [
        ("hsl", "timeout"), ("fpt", "timeout")]
    assert rows[1]["wall_ms"] == 0


def test_scan_resource_limit_rows():
    code, out, _ = run_job("scan", "--primes", "2..5", "--vars", "x", "-f", "x",
                           "--report", "fpt", "--depth", "100")
    rows = [line.split(",") for line in out.splitlines()[1:]]
    assert code == 2
    assert [row[0] for row in rows] == ["2", "3", "5"]
    assert all(row[3].startswith("resource-limit: ") for row in rows)


def test_scan_pool_is_sized_to_the_primes(monkeypatch):
    # a fake context records the pool size and runs the tasks in-process
    sizes = []

    class Pool:
        def __init__(self, size):
            sizes.append(size)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def imap(self, fn, tasks):
            return map(fn, tasks)

    monkeypatch.setattr(multiprocessing, "get_context",
                        lambda method: SimpleNamespace(Pool=Pool))
    code, out, _ = run_job("scan", "--primes", "2..5", "--vars", "x", "-f", "x",
                           "--report", "hsl", "--threads", "8")
    assert code == 0 and sizes == [3]
    assert len(out.splitlines()) == 4
    code, _, _ = run_job("scan", "--primes", "7..7", "--vars", "x", "-f", "x",
                         "--report", "hsl", "--threads", "8")
    assert code == 0 and sizes == [3]  # one prime needs no pool


def test_scan_failure_rows_keep_going():
    # 5*x collapses to zero mod 5: that prime fails, the others still report
    r = cli("scan", "--primes", "3..7", "--vars", "x", "-f", "5*x+x^2",
            "--report", "hsl")
    assert r.returncode == 0
    rows = {line.split(",")[0]: line for line in r.stdout.strip().splitlines()[1:]}
    assert rows["3"].split(",")[2:4] == ["1", "ok"]
    assert rows["7"].split(",")[2:4] == ["1", "ok"]
    assert rows["5"].split(",")[2:4] == ["1", "ok"]


def test_scan_zero_polynomial_row():
    r = cli("scan", "--primes", "2..3", "--vars", "x", "-f", "2*x",
            "--report", "fpt")
    rows = r.stdout.strip().splitlines()[1:]
    by_prime = {line.split(",")[0]: line.split(",")[3] for line in rows}
    assert by_prime["2"].startswith("error")
    assert by_prime["3"] == "certified"
    assert r.returncode == 0


SHARED_SCAN = ("scan", "--primes", "2..7", *QUINTIC_ARGS, "--report", "fpt,hsl,jumps")


def test_scan_reports_share_one_memo_scope_per_prime(monkeypatch):
    # scan parses f once per prime, and the reports at that prime run in
    # one memo scope: every digit power at a prime sees the same scope
    parsed, scopes = [], {}
    real_parse, real_digit_power = cli_mod.parse_poly, Polynomial.digit_power

    def parse(ring, text):
        parsed.append(real_parse(ring, text))
        return parsed[-1]

    def digit_power(g, r):
        scope = ring_module._SCOPE.get()
        scopes.setdefault(g.ring.p, {})[id(scope)] = scope  # held, so ids stay distinct
        return real_digit_power(g, r)

    monkeypatch.setattr(cli_mod, "parse_poly", parse)
    monkeypatch.setattr(Polynomial, "digit_power", digit_power)
    code, _, _ = run_job(*SHARED_SCAN)
    assert code == 0
    assert [f.ring.p for f in parsed] == [2, 3, 5, 7]
    assert sorted(scopes) == [2, 3, 5, 7]
    assert all(len(seen) == 1 and None not in seen.values() for seen in scopes.values())
    assert len({i for seen in scopes.values() for i in seen}) == 4
    assert ring_module._SCOPE.get() is None


def test_scan_payloads_match_single_commands(monkeypatch):
    # sharing one scope changes no report: each payload of the scan, and so
    # each row, is what the command alone gives
    payloads, real_payload = [], cli_mod._payload

    def payload(name, job, f):
        payloads.append((name, job.prime, real_payload(name, job, f)))
        return payloads[-1][2]

    monkeypatch.setattr(cli_mod, "_payload", payload)
    code, out, _ = run_job(*SHARED_SCAN, "--format", "json")
    monkeypatch.undo()
    rows = [json.loads(line) for line in out.splitlines()]
    assert code == 0 and len(payloads) == len(rows) == 12
    for row, (name, prime, scanned) in zip(rows, payloads):
        code, single, _ = run_job(name, "-p", str(prime), *QUINTIC_ARGS, "--format", "json")
        assert code == 0 and json.loads(single) == scanned
        assert (row["prime"], row["invariant"]) == (prime, name)
        assert [row["value"], row["status"]] == list(COMMANDS[name].scan(scanned))


@pytest.mark.parametrize("poly", ["x^^2", "x+t", "(x+y"])
def test_scan_bad_poly_marks_every_report(poly):
    code, out, _ = run_job("scan", "--primes", "2..7", "--vars", "x,y", "-f", poly,
                           "--report", "fpt,hsl", "--format", "json")
    rows = [json.loads(line) for line in out.splitlines()]
    assert code == 2
    assert [(r["prime"], r["invariant"]) for r in rows] == [
        (p, name) for p in (2, 3, 5, 7) for name in ("fpt", "hsl")]
    assert all(r["value"] == "" and r["status"].startswith("error: ") for r in rows)
    assert len({r["status"] for r in rows}) == 1


def test_failed_cache_store_leaves_no_temp_file(tmp_path, monkeypatch):
    def replace(src, dst):
        raise OSError("rename refused")

    monkeypatch.setattr(cli_mod.os, "replace", replace)
    with pytest.raises(OSError):
        cli_mod._store_cache_entry(str(tmp_path / "p7_tag.json"), "key", {"a": 1})
    code, _, err = run_job("hsl", "-p", "7", *QUINTIC_ARGS, "--cache-dir", str(tmp_path))
    assert code == 3 and "rename refused" in err
    assert list(tmp_path.iterdir()) == []


def test_scan_threads_match_serial(tmp_path):
    serial = cli("scan", "--primes", "2..13", *QUINTIC_ARGS,
                 "--report", "fpt", "--format", "json")
    parallel = cli("scan", "--primes", "2..13", *QUINTIC_ARGS,
                   "--report", "fpt", "--format", "json", "--threads", "3")
    strip = lambda text: [
        {k: v for k, v in json.loads(line).items() if k != "wall_ms"}
        for line in text.strip().splitlines()
    ]
    assert strip(serial.stdout) == strip(parallel.stdout)


def test_cache_roundtrip(tmp_path):
    args = ["tau", "-p", "7", *QUINTIC_ARGS, "--lambda", "6/7",
            "--cache-dir", str(tmp_path)]
    first = cli(*args)
    files = list(tmp_path.iterdir())
    assert first.returncode == 0 and len(files) == 1
    second = cli(*args)
    assert second.stdout == first.stdout
    # corrupt cache is ignored, not fatal
    files[0].write_text("{not json")
    third = cli(*args)
    assert third.stdout == first.stdout


@pytest.mark.parametrize("fmt,kept", [("csv", 2), ("json", 1)])
def test_scan_stops_quietly_when_the_reader_closes_stdout(fmt, kept):
    # like `charp scan ... | head -2`: the reader keeps the first row and
    # closes the pipe, which ends the scan with exit 0 and an empty stderr
    args = ["scan", "--primes", "2..31", "--vars", "x,y,z", "-f", "x^3+y^3+z^3",
            "--report", "fpt,hsl", "--format", fmt]
    with subprocess.Popen(
        [sys.executable, "-m", "charp.cli", *args],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    ) as proc:
        for _ in range(kept):
            assert proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read()
        code = proc.wait(timeout=240)
    assert (code, err) == (0, "")


def test_closed_stdout_keeps_an_error_exit_code():
    # the JSON error object goes nowhere, but the usage error still counts
    with subprocess.Popen(
        [sys.executable, "-m", "charp.cli", "fpt", "-p", "7", "--vars", "x",
         "-f", "x", "--depth", "0", "--format", "json"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    ) as proc:
        proc.stdout.close()
        err = proc.stderr.read()
        code = proc.wait(timeout=240)
    assert (code, err) == (1, "charp: --depth must be positive\n")


def test_cache_audit_detects_poison(tmp_path, monkeypatch):
    job = build_parser().parse_args(
        ["tau", "-p", "7", *QUINTIC_ARGS, "--lambda", "6/7",
         "--cache-dir", str(tmp_path)])
    assert run(job, io.StringIO(), io.StringIO()) == 0
    path = cache_path(str(tmp_path), 7, ("x", "y", "z"), "x^5 + y^5 + z^5")
    entries = json.loads(Path(path).read_text())
    key = cache_key("tau", {"lambda": "6/7"})
    entries["entries"][key] = {"generators": ["x"]}
    with open(path, "w") as fh:
        json.dump(entries, fh)
    import charp.cli as cli_mod
    monkeypatch.setattr(cli_mod, "AUDIT_RATE", 1)  # audit every hit
    out, err = io.StringIO(), io.StringIO()
    assert run(job, out, err) == 3
    assert "audit" in err.getvalue()


def test_env_cache_dir(tmp_path, monkeypatch):
    monkeypatch.setenv("CHARP_CACHE_DIR", str(tmp_path))
    job = build_parser().parse_args(["hsl", "-p", "7", *QUINTIC_ARGS])
    assert job.cache_dir == str(tmp_path)
    assert run(job, io.StringIO(), io.StringIO()) == 0
    assert list(tmp_path.iterdir())


def test_repeated_json_runs_byte_identical():
    a = cli("jumps", "-p", "7", *QUINTIC_ARGS, "--format", "json")
    b = cli("jumps", "-p", "7", *QUINTIC_ARGS, "--format", "json")
    assert a.stdout == b.stdout and a.stdout


def test_main_returns_usage_code():
    assert main(["tau", "-p", "9", "--vars", "x", "-f", "x",
                 "--lambda", "1/2"]) == 1
