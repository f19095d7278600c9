"""Command-line front end: parsing, serialization, result cache, prime scans.

Subcommands map onto the library API: `root` and `tau` print ideals; `fpt`,
`jumps`, and `hsl` print invariant reports; `lucas` answers binomial residue
queries; `scan` sweeps a prime range and streams one record per prime and
requested invariant.  Each subcommand is one entry of `COMMANDS`: its flags,
its computation, its text rendering and, for the invariants `scan` can
report, its scan row.  A job is the namespace build_parser().parse_args
returns: argparse checks only its structure, and `run` converts each flag's
text with that flag's own type.  Rationals travel as "num/den" strings end to
end, and JSON output is key-sorted with no timestamps, so repeated runs of
the same job are byte identical.

Exit codes: 0 success, 1 usage or parse error, 2 resource limit, 3 internal
error: a violated invariant or any other unexpected exception, reported in
one line without a traceback.  A reader that closes stdout early is no
error: the command stops quietly, with 0 unless it had already failed.
"""

import argparse
import contextlib
import csv
import hashlib
import json
import os
import random
import signal
import sys
import time
from fractions import Fraction
from typing import NamedTuple

from .errors import CharpError, ResourceLimit, UsageError
from .frobenius import mixed_root
from .groebner import buchberger, unit_ideal
from .hsl import hsl_number
from .lucas import binom_mod_p
from .ring import is_prime, make_ring, parse_poly, per_call_memo
from .testideal import FptInterval, fpt, jumps_in_unit_interval, tau

CACHE_VERSION = "1"
AUDIT_RATE = 0.05
ALARM_MAX_SECS = 2**31 - 1  # the longest delay signal.alarm accepts


def parse_rational(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise UsageError(f"not a rational number: {text!r}") from None


def parse_vars(text: str):
    names = [s.strip() for s in text.split(",")]
    if names == [""]:
        names = []
    return tuple(names)


def parse_prime_range(text: str):
    lo, sep, hi = text.partition("..")
    if not sep:
        raise UsageError(f"prime range must look like lo..hi, got {text!r}")
    lo, hi = int(lo), int(hi)
    if lo > hi:
        raise UsageError(f"empty prime range {text!r}: {lo} > {hi}")
    return lo, hi


def parse_reports(text: str):
    names = tuple(s.strip() for s in text.split(",") if s.strip())
    if not names:
        raise UsageError("empty --report list")
    for name in names:
        if name not in SCAN_REPORTS:
            raise UsageError(
                f"unknown report {name!r}; choose from {', '.join(SCAN_REPORTS)}"
            )
    return names


def parse_timeout(text: str) -> int:
    secs = int(text)
    if secs > ALARM_MAX_SECS:
        raise UsageError(f"--timeout-secs must be at most {ALARM_MAX_SECS}")
    return secs


def ideal_payload(I) -> dict:
    return {"generators": [str(g) for g in buchberger(I)]}


def certificate_payload(cert) -> dict:
    return {
        "value": str(cert.value),
        "status": cert.status,
        "tauAt": [str(g) for g in buchberger(cert.tau_at)],
        "tauLeft": [str(g) for g in buchberger(cert.tau_left)],
    }


def render_ideal_text(payload: dict) -> str:
    gens = payload["generators"]
    return "(" + ", ".join(gens) + ")" if gens else "(0)"


# ---------------------------------------------------------------------------
# result cache: one JSON file per (prime, variables, polynomial), entries
# keyed by a stable description of the operation and its parameters, atomic
# write-then-rename publication so concurrent scan workers never corrupt it


def cache_path(cache_dir, prime, vars, poly_canonical):
    tag = hashlib.sha256(
        f"{prime}|{','.join(vars)}|{poly_canonical}".encode()
    ).hexdigest()[:24]
    return os.path.join(cache_dir, f"p{prime}_{tag}.json")


def cache_key(op: str, params: dict) -> str:
    return json.dumps({"op": op, **params}, sort_keys=True)


def _load_cache_file(path):
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, ValueError):
        return {}
    if not isinstance(data, dict) or data.get("version") != CACHE_VERSION:
        return {}
    entries = data.get("entries")
    return entries if isinstance(entries, dict) else {}


def _store_cache_entry(path, key, payload):
    entries = _load_cache_file(path)
    entries[key] = payload
    body = json.dumps(
        {"version": CACHE_VERSION, "entries": entries}, sort_keys=True
    )
    tmp = f"{path}.tmp.{os.getpid()}.{random.randrange(1 << 30)}"
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(body)
        os.replace(tmp, path)
    except BaseException:
        # a timeout or a failed write must not leave the temp file behind
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise


def cached_compute(job, ring, f, op, params, compute):
    """Return compute(), going through the cache when one is configured.

    A random fraction of cache hits is audited against a fresh computation;
    a mismatch is an internal invariant violation, not a usage error.
    """
    if not job.cache_dir:
        return compute()
    path = cache_path(job.cache_dir, ring.p, ring.vars, str(f))
    key = cache_key(op, params)
    entries = _load_cache_file(path)
    if key in entries:
        hit = entries[key]
        if random.random() < AUDIT_RATE:
            fresh = compute()
            if fresh != hit:
                raise CharpError(
                    f"cache audit mismatch for {key} in {path}: "
                    f"cached {hit!r} != fresh {fresh!r}"
                )
        return hit
    payload = compute()
    _store_cache_entry(path, key, payload)
    return payload


# ---------------------------------------------------------------------------
# the command table: every flag is declared once, and each subcommand lists
# the flags it takes


class Flag(NamedTuple):
    """One command-line flag and the job attribute `dest` it fills.

    argparse only collects the flag's text; `convert` turns it into a value
    with `type`, which may raise UsageError or ValueError, and rejects a
    value below `minimum` (0 or 1).  A flag with a `key` parametrizes a
    computation: the value goes into its cache key under that name.  A
    callable default is read when the parser is built.
    """

    names: tuple
    dest: str
    help: str
    type: object = int
    default: object = None
    required: bool = False
    choices: tuple = None
    minimum: int = None
    key: str = None

    def add_to(self, parser):
        default = self.default() if callable(self.default) else self.default
        help = self.help if default is None else f"{self.help} (default {default})"
        parser.add_argument(
            *self.names, dest=self.dest, default=default,
            required=self.required, choices=self.choices, help=help,
        )

    def convert(self, job):
        """Replace the flag's text on job by its checked value.  A value that
        is not text (a default, or one already converted) is only checked."""
        value = getattr(job, self.dest)
        if isinstance(value, str):
            try:
                value = self.type(value)
            except ValueError:
                raise UsageError(f"invalid {self.names[-1]} value: {value!r}") from None
        if self.minimum is not None and value < self.minimum:
            rule = "positive" if self.minimum else "non-negative"
            raise UsageError(f"{self.names[-1]} must be {rule}")
        setattr(job, self.dest, value)


PRIME = Flag(("-p", "--prime"), "prime", "prime characteristic", required=True)
VARS = Flag(("--vars",), "vars", "comma-separated variable names, e.g. x,y,z",
            type=parse_vars, required=True)
POLY = Flag(("-f", "--poly"), "poly", "polynomial, e.g. 'x^5+y^5+z^5'",
            type=str, required=True)
FORMAT = Flag(("--format",), "fmt", "output format", type=str, default="text",
              choices=("text", "json"))
CACHE_DIR = Flag(("--cache-dir",), "cache_dir", "result cache directory", type=str,
                 default=lambda: os.environ.get("CHARP_CACHE_DIR"))
POWER = Flag(("-m",), "m", "power of f", default=1, minimum=0, key="m")
ROOT_DEPTH = Flag(("-e",), "e", "root depth", default=1, minimum=1, key="e")
LAMBDA = Flag(("--lambda",), "lam", "exponent as num/den, e.g. 48/49",
              type=parse_rational, required=True, minimum=0, key="lambda")
DEPTH = Flag(("--depth",), "depth", "p-power search depth of fpt", default=4,
             minimum=1, key="depth")
S_MAX = Flag(("--s-max",), "s_max", "largest cyclic period tried", default=4,
             minimum=1, key="sMax")
# jumps reads every jump off the digit automaton, so its answer depends on
# neither of these: they stay accepted, and stay out of its cache key
RESOLUTION_E = Flag(("--resolution-e",), "resolution_e",
                    "ignored: jumps needs no search depth", default=3, minimum=1)
JUMPS_S_MAX = S_MAX._replace(help="ignored: jumps needs no period bound", key=None)
TOP = Flag(("-m",), "m", "top index", required=True, minimum=0)
BOTTOM = Flag(("-n",), "n", "bottom index", required=True, minimum=0)
PRIMES = Flag(("--primes",), "primes", "inclusive range, e.g. 2..19",
              type=parse_prime_range, required=True)
REPORTS = Flag(("--report",), "report", "comma-separated invariants, e.g. fpt,hsl",
               type=parse_reports, default="fpt")
SCAN_FORMAT = Flag(("--format",), "fmt", "output format", type=str, default="csv",
                   choices=("csv", "json"))
TIMEOUT = Flag(("--timeout-secs",), "timeout_secs", "per-prime budget",
               type=parse_timeout, default=300, minimum=1)
THREADS = Flag(("--threads",), "threads", "worker processes", default=1, minimum=1)


class Command(NamedTuple):
    """One subcommand: its flags, compute(ring, f, job) -> JSON-able payload,
    text(payload) -> its text output, and for the invariants `scan` reports,
    scan(payload) -> (value, status) of its row."""

    help: str
    flags: tuple
    compute: object = None
    text: object = None
    scan: object = None


def _fpt_payload(ring, f, job):
    result = fpt(f, e_max=job.depth, s_max=job.s_max)
    if isinstance(result, FptInterval):
        return {"lo": str(result.lo), "hi": str(result.hi), "status": "interval"}
    return {**certificate_payload(result), "status": "certified"}


def _fpt_text(payload):
    if payload["status"] == "interval":
        return f"({payload['lo']}, {payload['hi']}] interval"
    return f"{payload['value']} certified"


def _fpt_row(payload):
    if payload["status"] == "interval":
        return f"{payload['lo']}..{payload['hi']}", "interval"
    return payload["value"], "certified"


def _jumps_row(certs):
    return ";".join(c["value"] for c in certs), "certified"


def _hsl_payload(report):
    return {
        "hsl": report.hsl,
        "stabilized": [str(g) for g in buchberger(report.stabilized)],
        "chain": [[str(g) for g in buchberger(I)] for I in report.chain],
    }


def _lucas_payload(ring, f, job):
    if not is_prime(job.prime):
        raise UsageError(f"{job.prime} is not prime")
    residue = binom_mod_p(job.m, job.n, job.prime)
    return {"residue": residue, "nonzero": residue != 0}


INPUT = (PRIME, VARS, POLY)
OUTPUT = (FORMAT, CACHE_DIR)

COMMANDS = {
    "root": Command(
        "Frobenius root of a power of f", (*INPUT, POWER, ROOT_DEPTH, *OUTPUT),
        lambda ring, f, job: ideal_payload(mixed_root(f, job.m, unit_ideal(ring), job.e)),
        render_ideal_text,
    ),
    "tau": Command(
        "test ideal of f at a rational exponent", (*INPUT, LAMBDA, *OUTPUT),
        lambda ring, f, job: ideal_payload(tau(f, job.lam)),
        render_ideal_text,
    ),
    "fpt": Command(
        "F-pure threshold of f", (*INPUT, DEPTH, S_MAX, *OUTPUT),
        _fpt_payload, _fpt_text, _fpt_row,
    ),
    "hsl": Command(
        "Frobenius kernel stabilization index of f", (*INPUT, *OUTPUT),
        lambda ring, f, job: _hsl_payload(hsl_number(f)),
        lambda payload: str(payload["hsl"]),
        lambda payload: (str(payload["hsl"]), "ok"),
    ),
    "jumps": Command(
        "F-jumping numbers of f in (0, 1]", (*INPUT, RESOLUTION_E, JUMPS_S_MAX, *OUTPUT),
        lambda ring, f, job: [
            certificate_payload(c)
            for c in jumps_in_unit_interval(f, job.resolution_e, s_max=job.s_max)
        ],
        lambda certs: "\n".join(f"{c['value']} {c['status']}" for c in certs),
        _jumps_row,
    ),
    "lucas": Command(
        "binomial coefficient residue mod p", (PRIME, TOP, BOTTOM, FORMAT),
        _lucas_payload,
        lambda payload: str(payload["residue"]),
    ),
}
SCAN_REPORTS = tuple(name for name, command in COMMANDS.items() if command.scan)
# scan takes every option of its reports, the first report's where two
# share one (fpt's --s-max sets the job's s_max, which jumps ignores)
_REPORT_FLAGS = {}
for _name in SCAN_REPORTS:
    for _flag in COMMANDS[_name].flags:
        if _flag not in INPUT + OUTPUT:
            _REPORT_FLAGS.setdefault(_flag.dest, _flag)
COMMANDS["scan"] = Command(
    "sweep invariants of f over a prime range",
    (PRIMES, VARS, POLY, REPORTS, *_REPORT_FLAGS.values(), SCAN_FORMAT, CACHE_DIR,
     TIMEOUT, THREADS),
)


def _parse_job_poly(job):
    return parse_poly(make_ring(job.prime, list(job.vars)), job.poly)


def _payload(name, job, f):
    """Payload of subcommand `name` for job and the parsed f, through the
    cache; lucas reads no polynomial (f is None) and caches nothing."""
    command = COMMANDS[name]
    if f is None:
        return command.compute(None, None, job)
    ring = f.ring
    values = ((fl.key, getattr(job, fl.dest)) for fl in command.flags if fl.key)
    params = {key: str(v) if isinstance(v, Fraction) else v for key, v in values}
    return cached_compute(
        job, ring, f, name, params, lambda: command.compute(ring, f, job)
    )


# ---------------------------------------------------------------------------
# scan: sweep a prime range, one worker per prime, per-prime timeout, rows
# buffered and emitted in ascending prime order


class PrimeTimeout(Exception):
    pass


def _alarm_handler(signum, frame):
    raise PrimeTimeout()


def _failure_status(exc):
    """The status of a scan row whose computation raised exc."""
    if isinstance(exc, PrimeTimeout):
        return "timeout"
    if isinstance(exc, ResourceLimit):
        return f"resource-limit: {exc}"
    return f"error: {exc}"


@per_call_memo
def scan_prime(job):
    """Compute all requested invariants of f mod job.prime; never raises.

    Returns a list of row dicts (one per invariant).  A timeout or failure
    becomes a status on the affected rows so the scan keeps going; one met
    while parsing f marks every row.  The reports run in one memo scope, so
    they share the digit powers and root levels of f at this prime.
    """
    old_handler = signal.signal(signal.SIGALRM, _alarm_handler)
    signal.alarm(job.timeout_secs)
    try:
        rows, reports = [], job.report
        try:
            f = _parse_job_poly(job)
        except Exception as exc:
            status = _failure_status(exc)
            return [_scan_row(job.prime, r, "", status, 0) for r in reports]
        for idx, name in enumerate(reports):
            t0 = time.monotonic()
            try:
                value, status = COMMANDS[name].scan(_payload(name, job, f))
            except Exception as exc:
                value, status = "", _failure_status(exc)
            wall = int((time.monotonic() - t0) * 1000)
            rows.append(_scan_row(job.prime, name, value, status, wall))
            if status == "timeout":
                rows += [_scan_row(job.prime, r, "", "timeout", 0) for r in reports[idx + 1:]]
                break
        return rows
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, old_handler)


SCAN_FIELDS = ("prime", "invariant", "value", "status", "wall_ms")


def _scan_row(*values):
    return dict(zip(SCAN_FIELDS, values))


def run_scan(job, out) -> int:
    lo, hi = job.primes
    primes = [q for q in range(max(lo, 2), hi + 1) if is_prime(q)]
    writer = None
    if job.fmt == "csv":
        writer = csv.DictWriter(out, fieldnames=SCAN_FIELDS)
        writer.writeheader()
    if not primes:
        return 0

    tasks = [argparse.Namespace(**{**vars(job), "prime": q}) for q in primes]
    threads = min(job.threads, len(primes))
    if threads > 1:
        import multiprocessing  # only threaded scans pay for this import

        ctx = multiprocessing.get_context("fork")
        with ctx.Pool(threads) as pool:
            failed = _emit_scan_rows(pool.imap(scan_prime, tasks), out, writer)
    else:
        failed = _emit_scan_rows(map(scan_prime, tasks), out, writer)
    return 2 if failed == len(primes) else 0


def _emit_scan_rows(results, out, writer) -> int:
    failed = 0
    for rows in results:
        if all(row["status"].split(":")[0] in ("timeout", "resource-limit", "error")
               for row in rows):
            failed += 1
        for row in rows:
            if writer is not None:
                writer.writerow(row)
            else:
                out.write(json.dumps(row, sort_keys=True) + "\n")
        out.flush()
    return failed


# ---------------------------------------------------------------------------
# argument parsing


class _Parser(argparse.ArgumentParser):
    """argparse that reports bad usage through the package's own error type
    (argparse's default exit code collides with the resource-limit code)."""

    def error(self, message):
        raise UsageError(message)


def build_parser():
    top = _Parser(prog="charp", description=__doc__.splitlines()[0])
    sub = top.add_subparsers(dest="command", required=True)
    for name, command in COMMANDS.items():
        p = sub.add_parser(name, help=command.help)
        for flag in command.flags:
            flag.add_to(p)
    return top


def run(job, out=None, err=None) -> int:
    """Execute the job that build_parser().parse_args returned, writing
    results to out and diagnostics to err.  Every flag's text is converted
    and checked on job first, so a bad value fails like any usage error."""
    out = out if out is not None else sys.stdout
    err = err if err is not None else sys.stderr
    try:
        for flag in COMMANDS[job.command].flags:
            flag.convert(job)
        if job.command == "scan":
            return run_scan(job, out)
        f = _parse_job_poly(job) if POLY in COMMANDS[job.command].flags else None
        payload = _payload(job.command, job, f)
        if job.fmt == "json":
            out.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")
        else:
            out.write(COMMANDS[job.command].text(payload) + "\n")
        return 0
    except BrokenPipeError:
        raise  # the reader closed out: main ends quietly
    except CharpError as exc:
        _report_error(job, out, err, str(exc))
        if isinstance(exc, UsageError):
            return 1
        if isinstance(exc, ResourceLimit):
            return 2
        return 3
    except Exception as exc:
        # any other exception is a bug; repr keeps the report on one line
        _report_error(job, out, err, f"internal error: {exc!r}")
        return 3


def _report_error(job, out, err, message):
    err.write(f"charp: {message}\n")
    if job.fmt == "json":
        # a reader that closed out takes no error object, and the error
        # keeps its exit code
        with contextlib.suppress(BrokenPipeError):
            out.write(json.dumps({"error": message}, sort_keys=True) + "\n")


def main(argv=None) -> int:
    try:
        job = build_parser().parse_args(argv)
    except UsageError as exc:
        sys.stderr.write(f"charp: {exc}\n")
        return 1
    code = 0
    try:
        code = run(job)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader stopped reading, which is no error: a command it cuts
        # short ends with 0, and one that failed keeps its code.  Point
        # stdout at devnull so that the flush at exit cannot fail again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
    return code


if __name__ == "__main__":
    sys.exit(main())
