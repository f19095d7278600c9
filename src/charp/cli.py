"""Command-line front end: parsing, serialization, result cache, prime scans.

Subcommands map onto the library API: `root` and `tau` print ideals; `fpt`,
`jumps`, and `hsl` print invariant reports; `lucas` answers binomial residue
queries; `scan` sweeps a prime range and streams one record per prime and
requested invariant.  Rationals travel as "num/den" strings end to end, and
JSON output is key-sorted with no timestamps, so repeated runs of the same
job are byte identical.

Exit codes: 0 success, 1 usage or parse error, 2 resource limit, 3 internal
error: a violated invariant or any other unexpected exception, reported in
one line without a traceback.
"""

import argparse
import csv
import hashlib
import json
import multiprocessing
import os
import random
import signal
import sys
import time
from dataclasses import dataclass
from fractions import Fraction

from .errors import CharpError, ResourceLimit, UsageError
from .frobenius import mixed_root
from .groebner import buchberger, unit_ideal
from .hsl import hsl_number
from .lucas import binom_mod_p
from .ring import is_prime, make_ring, parse_poly
from .testideal import FptInterval, fpt, jumps_in_unit_interval, tau

CACHE_VERSION = "1"
AUDIT_RATE = 0.05
DEFAULT_TIMEOUT_SECS = 300
SCAN_REPORTS = ("fpt", "hsl", "jumps")


@dataclass
class JobSpec:
    """One validated unit of work, independent of how it was requested."""

    command: str
    prime: int = 0
    vars: tuple = ()
    poly_text: str = ""
    lam: Fraction = None
    m: int = 1
    n: int = 0
    e: int = 1
    resolution_e: int = 3
    s_max: int = 4
    depth: int = 0
    primes_lo: int = 0
    primes_hi: int = -1
    report: tuple = ("fpt",)
    fmt: str = "text"
    cache_dir: str = None
    timeout_secs: int = DEFAULT_TIMEOUT_SECS
    threads: int = 1


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
    try:
        return int(lo), int(hi)
    except ValueError:
        raise UsageError(f"prime range bounds must be integers, got {text!r}") from None


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
    with open(tmp, "w", encoding="utf-8") as fh:
        fh.write(body)
    os.replace(tmp, path)


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
# single-command execution


def _build_input(job):
    ring = make_ring(job.prime, list(job.vars))
    f = parse_poly(ring, job.poly_text)
    return ring, f


def run_root(job):
    ring, f = _build_input(job)
    return cached_compute(
        job, ring, f, "root", {"m": job.m, "e": job.e},
        lambda: ideal_payload(mixed_root(f, job.m, unit_ideal(ring), job.e)),
    )


def run_tau(job):
    ring, f = _build_input(job)
    return cached_compute(
        job, ring, f, "tau", {"lambda": str(job.lam)},
        lambda: ideal_payload(tau(f, job.lam)),
    )


def run_fpt(job):
    ring, f = _build_input(job)
    depth = job.depth or 4

    def compute():
        result = fpt(f, e_max=depth, s_max=job.s_max)
        if isinstance(result, FptInterval):
            return {"lo": str(result.lo), "hi": str(result.hi), "status": "interval"}
        payload = certificate_payload(result)
        payload["status"] = "certified"
        return payload

    return cached_compute(
        job, ring, f, "fpt", {"depth": depth, "sMax": job.s_max}, compute
    )


def run_jumps(job):
    ring, f = _build_input(job)
    return cached_compute(
        job, ring, f, "jumps",
        {"resolutionE": job.resolution_e, "sMax": job.s_max},
        lambda: [
            certificate_payload(c)
            for c in jumps_in_unit_interval(f, job.resolution_e, s_max=job.s_max)
        ],
    )


def run_hsl(job):
    ring, f = _build_input(job)
    depth = job.depth or 64
    return cached_compute(
        job, ring, f, "hsl", {"depth": depth},
        lambda: _hsl_payload(hsl_number(f, l_max=depth)),
    )


def _hsl_payload(report):
    return {
        "hsl": report.hsl,
        "stabilized": [str(g) for g in buchberger(report.stabilized)],
        "chain": [[str(g) for g in buchberger(I)] for I in report.chain],
    }


def run_lucas(job):
    if not is_prime(job.prime):
        raise UsageError(f"{job.prime} is not prime")
    if job.m < 0 or job.n < 0:
        raise UsageError("binomial arguments must be non-negative")
    residue = binom_mod_p(job.m, job.n, job.prime)
    return {"residue": residue, "nonzero": residue != 0}


def render_text(command, payload) -> str:
    if command in ("root", "tau"):
        return render_ideal_text(payload)
    if command == "fpt":
        if payload["status"] == "interval":
            return f"({payload['lo']}, {payload['hi']}] interval"
        return f"{payload['value']} certified"
    if command == "jumps":
        return "\n".join(f"{c['value']} {c['status']}" for c in payload)
    if command == "hsl":
        return str(payload["hsl"])
    if command == "lucas":
        return str(payload["residue"])
    raise CharpError(f"no text renderer for {command}")


_RUNNERS = {
    "root": run_root,
    "tau": run_tau,
    "fpt": run_fpt,
    "jumps": run_jumps,
    "hsl": run_hsl,
    "lucas": run_lucas,
}


# ---------------------------------------------------------------------------
# scan: sweep a prime range, one worker per prime, per-prime timeout, rows
# buffered and emitted in ascending prime order


class PrimeTimeout(Exception):
    pass


def _alarm_handler(signum, frame):
    raise PrimeTimeout()


def scan_prime(args):
    """Compute all requested invariants of f mod p; never raises.

    Returns a list of row dicts (one per invariant).  A timeout or failure
    becomes a status on the affected rows so the scan keeps going.
    """
    prime, vars, poly_text, reports, job = args
    rows = []
    old_handler = signal.signal(signal.SIGALRM, _alarm_handler)
    signal.alarm(job.timeout_secs)
    try:
        for idx, name in enumerate(reports):
            t0 = time.monotonic()
            try:
                value, status = _scan_one(prime, vars, poly_text, name, job)
            except PrimeTimeout:
                wall = int((time.monotonic() - t0) * 1000)
                rows.append(_scan_row(prime, name, "", "timeout", wall))
                for rest in reports[idx + 1:]:
                    rows.append(_scan_row(prime, rest, "", "timeout", 0))
                break
            except ResourceLimit as exc:
                wall = int((time.monotonic() - t0) * 1000)
                rows.append(_scan_row(prime, name, "", f"resource-limit: {exc}", wall))
            except Exception as exc:
                wall = int((time.monotonic() - t0) * 1000)
                rows.append(_scan_row(prime, name, "", f"error: {exc}", wall))
            else:
                wall = int((time.monotonic() - t0) * 1000)
                rows.append(_scan_row(prime, name, value, status, wall))
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, old_handler)
    return rows


def _scan_row(prime, invariant, value, status, wall_ms):
    return {
        "prime": prime,
        "invariant": invariant,
        "value": value,
        "status": status,
        "wall_ms": wall_ms,
    }


def _scan_one(prime, vars, poly_text, name, job):
    sub = JobSpec(
        command=name,
        prime=prime,
        vars=vars,
        poly_text=poly_text,
        resolution_e=job.resolution_e,
        s_max=job.s_max,
        depth=job.depth,
        cache_dir=job.cache_dir,
    )
    payload = _RUNNERS[name](sub)
    if name == "fpt":
        if payload["status"] == "interval":
            return f"{payload['lo']}..{payload['hi']}", "interval"
        return payload["value"], "certified"
    if name == "hsl":
        return str(payload["hsl"]), "ok"
    if name == "jumps":
        statuses = {c["status"] for c in payload}
        status = "certified" if statuses <= {"certified-jump"} else "candidate"
        return ";".join(c["value"] for c in payload), status
    raise CharpError(f"no scan extractor for {name}")


def run_scan(job, out) -> int:
    for name in job.report:
        if name not in SCAN_REPORTS:
            raise UsageError(
                f"unknown report {name!r}; choose from {', '.join(SCAN_REPORTS)}"
            )
    primes = [q for q in range(max(job.primes_lo, 2), job.primes_hi + 1) if is_prime(q)]
    if not primes:
        return 0

    writer = None
    if job.fmt == "csv":
        writer = csv.DictWriter(
            out, fieldnames=["prime", "invariant", "value", "status", "wall_ms"]
        )
        writer.writeheader()

    tasks = [(q, job.vars, job.poly_text, job.report, job) for q in primes]
    if job.threads > 1:
        ctx = multiprocessing.get_context("fork")
        with ctx.Pool(job.threads) as pool:
            results = pool.imap(scan_prime, tasks)
            failed = _emit_scan_rows(results, job, out, writer)
    else:
        failed = _emit_scan_rows(map(scan_prime, tasks), job, out, writer)
    return 2 if failed == len(primes) else 0


def _emit_scan_rows(results, job, out, writer) -> int:
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

    def add_ring_flags(p):
        p.add_argument("-p", "--prime", type=int, required=True,
                       help="prime characteristic")
        p.add_argument("--vars", required=True,
                       help="comma-separated variable names, e.g. x,y,z")
        p.add_argument("-f", "--poly", required=True,
                       help="polynomial, e.g. 'x^5+y^5+z^5'")

    def add_output_flags(p):
        p.add_argument("--format", choices=("text", "json"), default="text")
        p.add_argument("--cache-dir", default=os.environ.get("CHARP_CACHE_DIR"))

    p = sub.add_parser("root", help="Frobenius root of a power of f")
    add_ring_flags(p)
    p.add_argument("-m", type=int, default=1, help="power of f (default 1)")
    p.add_argument("-e", type=int, default=1, help="root depth (default 1)")
    add_output_flags(p)

    p = sub.add_parser("tau", help="test ideal of f at a rational exponent")
    add_ring_flags(p)
    p.add_argument("--lambda", dest="lam", required=True,
                   help="exponent as num/den, e.g. 48/49")
    add_output_flags(p)

    p = sub.add_parser("fpt", help="F-pure threshold of f")
    add_ring_flags(p)
    p.add_argument("--depth", type=int, default=4,
                   help="p-power search depth (default 4)")
    p.add_argument("--s-max", type=int, default=4,
                   help="largest cyclic period tried (default 4)")
    add_output_flags(p)

    p = sub.add_parser("jumps", help="F-jumping numbers of f in (0, 1]")
    add_ring_flags(p)
    p.add_argument("--resolution-e", type=int, default=3,
                   help="grid resolution exponent (default 3)")
    p.add_argument("--s-max", type=int, default=4,
                   help="largest cyclic period tried (default 4)")
    add_output_flags(p)

    p = sub.add_parser("hsl", help="Frobenius kernel stabilization index of f")
    add_ring_flags(p)
    p.add_argument("--depth", type=int, default=64,
                   help="chain step limit (default 64)")
    add_output_flags(p)

    p = sub.add_parser("lucas", help="binomial coefficient residue mod p")
    p.add_argument("-p", "--prime", type=int, required=True)
    p.add_argument("-m", type=int, required=True, help="top index")
    p.add_argument("-n", type=int, required=True, help="bottom index")
    p.add_argument("--format", choices=("text", "json"), default="text")

    p = sub.add_parser("scan", help="sweep invariants of f over a prime range")
    p.add_argument("--primes", required=True, help="inclusive range, e.g. 2..19")
    p.add_argument("--vars", required=True)
    p.add_argument("-f", "--poly", required=True)
    p.add_argument("--report", default="fpt",
                   help="comma-separated invariants: fpt,hsl,jumps")
    p.add_argument("--resolution-e", type=int, default=3)
    p.add_argument("--s-max", type=int, default=4)
    p.add_argument("--depth", type=int, default=0)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--cache-dir", default=os.environ.get("CHARP_CACHE_DIR"))
    p.add_argument("--timeout-secs", type=int, default=DEFAULT_TIMEOUT_SECS,
                   help="per-prime budget (default 300)")
    p.add_argument("--threads", type=int, default=1,
                   help="worker processes (default 1)")

    return top


def job_from_args(args) -> JobSpec:
    job = JobSpec(command=args.command)
    if args.command == "scan":
        job.primes_lo, job.primes_hi = parse_prime_range(args.primes)
        job.report = tuple(s.strip() for s in args.report.split(",") if s.strip())
        if not job.report:
            raise UsageError("empty --report list")
        job.timeout_secs = args.timeout_secs
        if job.timeout_secs <= 0:
            raise UsageError("--timeout-secs must be positive")
        job.threads = args.threads
        if job.threads < 1:
            raise UsageError("--threads must be at least 1")
    else:
        job.prime = args.prime
    if args.command == "lucas":
        job.m, job.n = args.m, args.n
    else:
        job.vars = parse_vars(args.vars)
        job.poly_text = args.poly
        job.cache_dir = args.cache_dir
    if args.command == "root":
        job.m, job.e = args.m, args.e
        if job.m < 0:
            raise UsageError("-m must be non-negative")
        if job.e < 1:
            raise UsageError("-e must be positive")
    if args.command == "tau":
        job.lam = parse_rational(args.lam)
        if job.lam < 0:
            raise UsageError("--lambda must be non-negative")
    if args.command in ("fpt", "jumps", "scan"):
        job.s_max = args.s_max
        if job.s_max < 1:
            raise UsageError("--s-max must be positive")
    if args.command in ("fpt", "hsl", "scan"):
        job.depth = args.depth
        if job.depth < 0 or (args.command != "scan" and job.depth == 0):
            raise UsageError("--depth must be positive")
    if args.command in ("jumps", "scan"):
        job.resolution_e = args.resolution_e
        if job.resolution_e < 1:
            raise UsageError("--resolution-e must be positive")
    job.fmt = args.format
    return job


def run(job: JobSpec, out=None, err=None) -> int:
    """Execute one job, writing results to out and diagnostics to err."""
    out = out if out is not None else sys.stdout
    err = err if err is not None else sys.stderr
    try:
        if job.command == "scan":
            return run_scan(job, out)
        payload = _RUNNERS[job.command](job)
        if job.fmt == "json":
            out.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")
        else:
            out.write(render_text(job.command, payload) + "\n")
        return 0
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
        out.write(json.dumps({"error": message}, sort_keys=True) + "\n")


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        job = job_from_args(args)
    except UsageError as exc:
        sys.stderr.write(f"charp: {exc}\n")
        return 1
    return run(job)


if __name__ == "__main__":
    sys.exit(main())
