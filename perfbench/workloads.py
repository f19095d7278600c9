"""The benchmark's workloads: their inputs, one timed round, and its checks.

A round runs every operation of a workload once. `run_round(clock)` times
each call into charp as one part of `clock`; `check(outputs)` runs afterwards and
returns (attempted, failed, problems). An operation fails when it raises,
comes back uncertified or fails a check; a problem is a failed check, that
is, a wrong answer.
"""

import csv
import io
import os
import random
import shutil
import signal
import statistics
import tempfile
import time
from contextlib import contextmanager, redirect_stderr, redirect_stdout
from dataclasses import dataclass
from fractions import Fraction

import checks

VARS = ("x", "y", "z")
S_MAX = 4  # charp's default cyclic period bound


def diagonal(d):
    return tuple(tuple(d if j == i else 0 for j in range(len(VARS))) for i in range(len(VARS)))


# polynomials as exponent vectors, all coefficients 1
POLYS = {
    "cubic": diagonal(3),
    "quintic": diagonal(5),
    "nonic": diagonal(9),
    "deg17": diagonal(17),
    "nondiag": ((4, 0, 0), (1, 3, 0), (0, 2, 2), (0, 0, 5)),
}
DIAGONAL_DEGREE = {"cubic": 3, "quintic": 5, "nonic": 9, "deg17": 17}


def poly_text(name):
    def monomial(exps):
        return "*".join(v if k == 1 else f"{v}^{k}" for v, k in zip(VARS, exps) if k)

    return "+".join(monomial(exps) for exps in POLYS[name])


def degree(name):
    return max(sum(exps) for exps in POLYS[name])


def reference_work():
    """A fixed pure-Python computation that shares no code with charp: the
    square of a 144-term polynomial over F_101 held as a dict of exponent
    tuples, which is the shape of charp's own inner loops, done twice."""
    a = {(i, j, 11 - i): (3 * i + j + 1) % 101 for i in range(12) for j in range(12)}
    for _ in range(2):
        out = {}
        for ea, ca in a.items():
            for eb, cb in a.items():
                k = (ea[0] + eb[0], ea[1] + eb[1], ea[2] + eb[2])
                out[k] = (out.get(k, 0) + ca * cb) % 101
    return sorted(out.items())


def _time_reference():
    cpu, wall = time.process_time(), time.perf_counter()
    reference_work()
    return time.process_time() - cpu, time.perf_counter() - wall


def _add(table, label, value):
    table[label] = table.get(label, 0.0) + value


# CPU seconds between samples of the reference inside one part
REFERENCE_EVERY_S = 0.25


class Clock:
    """CPU and wall time of each labelled part of a round and, unless
    `reference` is false, the same times in units of `reference_work`.

    The host's speed drifts by up to a factor of two over spells of seconds
    to minutes, and the part and the reference slow down alike, so the
    ratio stays where the seconds do not. The reference is timed just
    before and just after the part and, from a SIGPROF timer, every
    REFERENCE_EVERY_S of CPU time inside it; the samples taken inside are
    subtracted from the part's own time. (SIGALRM is charp's scan timeout.)
    """

    def __init__(self, reference=True):
        self.reference = reference
        self.cpu, self.wall, self.cpu_ref, self.wall_ref = {}, {}, {}, {}

    @contextmanager
    def part(self, label):
        if not self.reference:
            cpu, wall = time.process_time(), time.perf_counter()
            try:
                yield
            finally:
                _add(self.cpu, label, time.process_time() - cpu)
                _add(self.wall, label, time.perf_counter() - wall)
            return
        samples, armed = [_time_reference()], [True]

        def sample(signum, frame):
            samples.append(_time_reference())
            if armed[0]:  # one-shot, so that a sample never interrupts a sample
                signal.setitimer(signal.ITIMER_PROF, REFERENCE_EVERY_S)

        old = signal.signal(signal.SIGPROF, sample)
        signal.setitimer(signal.ITIMER_PROF, REFERENCE_EVERY_S)
        cpu, wall = time.process_time(), time.perf_counter()
        try:
            yield
        finally:
            armed[0] = False
            signal.setitimer(signal.ITIMER_PROF, 0)  # a pending sample still runs here
            cpu, wall = time.process_time() - cpu, time.perf_counter() - wall
            signal.signal(signal.SIGPROF, old)
            inside = samples[1:]
            cpu -= sum(c for c, _ in inside)
            wall -= sum(w for _, w in inside)
            samples.append(_time_reference())
            _add(self.cpu, label, cpu)
            _add(self.wall, label, wall)
            _add(self.cpu_ref, label, cpu / statistics.fmean(c for c, _ in samples))
            _add(self.wall_ref, label, wall / statistics.fmean(w for _, w in samples))

    def total_cpu(self):
        return sum(self.cpu.values())

    def total_wall(self):
        return sum(self.wall.values())


@dataclass(frozen=True)
class Call:
    kind: str  # "jumps", "fpt" or "hsl"
    poly: str
    p: int
    e_res: int = 0


DIAG_JUMPS = (
    Call("jumps", "quintic", 2, 4),
    Call("jumps", "quintic", 3, 4),
    Call("jumps", "quintic", 7, 3),
    Call("jumps", "quintic", 11, 3),
    Call("jumps", "nonic", 2, 3),
    Call("jumps", "deg17", 2, 4),
)
# jumps at p = 3 alone takes 13 s, more than a whole round of the rest
NONDIAG_GROEBNER = tuple(
    Call(kind, "nondiag", p, 2 if kind == "jumps" else 0)
    for p in (2, 3, 5, 7)
    for kind in ("fpt", "hsl", "jumps")
    if (p, kind) != (3, "jumps")
)


def _summary(result):
    """What a call answered, comparable across rounds and runs."""
    if isinstance(result, Exception):
        return ("error", type(result).__name__)
    if isinstance(result, list):
        return tuple((str(c.value), c.status) for c in result)
    if hasattr(result, "hsl"):
        return result.hsl
    if hasattr(result, "status"):
        return (str(result.value), result.status)
    return ("interval", str(result.lo), str(result.hi))


class LibraryWorkload:
    """Calls jumps_in_unit_interval, fpt and hsl_number; the seed fixes the
    order of the calls in every round of a run."""

    def __init__(self, calls, seed):
        self.calls = list(calls)
        random.Random(seed).shuffle(self.calls)

    def setup_specs(self):
        return sorted({(c.p, c.poly) for c in self.calls})

    def prepare(self):
        import charp

        self.charp = charp
        self.inputs = {
            (p, poly): charp.parse_poly(charp.make_ring(p, VARS), poly_text(poly))
            for p, poly in self.setup_specs()
        }

    def run_round(self, clock):
        charp = self.charp
        results = {}
        for call in self.calls:
            f = self.inputs[(call.p, call.poly)]
            try:
                with clock.part(repr(call)):
                    if call.kind == "jumps":
                        results[call] = charp.jumps_in_unit_interval(f, call.e_res)
                    elif call.kind == "fpt":
                        results[call] = charp.fpt(f)
                    else:
                        results[call] = charp.hsl_number(f)
            except Exception as exc:  # counted as a failed operation
                results[call] = exc
        return results

    def summary(self, results):
        return sorted((repr(call), _summary(r)) for call, r in results.items())

    def check(self, results):
        problems = {}  # call -> problems
        failed = set()
        by_input = {}
        for call, result in results.items():
            by_input.setdefault((call.poly, call.p), {})[call.kind] = (call, result)
            if isinstance(result, Exception) or _uncertified(result):
                failed.add(call)
            else:
                problems[call] = self._check_one(call, result)
        for (poly, p), done in by_input.items():
            values = {}
            for kind, (call, result) in done.items():
                if call not in failed:
                    values[kind] = result
            if "jumps" in values:
                jumps = [c.value for c in values["jumps"]]
                if "fpt" in values and jumps and values["fpt"].value != jumps[0]:
                    problems[done["fpt"][0]].append(
                        f"fpt {values['fpt'].value} != smallest jump {jumps[0]}"
                    )
                if "hsl" in values and values["hsl"].hsl != checks.hsl_from_jumps(jumps, p):
                    problems[done["hsl"][0]].append(
                        f"hsl {values['hsl'].hsl} != {checks.hsl_from_jumps(jumps, p)} "
                        "read off the jumps"
                    )
        messages = [f"{c.kind} {c.poly} p={c.p}: {m}" for c, ms in problems.items() for m in ms]
        failed |= {c for c, ms in problems.items() if ms}
        return len(results), len(failed), messages

    def _check_one(self, call, result):
        poly, p = call.poly, call.p
        if call.kind == "hsl":
            bound = checks.hsl_bound(len(VARS), degree(poly))
            return [f"hsl {result.hsl} above bound {bound}"] if result.hsl > bound else []
        if call.kind == "fpt":
            out = checks.fpt_problems(result.value, poly, POLYS[poly], p)
            if not checks.is_unit(result.tau_left):
                out.append("fpt certificate: tau_left is not the unit ideal")
            certs = [result]
        else:
            values = [c.value for c in result]
            out = checks.jump_shape_problems(values, p, call.e_res + 2 + S_MAX, S_MAX)
            if not values:
                out.append("no jumps in (0, 1)")
            elif poly in DIAGONAL_DEGREE:
                # the F-pure threshold is the smallest jump
                out += checks.fpt_problems(values[0], poly, POLYS[poly], p)
                out += checks.nu_bracket_problems(values[0], DIAGONAL_DEGREE[poly], len(VARS), p)
            certs = result
        for cert in certs:
            if not checks.strictly_inside(cert.tau_at, cert.tau_left):
                out.append(f"certificate at {cert.value}: tau_at not strictly inside tau_left")
        return out


def _uncertified(result):
    if isinstance(result, list):
        return any(c.status != "certified-jump" for c in result)
    if hasattr(result, "hsl"):
        return False
    return getattr(result, "status", None) != "certified-jump"


@dataclass(frozen=True)
class Scan:
    poly: str
    lo: int
    hi: int
    reports: tuple = ("fpt", "hsl")

    def primes(self):
        return [q for q in range(self.lo, self.hi + 1) if all(q % d for d in range(2, q))]


# cubic costs grow fast with p: fpt takes 3 s at p = 23 and 10 s at p = 31
SCAN_CLI = Scan("cubic", 2, 19)
# Python's global random drives the cache audits; seeding it with this
# before each pass makes the audits the same in every round and every run
AUDIT_SEED = 1


class ScanWorkload:
    """`charp scan` through charp.cli.main: a cold pass into a fresh empty
    cache directory, then the same scan on the cache it filled."""

    def __init__(self, scan, out_dir):
        self.scan = scan
        self.out_dir = out_dir

    def setup_specs(self):
        return [(p, self.scan.poly) for p in self.scan.primes()]

    def prepare(self):
        import charp.cli

        self.main = charp.cli.main
        s = self.scan
        self.argv_head = [
            "scan", "--primes", f"{s.lo}..{s.hi}", "--vars", ",".join(VARS),
            "-f", poly_text(s.poly), "--report", ",".join(s.reports), "--cache-dir",
        ]

    def _pass(self, cache_dir):
        out = io.StringIO()
        random.seed(AUDIT_SEED)
        with redirect_stdout(out), redirect_stderr(io.StringIO()):
            code = self.main(self.argv_head + [cache_dir])
        return code, out.getvalue()

    def run_round(self, clock):
        os.makedirs(self.out_dir, exist_ok=True)
        cache_dir = tempfile.mkdtemp(prefix="cache-", dir=self.out_dir)
        try:
            with clock.part("cold"):
                cold = self._pass(cache_dir)
            with clock.part("warm"):
                warm = self._pass(cache_dir)
        finally:
            shutil.rmtree(cache_dir)
        return cold, warm

    def summary(self, outputs):
        return [
            (code, [(r["prime"], r["invariant"], r["value"], r["status"]) for r in _rows(text)])
            for code, text in outputs
        ]

    def check(self, outputs):
        # the exit code is not checked apart: it is nonzero only when every
        # prime failed, which the row statuses already show
        cold, warm = (_rows(text) for _, text in outputs)
        primes, reports = self.scan.primes(), self.scan.reports
        messages = checks.scan_row_problems(cold, warm, primes, reports)
        failed = 0
        for rows in (cold, warm):
            done = {
                (int(r["prime"]), r["invariant"]): r
                for r in rows
                if r["status"] in ("certified", "ok")
            }
            for p in primes:
                for name in reports:
                    row = done.get((p, name))
                    wrong = [] if row is None else self._row_problems(row, p)
                    failed += row is None or bool(wrong)
                    messages += [f"p={p} {name}: {m}" for m in wrong]
        return 2 * len(primes) * len(reports), failed, messages

    def _row_problems(self, row, p):
        poly = self.scan.poly
        if row["invariant"] == "hsl":
            bound = checks.hsl_bound(len(VARS), degree(poly))
            return [f"hsl {row['value']} above {bound}"] if int(row["value"]) > bound else []
        value = Fraction(row["value"])
        return checks.fpt_problems(value, poly, POLYS[poly], p) + checks.nu_bracket_problems(
            value, DIAGONAL_DEGREE[poly], len(VARS), p
        )


def _rows(text):
    return list(csv.DictReader(io.StringIO(text)))


WORKLOADS = {
    "diag-jumps": lambda seed, out_dir: LibraryWorkload(DIAG_JUMPS, seed),
    "nondiag-groebner": lambda seed, out_dir: LibraryWorkload(NONDIAG_GROEBNER, seed),
    "scan-cli": lambda seed, out_dir: ScanWorkload(SCAN_CLI, out_dir),
}
