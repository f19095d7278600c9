"""Run one benchmark workload against the charp sources of this checkout.

    python3 perfbench/run.py --workload diag-jumps --seed 1 --seconds 30 --trace 0

Rounds of the workload repeat while another one still fits in --seconds
(at least one). With --trace 0 the last line of stdout is a JSON object
with the end-to-end metrics of BENCHMARK.json: the CPU and wall time of a
round in units of the reference computation of `workloads.Clock`, taken
as the sum over its operations of each one's median over the rounds, the
set-up time of a fresh interpreter (the least of several started before
each round: a slow start is the host's, not charp's) and the peak RSS.
The same sums in seconds are printed on the line before. With --trace 1 untraced and traced rounds
alternate, at least three pairs of them, and the metrics are the
per-layer ones of the traced round with the median CPU time; its spans go
to perfbench/out/. Every round's outputs are checked; `correct` is false
if any answer was wrong.
"""

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import layertrace
import workloads
from workloads import Clock

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_PER_ROUND = 7
TRACED_PAIRS = 3

# a fresh interpreter: import charp and its CLI, build the rings, parse f
SETUP_CODE = """
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import json, charp, charp.cli
for p, text in json.loads(sys.argv[2]):
    charp.parse_poly(charp.make_ring(p, ["x", "y", "z"]), text)
print(time.perf_counter() - t0)
"""


def measure_setup(workload):
    """Set-up times of SETUP_PER_ROUND fresh interpreters."""
    specs = json.dumps([(p, workloads.poly_text(poly)) for p, poly in workload.setup_specs()])
    times = []
    for _ in range(SETUP_PER_ROUND):
        done = subprocess.run(
            [sys.executable, "-c", SETUP_CODE, str(SRC), specs],
            capture_output=True, text=True, timeout=120, check=True,
        )
        times.append(float(done.stdout))
    return times


class Tally:
    """Operations attempted and failed, wrong answers, and the first
    round's outputs that every later round must repeat."""

    def __init__(self, workload):
        self.workload = workload
        self.attempted = self.failed = 0
        self.problems = []
        self.reference = None

    def add(self, outputs):
        attempted, failed, problems = self.workload.check(outputs)
        self.attempted += attempted
        self.failed += failed
        self.problems += problems
        summary = self.workload.summary(outputs)
        if self.reference is None:
            self.reference = summary
        elif summary != self.reference:
            self.problems.append("outputs differ from the first round's")


def rounds_within(seconds, run_round, at_least=1):
    """Call run_round() at least `at_least` times, then while another round
    of the mean length so far still ends within `seconds`."""
    start = time.perf_counter()
    done = 0
    while True:
        run_round()
        done += 1
        elapsed = time.perf_counter() - start
        if done >= at_least and elapsed * (done + 1) / done > seconds:
            return


def per_part_median(clocks, kind):
    """Sum over the parts of a round of each part's median over the rounds."""
    per_part = [getattr(c, kind) for c in clocks]
    return sum(statistics.median(p[label] for p in per_part) for label in per_part[0])


def untraced_run(workload, seconds, tally):
    """The rounds' clocks, and the least set-up time of the interpreters
    started before each round: spread over the run, they catch the host's
    fast moments more surely than a batch at the start would."""
    clocks, setup_times = [], []

    def one_round():
        setup_times.extend(measure_setup(workload))
        clock = Clock()
        tally.add(workload.run_round(clock))
        clocks.append(clock)

    rounds_within(seconds, one_round)
    return clocks, min(setup_times)


def traced_run(workload, seconds, tally, trace_path, meta):
    """Pairs of an untraced and a traced round, at least TRACED_PAIRS of
    them whatever `seconds` is; the tracing overhead is the median over
    pairs of the traced round's CPU time minus the untraced one's, so that
    drift in the host's speed cancels."""
    pairs = []

    def one_pair():
        base, clock = Clock(reference=False), Clock(reference=False)
        tracer = layertrace.Tracer()
        tally.add(workload.run_round(base))
        with tracer.installed():
            outputs = workload.run_round(clock)
        tally.add(outputs)
        pairs.append((base, clock, tracer, tracer.metrics(clock.total_wall())))

    rounds_within(seconds, one_pair, at_least=TRACED_PAIRS)
    counts = [{k: v for k, v in m.items() if isinstance(v, int)} for *_, m in pairs]
    if any(c != counts[0] for c in counts):
        tally.problems.append("traced counts differ between rounds")
    overhead = statistics.median(c.total_cpu() - b.total_cpu() for b, c, _, _ in pairs)
    pairs.sort(key=lambda pair: pair[1].total_cpu())
    _, _, tracer, metrics = pairs[len(pairs) // 2]
    metrics["trace.overhead_s"] = overhead
    OUT.mkdir(exist_ok=True)
    tracer.write(trace_path, {**meta, "metrics": metrics})
    return metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "charp" / "__init__.py").is_file():
        print(f"perfbench: no charp sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    sys.path.insert(0, str(SRC))
    workload = workloads.WORKLOADS[args.workload](args.seed, str(OUT))
    workload.prepare()
    tally = Tally(workload)

    if args.trace:
        name = f"trace-{args.workload}-seed{args.seed}.json.gz"
        meta = {"workload": args.workload, "seed": args.seed}
        measured = traced_run(workload, args.seconds, tally, OUT / name, meta)
        for key in sorted(measured):
            print(f"{key:32} {measured[key]}")
        print(f"spans written to {OUT / name}")
    else:
        clocks, setup_s = untraced_run(workload, args.seconds, tally)
        measured = {
            "cpu_ref": per_part_median(clocks, "cpu_ref"),
            "wall_ref": per_part_median(clocks, "wall_ref"),
            "setup_s": setup_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        print(f"rounds {len(clocks)}: cpu_s " + " ".join(f"{c.total_cpu():.3f}" for c in clocks))
        print(f"in seconds: cpu_s {per_part_median(clocks, 'cpu'):.4f}"
              f" wall_s {per_part_median(clocks, 'wall'):.4f}")
    for problem in tally.problems:
        print(f"perfbench: wrong output: {problem}", file=sys.stderr)
    result = {
        "correct": not tally.problems,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {
            m["name"]: {"value": measured[m["name"]], "unit": m["unit"]} for m in declared
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
