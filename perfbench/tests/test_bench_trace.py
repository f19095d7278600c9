"""The traced run: wrappers come off, outputs and counts repeat, and the
self times account for the traced total. Also the end-to-end command."""

import json
import shutil
import signal
import subprocess
import sys
from pathlib import Path

import charp
import layertrace
import pytest
from workloads import Call, Clock, LibraryWorkload, Scan, ScanWorkload, reference_work

BENCH = Path(__file__).resolve().parent.parent

SMALL_CALLS = (
    Call("jumps", "quintic", 2, 4),
    Call("fpt", "nondiag", 2),
    Call("hsl", "nondiag", 2),
    Call("jumps", "nondiag", 2, 2),
)


def small_workloads(tmp_path):
    library = LibraryWorkload(SMALL_CALLS, seed=0)
    scan = ScanWorkload(Scan("cubic", 2, 7), str(tmp_path))
    for w in (library, scan):
        w.prepare()
    return library, scan


def traced_round(workload):
    tracer, clock = layertrace.Tracer(), Clock(reference=False)
    with tracer.installed():
        outputs = workload.run_round(clock)
    return outputs, tracer.metrics(clock.total_wall())


def namespace_snapshot():
    modules = [charp, *layertrace._modules().values()]
    snap = {(m.__name__, k): v for m in modules for k, v in vars(m).items()}
    for cls in (charp.Polynomial, charp.RingContext):
        snap.update({(cls.__name__, k): v for k, v in vars(cls).items()})
    return snap


def test_wrappers_shared_and_removed(tmp_path):
    library, _ = small_workloads(tmp_path)
    before = namespace_snapshot()
    tracer = layertrace.Tracer()
    with tracer.installed():
        wrapped = charp.frobenius.mixed_root
        assert wrapped is not before[("charp.frobenius", "mixed_root")]
        for mod in (charp.testideal, charp.hsl, charp.cli):
            assert mod.mixed_root is wrapped
        assert charp.Polynomial.__mul__.__wrapped__ is before[("Polynomial", "__mul__")]
        library.run_round(Clock())
    after = namespace_snapshot()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_traced_outputs_equal_untraced(tmp_path):
    for workload in small_workloads(tmp_path):
        plain = workload.summary(workload.run_round(Clock()))
        traced, _ = traced_round(workload)
        assert workload.summary(traced) == plain


def test_counts_repeat_and_self_times_add_up(tmp_path):
    for workload in small_workloads(tmp_path):
        runs = [traced_round(workload)[1] for _ in range(2)]
        counts = [{k: v for k, v in m.items() if isinstance(v, int)} for m in runs]
        assert counts[0] == counts[1]
        for m in runs:
            self_sum = sum(m[f"{layer}.self_s"] for layer in layertrace.LAYERS)
            assert m["trace.outside_s"] >= 0
            assert self_sum + m["trace.outside_s"] == pytest.approx(m["trace.total_s"], abs=1e-9)


def test_layer_counts(tmp_path):
    library, scan = small_workloads(tmp_path)
    _, m = traced_round(library)
    assert m["testideal.grid_probes"] > 0 and m["testideal.nu.probes"] > 0
    assert m["hsl.chain_steps"] > 0 and m["groebner.rgb.calls"] > 0
    assert m["testideal.certified"] == 3 + 1 + 2  # quintic jumps, fpt, quartic jumps
    assert m["cli.cache.loads"] == 0
    _, m = traced_round(scan)
    rows = 4 * 2  # primes 2, 3, 5, 7 times fpt, hsl
    assert (m["cli.cache.loads"], m["cli.cache.stores"], m["cli.cache.hits"]) == (2 * rows, rows, rows)


def test_clock_reference_units():
    before = signal.getsignal(signal.SIGPROF)
    clock = Clock()
    with clock.part("busy"):
        for _ in range(40):
            reference_work()
    # the timer is off and the handler restored, even with samples inside
    assert signal.getitimer(signal.ITIMER_PROF) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGPROF) is before
    # forty reference computations, less the samples taken among them
    assert 20 < clock.cpu_ref["busy"] < 60
    assert 20 < clock.wall_ref["busy"] < 60


def test_checks_flag_wrong_answers(tmp_path):
    _, scan = small_workloads(tmp_path)
    (code, cold), warm = scan.run_round(Clock())
    assert scan.check(((code, cold), warm))[1:] == (0, [])
    wrong = cold.replace("2,fpt,1/2,", "2,fpt,1/4,")
    attempted, failed, problems = scan.check(((code, wrong), warm))
    assert failed >= 1 and problems


def run_bench(cwd, *args):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        capture_output=True, text=True, timeout=300, cwd=cwd,
    )


def test_run_prints_every_metric():
    done = run_bench(BENCH.parent, "--workload", "scan-cli", "--seed", "3",
                     "--seconds", "0", "--trace", "0")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert set(result["metrics"]) == {m["name"] for m in spec["end_to_end"]}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] == 32


def test_run_fails_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    done = run_bench(tmp_path, "--workload", "scan-cli", "--seed", "1",
                     "--seconds", "1", "--trace", "0")
    assert done.returncode != 0
    assert "{" not in done.stdout


def test_traced_runs_repeat_counts():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    results = []
    for seed in ("1", "2"):
        done = run_bench(BENCH.parent, "--workload", "scan-cli", "--seed", seed,
                         "--seconds", "0", "--trace", "1")
        assert done.returncode == 0, done.stderr
        results.append(json.loads(done.stdout.strip().splitlines()[-1]))
    for result in results:
        assert result["correct"]
        assert set(result["metrics"]) == {m["name"] for m in spec["per_layer"]}
    counts = [
        {k: v["value"] for k, v in r["metrics"].items() if v["unit"] == "count"}
        for r in results
    ]
    assert counts[0] == counts[1]
    assert counts[0]["cli.cache.audits"] == 2
