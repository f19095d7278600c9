"""The demo scripts run to the end and print what they promise.

Each script runs in its own interpreter with `src` on the path and no
result cache, as a reader would run it from a checkout.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def run_demo(name):
    env = {k: v for k, v in os.environ.items() if k != "CHARP_CACHE_DIR"}
    env["PYTHONPATH"] = str(ROOT / "src")
    r = subprocess.run(
        [sys.executable, str(ROOT / "demos" / name)],
        capture_output=True, text=True, timeout=240, env=env,
    )
    assert r.returncode == 0, r.stderr
    return r.stdout.splitlines()


@pytest.mark.parametrize("name,line", [
    ("quintic_tables.py", "  7      4/7    2  4/7, 5/7, 6/7, 48/49"),
    ("diagonal_family.py", "  certified jumps in [6/7, 48/49]: 6/7, 48/49"),
])
def test_demo_prints_line(name, line):
    assert line in run_demo(name)


def test_prime_scan_certifies_the_threshold_at_7():
    rows = run_demo("prime_scan.py")
    assert any(row.startswith("7,fpt,4/7,certified,") for row in rows)
