"""Outputs pinned to recordings: CLI stdout byte for byte, test ideals entry by entry.

`quartic_cli_json.json` holds the JSON output for a non-diagonal quartic,
recorded from the Buchberger that reduced every S-pair, before the pair
queue and the Gebauer-Moeller criteria; the reduced basis is canonical, so
every byte must still agree. `cli_outputs.json` holds the text output of
every subcommand, `lucas` in both formats, `jumps` as JSON and the `fpt`
interval fallback, recorded from the CLI before its command table.
`tau_sides.json` holds the reduced bases of tau and tau_left and the
is_fjumping status at every exponent in (0, 2] with denominator 1, p, p^2,
p - 1, p(p - 1) or p^2 - 1, recorded while tau and its left limit still
went through separate routines. `search_calls.json` holds, for `fpt` and
`jumps_in_unit_interval` on two quintic-degree forms, the ordered tau and
tau_left calls each search makes, recorded before both searches shared one
drop rule; the same calls mean the same work. Its `jumps` entries were
rerecorded when the jumps came to be read off the digit automaton, which
calls neither: their answers are unchanged. `scan_rows.json` holds the
rows, without `wall_ms`, of two `charp scan` runs in CSV and JSON, each a
cold and a warm pass on one fresh cache directory with every warm hit
audited, recorded while each report at a prime still parsed f and built its
digit powers on its own. Rerecord a file with
`PYTHONPATH=src python tests/test_golden.py tau_sides.json` (or
`search_calls.json`, `scan_rows.json`).
"""

import contextlib
import csv
import io
import json
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

import pytest

import charp.cli as cli
import charp.testideal as testideal
from charp import (
    FptInterval,
    fpt,
    is_fjumping,
    jumps_in_unit_interval,
    make_ring,
    parse_poly,
    tau,
    tau_left,
)
from charp.cli import main

GOLDEN = Path(__file__).parent / "golden"


def _cases(name, id_of):
    cases = json.loads((GOLDEN / name).read_text())
    return [pytest.param(c, id=id_of(c["argv"])) for c in cases]


CASES = _cases("quartic_cli_json.json", lambda argv: " ".join(argv[:3] + argv[7:-2]))
CASES += _cases("cli_outputs.json", " ".join)


@pytest.mark.parametrize("case", CASES)
def test_quartic_json_output_matches_recording(case, monkeypatch):
    monkeypatch.delenv("CHARP_CACHE_DIR", raising=False)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(case["argv"]) == 0
    assert out.getvalue() == case["stdout"]


SIDES = [(3, ["x", "y", "z"], "x^4+x*y^3+y^2*z^2+z^5"), (7, ["x", "y"], "x^2+y^3")]


def _exponents(p):
    dens = {1, p, p * p, p - 1, p * (p - 1), p * p - 1}
    return sorted({Fraction(r, d) for d in dens for r in range(1, 2 * d + 1)})


def _side_entry(f, lam):
    return {
        "lambda": str(lam),
        "tau": [str(g) for g in tau(f, lam).canon()],
        "tau_left": [str(g) for g in tau_left(f, lam).canon()],
        "status": is_fjumping(f, lam).status,
    }


def _sides_table():
    table = []
    for p, names, text in SIDES:
        f = parse_poly(make_ring(p, names), text)
        entries = [_side_entry(f, lam) for lam in _exponents(p)]
        table.append({"p": p, "vars": names, "f": text, "entries": entries})
    return table


def _side_cases():
    for case in json.loads((GOLDEN / "tau_sides.json").read_text()):
        f = parse_poly(make_ring(case["p"], case["vars"]), case["f"])
        for entry in case["entries"]:
            yield pytest.param(f, entry, id=f"p{case['p']}-{entry['lambda']}")


@pytest.mark.parametrize("f,entry", _side_cases())
def test_tau_sides_match_recording(f, entry):
    assert _side_entry(f, Fraction(entry["lambda"])) == entry


QUINTIC = "x^5+y^5+z^5"
QUARTIC = "x^4+x*y^3+y^2*z^2+z^5"
SEARCHES = (
    [("jumps", QUINTIC, p, {"e_res": e}) for p, e in ((2, 3), (3, 2), (7, 3))]
    + [("jumps", QUARTIC, p, {"e_res": 2}) for p in (2, 5)]
    + [("fpt", f, p, {}) for f in (QUINTIC, QUARTIC) for p in (2, 3, 5, 7)]
    + [("fpt", QUINTIC, 2, {"e_max": 1, "s_max": 2})]
)


def _search_entry(search, text, p, kwargs):
    """The answer and the ordered (tau | tau_left, lambda) calls of one search."""
    calls = []

    def recording(name, side):
        def wrapped(f, lam):
            calls.append([name, str(Fraction(lam))])
            return side(f, lam)

        return wrapped

    f = parse_poly(make_ring(p, ["x", "y", "z"]), text)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(testideal, "tau", recording("tau", testideal.tau))
        patch.setattr(testideal, "tau_left", recording("tau_left", testideal.tau_left))
        if search == "jumps":
            found = jumps_in_unit_interval(f, **kwargs)
            result = [f"{c.value} {c.status}" for c in found]
        else:
            found = fpt(f, **kwargs)
            if isinstance(found, FptInterval):
                result = f"({found.lo}, {found.hi}]"
            else:
                result = f"{found.value} {found.status}"
    return {"search": search, "f": text, "p": p, "kwargs": kwargs,
            "result": result, "calls": calls}


@pytest.mark.parametrize(
    "entry",
    [
        pytest.param(e, id=f"{e['search']}-{e['f']}-p{e['p']}-{e['kwargs']}")
        for e in json.loads((GOLDEN / "search_calls.json").read_text())
    ],
)
def test_search_calls_match_recording(entry):
    args = entry["search"], entry["f"], entry["p"], entry["kwargs"]
    assert _search_entry(*args) == entry


SCANS = (
    ["--primes", "2..19", "-f", "x^3+y^3+z^3", "--report", "fpt,hsl"],
    ["--primes", "2..7", "-f", QUINTIC, "--report", "fpt,hsl,jumps"],
)


def _scan_entry(args, fmt):
    """Exit codes and rows (without wall_ms) of a cold and a warm scan on
    one fresh cache directory, auditing every warm hit."""
    passes = []
    with tempfile.TemporaryDirectory() as cache_dir, pytest.MonkeyPatch.context() as patch:
        patch.setattr(cli, "AUDIT_RATE", 1)
        argv = ["scan", "--vars", "x,y,z", *args, "--format", fmt, "--cache-dir", cache_dir]
        for _ in range(2):
            out = io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                code = main(argv)
            text = out.getvalue()
            if fmt == "csv":
                rows = list(csv.DictReader(io.StringIO(text)))
            else:
                rows = [json.loads(line) for line in text.splitlines()]
            rows = [{k: v for k, v in row.items() if k != "wall_ms"} for row in rows]
            passes.append({"exit": code, "rows": rows})
    return {"args": args, "format": fmt, "passes": passes}


@pytest.mark.parametrize(
    "entry",
    [
        pytest.param(e, id=f"{e['format']}-{' '.join(e['args'])}")
        for e in json.loads((GOLDEN / "scan_rows.json").read_text())
    ],
)
def test_scan_rows_match_recording(entry):
    assert _scan_entry(entry["args"], entry["format"]) == entry


RECORDERS = {
    "tau_sides.json": _sides_table,
    "search_calls.json": lambda: [_search_entry(*s) for s in SEARCHES],
    "scan_rows.json": lambda: [_scan_entry(a, fmt) for a in SCANS for fmt in ("csv", "json")],
}


if __name__ == "__main__":
    for name in sys.argv[1:]:
        text = json.dumps(RECORDERS[name](), indent=1) + "\n"
        (GOLDEN / name).write_text(text)
