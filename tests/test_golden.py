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
went through separate routines; rerecord with
`PYTHONPATH=src python tests/test_golden.py`.
"""

import contextlib
import io
import json
from fractions import Fraction
from pathlib import Path

import pytest

from charp import is_fjumping, make_ring, parse_poly, tau, tau_left
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


if __name__ == "__main__":
    text = json.dumps(_sides_table(), indent=1) + "\n"
    (GOLDEN / "tau_sides.json").write_text(text)
