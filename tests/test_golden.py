"""CLI stdout pinned byte for byte.

`quartic_cli_json.json` holds the JSON output for a non-diagonal quartic,
recorded from the Buchberger that reduced every S-pair, before the pair
queue and the Gebauer-Moeller criteria; the reduced basis is canonical, so
every byte must still agree. `cli_outputs.json` holds the text output of
every subcommand, `lucas` in both formats, `jumps` as JSON and the `fpt`
interval fallback, recorded from the CLI before its command table.
"""

import contextlib
import io
import json
from pathlib import Path

import pytest

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
