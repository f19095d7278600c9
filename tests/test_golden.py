"""JSON output of the CLI on a non-diagonal quartic, pinned byte for byte.

The recorded stdout comes from the Buchberger that reduced every S-pair,
before the pair queue and the Gebauer-Moeller criteria; the reduced basis
is canonical, so every byte must still agree.
"""

import contextlib
import io
import json
from pathlib import Path

import pytest

from charp.cli import main

CASES = json.loads(
    (Path(__file__).parent / "golden" / "quartic_cli_json.json").read_text()
)


@pytest.mark.parametrize("case", CASES, ids=lambda c: " ".join(c["argv"][:3]
                                                                + c["argv"][7:-2]))
def test_quartic_json_output_matches_recording(case, monkeypatch):
    monkeypatch.delenv("CHARP_CACHE_DIR", raising=False)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(case["argv"]) == 0
    assert out.getvalue() == case["stdout"]
