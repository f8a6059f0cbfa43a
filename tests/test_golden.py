"""Golden payloads: the CLI's ``payload`` sections, compared byte for byte.

Each file under ``tests/golden`` that ``COMMANDS`` names holds the
payload of one command, as ``json.dumps(payload, sort_keys=True,
indent=1)`` plus a newline; the report's ``timing``, ``memo`` and
``seifert`` sections are left out, as they are not part of the
comparison payload.  A change that only makes a
computation faster must leave every file as it is.  To rewrite the files
after a deliberate change of output, run

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

from knotcalc import cli

GOLDEN = Path(__file__).resolve().parent / "golden"
COMMANDS = {
    "verify-paper": ["verify-paper"],
    "table-verify": ["table", "verify"],
    "invariants-8_20": ["invariants", "8_20"],
    "cable-6_1-framing-1": ["cable", "6_1", "--framing", "1"],
}


def payload_text(argv) -> str:
    """The payload of ``knotcalc --format json ARGV``, serialized."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["--format", "json", *argv])
    if code != cli.EXIT_OK:
        raise RuntimeError(f"knotcalc {' '.join(argv)} exited {code}")
    payload = json.loads(out.getvalue())["payload"]
    return json.dumps(payload, sort_keys=True, indent=1) + "\n"


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_payload_matches_golden_file(name):
    expected = (GOLDEN / f"{name}.json").read_text()
    assert payload_text(COMMANDS[name]) == expected


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for name, argv in COMMANDS.items():
        (GOLDEN / f"{name}.json").write_text(payload_text(argv))
        print(f"wrote {name}.json", file=sys.stderr)
