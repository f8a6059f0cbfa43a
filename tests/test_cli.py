"""Exit codes of the command-line front end."""

import json

import pytest

from knotcalc import cli


def test_verify_paper_exits_0(capsys):
    assert cli.main(["--format", "json", "verify-paper"]) == cli.EXIT_OK
    report = json.loads(capsys.readouterr().out)
    assert report["payload"]["all_pass"]


def test_failed_check_exits_1(monkeypatch, capsys):
    monkeypatch.setattr(cli, "king_verify", lambda *args: False)
    assert cli.main(["cable", "3_1", "--checks", "king"]) == cli.EXIT_VERIFY
    assert "pass: False" in capsys.readouterr().out


@pytest.mark.parametrize("text", ["X[1,2,3]", "X[1,2,3,4]", "X[1,1,2,2] O x"])
def test_bad_pd_text_exits_2(text, capsys):
    assert cli.main(["invariants", text]) == cli.EXIT_INPUT
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("argv", [["--workers", "2", "table", "verify"],
                                  ["--workers=1", "table", "verify"]])
def test_unknown_option_exits_2(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == cli.EXIT_INPUT


def test_crossing_cap_exits_3(capsys):
    argv = ["--max-crossings", "2", "invariants", "3_1", "--which", "jones"]
    assert cli.main(argv) == cli.EXIT_RESOURCE
    assert "ResourceLimit" in capsys.readouterr().err
