"""Exit codes of the command-line front end."""

import json
import time
import tracemalloc

import pytest

from knotcalc import cli
from knotcalc.table import entry


def test_verify_paper_exits_0(capsys):
    assert cli.main(["--format", "json", "verify-paper"]) == cli.EXIT_OK
    report = json.loads(capsys.readouterr().out)
    assert report["payload"]["all_pass"]


def test_failed_check_exits_1(monkeypatch, capsys):
    monkeypatch.setattr(cli, "king_verify", lambda *args: False)
    assert cli.main(["cable", "3_1", "--checks", "king"]) == cli.EXIT_VERIFY
    assert "pass: False" in capsys.readouterr().out


@pytest.mark.parametrize("text", ["X[1,2,3]", "X[1,2,3,4]", "X[1,1,2,2] O x",
                                  "X[2,5,1,4] X[3,6,4,1] X[5,2,6,3]"])
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


def test_verify_paper_respects_the_cap(capsys):
    # the 0-framed 2-cable of 6_1 has 28 crossings
    argv = ["--max-crossings", "20", "verify-paper"]
    assert cli.main(argv) == cli.EXIT_RESOURCE
    assert "ResourceLimit" in capsys.readouterr().err


def test_link_invariants_under_all(capsys):
    argv = ["--format", "json", "invariants", "s1 s1"]
    assert cli.main(argv) == cli.EXIT_OK
    values = json.loads(capsys.readouterr().out)["payload"]["invariants"]
    assert set(values) == {"jones", "conway", "kauffman"}
    assert values["conway"] == "z"


def test_conway_alone_on_the_hopf_link(capsys):
    argv = ["--format", "json", "invariants", "s1 s1", "--which", "conway"]
    assert cli.main(argv) == cli.EXIT_OK
    report = json.loads(capsys.readouterr().out)
    assert report["payload"]["invariants"] == {"conway": "z"}
    assert "conway" not in report["memo"]


def test_negative_hopf_link_keeps_the_braid_orientation(capsys):
    argv = ["--format", "json", "invariants", "s1^-1 s1^-1"]
    assert cli.main(argv) == cli.EXIT_OK
    payload = json.loads(capsys.readouterr().out)["payload"]
    assert payload["writhe"] == -2
    assert payload["invariants"]["conway"] == "-z"
    assert payload["invariants"]["jones"] == "-t^-5/2 - t^-1/2"


def test_knot_only_invariant_on_a_link_exits_2(capsys):
    argv = ["invariants", "s1 s1", "--which", "signature"]
    assert cli.main(argv) == cli.EXIT_INPUT
    assert "MultiComponent" in capsys.readouterr().err


def test_crossing_cap_ignores_the_environment(monkeypatch, capsys):
    # --max-crossings is the one way to set the cap
    monkeypatch.setenv("KNOTCALC_MAX_CROSSINGS", "2")
    assert cli.main(["invariants", "3_1", "--which", "jones"]) == cli.EXIT_OK


@pytest.mark.parametrize("checks", [[], ["--checks", "writhe-formula"]],
                         ids=["default-checks", "writhe-formula"])
def test_oversize_cable_is_refused_before_it_is_built(checks, monkeypatch,
                                                       capsys):
    # a cable of 2 * 10^9 crossings could not be built; its size is known
    # from the base knot, 4c + 2|f - w|, and is checked even when no
    # engine runs on the cable
    def unbuilt(*args):
        raise AssertionError("cable2 called")

    monkeypatch.setattr(cli, "cable2", unbuilt)
    argv = ["cable", "3_1", "--framing", "1000000000"] + checks
    assert cli.main(argv) == cli.EXIT_RESOURCE
    base = entry("3_1").diagram()
    n = 4 * base.n_crossings + 2 * abs(10 ** 9 - base.writhe())
    assert (f"ResourceLimit: {n} crossings exceeds the engine cap 32"
            in capsys.readouterr().err)


@pytest.mark.parametrize("text, which, strands", [
    ("s30000000", "conway", 30000001),
    ("s100000", "jones", 100001),
    ('{"genus": 5000000, "braid": "", "strands": 20000000}', "conway",
     20000000),
    ('{"crossings": [], "free_loops": 100000}', "jones", 100000),
    pytest.param(" ".join(["O"] * 3000), "kauffman", 3000,
                 id="3000 O terms-kauffman-3000"),
])
def test_oversize_strand_count_is_refused_before_allocating(
        text, which, strands, capsys):
    # a few bytes name millions of strands: the closure, or the plat's
    # default curls and permutation, would grow with them, and every
    # strand beyond 2 * 32 + 2 would close to a free loop.  Free loops
    # given as such meet the same bound in Jones and F, which pay for
    # each one
    t0 = time.perf_counter()
    tracemalloc.start()
    try:
        code = cli.main(["invariants", text, "--which", which])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == cli.EXIT_RESOURCE
    assert time.perf_counter() - t0 < 1
    assert peak < 2**20
    noun = ("free loops" if text.startswith(("O", '{"crossings"'))
            else "strands")
    assert (f"ResourceLimit: {strands} {noun} exceeds 66"
            in capsys.readouterr().err)


@pytest.mark.parametrize("text, strands", [
    ("s65", 66), ("s66", 67), ("s1 s70", 71),
    ('{"genus": 1, "extra": 32, "braid": "", "strands": 68}', 68),
])
def test_strand_bound_follows_the_cap(text, strands, capsys):
    # n strands need a cap of at least (n - 2) / 2: at the default 32,
    # 66 strands are allowed and s1 s70, on 71, is refused
    least = (strands - 1) // 2
    for cap, refused in ((least - 1, True), (least, False)):
        argv = ["--max-crossings", str(cap), "invariants", text,
                "--which", "conway"]
        assert (cli.main(argv) == cli.EXIT_RESOURCE) == refused


@pytest.mark.parametrize("which", ["jones", "kauffman"])
def test_free_loop_bound_follows_the_cap(which, capsys):
    # 66 loops, the bound at the default cap, still give Jones and F;
    # Conway of free loops is 0 at once and is not capped
    loops = '{{"crossings": [], "free_loops": {}}}'.format
    assert cli.main(["invariants", loops(66), "--which", which]) == cli.EXIT_OK
    assert cli.main(["invariants", loops(67), "--which", which]) == cli.EXIT_RESOURCE
    assert cli.main(["invariants", loops(67), "--which", "conway"]) == cli.EXIT_OK


def test_cable_of_a_link_is_an_input_error_at_any_framing(capsys):
    argv = ["cable", "s1 s1", "--framing", "1000000000"]
    assert cli.main(argv) == cli.EXIT_INPUT
    assert "MultiComponent" in capsys.readouterr().err


def test_table_list(table, capsys):
    assert cli.main(["--format", "json", "table", "list"]) == cli.EXIT_OK
    rows = json.loads(capsys.readouterr().out)["payload"]["entries"]
    assert len(rows) == len(table) == 35
    for row, e in zip(rows, table):
        assert row == {"name": e.name, "crossings": e.pd.count("X["),
                       "jones": e.jones, "alexander": e.alexander,
                       "determinant": e.determinant,
                       "signature": e.signature, "genus": e.genus,
                       "fibered": e.fibered}


def test_unknown_cable_check_exits_2(capsys):
    assert cli.main(["cable", "3_1", "--checks", "kng"]) == cli.EXIT_INPUT
    assert "unknown checks: kng" in capsys.readouterr().err


def test_memo_section_reports_one_command(capsys):
    # each command owns its memos, so a rerun in the same process reports
    # the same counts
    sections = []
    for _ in range(2):
        assert cli.main(["--format", "json", "invariants", "6_1"]) == cli.EXIT_OK
        sections.append(json.loads(capsys.readouterr().out)["memo"])
    assert sections[0] == sections[1]


def test_cable_of_the_unknot(capsys):
    # F(O) = 1 and V(O u O) = -t^1/2 - t^-1/2, so the cabling identity
    # reads 1 + t + t^-1 = (t^1/2 + t^-1/2)^2 - 1
    assert cli.main(["--format", "json", "cable", "O"]) == cli.EXIT_OK
    assert json.loads(capsys.readouterr().out)["payload"]["all_pass"]


def test_empty_json_diagram_exits_2(capsys):
    text = '{"crossings": [], "free_loops": 0}'
    assert cli.main(["invariants", text]) == cli.EXIT_INPUT
    assert "empty diagram" in capsys.readouterr().err


@pytest.mark.parametrize("text", [
    '{"crossings": 5}',
    '{"crossings": [[1, 2, 3, "a"]]}',
    '{"crossings": [[1, 1, 2, 2.7]]}',
    '{"crossings": [[1, 1, 2, true]]}',
    '{"crossings": [[1, 1, 2, 2]], "free_loops": "x"}',
    '{"crossings": [[1, 1, 2, 2]], "free_loops": 1.5}',
    '{"genus": 1, "braid": "", "strands": 4, "curls": [1.5, 0]}',
    '{"genus": 1.0, "braid": "", "strands": 4}',
    '{"genus": 1, "braid": "", "strands": 4.0}',
    '{"genus": 1, "extra": true, "braid": "", "strands": 4}',
    '{"genus": 1, "braid": "s2", "strands": 4, "mode": "standard"}',
])
def test_malformed_json_exits_2(text, capsys):
    # a value of the wrong type is an input error, never truncated by int()
    assert cli.main(["invariants", text]) == cli.EXIT_INPUT
    assert "DiagramSyntaxError" in capsys.readouterr().err


def test_plat_json_gives_the_boundary_knot(capsys):
    # clasped bands with curls -1 and +1 bound the figure-eight knot
    text = '{"genus": 1, "braid": "s2", "strands": 4, "curls": [-1, 1]}'
    assert cli.main(["--format", "json", "invariants", text]) == cli.EXIT_OK
    values = json.loads(capsys.readouterr().out)["payload"]["invariants"]
    figure_eight = entry("4_1")
    assert values["jones"] == figure_eight.jones
    assert values["alexander"] == figure_eight.alexander


def test_surface_genus_depends_on_the_drawing(capsys):
    # the plat's boundary is 4_1, drawn with a genus 2 Seifert surface;
    # the table diagram of 4_1 has one of genus 1, the knot genus
    plat = '{"genus": 1, "braid": "s2", "strands": 4, "curls": [-1, 1]}'
    got = []
    for text in (plat, "4_1"):
        argv = ["--format", "json", "invariants", text,
                "--which", "surface_genus"]
        assert cli.main(argv) == cli.EXIT_OK
        got.append(json.loads(capsys.readouterr().out)
                   ["payload"]["invariants"]["surface_genus"])
    assert got == [2, 1]


def test_genus_is_no_invariant_name(capsys):
    argv = ["invariants", "4_1", "--which", "genus"]
    assert cli.main(argv) == cli.EXIT_INPUT
    assert "unknown invariants: genus" in capsys.readouterr().err


@pytest.mark.parametrize("text", [
    "X[1,2,3,4] X[2,3,1,4]",
    "X[1,2,3,4] X[2,4,1,3]",
    '{"crossings": [[1, 2, 3, 4], [2, 3, 1, 4]]}',
])
@pytest.mark.parametrize("which", ["all", "jones"])
def test_non_planar_pd_exits_2(text, which, capsys):
    # no diagram in the plane has these records: every engine needs one
    assert cli.main(["invariants", text, "--which", which]) == cli.EXIT_INPUT
    assert "PD code is not planar" in capsys.readouterr().err


def test_seifert_section(capsys):
    # 8_1 has 7 Seifert circles, so its surface has a 2 x 2 matrix
    assert cli.main(["--format", "json", "invariants", "8_1"]) == cli.EXIT_OK
    report = json.loads(capsys.readouterr().out)
    assert report["seifert"] == {"circles": 7, "matrix_size": 2}
    assert "seifert" not in report["payload"]
