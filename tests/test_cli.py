"""Exit codes of the command-line front end."""

import hashlib
import io
import json
import time
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from knotcalc import cli
from knotcalc.presentations import braid_to_tangle, trace_closure
from knotcalc.table import entry, load_table

from strategies import braid_words


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


def test_negative_cap_is_an_input_error(capsys):
    argv = ["--max-crossings", "-3", "invariants", "O", "--which", "conway"]
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == cli.EXIT_INPUT
    err = capsys.readouterr().err
    assert "error:" in err and "--max-crossings" in err
    # a cap of 0 admits a diagram without crossings
    argv[1] = "0"
    assert cli.main(argv) == cli.EXIT_OK


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


def test_cable_hat_reads_the_cable_bracket(capsys):
    # one bracket memo serves the cable and its hat; the payload is the
    # one that two sweeps gave, byte for byte
    argv = ["--format", "json", "cable", "6_1", "--framing", "0"]
    assert cli.main(argv) == cli.EXIT_OK
    report = json.loads(capsys.readouterr().out)
    bracket = report["memo"]["bracket"]
    assert (bracket["entries"], bracket["hits"], bracket["misses"]) == (1, 1, 1)
    text = json.dumps(report["payload"], sort_keys=True, indent=1) + "\n"
    assert hashlib.sha256(text.encode()).hexdigest()[:16] == "5e3aa7238c34a95f"


def test_cable_times_the_king_check(capsys):
    # the timing sits beside the payload, so the payload stays the same
    argv = ["--format", "json", "cable", "3_1", "--framing", "1"]
    assert cli.main(argv) == cli.EXIT_OK
    report = json.loads(capsys.readouterr().out)
    assert "king" in report["timing"]
    assert report["payload"]["checks"]["king"]["pass"]


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
    '{"crossings": [[1, 1, 2, 2]]',
])
def test_malformed_json_exits_2(text, capsys):
    # a value of the wrong type is an input error, never truncated by int()
    assert cli.main(["invariants", text]) == cli.EXIT_INPUT
    assert "DiagramSyntaxError" in capsys.readouterr().err


def test_json_nested_past_the_parser_exits_2(tmp_path, capsys):
    # a 2 KB file of lists nested 1,000 deep is an input error, not a
    # RecursionError traceback, for diagram and plat JSON alike
    path = tmp_path / "deep.json"
    for key in ("crossings", "genus"):
        path.write_text(f'{{"{key}": ' + "[" * 1000 + "]" * 1000 + "}")
        assert cli.main(["invariants", str(path)]) == cli.EXIT_INPUT
        assert "DiagramSyntaxError" in capsys.readouterr().err


@pytest.mark.parametrize("text", [
    '{"crossings": [[1, 4, 2, 5], [3, 6, 4, 1], [5, 2, 6, 3]]}',
    '{"genus": 1, "braid": "s2", "strands": 4, "curls": [-1, 1]}',
], ids=["diagram", "plat"])
def test_json_input_is_parsed_once(text, monkeypatch, capsys):
    load_table()   # the table's own JSON is read once per process
    calls = []
    loads = json.loads

    def counted(*args, **kwargs):
        calls.append(args)
        return loads(*args, **kwargs)

    monkeypatch.setattr(json, "loads", counted)
    assert cli.main(["invariants", text]) == cli.EXIT_OK
    assert len(calls) == 1


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


# The input contract over drawn inputs.  Each grammar draws valid input,
# often spoiled in one place in one of the ways input goes wrong: bad
# arity, label 0, negative and non-integer fields, wrong modes and huge
# strand counts.
_FIELD = st.one_of(st.integers(-2, 8), st.just(10 ** 7), st.booleans(),
                   st.floats(-2, 8), st.text("ab1", max_size=2), st.none())
_JUNK_TOKEN = st.sampled_from(["s0", "s100000", "s30000000", "s1^2", "t1",
                               "X[1,2,3,4", "X[-1,2,3,4]", "X[]", "O"])


@st.composite
def _spoiled(draw, items, spoil):
    """``items`` as a list, with one item at a drawn place changed by
    ``spoil`` half of the time."""
    items = list(items)
    if items and draw(st.booleans()):
        k = draw(st.integers(0, len(items) - 1))
        items[k] = draw(spoil(items[k]))
    return items


def _spoil_record(record):
    record = list(record)
    return st.one_of(
        _FIELD.map(lambda x: record[:1] + [x] + record[2:]),
        st.just(record[:3]), st.just(record + [record[0]]),
        st.just([0] + record[1:]))


_RECORDS = braid_words(5, strands=(2, 3)).map(
    lambda word: trace_closure(braid_to_tangle(word)).crossings).flatmap(
    lambda records: _spoiled(records, _spoil_record))
_PD_TEXT = st.tuples(_RECORDS, st.integers(0, 2)).map(
    lambda x: " ".join(["X[" + ",".join(map(str, r)) + "]" for r in x[0]]
                       + ["O"] * x[1]) or "O")
_BRAID_TEXT = st.lists(
    st.tuples(st.integers(1, 3), st.booleans()).map(
        lambda g: f"s{g[0]}" + ("^-1" if g[1] else "")),
    max_size=6).flatmap(lambda tokens: _spoiled(
        tokens, lambda _: _JUNK_TOKEN)).map(" ".join)
_DIAGRAM_JSON = st.fixed_dictionaries(
    {"crossings": _RECORDS},
    optional={"free_loops": st.one_of(_FIELD, st.just(10 ** 6))})


@st.composite
def _plat_json(draw):
    genus, extra = draw(st.integers(1, 2)), draw(st.integers(0, 1))
    strands = 2 * (2 * genus + extra)
    letters = st.tuples(st.integers(1, strands - 1), st.booleans()).map(
        lambda g: f"s{g[0]}" + ("^-1" if g[1] else ""))
    data = {"genus": genus, "extra": extra,
            "braid": " ".join(draw(st.lists(letters, max_size=3))),
            "strands": strands,
            "curls": draw(st.lists(st.integers(-1, 1), min_size=2 * genus,
                                   max_size=2 * genus))}
    if draw(st.booleans()):
        key = draw(st.sampled_from(sorted(data) + ["mode"]))
        data[key] = draw(st.one_of(
            _FIELD, st.just(2 * 10 ** 7), st.sampled_from(["plat", "standard"]),
            st.lists(_FIELD, max_size=3)))
    return data


_INPUT = st.one_of(_PD_TEXT, _BRAID_TEXT,
                   st.one_of(_DIAGRAM_JSON, _plat_json()).map(json.dumps),
                   st.sampled_from(["3_1", "4_1"]))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_INPUT, st.integers(-2, 2))
def test_drawn_input_exits_0_2_or_3(text, framing):
    # a cap of 16 keeps every engine call small and admits the cables
    # of knots of up to 4 crossings, which are built, checked and pass
    cap = ["--max-crossings", "16"]
    for argv in (cap + ["invariants", text],
                 cap + ["invariants", text, "--which", "jones"],
                 cap + ["cable", text, f"--framing={framing}"]):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            try:
                code = cli.main(argv)
            except SystemExit as e:   # argparse's own input errors
                code = e.code
        assert code in (cli.EXIT_OK, cli.EXIT_INPUT, cli.EXIT_RESOURCE), (
            argv, err.getvalue())
        assert "Traceback" not in err.getvalue()
