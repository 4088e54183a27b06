import contextlib
import io
import json
import os
import tempfile
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ricci_spectrum import cli, neighborhood_graph, walk
from ricci_spectrum.bounds import MetricAudit
from ricci_spectrum.cli import (
    EXIT_CONFIG,
    EXIT_GRAPH,
    EXIT_INTERNAL,
    EXIT_OK,
    _build_parser,
    format_edge_list,
    main,
    parse_edge_list,
    run,
)
from ricci_spectrum.errors import NonPositiveWeight, ParseError
from ricci_spectrum.tolerances import TRANSFER_IDENTITY_TOL

from conftest import cycle_graph

C5_TEXT = "a b\nb c\nc d\nd e\ne a\n"


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_parse_pentagon():
    g, labels = parse_edge_list(C5_TEXT)
    assert g == cycle_graph(5)
    assert labels == ("a", "b", "c", "d", "e")


def test_parse_loop_comments_and_weights():
    g, labels = parse_edge_list("# loop graph\nx x 1  # a loop\nx y 0.25\ny z 3/4\n")
    assert labels == ("x", "y", "z")
    assert g.has_loop(0)
    assert g.weight(0, 1) == Fraction(1, 4)
    assert g.weight(1, 2) == Fraction(3, 4)


def test_parse_errors():
    with pytest.raises(NonPositiveWeight, match="line 1"):
        parse_edge_list("0 1 -1\n")
    with pytest.raises(ParseError, match="line 2"):
        parse_edge_list("0 1\n0 1 2 3\n")
    with pytest.raises(ParseError, match="line 1"):
        parse_edge_list("0 1 abc\n")


def test_spectrum_command_triangle(tmp_path, capsys):
    path = _write(tmp_path, "k3.edges", "0 1\n1 2\n0 2\n")
    assert main(["spectrum", path, "--format", "json"]) == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    values = payload["sections"]["spectrum"]["eigenvalues"]
    assert values == pytest.approx([0.0, 1.5, 1.5], abs=1e-9)


def test_neighborhood_command_is_edge_list(tmp_path, capsys):
    path = _write(tmp_path, "c5.edges", C5_TEXT)
    assert main(["neighborhood", path, "--t", "2"]) == EXIT_OK
    out = capsys.readouterr().out
    g, labels = parse_edge_list(out)
    assert g.loop_count() == 5
    assert g.edge_count() == 5
    assert all(w == 1 for u, v, w in g.edges() if u == v)
    assert all(w == Fraction(1, 2) for u, v, w in g.edges() if u != v)


def test_bounds_command_goldens(tmp_path, capsys):
    path = _write(tmp_path, "c5.edges", C5_TEXT)
    assert main(["bounds", path, "--t-max", "4", "--format", "json"]) == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    rows = payload["sections"]["bounds"]["k_scan"]["rows"]
    by_t = {row["t"]: row for row in rows}
    assert by_t[2]["k_exact"] == "1/4"
    assert by_t[3]["k_exact"] == "3/8"
    assert by_t[4]["k_exact"] == "1/2"
    assert f"{by_t[2]['lower']:.4f}" == "0.1340"
    assert f"{by_t[2]['upper']:.4f}" == "1.8660"
    assert f"{by_t[3]['lower']:.4f}" == "0.1450"
    assert f"{by_t[4]['lower']:.4f}" == "0.1591"


def test_float_mode_renders_rationals_as_floats(tmp_path, capsys):
    path = _write(tmp_path, "c5.edges", C5_TEXT)
    assert main(["curvature", path, "--format", "json", "--float"]) == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["sections"]["curvature"]["k_exact"] == 0.0


def test_json_reports_are_deterministic(tmp_path, capsys):
    path = _write(tmp_path, "c5.edges", C5_TEXT)
    assert main(["report", path, "--format", "json", "--t-max", "3"]) == EXIT_OK
    first = capsys.readouterr().out
    assert main(["report", path, "--format", "json", "--t-max", "3"]) == EXIT_OK
    second = capsys.readouterr().out
    assert first == second


def test_roundtrip_semigroup(tmp_path):
    # exporting G[s] and walking t more steps equals walking s*t directly
    base = cycle_graph(5)
    labels = tuple("abcde")
    for s in (1, 2, 3):
        for t in (1, 2, 3):
            exported = format_edge_list(neighborhood_graph(base, s), labels)
            reparsed, relabels = parse_edge_list(exported)
            indirect = neighborhood_graph(reparsed, t)
            direct = neighborhood_graph(base, s * t)
            direct_weights = {
                tuple(sorted((labels[u], labels[v]))): w for u, v, w in direct.edges()
            }
            indirect_weights = {
                tuple(sorted((relabels[u], relabels[v]))): w
                for u, v, w in indirect.edges()
            }
            assert direct_weights == indirect_weights


def test_exit_codes(tmp_path, capsys):
    bad_weight = _write(tmp_path, "bad.edges", "0 1 -1\n")
    assert main(["spectrum", bad_weight]) == EXIT_GRAPH
    garbled = _write(tmp_path, "garbled.edges", "0 1 2 3 4\n")
    assert main(["spectrum", garbled]) == EXIT_CONFIG
    disconnected = _write(tmp_path, "disc.edges", "0 1\n2 3\n")
    assert main(["spectrum", disconnected]) == EXIT_GRAPH
    assert main(["spectrum", str(tmp_path / "missing.edges")]) == EXIT_CONFIG
    duplicate = _write(tmp_path, "dup.edges", "0 1\n1 0\n")
    assert main(["spectrum", duplicate]) == EXIT_GRAPH
    capsys.readouterr()
    # a file that cannot be read, or is not UTF-8, is an input error
    not_utf8 = tmp_path / "latin1.edges"
    not_utf8.write_bytes(b"\xff 1\n")
    for unreadable in (str(tmp_path), str(not_utf8)):
        assert main(["spectrum", unreadable]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    ok = _write(tmp_path, "ok.edges", "0 1\n")
    # an option error is argparse's: usage and a message naming the argument
    for argv, argument in (
        (["spectrum", ok, "--t-max", "100"], "--t-max"),
        (["spectrum", ok, "--t-max", "0"], "--t-max"),
        (["neighborhood", ok, "--t", "65"], "--t"),
        (["neighborhood", ok, "--t", "0"], "--t"),
        (["neighborhood", ok, "--t", "abc"], "--t"),
        (["nope", ok], "command"),
    ):
        assert main(argv) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("usage: ricci-spectrum")
        assert f"ricci-spectrum: error: argument {argument}: " in captured.err


def test_option_set_is_pinned(tmp_path, capsys):
    # a new knob must change this test on purpose; the audit's float
    # tolerance is TRANSFER_IDENTITY_TOL, not an option
    options = {s for action in _build_parser()._actions for s in action.option_strings}
    assert options == {"-h", "--help", "--t", "--t-max", "--format", "--exact", "--float"}
    ok = _write(tmp_path, "ok.edges", "0 1\n")
    assert main(["audit", ok, "--tolerance", "1e-6"]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("usage: ricci-spectrum")
    assert "ricci-spectrum: error: unrecognized arguments: --tolerance 1e-6" in captured.err


def test_audit_command_passes(tmp_path, capsys):
    path = _write(tmp_path, "k3.edges", "0 1\n1 2\n0 2\n")
    assert main(["audit", path, "--t-max", "3"]) == EXIT_OK
    assert "all_passed: True" in capsys.readouterr().out


def _assert_failed_audit_exits_internal(tmp_path, capsys, monkeypatch, command):
    def failing(g, t):
        return MetricAudit(t=t, lower_holds=False, edge_subset=False, upper_holds=None)

    monkeypatch.setattr(cli, "metric_audit", failing)
    path = _write(tmp_path, "k3.edges", "0 1\n1 2\n0 2\n")
    assert main([command, path, "--t-max", "2"]) == EXIT_INTERNAL
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: an exact audit failed; see the audit section\n"


def test_failed_audit_exits_internal(tmp_path, capsys, monkeypatch):
    _assert_failed_audit_exits_internal(tmp_path, capsys, monkeypatch, "audit")


def test_failed_audit_in_report_exits_internal(tmp_path, capsys, monkeypatch):
    _assert_failed_audit_exits_internal(tmp_path, capsys, monkeypatch, "report")


def test_run_report_sections(tmp_path):
    path = _write(tmp_path, "k3.edges", "0 1\n1 2\n0 2\n")
    report = run(_build_parser().parse_args(["report", path, "--t-max", "2"]))
    assert set(report.sections) == {"spectrum", "curvature", "bounds", "audit"}
    assert report.summary["vertices"] == 3
    assert report.summary["bipartite"] is False
    report = run(_build_parser().parse_args(["audit", path, "--t-max", "2"]))
    assert report.config["tolerance"] == TRANSFER_IDENTITY_TOL
    assert report.sections["audit"]["all_passed"] is True


def test_loop_only_graph_report_and_audit_are_inapplicable(tmp_path, capsys):
    path = _write(tmp_path, "loop.edges", "a a\n")
    for command in ("report", "audit"):
        assert main([command, path, "--format", "json"]) == EXIT_OK
        sections = json.loads(capsys.readouterr().out)["sections"]
        audit = sections["audit"]
        if command == "report":
            joint = sections["bounds"]["joint_neighbors"]
            assert joint["applicable"] is False
            assert joint["reason"] == "no adjacent distinct pairs"
        assert audit["contraction"]["k"] is None
        assert audit["contraction"]["passed"] is None
        assert audit["all_passed"] is True


def test_walk_graph_inconsistency_exits_internal(tmp_path, capsys, monkeypatch):
    # every walk stays put, so the support misses the vertices two steps away
    monkeypatch.setattr(walk, "_next_rows", lambda g, prev: ([{x: 1} for x in g.vertices()], 1))
    path = _write(tmp_path, "c5.edges", C5_TEXT)
    assert main(["neighborhood", path, "--t", "2"]) == EXIT_INTERNAL
    assert "reachability" in capsys.readouterr().err


@pytest.mark.parametrize("weight", ["1e400", "1e-400"])
def test_weights_outside_float_range_exit_graph(tmp_path, capsys, weight):
    # 1e400 overflows a float64; at 1e-400 the degrees underflow to 0.0
    path = _write(tmp_path, "range.edges", f"a b {weight}\n")
    assert main(["spectrum", path, "--format", "json"]) == EXIT_GRAPH
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert "float64" in captured.err


@pytest.mark.parametrize("mode", ["--exact", "--float"])
def test_joint_neighbor_bound_outside_float_range_is_dropped(tmp_path, capsys, mode):
    # every edge persists in G[2] and back, but (W^2/w) sharp_2 / min d is about 1e900
    text = "a b 1e300\nb c 1e-300\na c 1\na a 1\nb b 1\nc c 1\n"
    path = _write(tmp_path, "wide.edges", text)
    assert main(["bounds", path, "--t-max", "2", "--format", "json", mode]) == EXIT_OK
    joint = json.loads(capsys.readouterr().out)["sections"]["bounds"]["joint_neighbors"]
    assert joint["lower"] is None and "lower_exact" not in joint["details"]
    assert joint["reason"].endswith("the exact lower bound overflows a float64")
    assert joint["applicable"] is True and joint["upper"] == 2.0 and joint["verified"] is True


# -- the exit-code contract over a token grammar of edge-list text --------------

LABELS = ["a", "é", "١", "0"]
# 10**39 + 3 is the least 40-digit prime, so 1/p keeps a long denominator in G[t]
WEIGHTS = ["1", "0", "-1", "1/0", "nan", "inf", "1e400", "1e-400", "1e5000",
           "0x10", "1_000", f"1/{10**39 + 3}"]


@st.composite
def edge_list_lines(draw):
    """Mostly edges, as one bad line spoils a document; else a blank, a
    comment or an edge with extra columns."""
    kind = draw(st.sampled_from(["edge"] * 4 + ["extra columns", "blank"]))
    if kind == "blank":
        return draw(st.sampled_from(["", "   ", "# comment"]))
    tokens = [draw(st.sampled_from(LABELS)), draw(st.sampled_from(LABELS))]
    weight = draw(st.sampled_from(["none", "1", "any"]))
    if weight != "none":
        tokens.append("1" if weight == "1" else draw(st.sampled_from(WEIGHTS)))
    if kind == "extra columns":
        tokens += draw(st.lists(st.sampled_from(LABELS + WEIGHTS), min_size=1, max_size=2))
    return " ".join(tokens) + draw(st.sampled_from(["", "  # note"]))


CASE_1 = ["a b 1e5000", "b c 1", "a c 1"]  # kappa's exact digits pass the 4300-digit limit


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(
    lines=st.lists(edge_list_lines(), min_size=1, max_size=6),
    command=st.sampled_from([*cli.SECTIONS, "report"]),
    fmt=st.sampled_from(["table", "json"]),
    arithmetic=st.sampled_from(["--exact", "--float"]),
)
@example(lines=CASE_1, command="curvature", fmt="table", arithmetic="--exact")
@example(lines=CASE_1, command="curvature", fmt="json", arithmetic="--exact")
def test_every_document_ends_in_a_documented_exit(lines, command, fmt, arithmetic):
    # a nonzero exit prints one error line and nothing else, never a traceback
    length = ["--t", "2"] if command == "neighborhood" else ["--t-max", "2"]
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "doc.edges")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([command, path, "--format", fmt, arithmetic, *length])
    assert code in (EXIT_OK, EXIT_CONFIG, EXIT_GRAPH), err.getvalue()
    if code == EXIT_OK:
        assert out.getvalue() and not err.getvalue()
    else:
        assert out.getvalue() == ""
        assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1
