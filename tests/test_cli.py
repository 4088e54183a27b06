import json
from fractions import Fraction

import pytest

from ricci_spectrum import neighborhood_graph, walk
from ricci_spectrum.cli import (
    EXIT_CONFIG,
    EXIT_GRAPH,
    EXIT_INTERNAL,
    EXIT_OK,
    AnalysisConfig,
    format_edge_list,
    main,
    parse_edge_list,
    run,
)
from ricci_spectrum.errors import NonPositiveWeight, ParseError

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
    ok = _write(tmp_path, "ok.edges", "0 1\n")
    assert main(["spectrum", ok, "--t-max", "100"]) == EXIT_CONFIG
    assert main(["neighborhood", ok, "--t", "65"]) == EXIT_CONFIG
    assert main(["spectrum", ok, "--tolerance", "-1"]) == EXIT_CONFIG
    assert main(["audit", ok, "--tolerance", "nan"]) == EXIT_CONFIG
    assert main(["audit", ok, "--tolerance", "inf"]) == EXIT_CONFIG
    capsys.readouterr()


def test_config_validation():
    config = AnalysisConfig(input_path="x", command="spectrum", t=0)
    with pytest.raises(ValueError):
        config.validate()
    config = AnalysisConfig(input_path="x", command="nope")
    with pytest.raises(ValueError):
        config.validate()


def test_audit_command_passes(tmp_path, capsys):
    path = _write(tmp_path, "k3.edges", "0 1\n1 2\n0 2\n")
    assert main(["audit", path, "--t-max", "3"]) == EXIT_OK
    assert "all_passed: True" in capsys.readouterr().out


def test_run_report_sections(tmp_path):
    path = _write(tmp_path, "k3.edges", "0 1\n1 2\n0 2\n")
    report = run(AnalysisConfig(input_path=path, command="report", t_max=2))
    assert set(report.sections) == {"spectrum", "curvature", "bounds", "audit"}
    assert report.summary["vertices"] == 3
    assert report.summary["bipartite"] is False


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
    monkeypatch.setattr(walk, "_walk_rows", lambda g, t, sources: ([{x: 1} for x in sources], 1))
    path = _write(tmp_path, "c5.edges", C5_TEXT)
    assert main(["neighborhood", path, "--t", "2"]) == EXIT_INTERNAL
    assert "reachability" in capsys.readouterr().err
