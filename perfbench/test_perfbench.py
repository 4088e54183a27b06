"""Tests of the benchmark's tracer: python3 -m pytest perfbench"""

import contextlib
import io
import json
import sys
from pathlib import Path

import ricci_spectrum.cli as cli
from tracer import Tracer
from workloads import WORKLOADS, petersen


def report(path):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert sys.modules["ricci_spectrum.cli"].main(
            ["report", path, "--format", "json", "--t-max", "6"]
        ) == 0
    return out.getvalue()


def test_traced_petersen_report_counts_and_output(tmp_path):
    path = tmp_path / "petersen.edges"
    path.write_text("".join(f"{u} {v} {w}\n" for u, v, w in petersen()))
    plain = report(str(path))
    originals = dict(vars(sys.modules["ricci_spectrum.bounds"]))

    with Tracer() as tracer:
        traced = report(str(path))

    assert traced == plain
    assert dict(vars(sys.modules["ricci_spectrum.bounds"])) == originals
    assert cli.main is sys.modules["ricci_spectrum.cli"].main
    counts, distinct = tracer.counts, tracer.distinct
    assert (counts["walk.gt_builds"], len(distinct["walk.gt_builds"])) == (25, 6)
    assert (counts["spectrum.calls"], len(distinct["spectrum.calls"])) == (22, 6)
    assert (counts["curvature.kappa_calls"], len(distinct["curvature.kappa_calls"])) == (615, 255)
    assert counts["transport.solves"] == 795
    # every binding is wrapped: curvature's and bounds' own imports of
    # wasserstein, cli's imports, and the pushforward method
    assert tracer.calls["cli.main"] == 1
    assert tracer.calls["transport.wasserstein"] == 795
    assert tracer.calls["walk.ProbMeasure.pushforward"] == counts["walk.pushforwards"] > 0
    assert tracer.self_s["transport"] == max(tracer.self_s.values())


def test_metric_names_agree():
    root = Path(__file__).resolve().parent
    bench = json.loads((root.parent / "BENCHMARK.json").read_text())
    documented = json.loads((root / "metrics.json").read_text())
    per_layer = {m["name"] for m in bench["per_layer"]}
    assert per_layer == set(documented["per_layer"])
    assert per_layer == set(Tracer().metrics()) | {"trace.overhead_s"}
    assert {m["name"] for m in bench["end_to_end"]} <= set(documented["end_to_end"])
    workloads = {w["name"] for w in bench["workloads"]}
    assert workloads == set(WORKLOADS)
    for entry in documented["per_layer"].values():
        assert {move["workload"] for move in entry["moves"]} <= workloads
