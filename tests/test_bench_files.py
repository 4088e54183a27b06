"""Every BENCH_<n>.json at the repository root follows the README's Benchmark schema."""

import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
BENCH_FILES = sorted(ROOT.glob("BENCH_*.json"))
END_TO_END = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]]
TOP_KEYS = {"schema", "change", "command", "host", "pairing", "traced", "workloads"}
WORKLOAD_KEYS = {"seeds", "seconds", "pairs", "attempted_jobs", "failed_jobs", "metrics"}
SIDES = ("parent", "change")


def test_bench_files_exist():
    assert BENCH_FILES


@pytest.mark.parametrize("path", BENCH_FILES, ids=[p.name for p in BENCH_FILES])
def test_bench_file_follows_schema(path):
    bench = json.loads(path.read_text())
    assert TOP_KEYS <= bench.keys()
    assert set(SIDES) <= bench["traced"].keys()
    assert bench["workloads"]
    for entry in bench["workloads"]:
        where = f"{path.name}: {entry.get('workload')}"
        assert WORKLOAD_KEYS <= entry.keys(), where
        assert entry["seeds"] and entry["pairs"] >= 1, where
        for key in ("attempted_jobs", "failed_jobs"):
            assert all(isinstance(entry[key][side], int) for side in SIDES), where
        for name in END_TO_END:
            metric = entry["metrics"][name]
            for side in SIDES:
                stats = metric[side]
                assert stats["q1"] <= stats["median"] <= stats["q3"], (where, name, side)
            assert isinstance(metric["change_over_parent"], (int, float)), (where, name)
            assert 0 <= metric["change_better_pairs"] <= entry["pairs"], (where, name)
