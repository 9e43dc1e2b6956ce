"""Tests of the benchmark itself; the package's own suite (testpaths = tests) skips them.

    python3 -m pytest -q benchmarks/test_bench.py

They check that BENCHMARK.json matches the code, that the game loop plays
the trials `experiments.run_campaign` plays, that deterministic outputs
repeat exactly at one seed with and without tracing, and that the benchmark
refuses to run where no program sources exist.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import pytest

from run import END_TO_END
from tracing import PER_LAYER
from workloads import ROOT, WORKLOADS, GameLoop, load_filterlab

RUN = ROOT / "benchmarks" / "run.py"


def _run(*args: str, cwd=ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(RUN), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def test_benchmark_json_matches_the_code():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(w["name"], w["why"]) for w in bench["workloads"]] == \
        [(w.name, w.why) for w in WORKLOADS.values()]
    assert {m["name"]: (m["unit"], m["better"]) for m in bench["end_to_end"]} == END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in bench["per_layer"]} == PER_LAYER


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_game_loop_plays_the_campaign_trials(name):
    lab = load_filterlab()
    loop = GameLoop(lab, WORKLOADS[name], seed=11)
    try:
        games = [loop.play(c, j) for j in range(2) for c in range(2)]
    finally:
        loop.close()
    for c, cfg in enumerate(loop.configs):
        wins = sum(g.transcript.success for g in games if g.config == c)
        assert wins == lab.experiments.run_campaign(cfg, 2, 11, fp_samples=1).wins


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_deterministic_outputs_repeat_with_and_without_tracing(name):
    records = []
    for trace in ("0", "0", "1"):
        proc = _run("--workload", name, "--seed", "5", "--seconds", "0", "--trace", trace)
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.strip().splitlines()
        result, record = json.loads(lines[-1]), json.loads(lines[-2])["record"]
        assert result["correct"] and result["failed"] == 0
        assert set(result["metrics"]) == set(PER_LAYER if trace == "1" else END_TO_END)
        records.append(record)
    det = records[0]["deterministic"]
    assert all(r["deterministic"] == det for r in records)
    assert det["oracle_queries"] > 0


def test_refuses_to_run_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "benchmarks", tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "benchmarks/run.py", "--workload", "wide_u32",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
