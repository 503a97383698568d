"""``BENCHMARK.json`` agrees with the code, and the command refuses to
run without the program it measures."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

from perfbench.layers import LAYER_METRICS
from perfbench.workloads import WORKLOADS

ROOT = Path(__file__).resolve().parents[2]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_workloads_match_the_code():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)
    assert [w["why"] for w in BENCHMARK["workloads"]] == [s.why for s in WORKLOADS.values()]


def test_per_layer_metrics_match_the_code():
    declared = {m["name"]: (m["unit"], m["better"]) for m in BENCHMARK["per_layer"]}
    assert declared == LAYER_METRICS


def test_setup_bound_is_the_largest():
    bounds = {m["name"]: m["bound"] for m in BENCHMARK["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "read-steady",
         "--seed", "1", "--seconds", "15", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert done.stdout == ""
