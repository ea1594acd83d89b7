"""Self-test of the benchmark itself (kept out of the package's test suite).

    python3 -m pytest -q perfbench/test_determinism.py

One seed must give the same operation count, operation stream and answers
on every run, and different seeds must give different operation streams.
Each workload runs briefly (one round) twice, so the module takes about
two minutes.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

NAMES = list(workloads.WORKLOADS)


def brief_run(name: str, seed: int) -> tuple:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
         "--seconds", "1", "--trace", "0"],
        cwd=HERE.parent, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert result["correct"], proc.stderr[-2000:]
    notes = dict(line.split("=", 1) for line in lines[:-1] if "=" in line)
    return result["attempted"], notes["ops_sha256"], notes["answers_sha256"]


@pytest.mark.parametrize("name", NAMES)
def test_one_seed_repeats_exactly(name):
    assert brief_run(name, 7) == brief_run(name, 7)


@pytest.mark.parametrize("name", NAMES)
def test_seeds_give_different_streams(name):
    wl = workloads.WORKLOADS[name]
    first, second = wl.generate(1, 1), wl.generate(2, 1)
    assert first != second
    assert len(first) == len(second)  # same round composition


def test_workload_records_are_current():
    recorded = json.loads((HERE / "workloads.json").read_text())
    current = [wl.record() for wl in workloads.WORKLOADS.values()]
    assert recorded == current, "regenerate perfbench/workloads.json from Workload.record()"
