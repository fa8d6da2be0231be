"""Tests of the benchmark itself. Run from the repository root:

    python3 -m pytest perfbench -q

They start full benchmark runs, so they take about a minute.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import benchlib  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402

COUNTERS = (
    "elicitation.fit_evals_p50",
    "elicitation.fit_evals_max",
    "special.log_gamma_calls_per_fit",
    "validation.sweep_passed",
    "validation.pass_rect_cells",
    "validation.false_pass_cells",
)


def _bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args],
                          cwd=cwd, capture_output=True, text=True, timeout=180)


def _result(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.E2E_UNITS
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == {
        name: (unit, better) for name, (unit, better, _) in layers.MOVES.items()}


def test_inputs_follow_the_seed():
    for make in (benchlib.elicit_targets, benchlib.forward_ops):
        assert make(5) == make(5)
        assert make(5) != make(6)


def test_log_gamma_calls_per_fit_formula(monkeypatch):
    """special.log_gamma_calls_per_fit is derived as 2 (iterations + 1) + 4;
    count the calls directly to confirm it."""
    import gammasd.distributions
    import gammasd.elicitation

    calls = 0
    real = gammasd.elicitation.log_gamma

    def counting(x):
        nonlocal calls
        calls += 1
        return real(x)

    monkeypatch.setattr(gammasd.elicitation, "log_gamma", counting)
    monkeypatch.setattr(gammasd.distributions, "log_gamma", counting)
    for mu, sigma in benchlib.elicit_targets(1)[:20]:
        calls = 0
        fit = gammasd.elicitation.fit_prior(mu, sigma)
        assert calls == 2 * (fit.iterations + 1) + 4


def test_counters_and_fail_frac_repeat_for_a_seed():
    first, second = (_bench("--workload", "elicit", "--seed", "3", "--seconds", "1",
                            "--trace", "1") for _ in range(2))
    results = [_result(p) for p in (first, second)]
    for name in COUNTERS:
        assert results[0]["metrics"][name] == results[1]["metrics"][name], name
    fail_fracs = [re.search(r"^fail_frac (\S+)", p.stdout, re.M).group(1)
                  for p in (first, second)]
    assert fail_fracs[0] == fail_fracs[1]
    assert results[0]["correct"] and results[0]["failed"] == 0
    printed = {line.split()[1] for line in first.stdout.splitlines()
               if line.startswith("layer ")}
    assert printed == set(layers.MOVES)


def test_published_200x200_grid_keeps_the_baseline_pass_fraction(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "gammasd.cli", "validate", "--mu-points", "200",
         "--sigma-points", "200", "--workers", "2", "--out", str(tmp_path / "cells.csv")],
        cwd=ROOT, env={"PYTHONPATH": str(ROOT / "src"), "PATH": ""},
        capture_output=True, text=True, timeout=180)
    assert proc.returncode == 0, proc.stderr
    printed = dict(line.split(" ", 1) for line in proc.stdout.splitlines())
    assert round(int(printed["passed"]) / int(printed["cells"]), 3) == 0.857


@pytest.mark.parametrize("workload", ["elicit", "sweep"])
def test_refuses_to_run_without_the_source_tree(tmp_path, workload):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _bench("--workload", workload, "--seed", "1", "--seconds", "1", "--trace", "0",
                  cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
