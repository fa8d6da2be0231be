"""Per-layer costs, each timed from outside by calling one public function
of gammasd on fixed inputs. Every measurement runs inside a span of the
runner's tracer, under one root span per layer.

Self times follow from children measured here: fit_prior's own time is its
total less its objective evaluations and its closing sd_moments call, and
the minimiser's own cost per evaluation is its time per evaluation less
one objective evaluation.
"""

from __future__ import annotations

import math
import os
import statistics
import subprocess
import sys
import tracemalloc
from time import perf_counter_ns

from gammasd import (
    BRACKET_EPS,
    GammaParams,
    GridSpec,
    S,
    fit_prior,
    log_gamma,
    minimize_bounded,
    objective,
    run_grid,
    sd_moments,
    sd_pdf,
    summarize,
    upper_bound_a,
    write_csv,
)

REPEATS = 7
MIN_REPEAT_NS = 20_000_000
# Fixed grids over the published domain: GRID for the sweep layers, the
# smaller one under tracemalloc, which slows allocation several-fold.
GRID = GridSpec(mu_points=32, sigma_points=32)
ALLOC_GRID = GridSpec(mu_points=16, sigma_points=16)
FIT_RATIOS = {"r3e-3": 3e-3, "r0.5": 0.5, "r50": 50.0}

# Per-layer metric -> (unit, better, the end-to-end metric and workload it
# should move). The counters come from the runner's exact counts.
MOVES = {
    "special.log_gamma_ns": (
        "ns", "lower", "latency_p50_us on forward, elicit and sweep"),
    "special.log_gamma_calls_per_fit": ("count", "lower", "latency_p50_us on elicit"),
    "distributions.sd_moments_us": ("us", "lower", "latency_p99_us on forward"),
    "distributions.sd_pdf_ns": ("ns", "lower", "latency_p50_us on forward"),
    "elicitation.S_us": (
        "us", "lower", "latency_p50_us on elicit and sweep; not forward"),
    "elicitation.objective_us": (
        "us", "lower", "latency_p50_us on elicit and sweep; not forward"),
    "elicitation.fit_prior_us.r3e-3": ("us", "lower", "latency_p99_us on elicit"),
    "elicitation.fit_prior_us.r0.5": ("us", "lower", "latency_p50_us on elicit"),
    "elicitation.fit_prior_us.r50": ("us", "lower", "latency_p50_us on elicit"),
    "elicitation.fit_evals_p50": ("count", "lower", "latency_p50_us on elicit"),
    "elicitation.fit_evals_max": ("count", "lower", "latency_p99_us on elicit"),
    "elicitation.fit_self_us": ("us", "lower", "latency_p50_us on elicit"),
    "optimize.minimize_bounded_us.r0.5": ("us", "lower", "latency_p50_us on elicit"),
    "optimize.overhead_us_per_eval": ("us", "lower", "latency_p50_us on elicit"),
    "validation.run_grid_us_per_cell": ("us", "lower", "latency_p50_us on sweep"),
    "validation.run_grid_parallel_us_per_cell": (
        "us", "lower", "none gated: no workload runs --workers 2 (README)"),
    "validation.write_csv_us_per_row": ("us", "lower", "latency_p50_us on sweep"),
    "validation.summarize_ms": ("ms", "lower", "latency_p50_us on sweep"),
    "validation.result_bytes_per_cell": ("B", "lower", "peak_rss_mb on sweep"),
    "validation.sweep_passed": ("count", "higher", "none (correctness of sweep)"),
    "validation.pass_rect_cells": ("count", "higher", "none (correctness of sweep)"),
    "validation.false_pass_cells": ("count", "lower", "none (correctness of sweep)"),
    "cli.overhead_s": ("s", "lower", "latency_p50_us on sweep"),
    "trace.overhead_pct": ("%", "lower", "none (cost of the traced run itself)"),
}


def _log_spaced(lo: float, hi: float, n: int) -> list[float]:
    step = math.log(hi / lo) / (n - 1)
    return [lo * math.exp(i * step) for i in range(n)]


def _per_call_ns(tracer, parent: int, name: str, fn, calls: list[tuple]) -> float:
    """Median over REPEATS of the mean time of fn(*args) across calls; each
    repeat loops over calls until it has run for at least MIN_REPEAT_NS."""
    samples = []
    for _ in range(REPEATS):
        loops = 0
        with tracer.span(name, parent) as sid:
            while True:
                for args in calls:
                    fn(*args)
                loops += 1
                if perf_counter_ns() - tracer.start[sid] >= MIN_REPEAT_NS:
                    break
        samples.append(tracer.duration_ns(sid) / (loops * len(calls)))
    return statistics.median(samples)


def _median_ns(tracer, parent: int, name: str, fn, repeats: int = 3) -> tuple[float, object]:
    samples = []
    value = None
    for _ in range(repeats):
        with tracer.span(name, parent) as sid:
            value = fn()
        samples.append(tracer.duration_ns(sid))
    return statistics.median(samples), value


def measure(tracer, src: str, out_dir) -> dict[str, float]:
    m: dict[str, float] = {}

    with tracer.span("layer.special") as root:
        xs = [(x,) for x in _log_spaced(0.6, 1e5, 256)]
        m["special.log_gamma_ns"] = _per_call_ns(tracer, root, "special.log_gamma", log_gamma, xs)

    shapes = _log_spaced(1.1, 1e4, 256)
    with tracer.span("layer.distributions") as root:
        params = [GammaParams(a=a, b=1.0 + i % 7) for i, a in enumerate(shapes)]
        sd_us = _per_call_ns(tracer, root, "distributions.sd_moments", sd_moments,
                             [(p,) for p in params]) / 1e3
        m["distributions.sd_moments_us"] = sd_us
        pdf_calls = [(math.sqrt(p.b / p.a), p) for p in params]
        m["distributions.sd_pdf_ns"] = _per_call_ns(
            tracer, root, "distributions.sd_pdf", sd_pdf, pdf_calls)

    with tracer.span("layer.elicitation") as root:
        m["elicitation.S_us"] = _per_call_ns(
            tracer, root, "elicitation.S", S, [(a,) for a in shapes]) / 1e3
        a_hi = upper_bound_a(1.0, 0.5)
        a_pts = _log_spaced(1.0 + 1e-3, a_hi, 64)
        obj_us = _per_call_ns(tracer, root, "elicitation.objective", objective,
                              [(a, 1.0, 0.5) for a in a_pts]) / 1e3
        m["elicitation.objective_us"] = obj_us
        for label, ratio in FIT_RATIOS.items():
            m[f"elicitation.fit_prior_us.{label}"] = _per_call_ns(
                tracer, root, f"elicitation.fit_prior.{label}", fit_prior, [(1.0, ratio)]) / 1e3
        evals = fit_prior(1.0, 0.5).iterations + 1
        m["elicitation.fit_self_us"] = (
            m["elicitation.fit_prior_us.r0.5"] - evals * obj_us - sd_us)

    with tracer.span("layer.optimize") as root:
        def f(a: float) -> float:
            return objective(a, 1.0, 0.5)

        bracket = (f, 1.0 + BRACKET_EPS, a_hi)
        min_us = _per_call_ns(tracer, root, "optimize.minimize_bounded.r0.5",
                              minimize_bounded, [bracket]) / 1e3
        evals = minimize_bounded(*bracket).iterations + 1
        m["optimize.minimize_bounded_us.r0.5"] = min_us
        m["optimize.overhead_us_per_eval"] = min_us / evals - obj_us

    with tracer.span("layer.validation") as root:
        cells = GRID.mu_points * GRID.sigma_points
        grid_ns, results = _median_ns(tracer, root, "validation.run_grid",
                                      lambda: run_grid(GRID, workers=1))
        m["validation.run_grid_us_per_cell"] = grid_ns / cells / 1e3
        par_ns, par_results = _median_ns(tracer, root, "validation.run_grid.workers2",
                                         lambda: run_grid(GRID, workers=2))
        if repr(par_results) != repr(results):  # repr: failed cells hold NaN
            raise RuntimeError("run_grid with 2 workers differs from the serial result")
        m["validation.run_grid_parallel_us_per_cell"] = par_ns / cells / 1e3
        csv_path = out_dir / "layers.csv"
        csv_ns, _ = _median_ns(tracer, root, "validation.write_csv",
                               lambda: write_csv(results, str(csv_path)), repeats=5)
        m["validation.write_csv_us_per_row"] = csv_ns / cells / 1e3
        sum_ns, _ = _median_ns(tracer, root, "validation.summarize",
                               lambda: summarize(results), repeats=5)
        m["validation.summarize_ms"] = sum_ns / 1e6
        with tracer.span("validation.run_grid.tracemalloc", root):
            tracemalloc.start()
            try:
                before = tracemalloc.get_traced_memory()[0]
                held = run_grid(ALLOC_GRID, workers=1)
                after = tracemalloc.get_traced_memory()[0]
            finally:
                tracemalloc.stop()
        m["validation.result_bytes_per_cell"] = (after - before) / len(held)

    with tracer.span("layer.cli") as root:
        argv = [sys.executable, "-m", "gammasd.cli", "validate",
                "--mu-points", str(GRID.mu_points), "--sigma-points", str(GRID.sigma_points),
                "--workers", "1", "--out", str(out_dir / "layers-cli.csv")]
        env = dict(os.environ, PYTHONPATH=src)

        def cli() -> int:
            return subprocess.run(argv, env=env, stdout=subprocess.DEVNULL).returncode

        cli_ns, rc = _median_ns(tracer, root, "cli.validate", cli)
        if rc != 0:
            raise RuntimeError(f"gammasd validate exited with {rc}")
        m["cli.overhead_s"] = (cli_ns - grid_ns - csv_ns - sum_ns) / 1e9
    return m
