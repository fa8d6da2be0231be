"""The gammasd benchmark. Run it from the repository root:

    python3 perfbench/run.py --workload elicit --seed 1 --seconds 15 --trace 0

Workloads (each a closed loop with one client; see README.md):
  elicit          fit_prior, one seeded target at a time
  forward         sd_moments / sd_pdf / precision_pdf, one seeded call at a time
  sweep           `gammasd validate --workers 1` on a fixed reduced grid

With --trace 0 the last line of stdout is a JSON object whose metrics are
the end-to-end ones, measured with tracing off. With --trace 1 it holds the
per-layer metrics, from a run that records spans and also reports the
tracing overhead (traced minus untraced). Every run checks the outputs
against an independent 40-digit mpmath oracle and exits with 1 if any check
fails, or with 2 if it is not started from a gammasd source tree.
"""

from __future__ import annotations

import argparse
import base64
import csv
import hashlib
import json
import statistics
import subprocess
import sys
from array import array
from pathlib import Path
from time import perf_counter_ns

import benchlib
from benchlib import Tracer
from client import KEPT_PER_INPUT

HERE = Path(__file__).resolve().parent
OUT = HERE / "out"
WORKLOADS = ("elicit", "forward", "sweep")
# Client processes per run: each is one set-up sample, and in a traced run
# traced and untraced clients alternate so that drift hits both alike.
CLIENTS = 7
TRACED_CLIENT_PAIRS = 4
SETUP_PROBES = 5
MIN_SWEEP_RUNS = 3
CELLS = benchlib.SWEEP_GRID["mu_points"] * benchlib.SWEEP_GRID["sigma_points"]
# The published robust region; the library claims every cell inside it.
PUBLISHED_MU = (2e-3, 1e4)
PUBLISHED_RATIO = (3e-3, 50.0)

E2E_UNITS = {
    "setup_s": "s",
    "latency_p50_us": "us",
    "latency_p99_us": "us",
    "peak_rss_mb": "MB",
}
# Printed on every run but not a result metric: on a shared 2-CPU virtual
# machine the speed of the same code flips between a fast and a slow state
# within milliseconds, and a time-weighted figure follows the share of slow
# time, which spread by up to a third across runs (see README.md).
PRINTED_UNITS = {"throughput_ops_s": "1/s"}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")

    src = Path.cwd() / "src"
    if not (src / "gammasd" / "__init__.py").is_file():
        print(f"error: no gammasd source tree at {src}; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    OUT.mkdir(exist_ok=True)

    bench = Bench(args.workload, args.seed, args.seconds, bool(args.trace), str(src))
    report = bench.run()
    for line in report["lines"]:
        print(line)
    print(json.dumps({
        "correct": report["correct"],
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": report["metrics"],
    }))
    return 0 if report["correct"] else 1


class Bench:
    def __init__(self, workload: str, seed: int, seconds: float, trace: bool, src: str):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.src = src
        self.tracer = Tracer() if trace else None
        self.lines: list[str] = []
        self.problems: list[str] = []
        # First-pass elicit results and sweep counters, when the workload
        # itself produced them; otherwise _counters computes them.
        self._elicit_first: list | None = None
        self._sweep: dict | None = None

    # -- driving -------------------------------------------------------------

    def run(self) -> dict:
        self._client("probe", None, 0, False, "warmup")  # fills the bytecode cache
        if self.workload == "sweep":
            e2e, attempted, failed, overhead = self._run_sweep()
        else:
            e2e, attempted, failed, overhead = self._run_loop()
        counters = self._counters()
        self.lines.append(f"workload {self.workload} seed {self.seed} closed loop, 1 client")
        self.lines.append(f"fail_frac {failed / attempted:.6g} ({failed} of {attempted} ops)")
        for name, value in counters.items():
            self.lines.append(f"counter {name} {value}")
        self.lines.append(f"counter validation.pass_rectangle {self._sweep['rectangle']}")

        label = "untraced half" if self.trace else "tracing off"
        for name, value in e2e.items():
            unit = E2E_UNITS.get(name) or PRINTED_UNITS[name]
            note = "" if name in E2E_UNITS else ", printed only"
            self.lines.append(f"metric {name} {value:.6g} {unit} ({label}{note})")
        if self.trace:
            import layers

            metrics = layers.measure(self.tracer, self.src, OUT)
            metrics.update({k: v for k, v in counters.items() if k in layers.MOVES})
            metrics["trace.overhead_pct"] = overhead
            for name, (unit, _, moves) in layers.MOVES.items():
                self.lines.append(f"layer {name} {metrics[name]:.6g} {unit}  moves -> {moves}")
            self.tracer.write(OUT / f"trace-{self.workload}")
            metrics = {k: {"value": metrics[k], "unit": layers.MOVES[k][0]} for k in layers.MOVES}
        else:
            metrics = {k: {"value": e2e[k], "unit": E2E_UNITS[k]} for k in E2E_UNITS}
        for p in self.problems:
            self.lines.append(f"CHECK FAILED: {p}")
        return {"lines": self.lines, "metrics": metrics, "attempted": attempted,
                "failed": failed, "correct": failed == 0 and not self.problems}

    def _client(self, workload: str, inputs, seconds: float, trace: bool, tag: str,
                stdout=subprocess.DEVNULL) -> dict:
        """Run client.py in a fresh process and return its result, with the
        spawn-to-exit wall time and the set-up time (spawn until the client
        had imported gammasd) measured from here."""
        out = OUT / f"client-{tag}.json"
        request = OUT / f"request-{tag}.json"
        request.write_text(json.dumps({
            "src": self.src, "workload": workload, "inputs": inputs, "seconds": seconds,
            "trace": trace, "trace_stem": str(OUT / f"trace-{self.workload}-{tag}"),
            "out": str(out)}))
        out.unlink(missing_ok=True)
        span = self.tracer.begin(f"client.{workload}") if trace else -1
        t0 = perf_counter_ns()
        rc = subprocess.run([sys.executable, str(HERE / "client.py"), str(request)],
                            stdout=stdout).returncode
        wall = perf_counter_ns() - t0
        if span >= 0:
            self.tracer.finish(span)
        if rc != 0:
            raise RuntimeError(f"client {tag} exited with {rc}")
        result = json.loads(out.read_text())
        if "kept_ns" in result:
            result["times_ns"] = _per_input_times(result, len(inputs))
        result["setup_s"] = (result["t_ready_ns"] - t0) / 1e9
        result["wall_ns"] = wall
        return result

    def _run_loop(self):
        if self.workload == "elicit":
            inputs = benchlib.elicit_targets(self.seed)
        else:
            inputs = benchlib.forward_ops(self.seed)
        if self.trace:
            plan = [False, True] * TRACED_CLIENT_PAIRS
        else:
            plan = [False] * CLIENTS
        share = self.seconds / len(plan)
        clients = [self._client(self.workload, inputs, share, traced, f"{k}")
                   for k, traced in enumerate(plan)]

        bad = self._check_loop(inputs, clients[0]["first"])
        attempted = failed = 0
        for c in clients:
            attempted += c["ops"]
            failed += c["mismatches"]
            for i in range(len(inputs)):
                if i in bad or c["first"][i] != clients[0]["first"][i]:
                    failed += c["passes"] + (i < c["next_index"])
        if self.workload == "elicit":
            self._elicit_first = clients[0]["first"]

        def summary(group):
            """Each input's time is the median of all its repetitions in the
            group, taken at different moments; the percentiles are over
            inputs. A burst of outside load slows some repetitions of an
            input, and moves its median only if it covers most of them."""
            per_input = [statistics.median(t for c in group for t in c["times_ns"][i])
                         for i in range(len(inputs))]
            return {
                "setup_s": statistics.median(c["setup_s"] for c in group),
                "latency_p50_us": statistics.median(per_input) / 1e3,
                "latency_p99_us": _p99(per_input) / 1e3,
                "throughput_ops_s": statistics.median(
                    c["ops"] / (c["busy_ns"] / 1e9) for c in group),
                "peak_rss_mb": statistics.median(c["peak_rss_mb"] for c in group),
            }, min(sum(len(c["times_ns"][i]) for c in group) for i in range(len(inputs)))

        e2e, reps = summary([c for c, t in zip(clients, plan) if not t])
        self.lines.append(
            f"samples {len(inputs)} inputs, each timed at least {reps} times over "
            f"{sum(c['ops'] for c, t in zip(clients, plan) if not t)} ops in "
            f"{plan.count(False)} clients; {len(inputs) // 100} inputs lie above p99")
        overhead = None
        if self.trace:
            traced, _ = summary([c for c, t in zip(clients, plan) if t])
            diff = traced["latency_p50_us"] - e2e["latency_p50_us"]
            overhead = 100.0 * diff / e2e["latency_p50_us"]
            self.lines.append(f"trace overhead {diff:.4g} us per op at p50 ({overhead:.3g} %)")
        return e2e, attempted, failed, overhead

    def _run_sweep(self):
        setups = [self._client("probe", None, 0, False, "probe")["setup_s"]
                  for _ in range(SETUP_PROBES)]
        runs = []
        deadline = perf_counter_ns() + int(self.seconds * 1e9)
        while len(runs) < MIN_SWEEP_RUNS * (2 if self.trace else 1) or perf_counter_ns() < deadline:
            traced = self.trace and len(runs) % 2 == 1
            runs.append((traced, self._validate(traced, "first" if not runs else "rest")))

        first = runs[0][1]
        self._sweep = self._check_sweep(first)
        failed = self._sweep["failed_cells"] * len(runs)
        for _, r in runs[1:]:
            if (r["rc"], r["stdout"], r["digest"]) != (first["rc"], first["stdout"], first["digest"]):
                self.problems.append("sweep output differs between runs of one seed")
                failed += CELLS
        walls = [r["wall_ns"] / 1e3 for t, r in runs if not t]
        # One input (the grid), so both percentiles over inputs are the
        # median time of its runs.
        e2e = {
            "setup_s": statistics.median(setups),
            "latency_p50_us": statistics.median(walls),
            "latency_p99_us": statistics.median(walls),
            "throughput_ops_s": CELLS / (statistics.median(walls) / 1e6),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for t, r in runs if not t),
        }
        self.lines.append(f"samples {len(walls)} validate runs of {CELLS} cells; "
                          f"wall_s {e2e['latency_p50_us'] / 1e6:.4g} (median)")
        overhead = None
        if self.trace:
            traced = statistics.median(r["wall_ns"] / 1e3 for t, r in runs if t)
            overhead = 100.0 * (traced - e2e["latency_p50_us"]) / e2e["latency_p50_us"]
            self.lines.append(f"trace overhead {traced - e2e['latency_p50_us']:.4g} us per run "
                              f"({overhead:.3g} %)")
        return e2e, CELLS * len(runs), failed, overhead

    def _validate(self, traced: bool, tag: str) -> dict:
        """One `gammasd validate` run in a fresh client process."""
        csv_path = OUT / f"sweep-{tag}.csv"
        stdout_path = OUT / f"sweep-{tag}.out"
        csv_path.unlink(missing_ok=True)
        with open(stdout_path, "wb") as fh:
            result = self._client("validate", benchlib.validate_argv(str(csv_path)),
                                  0, traced, tag, stdout=fh)
        result["stdout"] = stdout_path.read_text()
        result["csv"] = csv_path
        result["digest"] = hashlib.sha256(csv_path.read_bytes()).hexdigest() \
            if csv_path.exists() else None
        return result

    # -- checking ------------------------------------------------------------

    def _check_loop(self, inputs: list, first: list) -> set[int]:
        """Indices whose first-pass result is wrong: an exception, a fit
        that did not converge, or a value more than 1 % off the oracle."""
        import oracle

        bad = set()
        tol = benchlib.REL_TOL
        for i, (inp, out) in enumerate(zip(inputs, first)):
            if out[0] == "error":
                bad.add(i)
            elif self.workload == "elicit":
                mu, sigma = inp
                a0, b0, converged, _ = out
                if not (converged and oracle.round_trip_ok(mu, sigma, a0, b0, tol)):
                    bad.add(i)
            else:
                kind, a, b, x = inp
                if kind == 0:
                    ref = oracle.sd_moments(a, b)
                    ok = all(oracle.rel_err(v, r) <= tol for v, r in zip(out, ref))
                else:
                    ref = (oracle.sd_pdf if kind == 1 else oracle.precision_pdf)(x, a, b)
                    ok = oracle.rel_err(out[0], ref) <= tol
                if not ok:
                    bad.add(i)
        if bad:
            self.problems.append(f"{len(bad)} of {len(inputs)} {self.workload} inputs "
                                 "give a wrong result")
        return bad

    def _check_sweep(self, run: dict) -> dict:
        """The four checks of a validate run (exit code 0, cut-off region
        reported as passing, one CSV row per cell, CSV pass count equal to
        the printed one) plus the oracle on every cell the CSV marks as
        passed. A false pass inside the published region fails the run;
        outside it, where the library makes no promise, it is counted."""
        import oracle

        printed = dict(line.split(" ", 1) for line in run["stdout"].splitlines() if " " in line)
        problems = []
        if run["rc"] != 0:
            problems.append(f"validate exited with {run['rc']}")
        if printed.get("cutoff_region_pass") != "true":
            problems.append("validate did not print cutoff_region_pass true")
        rows = []
        if run["digest"] is not None:
            with open(run["csv"], newline="") as fh:
                rows = list(csv.DictReader(fh))
        if len(rows) != CELLS or printed.get("cells") != str(CELLS):
            problems.append(f"CSV has {len(rows)} rows for {CELLS} cells")
        passed = [r for r in rows if r["passed"] == "true"]
        if printed.get("passed") != str(len(passed)):
            problems.append(f"CSV passes {len(passed)} cells, validate printed "
                            f"{printed.get('passed')}")
        false_in = false_out = 0
        for r in passed:
            mu, sigma = float(r["mu"]), float(r["sigma"])
            if not oracle.round_trip_ok(mu, sigma, float(r["a0"]), float(r["b0"]),
                                        benchlib.REL_TOL):
                inside = (PUBLISHED_MU[0] < mu < PUBLISHED_MU[1]
                          and PUBLISHED_RATIO[0] < sigma / mu < PUBLISHED_RATIO[1])
                false_in += inside
                false_out += not inside
        if false_in:
            problems.append(f"{false_in} cells in the published region pass wrongly")
        self.problems.extend(problems)
        return {
            "failed_cells": CELLS if problems else 0,
            "counters": {
                "validation.sweep_passed": len(passed),
                "validation.pass_rect_cells": _rect_cells(rows, printed.get("pass_rectangle")),
                "validation.false_pass_cells": false_out,
            },
            "rectangle": printed.get("pass_rectangle"),
        }

    # -- exact counters --------------------------------------------------------

    def _counters(self) -> dict[str, int]:
        """Counts that repeat exactly for a seed: solver evaluations over
        the seed's elicit targets, and the pass count, largest all-pass
        rectangle and oracle-rejected passes of the sweep grid."""
        if self._elicit_first is not None:
            evals = [out[3] + 1 for out in self._elicit_first if out[0] != "error"]
        else:
            from gammasd import fit_prior

            evals = []
            for mu, sigma in benchlib.elicit_targets(self.seed):
                try:
                    evals.append(fit_prior(mu, sigma).iterations + 1)
                except (ValueError, ArithmeticError):
                    pass
        evals.sort()
        counters = {
            "elicitation.fit_evals_p50": statistics.median_low(evals),
            "elicitation.fit_evals_max": evals[-1],
            "special.log_gamma_calls_per_fit": 2 * statistics.median_low(evals) + 4,
        }
        if self._sweep is None:
            self._sweep = self._check_sweep(self._validate(False, "counters"))
        counters.update(self._sweep["counters"])
        return counters


def _per_input_times(result: dict, n: int) -> list[list[int]]:
    """Unpack a client's times: pass p of input i is at p*n + i, for the
    first KEPT_PER_INPUT passes and the partial pass after them."""
    kept = array("I", base64.b64decode(result.pop("kept_ns")))
    full = min(result["passes"], KEPT_PER_INPUT)
    partial = full == result["passes"]
    return [[kept[p * n + i] for p in range(full + (partial and i < result["next_index"]))]
            for i in range(n)]


def _p99(values: list[float]) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[98]


def _rect_cells(rows: list[dict], rect: str | None) -> int:
    """Number of grid cells in the printed largest all-pass rectangle
    ("mu [lo, hi] ratio [lo, hi]", 12 significant digits)."""
    if not rows or rect is None:
        return 0
    parts = rect.replace("[", " ").replace("]", " ").replace(",", " ").split()
    mu_lo, mu_hi, r_lo, r_hi = (float(parts[i]) for i in (1, 2, 4, 5))
    mus = sorted({float(r["mu"]) for r in rows})
    row0 = [r for r in rows if float(r["mu"]) == mus[0]]
    ratios = [float(r["sigma"]) / float(r["mu"]) for r in row0]

    def within(v: float, lo: float, hi: float) -> bool:
        return lo * (1 - 1e-9) <= v <= hi * (1 + 1e-9)

    return (sum(within(m, mu_lo, mu_hi) for m in mus)
            * sum(within(r, r_lo, r_hi) for r in ratios))


if __name__ == "__main__":
    sys.exit(main())
