"""Pieces shared by the benchmark runner (run.py) and its client processes
(client.py): seeded workload inputs and an in-memory span recorder.

Nothing here imports gammasd, so the client can time its own import.
"""

from __future__ import annotations

import json
import math
import random
from array import array
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter_ns

# Elicitation targets. mu spans the published sweep domain; sigma/mu spans
# the published robust band (3e-3, 50), where every solve is expected to
# converge. Below that band the current kernels fail or silently return
# wrong priors; the sweep workloads cover it and count those cells.
ELICIT_N = 4096
ELICIT_LOG10_MU = (-4.0, 4.0)
ELICIT_LOG10_RATIO = (math.log10(3e-3), math.log10(50.0))

# Forward calls: shape a in [1.1, 1e4] (the shapes a solve in the robust
# band returns, up to ~3e4), rate b over eight decades, and an evaluation
# point within three prior SDs of the precision's bulk on a log scale so
# that no density underflows.
FORWARD_N = 4096
FORWARD_KINDS = ("sd_moments", "sd_pdf", "precision_pdf")
FORWARD_LOG10_A = (math.log10(1.1), 4.0)
FORWARD_LOG10_B = (-4.0, 4.0)

# Sweep grid: the published domain (mu in [1e-4, 1e4], sigma/mu in
# [1e-4, 1e2]) at a fixed reduced resolution. It does not follow the seed:
# the work in a cell depends strongly on sigma/mu, and moving the grid by
# up to half a step changed the work of a sweep by up to 9 %.
SWEEP_GRID = {"mu_points": 48, "sigma_points": 48,
              "mu_lo": 1e-4, "mu_hi": 1e4, "ratio_lo": 1e-4, "ratio_hi": 1e2}

# Pass criterion shared with the library (1 % relative round-trip error).
REL_TOL = 1e-2


def _rng(workload: str, seed: int) -> random.Random:
    # str seeds are hashed with SHA-512, so they are stable across runs.
    return random.Random(f"gammasd-{workload}-{seed}")


def _log_uniform(rng: random.Random, lo: float, hi: float) -> float:
    return 10.0 ** rng.uniform(lo, hi)


def elicit_targets(seed: int) -> list[tuple[float, float]]:
    """(mu, sigma) targets for fit_prior."""
    rng = _rng("elicit", seed)
    targets = []
    for _ in range(ELICIT_N):
        mu = _log_uniform(rng, *ELICIT_LOG10_MU)
        targets.append((mu, mu * _log_uniform(rng, *ELICIT_LOG10_RATIO)))
    return targets


def forward_ops(seed: int) -> list[tuple[int, float, float, float]]:
    """(kind, a, b, x) forward calls; kind indexes FORWARD_KINDS and x is
    unused by sd_moments."""
    rng = _rng("forward", seed)
    ops = []
    for _ in range(FORWARD_N):
        kind = rng.randrange(len(FORWARD_KINDS))
        a = _log_uniform(rng, *FORWARD_LOG10_A)
        b = _log_uniform(rng, *FORWARD_LOG10_B)
        p = (a / b) * math.exp(rng.uniform(-3.0, 3.0) / math.sqrt(a))
        x = 1.0 / math.sqrt(p) if kind == 1 else p
        ops.append((kind, a, b, x))
    return ops


def validate_argv(out: str) -> list[str]:
    """Arguments of one serial `gammasd validate` run on SWEEP_GRID."""
    g = SWEEP_GRID
    return [
        "validate",
        "--mu-points", str(g["mu_points"]), "--sigma-points", str(g["sigma_points"]),
        "--mu-lo", repr(g["mu_lo"]), "--mu-hi", repr(g["mu_hi"]),
        "--ratio-lo", repr(g["ratio_lo"]), "--ratio-hi", repr(g["ratio_hi"]),
        "--workers", "1",
        "--out", out,
    ]


class Tracer:
    """Spans with a name, start, end and parent, kept in flat arrays in
    memory and written out once, when the run ends. Times are
    perf_counter_ns, a system-wide monotonic clock on Linux, so spans from
    the runner and its clients share one time base."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("H")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")

    def begin(self, name: str, parent: int = -1) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        self.name.append(nid)
        self.parent.append(parent)
        self.end.append(0)
        self.start.append(perf_counter_ns())
        return len(self.start) - 1

    def finish(self, span: int) -> int:
        """Close a span and return its duration in ns."""
        t = perf_counter_ns()
        self.end[span] = t
        return t - self.start[span]

    @contextmanager
    def span(self, name: str, parent: int = -1):
        sid = self.begin(name, parent)
        try:
            yield sid
        finally:
            self.finish(sid)

    def duration_ns(self, span: int) -> int:
        return self.end[span] - self.start[span]

    def write(self, stem: Path) -> None:
        """Write <stem>.json (names and layout) and <stem>.bin (the four
        columns one after another, in native byte order, as typed in the
        header: name index, parent span index or -1, start ns, end ns)."""
        cols = ("name", "parent", "start", "end")
        with open(stem.with_suffix(".bin"), "wb") as fh:
            for col in cols:
                getattr(self, col).tofile(fh)
        header = {"names": self.names, "spans": len(self.start), "columns": list(cols),
                  "typecodes": [getattr(self, c).typecode for c in cols],
                  "clock": "perf_counter_ns"}
        stem.with_suffix(".json").write_text(json.dumps(header) + "\n")
