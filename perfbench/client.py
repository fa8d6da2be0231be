"""One closed-loop client of the benchmark, run as its own process.

    python3 perfbench/client.py <request.json>

The request names the source tree, the workload, its generated inputs, how
long to run, whether to trace, and where to write the result. The client
imports gammasd first and records the time at which it is ready, so the
runner (run.py) can measure set-up (interpreter start plus import) from
outside. It then calls the library one operation at a time, each call
waiting for the previous one, cycling through the inputs until the time is
up and at least one full pass is done. It returns the time of every op (up
to KEPT_PER_INPUT per input) and the results of the first pass, which the
runner checks; later passes must repeat them exactly.

With the workload "validate" the client runs the gammasd command with the
given arguments instead, and with "probe" it only imports. Every client
reports its peak resident set.
"""

from __future__ import annotations

import base64
import json
import sys
from array import array
from pathlib import Path
from time import perf_counter_ns

# Times kept per input, at most this many per client: the array is
# allocated before the loop, so memory does not grow with the op count.
KEPT_PER_INPUT = 32  # run.py reads the array with the same layout


def main() -> int:
    request = json.loads(Path(sys.argv[1]).read_text())
    src = request["src"]
    sys.path.insert(0, src)
    import gammasd  # the import is what set-up measures

    if request["workload"] in ("probe", "validate"):
        import gammasd.cli  # noqa: F401  (part of set-up; used by "validate")
    t_ready = perf_counter_ns()
    if not Path(gammasd.__file__).resolve().is_relative_to(Path(src).resolve()):
        print(f"gammasd imported from {gammasd.__file__}, not {src}", file=sys.stderr)
        return 2

    from benchlib import Tracer

    result: dict = {"t_ready_ns": t_ready}
    if request["workload"] == "validate":
        # The CLI's own entry point, as `gammasd validate` runs it; the CLI
        # prints to this process's stdout.
        result["rc"] = gammasd.cli.run(request["inputs"])
        sys.stdout.flush()
    elif request["workload"] != "probe":
        ops, summarise = _prepare(request["workload"], request["inputs"])
        tracer = Tracer() if request["trace"] else None
        result.update(_closed_loop(ops, summarise, request["seconds"], tracer,
                                   request["workload"]))
        if tracer is not None:
            tracer.write(Path(request["trace_stem"]))
    result["peak_rss_mb"] = _peak_rss_kib() * 1024 / 1e6
    Path(request["out"]).write_text(json.dumps(result))
    return 0


def _peak_rss_kib() -> int:
    """Peak resident set of this process, or of the largest child it has
    waited on should the CLI start worker processes; never their sum. It
    reads VmHWM, not ru_maxrss: at exec, Linux folds the spawning process's
    peak into ru_maxrss, so ru_maxrss of a child of the runner reports the
    runner's size whenever that is larger. Workers forked without exec
    carry their own ru_maxrss."""
    import resource

    with open("/proc/self/status") as fh:
        own = next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))
    return max(own, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)


def _prepare(workload: str, inputs: list):
    """Bind each input to the public function it calls. Inputs such as
    GammaParams are built here, outside the timed calls."""
    from gammasd import GammaParams, fit_prior, precision_pdf, sd_moments, sd_pdf

    if workload == "elicit":
        ops = [(fit_prior, (mu, sigma)) for mu, sigma in inputs]

        def summarise(r):
            if isinstance(r, Exception):
                return ["error", f"{type(r).__name__}: {r}"]
            return [r.params.a, r.params.b, r.converged, r.iterations]

        return ops, summarise

    funcs = (sd_moments, sd_pdf, precision_pdf)
    ops = []
    for kind, a, b, x in inputs:
        params = GammaParams(a=a, b=b)
        ops.append((funcs[kind], (params,) if kind == 0 else (x, params)))

    def summarise(r):
        if isinstance(r, Exception):
            return ["error", f"{type(r).__name__}: {r}"]
        return [r.mu, r.sigma] if hasattr(r, "mu") else [r]

    return ops, summarise


def _closed_loop(ops, summarise, seconds, tracer, workload) -> dict:
    n = len(ops)
    kept = array("I", bytes(4 * n * KEPT_PER_INPUT))  # ns; pass p of input i at p*n + i
    first: list = [None] * n
    mismatches = busy = done = passes = i = 0
    root = tracer.begin(f"client.{workload}") if tracer is not None else -1
    op_name = "elicitation.fit_prior" if workload == "elicit" else "distributions.forward"
    deadline = perf_counter_ns() + int(seconds * 1e9)
    while True:
        fn, args = ops[i]
        if tracer is None:
            t0 = perf_counter_ns()
            try:
                r = fn(*args)
            except (ValueError, ArithmeticError) as exc:
                r = exc
            dt = perf_counter_ns() - t0
        else:
            span = tracer.begin(op_name, root)
            try:
                r = fn(*args)
            except (ValueError, ArithmeticError) as exc:
                r = exc
            dt = tracer.finish(span)
        if passes < KEPT_PER_INPUT:
            kept[passes * n + i] = min(dt, 0xFFFFFFFF)
        busy += dt
        out = summarise(r)
        if passes == 0:
            first[i] = out
        elif out != first[i]:
            mismatches += 1
        done += 1
        i += 1
        if i == n:
            i = 0
            passes += 1
        if passes and perf_counter_ns() >= deadline:
            break
    if tracer is not None:
        tracer.finish(root)
    return {
        "ops": done,
        "passes": passes,
        "next_index": i,
        "busy_ns": busy,
        "mismatches": mismatches,
        # Raw bytes of the fixed-size array: building Python lists here
        # would make the peak RSS grow with the number of passes.
        "kept_ns": base64.b64encode(kept.tobytes()).decode(),
        "first": first,
    }


if __name__ == "__main__":
    sys.exit(main())
