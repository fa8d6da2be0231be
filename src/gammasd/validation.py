"""Round-trip validation sweep over a log-spaced (mu, sigma) grid.

Each cell is fit_prior(mu, sigma), field for field: it maps (mu, sigma)
to prior parameters, maps back through the closed-form SD moments, and
passes when that fit converged. A sweep runs fit_prior's two steps
itself: elicitation._shape once per distinct sigma/mu in each sweep
process, and elicitation._scale once per cell. Per-cell numerical
failures are recorded as failed cells; the sweep itself never aborts.
The row of one mu is the unit of work: a row step solves it into plain
tuples in CellResult's field order, and one fold over the rows, in
row-major order, folds their pass bits into the GridSummary. _sweep is
validate's one entry: it checks the workers, opens the CSV and writes
its header, then streams rows into that fold, writing each row's CSV
text on the way in and holding one row at a time (two per worker with a
pool), so the output is identical whatever the degree of concurrency.
run_grid builds CellResults from the rows; write_csv writes them cell
by cell, and only summarize groups them back into rows.
"""

# no postponed annotations: each named-tuple field's would compile to a ForwardRef
import math
import os
import struct
from collections import deque
from functools import wraps
from itertools import groupby
from operator import itemgetter
from typing import Iterable, Iterator, NamedTuple, Sequence, TextIO

from .elicitation import _scale, _shape

__all__ = [
    "GridSpec",
    "CellResult",
    "GridSummary",
    "run_grid",
    "summarize",
    "write_csv",
]

CSV_HEADER = "mu,sigma,a0,b0,mu_rt,sigma_rt,rel_err_mu,rel_err_sigma,converged,passed"
# one CSV line: mu's text, formatted once per row, then the cell's reals and verdict
_CSV_LINE = "%s" + ",%.17g" * 7 + ",%s\n"

# elicitation._shape's tuple as a sweep keeps it: 74 B packed, 210 B as a tuple.
_PACKED_SHAPE = struct.Struct("4dq?")

# A pool worker's shape cache, for every row it solves. Workers live for one
# sweep, so it lives for one run; a serial sweep passes _row its own.
_WORKER_SHAPES: dict = {}

# Robust operating region suggested by the full sweep: the inverse
# transform is reliable for 2e-3 < mu < 1e4 and 3e-3 < sigma/mu < 50.
CUTOFF_MU = (2e-3, 1e4)
CUTOFF_RATIO = (3e-3, 50.0)


class _GridSpec(NamedTuple):
    mu_points: int = 1000
    sigma_points: int = 1000
    mu_lo: float = 1e-4
    mu_hi: float = 1e4
    sigma_ratio_lo: float = 1e-4
    sigma_ratio_hi: float = 1e2


class GridSpec(_GridSpec):
    """Configuration of the validation sweep.

    Defaults reproduce the full published sweep: 1000 x 1000 cells, mu
    log-spaced over [1e-4, 1e4] and, for each mu, sigma log-spaced over
    [1e-4 * mu, 1e2 * mu]. Reduced resolutions are first-class for
    CI-scale runs. Every cell is solved with fit_prior's defaults. A named
    tuple whose every constructor path checks the fields: the call, _make,
    _replace and unpickling.
    """

    __slots__ = ()

    @wraps(_GridSpec.__new__)  # so the signature shows the fields and defaults
    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.mu_points < 1 or self.sigma_points < 1:
            raise ValueError("mu_points and sigma_points must be >= 1")
        if not 0.0 < self.mu_lo < self.mu_hi:
            raise ValueError("need 0 < mu_lo < mu_hi")
        if not 0.0 < self.sigma_ratio_lo < self.sigma_ratio_hi:
            raise ValueError("need 0 < sigma_ratio_lo < sigma_ratio_hi")
        # every sigma lies in [sigma_ratio_lo * mu_lo, sigma_ratio_hi * mu_hi]
        sigma_lo, sigma_hi = self.sigma_ratio_lo * self.mu_lo, self.sigma_ratio_hi * self.mu_hi
        if not (sigma_lo > 0.0 and math.isfinite(sigma_hi)):
            raise ValueError(f"need sigma_ratio_lo * mu_lo > 0 and sigma_ratio_hi * mu_hi "
                             f"finite, got {sigma_lo!r} and {sigma_hi!r}")
        # summarize tells rows apart by mu, so no two rows may share one
        mus = self.mu_values()
        if any(lo >= hi for lo, hi in zip(mus, mus[1:])):
            raise ValueError(f"mu_lo = {self.mu_lo!r}, mu_hi = {self.mu_hi!r} and "
                             f"mu_points = {self.mu_points} give repeated mu values")
        return self

    @classmethod
    def _make(cls, iterable):  # the inherited one skips __new__, and _replace calls it
        return cls(*iterable)

    def mu_values(self) -> list[float]:
        return _log_spaced(self.mu_lo, self.mu_hi, self.mu_points)

    def sigma_values(self, mu: float) -> list[float]:
        return _log_spaced(
            self.sigma_ratio_lo * mu, self.sigma_ratio_hi * mu, self.sigma_points
        )


class CellResult(NamedTuple):
    """Outcome of the round trip at one (mu, sigma) grid point: fit_prior's
    fields, as a tuple. passed is fit_prior's converged flag; the CSV writes
    it to both the converged and the passed column."""

    mu: float
    sigma: float
    a0: float
    b0: float
    mu_rt: float
    sigma_rt: float
    rel_err_mu: float
    rel_err_sigma: float
    passed: bool


class GridSummary(NamedTuple):
    """Aggregate view of a sweep, including the largest fully-passing
    axis-aligned rectangle in (mu, sigma/mu) log space (None if the input
    is not a complete rectangular grid or nothing passed), and whether
    cells strictly inside CUTOFF_MU x CUTOFF_RATIO exist and all passed."""

    n_cells: int
    n_passed: int
    pass_fraction: float
    pass_rectangle: tuple[float, float, float, float] | None
    cutoff_region_pass: bool


def _log_spaced(lo: float, hi: float, n: int) -> list[float]:
    """n points log-spaced over [lo, hi], both endpoints included."""
    if n == 1:
        return [lo]
    log_lo, log_hi = math.log(lo), math.log(hi)
    step = (log_hi - log_lo) / (n - 1)
    values = [math.exp(log_lo + i * step) for i in range(n)]
    values[0], values[-1] = lo, hi
    return values


def _row(mu: float, sigmas: list[float], shapes: dict = _WORKER_SHAPES) -> list[tuple]:
    """Each sigma of a row fitted, as tuples in CellResult's field order: the
    scale step _scale of the cell on the shape step _shape(sigma/mu), which is
    fit_prior(mu, sigma) field for field. GridSpec keeps mu and sigma positive
    and finite. shapes maps each sigma/mu solved so far to its packed shape
    step, or to None where that step raised; a pool worker's rows share
    _WORKER_SHAPES."""
    cells = []
    for sigma in sigmas:
        r = sigma / mu
        try:
            if r not in shapes:
                shapes[r] = None
                shapes[r] = _PACKED_SHAPE.pack(*_shape(r))
            if shapes[r] is not None:
                cells.append((mu, sigma, *_scale(mu, sigma, _PACKED_SHAPE.unpack(shapes[r]))))
                continue
        except ValueError:
            pass
        cells.append((mu, sigma, *(math.nan,) * 4, math.inf, math.inf, False))
    return cells


def _rows(spec: GridSpec, workers: int | None) -> Iterator[list[tuple]]:
    """The rows of run_grid, lazily; workers is checked on the call. A pool
    has at most two rows per worker in flight and returns rows in order."""
    if workers is not None and workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    cpus = os.cpu_count() or 1
    mus = spec.mu_values()
    n_workers = min(cpus if workers is None else workers, len(mus), cpus)
    # a row travels as its mu and sigma values: unpickling a GridSpec re-runs its checks
    rows = ((mu, spec.sigma_values(mu)) for mu in mus)
    if n_workers == 1:
        shapes: dict = {}  # one per run, so the parent holds none after a sweep
        return (_row(mu, sigmas, shapes) for mu, sigmas in rows)

    def pooled() -> Iterator[list[tuple]]:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=n_workers) as pool:
            window: deque = deque()
            for mu, sigmas in rows:
                if len(window) == 2 * n_workers:
                    yield window.popleft().result()
                window.append(pool.submit(_row, mu, sigmas))
            while window:
                yield window.popleft().result()

    return pooled()


def run_grid(spec: GridSpec, workers: int | None = 1) -> list[CellResult]:
    """Evaluate the sweep; returns mu_points * sigma_points cells in
    row-major order. workers > 1 (or None for the CPU count) spreads the
    mu rows over at most min(workers, mu rows, CPU count) processes; the
    result is identical either way. workers < 1 raises ValueError."""
    return [CellResult._make(cell) for row in _rows(spec, workers) for cell in row]


def summarize(results: Iterable[CellResult]) -> GridSummary:
    """Pass counts, the largest fully-passing log-rectangle and the
    published-region verdict, in one pass over cells in row-major order
    from any iterable. Cells of one mu form a row; one row is held at a
    time. The rectangle has maximal area in grid indices (uniform in log
    space), found by a histogram-stack scan over the rows."""
    return _summarize_rows(list(row) for _, row in groupby(results, itemgetter(0)))


def _summarize_rows(rows: Iterable[list]) -> GridSummary:
    """summarize over rows of cells, tuples in CellResult's field order. It
    only folds: each row's pass bits are read once, and the largest
    all-pass rectangle comes from a sentinel stack scan over the column
    heights, keeping the first strictly larger area found."""
    n_cells = n_passed = n_inside = n_inside_passed = 0
    mus: list[float] = []
    ratios: list[float] = []
    heights: list[int] | None = None  # None once a row's length differs
    best_area, rect = 0, None
    for row in rows:
        mu, passed = row[0][0], [c[8] for c in row]
        if not mus:
            ratios = [c[1] / mu for c in row]
            heights = [0] * len(row)
        mus.append(mu)
        n_cells += len(row)
        n_passed += sum(passed)
        if CUTOFF_MU[0] < mu < CUTOFF_MU[1]:
            inside = [p for c, p in zip(row, passed)
                      if CUTOFF_RATIO[0] < c[1] / mu < CUTOFF_RATIO[1]]
            n_inside += len(inside)
            n_inside_passed += sum(inside)
        if heights is None or len(row) != len(heights):
            heights = rect = None
            continue
        heights = [h + 1 if p else 0 for h, p in zip(heights, passed)]
        stack: list[int] = []
        for j, h in enumerate(heights + [0]):
            while stack and heights[stack[-1]] > h:
                height = heights[stack.pop()]
                col_lo = stack[-1] + 1 if stack else 0
                if height * (j - col_lo) > best_area:
                    best_area = height * (j - col_lo)
                    rect = (mus[-height], mu, ratios[col_lo], ratios[j - 1])
            stack.append(j)
    if not n_cells:
        raise ValueError("summarize requires a non-empty result collection")
    return GridSummary(
        n_cells=n_cells,
        n_passed=n_passed,
        pass_fraction=n_passed / n_cells,
        pass_rectangle=rect,
        cutoff_region_pass=0 < n_inside == n_inside_passed,
    )


def _csv_text(row: Sequence[tuple]) -> str:
    """The CSV lines of a row of cells: reals at 17 significant digits,
    booleans as true/false, mu formatted once from the first cell."""
    mu = "%.17g" % row[0][0]
    return "".join([_CSV_LINE % (mu, *c[1:8], "true,true" if c[8] else "false,false")
                    for c in row])


def write_csv(results: Iterable[CellResult], path: str) -> None:
    """Write one row per cell to the file at path after a fixed header,
    reals at 17 significant digits, booleans as true/false, input order
    preserved."""
    with open(path, "w", newline="") as fh:
        fh.write(CSV_HEADER + "\n")
        fh.writelines(_csv_text((c,)) for c in results)


def _written(rows: Iterable[list], fh: TextIO) -> Iterator[list]:
    """rows, each written to fh as CSV text on its way past."""
    for row in rows:
        fh.write(_csv_text(row))
        yield row


def _sweep(spec: GridSpec, workers: int | None, path: str | None) -> GridSummary:
    """validate's sweep: the GridSummary of spec, and with path, its CSV
    written there row by row on the way into the fold. workers below 1
    raises ValueError before path is touched, and path is opened and given
    its header before the first row is solved."""
    rows = _rows(spec, workers)
    if path is None:
        return _summarize_rows(rows)
    with open(path, "w", newline="") as fh:
        fh.write(CSV_HEADER + "\n")
        return _summarize_rows(_written(rows, fh))
