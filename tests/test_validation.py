import concurrent.futures
import math
import random
from concurrent.futures import Future

import pytest

from gammasd import (
    CellResult,
    GridSpec,
    fit_prior,
    run_grid,
    summarize,
    write_csv,
)
from gammasd import validation
from gammasd.validation import CSV_HEADER
from records import PATHS, build


def small_spec(n=8, m=8, **overrides):
    defaults = dict(
        mu_points=n,
        sigma_points=m,
        mu_lo=1e-2,
        mu_hi=1e2,
        sigma_ratio_lo=1e-2,
        sigma_ratio_hi=10.0,
    )
    defaults.update(overrides)
    return GridSpec(**defaults)


@pytest.fixture
def csv_bytes(tmp_path):
    def write(results):
        path = tmp_path / "cells.csv"
        write_csv(results, str(path))
        return path.read_bytes().decode()

    return write


def make_cell(mu, sigma, passed=True):
    return CellResult(
        mu=mu, sigma=sigma, a0=2.0, b0=2.0, mu_rt=mu, sigma_rt=sigma,
        rel_err_mu=0.0, rel_err_sigma=0.0, passed=passed,
    )


class TestGridSpec:
    def test_defaults_match_published_sweep(self):
        spec = GridSpec()
        assert spec.mu_points == 1000 and spec.sigma_points == 1000
        assert (spec.mu_lo, spec.mu_hi) == (1e-4, 1e4)
        assert (spec.sigma_ratio_lo, spec.sigma_ratio_hi) == (1e-4, 1e2)

    @pytest.mark.parametrize(
        "overrides",
        [
            {"mu_points": 0},
            {"mu_lo": 0.0},
            {"mu_lo": 10.0, "mu_hi": 1.0},
            {"sigma_ratio_lo": 2.0, "sigma_ratio_hi": 1.0},
            # exp rounds the middle of three log-spaced mu values to mu_lo
            {"mu_points": 3, "mu_lo": 1.0, "mu_hi": 1.0000000000000002},
            # sigma_ratio_lo * mu_lo underflows to 0
            {"mu_lo": 1e-320, "mu_hi": 1e-310},
            # sigma_ratio_hi * mu_hi overflows
            {"mu_hi": 1e300, "sigma_ratio_hi": 1e10},
            {"mu_points": 2, "mu_hi": math.inf},
        ],
    )
    def test_rejects_invalid(self, overrides):
        for path in PATHS:
            with pytest.raises(ValueError):
                build(GridSpec, {**GridSpec._field_defaults, **overrides}.values(), path)

    def test_log_spacing_constant_ratio(self):
        spec = small_spec(n=17)
        mus = spec.mu_values()
        assert mus[0] == spec.mu_lo and mus[-1] == spec.mu_hi
        expected = (spec.mu_hi / spec.mu_lo) ** (1.0 / (len(mus) - 1))
        for lo, hi in zip(mus, mus[1:]):
            assert hi / lo == pytest.approx(expected, rel=1e-12)

    def test_sigma_values_scale_with_mu(self):
        spec = small_spec(m=9)
        for mu in (0.5, 7.0):
            sigmas = spec.sigma_values(mu)
            assert sigmas[0] == spec.sigma_ratio_lo * mu
            assert sigmas[-1] == spec.sigma_ratio_hi * mu


class TestRunGrid:
    def test_cell_count_and_row_major_order(self):
        spec = small_spec(n=4, m=3)
        results = run_grid(spec)
        assert len(results) == 12
        mus = spec.mu_values()
        for i, mu in enumerate(mus):
            row = results[3 * i : 3 * (i + 1)]
            assert all(c.mu == mu for c in row)
            assert [c.sigma for c in row] == sorted(c.sigma for c in row)

    def test_mid_region_cell_passes(self):
        spec = GridSpec(mu_points=1, sigma_points=1, mu_lo=1.0, mu_hi=2.0,
                        sigma_ratio_lo=1.0, sigma_ratio_hi=2.0)
        [cell] = run_grid(spec)
        assert cell.mu == 1.0 and cell.sigma == 1.0
        assert cell.passed
        assert cell.rel_err_mu < 1e-10 and cell.rel_err_sigma < 1e-10

    def test_degenerate_cell_recorded_not_raised(self):
        # sigma/mu = 1e8 is infeasible: a0 - 1 rounds away beside 1
        spec = GridSpec(mu_points=1, sigma_points=1, mu_lo=1.0, mu_hi=2.0,
                        sigma_ratio_lo=1e8, sigma_ratio_hi=2e8)
        [cell] = run_grid(spec)
        assert not cell.passed
        assert math.isnan(cell.a0)
        assert cell.rel_err_mu == math.inf

    def test_pass_flag_consistent(self):
        # a cell passes exactly when its fit converged (1 % round trip)
        for cell in run_grid(small_spec()):
            assert cell.passed == fit_prior(cell.mu, cell.sigma).converged
            if cell.passed:
                assert cell.rel_err_mu < 1e-2 and cell.rel_err_sigma < 1e-2

    def test_deterministic(self, csv_bytes):
        spec = small_spec()
        assert csv_bytes(run_grid(spec)) == csv_bytes(run_grid(spec))

    def test_parallel_equivalent_to_serial(self, csv_bytes):
        spec = small_spec()
        serial = csv_bytes(run_grid(spec, workers=1))
        parallel = csv_bytes(run_grid(spec, workers=3))
        assert serial == parallel

    @pytest.mark.parametrize(
        "cpus, rows, workers, expected",
        [
            (4, 3, 500, 3),    # capped by the row count
            (4, 8, 500, 4),    # capped by the CPU count
            (4, 3, None, 3),   # None means the CPU count, then capped
            (4, 8, 2, 2),
            (4, 8, 1, None),   # serial: no pool
            (4, 1, 500, None),
            (None, 8, 500, None),
        ],
    )
    def test_worker_count_capped(self, monkeypatch, cpus, rows, workers, expected):
        pools = []

        class FakePool:
            # maps serially in this process and records the requested size
            def __init__(self, max_workers):
                pools.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def submit(self, fn, *args):
                future = Future()
                future.set_result(fn(*args))
                return future

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", FakePool)
        monkeypatch.setattr(validation.os, "cpu_count", lambda: cpus)
        spec = small_spec(n=rows, m=2)
        results = run_grid(spec, workers=workers)
        assert pools == ([] if expected is None else [expected])
        assert len(results) == 2 * rows

    @pytest.mark.parametrize("workers", [0, -1])
    def test_rejects_nonpositive_workers(self, monkeypatch, workers):
        def no_pool(max_workers):
            raise AssertionError("a pool was started")

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
        with pytest.raises(ValueError, match="workers"):
            run_grid(small_spec(n=2, m=2), workers=workers)

    def test_pool_keeps_two_rows_per_worker_in_flight(self, monkeypatch):
        pools = []
        in_flight = []  # rows submitted and not yet read
        peaks = []  # len(in_flight) after each submit
        rows = []  # the mu and sigma values sent with each row

        class CountedFuture(Future):
            def result(self, timeout=None):
                in_flight.remove(self)
                return super().result(timeout)

        class FakePool:
            # solves each row on submit; the row is in flight until read
            def __init__(self, max_workers):
                pools.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def submit(self, fn, *args):
                rows.append(args[:2])
                future = CountedFuture()
                future.set_result(fn(*args))
                in_flight.append(future)
                peaks.append(len(in_flight))
                return future

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", FakePool)
        monkeypatch.setattr(validation.os, "cpu_count", lambda: 4)
        spec = small_spec(n=12, m=3)
        cells = []
        for row in validation._rows(spec, workers=2):
            # read one row at a time: the window must not grow meanwhile
            assert len(in_flight) <= 2 * 2
            cells.extend(row)
        assert pools == [2]
        assert len(peaks) == 12 and max(peaks) <= 2 * 2
        assert cells == run_grid(spec, workers=1)
        # a row carries no GridSpec, whose unpickling would re-run its checks
        assert rows == [(mu, spec.sigma_values(mu)) for mu in spec.mu_values()]


class TestSummarize:
    def test_all_pass(self):
        cells = [make_cell(1.0, 0.5), make_cell(1.0, 1.0),
                 make_cell(2.0, 1.0), make_cell(2.0, 2.0)]
        summary = summarize(cells)
        assert summary.n_cells == 4 and summary.n_passed == 4
        assert summary.pass_fraction == 1.0
        assert summary.pass_rectangle == (1.0, 2.0, 0.5, 1.0)

    def test_all_fail(self):
        cells = [make_cell(1.0, 1.0, passed=False), make_cell(2.0, 2.0, passed=False)]
        summary = summarize(cells)
        assert summary.pass_fraction == 0.0
        assert summary.pass_rectangle is None

    def test_largest_rectangle_on_mixed_grid(self):
        # 3 x 3 grid with the top-right 2 x 2 block passing
        mus, ratios = [1.0, 2.0, 4.0], [0.1, 0.2, 0.4]
        cells = []
        for i, mu in enumerate(mus):
            for j, ratio in enumerate(ratios):
                cells.append(make_cell(mu, ratio * mu, passed=(i >= 1 and j >= 1)))
        summary = summarize(cells)
        assert summary.n_passed == 4
        lo_mu, hi_mu, lo_r, hi_r = summary.pass_rectangle
        assert (lo_mu, hi_mu) == (2.0, 4.0)
        assert lo_r == pytest.approx(0.2) and hi_r == pytest.approx(0.4)

    def test_empty_input(self):
        with pytest.raises(ValueError):
            summarize([])
        with pytest.raises(ValueError):
            summarize(iter([]))

    def test_one_pass_over_an_iterator(self):
        mixed = [make_cell(mu, ratio * mu, passed=(i >= 1 and j >= 1))
                 for i, mu in enumerate([1.0, 2.0, 4.0])
                 for j, ratio in enumerate([0.1, 0.2, 0.4])]
        fixtures = [
            mixed,
            [make_cell(1.0, 0.5), make_cell(1.0, 1.0),
             make_cell(2.0, 1.0), make_cell(2.0, 2.0)],
            [make_cell(1.0, 1.0, passed=False), make_cell(2.0, 2.0, passed=False)],
            [make_cell(1e-4, 1e-5, passed=False), make_cell(1.0, 0.5),
             make_cell(1.0, 1e3, passed=False), make_cell(10.0, 1.0)],
        ]
        for cells in fixtures:
            assert summarize(iter(cells)) == summarize(cells)

    def test_non_rectangular_input(self):
        # the second row is shorter than the first: no rectangle, but the
        # counts and the verdict still cover every cell
        cells = [make_cell(1.0, 0.5), make_cell(1.0, 1.0),
                 make_cell(2.0, 1.0, passed=False),
                 make_cell(4.0, 2.0), make_cell(4.0, 4.0)]
        summary = summarize(iter(cells))
        assert summary.pass_rectangle is None
        assert (summary.n_cells, summary.n_passed) == (5, 4)
        assert summary.pass_fraction == 0.8
        assert summary.cutoff_region_pass is False

    @pytest.mark.parametrize(
        "cells, expected",
        [
            # cut-off region (2e-3, 1e4) x (3e-3, 50) not sampled
            ([make_cell(1e-4, 1e-5), make_cell(1e5, 1e4)], False),
            # one failing cell inside
            ([make_cell(1.0, 0.5), make_cell(1.0, 1.0, passed=False)], False),
            # every cell inside passes; failures outside do not count
            ([make_cell(1e-4, 1e-5, passed=False), make_cell(1.0, 0.5),
              make_cell(1.0, 1e3, passed=False), make_cell(10.0, 1.0)], True),
        ],
    )
    def test_cutoff_region_verdict(self, cells, expected):
        assert summarize(cells).cutoff_region_pass is expected


class TestWriteCsv:
    def test_empty_results_header_only(self, csv_bytes):
        assert csv_bytes([]) == CSV_HEADER + "\n"

    def test_two_cells_three_lines_in_order(self, csv_bytes):
        text = csv_bytes([make_cell(1.0, 0.5), make_cell(2.0, 1.0)])
        lines = text.splitlines()
        assert len(lines) == 3
        assert lines[0] == CSV_HEADER
        assert lines[1].startswith("1,0.5,")
        assert lines[2].startswith("2,1,")

    def test_field_order_and_booleans(self, csv_bytes):
        # the converged and passed columns both carry the cell's verdict
        cells = [
            CellResult(
                mu=1.0, sigma=0.5, a0=2.25, b0=3.5, mu_rt=1.0, sigma_rt=0.5,
                rel_err_mu=1e-9, rel_err_sigma=2e-9, passed=passed,
            )
            for passed in (False, True)
        ]
        failing, passing = (line.split(",") for line in csv_bytes(cells).splitlines()[1:])
        assert failing[2] == "2.25" and failing[3] == "3.5"
        assert failing[8] == failing[9] == "false"
        assert passing[8] == passing[9] == "true"

    def test_seventeen_significant_digits_round_trip(self, csv_bytes):
        mu = 1.2533141373155003
        line = csv_bytes([make_cell(mu, mu)]).splitlines()[1]
        assert float(line.split(",")[0]) == mu

    def test_degenerate_cell_row(self, csv_bytes):
        # sigma/mu = 1e9 is infeasible (a0 rounds to 1)
        line = csv_bytes(map(CellResult._make, validation._row(1.0, [1e9], {}))).splitlines()[1]
        assert line == "1,1000000000,nan,nan,nan,nan,inf,inf,false,false"

    def test_edge_values_row(self, csv_bytes):
        cell = CellResult(
            mu=-0.0, sigma=5e-324, a0=1.7976931348623157e308, b0=0.1, mu_rt=1e16,
            sigma_rt=2.5e-310, rel_err_mu=0.0, rel_err_sigma=-1e-300, passed=True,
        )
        assert csv_bytes([cell]).splitlines()[1] == (
            "-0,4.9406564584124654e-324,1.7976931348623157e+308,0.10000000000000001,"
            "10000000000000000,2.5000000000000171e-310,0,-1e-300,true,true"
        )

    def test_signed_zero_mu_rows_kept_apart(self, csv_bytes):
        # 0.0 == -0.0, yet each cell's mu is written with its own sign
        cells = [make_cell(0.0, 1.0), make_cell(-0.0, 1.0), make_cell(0.0, 2.0)]
        assert [line.split(",")[0] for line in csv_bytes(cells).splitlines()[1:]] == ["0", "-0", "0"]

    def test_writes_to_path(self, tmp_path):
        destination = tmp_path / "grid.csv"
        write_csv([make_cell(1.0, 1.0)], str(destination))
        assert destination.read_text().splitlines()[0] == CSV_HEADER


def fit_cell(mu, sigma):
    """The cell that fit_prior(mu, sigma) gives, or None where it raises."""
    try:
        fit = fit_prior(mu, sigma)
    except ValueError:
        return None
    return CellResult(mu, sigma, fit.params.a, fit.params.b, fit.round_trip.mu,
                      fit.round_trip.sigma, *fit.round_trip_rel_err, fit.converged)


def spread_targets(n=400, seed=20210117):
    """Seeded (mu, sigma) pairs over mu in [1e-160, 1e160] and sigma/mu in
    [1e-170, 1e9], with the failing ratios 1e9 and 1e-160 and the smallest
    subnormal sigma added, each also scaled by 2, which keeps sigma/mu
    bit-identical."""
    rng = random.Random(seed)
    targets = [(1.0, 1e9), (1.0, 1e-160), (3.0, 3e9), (1e-100, 1e-260), (1e-170, 5e-324)]
    for _ in range(n):
        mu = 10.0 ** rng.uniform(-160.0, 160.0)
        targets.append((mu, mu * 10.0 ** rng.uniform(-170.0, 9.0)))
    return targets + [(2.0 * mu, 2.0 * sigma) for mu, sigma in targets]


class TestShapeReuse:
    def test_one_shape_step_per_distinct_ratio(self, monkeypatch):
        spec = GridSpec(mu_points=48, sigma_points=48)
        ratios = {sigma / mu for mu in spec.mu_values() for sigma in spec.sigma_values(mu)}
        calls = []
        real = validation._solve_shape

        def counting(r):
            calls.append(r)
            return real(r)

        monkeypatch.setattr(validation, "_solve_shape", counting)
        assert len(run_grid(spec)) == 48 * 48
        assert len(ratios) == 399
        assert len(calls) == 399 and set(calls) == ratios

    def test_failing_ratio_solved_once(self, monkeypatch):
        # sigma/mu = 1e9 raises in the shape step; the cache remembers it
        calls = []
        real = validation._solve_shape

        def counting(r):
            calls.append(r)
            return real(r)

        monkeypatch.setattr(validation, "_solve_shape", counting)
        shapes = {}
        cells = [CellResult._make(cell) for mu in (1.0, 2.0, 4.0)
                 for cell in validation._row(mu, [1e9 * mu], shapes)]
        assert calls == [1e9]
        assert not any(c.passed for c in cells)

    def test_cells_equal_fit_prior_cold_and_warm(self):
        targets = spread_targets()
        expected = [fit_cell(mu, sigma) for mu, sigma in targets]
        assert any(e is None for e in expected) and any(e is not None for e in expected)
        shapes = {}
        for warm in (False, True):
            for (mu, sigma), want in zip(targets, expected):
                # a cold cache, then the one shared by every target
                for cache in ({}, shapes):
                    [cell] = map(CellResult._make, validation._row(mu, [sigma], cache))
                    if want is None:
                        assert not cell.passed, (mu, sigma, warm)
                        assert all(math.isnan(v) for v in cell[2:6])
                        assert cell[6:8] == (math.inf, math.inf)
                    else:
                        assert cell == want, (mu, sigma, warm)


class TestCellResult:
    def test_named_tuple_contract(self):
        cell = make_cell(1.0, 0.5)
        assert cell == CellResult(1.0, 0.5, 2.0, 2.0, 1.0, 0.5, 0.0, 0.0, True)
        assert cell._fields == ("mu", "sigma", "a0", "b0", "mu_rt", "sigma_rt",
                                "rel_err_mu", "rel_err_sigma", "passed")
        assert cell._replace(passed=False).passed is False
        assert cell._asdict()["sigma"] == 0.5
        with pytest.raises(AttributeError):
            cell.mu = 2.0
