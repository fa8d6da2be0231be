import hashlib
import json
import math

import pytest

from gammasd import GridSpec, elicitation, run_grid, summarize, validation, write_csv
from gammasd import cli
from gammasd.cli import run
from gammasd.validation import CSV_HEADER
from mp_oracle import sd_moments as mp_sd_moments


def assert_one_error_line(err, prefix="error: "):
    assert err.startswith(prefix) and err.count("\n") == 1, err


def parse_plain(text):
    out = {}
    for line in text.strip().splitlines():
        key, value = line.split(" ", 1)
        out[key] = value
    return out


class TestForward:
    def test_basic(self, capsys):
        assert run(["forward", "--a", "2", "--b", "2"]) == 0
        out = parse_plain(capsys.readouterr().out)
        assert float(out["mu"]) == pytest.approx(1.253314137, rel=1e-9)
        assert float(out["sigma"]) == pytest.approx(0.655136377, rel=1e-9)

    def test_shape_at_validity_boundary(self, capsys):
        assert run(["forward", "--a", "1", "--b", "1"]) == 1
        err = capsys.readouterr().err
        assert "a <= 1" in err

    def test_shape_beyond_log_gamma_range(self, capsys):
        # log-gamma is +inf for both a - 1/2 and a; the SD moments are not
        assert run(["forward", "--a", "1e306", "--b", "1"]) == 0
        out = parse_plain(capsys.readouterr().out)
        mu, sigma = mp_sd_moments(1e306, 1.0)
        assert (mu, sigma) == pytest.approx((1e-153, 5e-307), rel=1e-12)
        assert float(out["mu"]) == pytest.approx(mu, rel=1e-12)
        assert float(out["sigma"]) == pytest.approx(sigma, rel=1e-12)

    def test_large_shape_sigma(self, capsys):
        # 1/(a - 1) - S(a) cancels 8 digits here; the printed 12 must hold
        assert run(["forward", "--a", "1e8", "--b", "1e8"]) == 0
        out = parse_plain(capsys.readouterr().out)
        assert out["sigma"] == "5.00000004688e-05"
        assert float(out["sigma"]) == pytest.approx(
            mp_sd_moments(1e8, 1e8)[1], rel=1e-11)

    def test_json_matches_plain(self, capsys):
        run(["forward", "--a", "3", "--b", "1.5"])
        plain = parse_plain(capsys.readouterr().out)
        assert run(["forward", "--a", "3", "--b", "1.5", "--output", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["mu"] == pytest.approx(float(plain["mu"]), rel=1e-12)
        assert payload["sigma"] == pytest.approx(float(plain["sigma"]), rel=1e-12)


class TestInverse:
    def test_recovers_prior(self, capsys):
        assert run(["inverse", "--mu", "1.253314137", "--sigma", "0.655136377"]) == 0
        out = parse_plain(capsys.readouterr().out)
        assert float(out["a0"]) == pytest.approx(2.0, rel=1e-6)
        assert float(out["b0"]) == pytest.approx(2.0, rel=1e-6)
        assert out["converged"] == "True"

    def test_nonconvergence_exit_code(self, monkeypatch, capsys):
        # one iteration cannot converge the shape solve
        monkeypatch.setattr(elicitation, "_MAX_ITER", 1)
        code = run(["inverse", "--mu", "1.2533", "--sigma", "0.6551"])
        assert code == 2
        out = parse_plain(capsys.readouterr().out)
        assert out["converged"] == "False"

    def test_infeasible_target(self, capsys):
        assert run(["inverse", "--mu", "1", "--sigma", "1e8"]) == 1
        assert "infeasible" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "mu, sigma",
        [
            ("1e170", "1"),       # (mu/sigma)^2 overflows a float
            ("1e200", "1e-200"),  # mu/sigma itself overflows
        ],
    )
    def test_ratio_too_small(self, mu, sigma, capsys):
        assert run(["inverse", "--mu", mu, "--sigma", sigma]) == 1
        err = capsys.readouterr().err
        assert_one_error_line(err)
        assert "too small" in err

    @pytest.mark.parametrize("scale", ["1e-300", "1e300"])
    def test_rate_outside_double_range(self, scale, capsys):
        # sigma/mu = 1 is well inside the robust region, but b0 = mu0^2/S(a0)
        # underflows to 0 or overflows to inf
        assert run(["inverse", "--mu", scale, "--sigma", scale]) == 1
        err = capsys.readouterr().err
        assert_one_error_line(err, "error: mu0 = ")
        assert "rate b0 = mu0^2/S(a0)" in err and "outside the double range" in err

    def test_tiny_scale(self, capsys):
        # the squared mu-scaled residual underflows here; the dimensionless
        # one does not
        assert run(["inverse", "--mu", "1e-150", "--sigma", "1e-150"]) == 0
        out = parse_plain(capsys.readouterr().out)
        assert float(out["a0"]) == pytest.approx(1.2945395, rel=1e-6)
        assert out["converged"] == "True"

    def test_json_round_trips(self, capsys):
        assert (
            run(["inverse", "--mu", "1.0", "--sigma", "0.5", "--output", "json"]) == 0
        )
        payload = json.loads(capsys.readouterr().out)
        assert set(payload) == {
            "a0", "b0", "mu_rt", "sigma_rt", "rel_err_mu", "rel_err_sigma", "converged",
        }
        assert payload["converged"] is True

    @pytest.mark.parametrize("a", [1.2, 2.0, 10.0, 100.0])
    @pytest.mark.parametrize("b", [0.01, 1.0, 100.0])
    def test_forward_inverse_pipe(self, a, b, capsys):
        # shell-level round trip: feed forward output into inverse
        assert run(["forward", "--a", str(a), "--b", str(b)]) == 0
        summary = parse_plain(capsys.readouterr().out)
        assert (
            run(["inverse", "--mu", summary["mu"], "--sigma", summary["sigma"]]) == 0
        )
        out = parse_plain(capsys.readouterr().out)
        assert float(out["a0"]) == pytest.approx(a, rel=1e-6)
        assert float(out["b0"]) == pytest.approx(b, rel=1e-6)


class TestPdf:
    def test_sd_density_csv(self, capsys):
        code = run(
            ["pdf", "--dist", "sd", "--a", "2", "--b", "2",
             "--from", "0.5", "--to", "1.5", "--points", "3"]
        )
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "x,density"
        assert len(lines) == 4
        x, density = lines[2].split(",")
        assert float(x) == 1.0
        assert float(density) == pytest.approx(8.0 * math.exp(-2.0), rel=1e-12)

    def test_precision_density(self, capsys):
        code = run(
            ["pdf", "--dist", "precision", "--a", "1", "--b", "1",
             "--from", "1", "--to", "2", "--points", "2"]
        )
        assert code == 0
        first = capsys.readouterr().out.strip().splitlines()[1]
        assert float(first.split(",")[1]) == pytest.approx(math.exp(-1.0), rel=1e-12)

    def test_density_of_prior_beyond_log_gamma_range(self, capsys):
        # inverse reports a0 = b0 = 2.5e307 here, where log_gamma(a0) is +inf
        assert run(["inverse", "--mu", "1", "--sigma", "1e-154"]) == 0
        out = parse_plain(capsys.readouterr().out)
        assert out["a0"] == out["b0"] and out["converged"] == "True"
        code = run(["pdf", "--dist", "sd", "--a", out["a0"], "--b", out["b0"],
                    "--from", "0.5", "--to", "1.5", "--points", "3"])
        assert code == 0
        densities = [float(line.split(",")[1])
                     for line in capsys.readouterr().out.splitlines()[1:]]
        assert densities[0] == densities[2] == 0.0
        assert densities[1] == pytest.approx(2.0 * math.sqrt(2.5e307 / math.tau), rel=1e-12)

    @pytest.mark.parametrize("x0, x1, points", [
        # 0.2 + 2 * 0.35 rounds to 0.89999999999999991
        ("0.2", "0.9", "3"),
        # 0 + 3 * step overflows, though every x is finite
        ("0", "1.7976931348623157e308", "4"),
    ])
    def test_last_x_is_to(self, x0, x1, points, capsys):
        code = run(["pdf", "--dist", "sd", "--a", "2", "--b", "2",
                    "--from", x0, "--to", x1, "--points", points])
        assert code == 0
        xs = [float(line.split(",")[0]) for line in capsys.readouterr().out.splitlines()[1:]]
        assert len(xs) == int(points)
        assert xs[0] == float(x0) and xs[-1] == float(x1)
        assert xs == sorted(xs)

    def test_exponent_form_negative_from(self, capsys):
        # argparse reads a bare "-1e-3" as an option, so the README gives
        # the "--from=" form for an exponent-form negative
        code = run(["pdf", "--dist", "precision", "--a", "2", "--b", "2",
                    "--from=-1e-3", "--to", "1", "--points", "2"])
        assert code == 0
        assert capsys.readouterr().out.splitlines()[1] == "-0.001,0"

    def test_bad_range(self, capsys):
        code = run(
            ["pdf", "--dist", "sd", "--a", "2", "--b", "2",
             "--from", "2", "--to", "1", "--points", "5"]
        )
        assert code == 1

    @pytest.mark.parametrize(
        "bounds",
        [["--from", "0", "--to", "inf"], ["--from=-inf", "--to", "0"],
         ["--from=-1.7e308", "--to", "1.7e308"]],
    )
    def test_non_finite_points_rejected(self, bounds, capsys):
        # an infinite bound or an overflowing step would print nan x values
        code = run(["pdf", "--dist", "precision", "--a", "2", "--b", "2",
                    *bounds, "--points", "3"])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert_one_error_line(captured.err)

    def test_widest_finite_range_accepted(self, capsys):
        code = run(["pdf", "--dist", "sd", "--a", "2", "--b", "2", "--from", "0",
                    "--to", "1.7976931348623157e308", "--points", "3"])
        assert code == 0
        xs = [float(line.split(",")[0]) for line in capsys.readouterr().out.splitlines()[1:]]
        assert xs == [0.0, 8.9884656743115785e307, 1.7976931348623157e308]

    @pytest.mark.parametrize("a, b, bounds, rows_before", [
        ("0.01", "1", ["--from", "5e-324", "--to", "1e-323", "--points", "2"], 0),
        # the overflow comes from cancellation in the log density here
        ("2.54e305", "1e300", ["--from", "2.54e5", "--to", "2.55e5", "--points", "2"], 0),
        ("2.55e305", "1.7e308", ["--from", "1.4e-3", "--to", "1.6e-3", "--points", "3"], 0),
        # 0 at -1e-313 and at 0, past the largest double at 1e-313
        ("0.001", "1", ["--from=-1e-313", "--to", "1e-313", "--points", "3"], 2),
    ])
    def test_density_past_double_range(self, a, b, bounds, rows_before, capsys):
        code = run(["pdf", "--dist", "precision", "--a", a, "--b", b, *bounds])
        assert code == 1
        captured = capsys.readouterr()
        assert_one_error_line(captured.err, "error: x = ")
        assert "outside the double range" in captured.err
        # the rows before the failing point stay on stdout
        lines = captured.out.splitlines()
        assert lines[0] == "x,density"
        assert [float(line.split(",")[1]) for line in lines[1:]] == [0.0] * rows_before


class TestValidate:
    def test_reduced_grid_summary_and_csv(self, tmp_path, capsys):
        out_file = tmp_path / "cells.csv"
        code = run(
            ["validate", "--mu-points", "6", "--sigma-points", "6",
             "--mu-lo", "0.01", "--mu-hi", "100", "--ratio-lo", "0.01",
             "--ratio-hi", "10", "--out", str(out_file)]
        )
        assert code == 0
        text = capsys.readouterr().out
        summary = parse_plain(text)
        assert summary["cells"] == "36"
        assert summary["cutoff_region_pass"] == "true"
        lines = out_file.read_text().splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 37

    def test_failing_region_exit_code(self, capsys):
        # sigma/mu <= 1e-3 samples no cell of the robust region, whose
        # verdict is then false
        code = run(
            ["validate", "--mu-points", "3", "--sigma-points", "3",
             "--mu-lo", "0.01", "--mu-hi", "100",
             "--ratio-lo", "1e-4", "--ratio-hi", "1e-3"]
        )
        assert code == 2
        assert parse_plain(capsys.readouterr().out)["cutoff_region_pass"] == "false"

    def test_repeat_runs_identical_csv(self, tmp_path):
        args = ["validate", "--mu-points", "5", "--sigma-points", "5",
                "--mu-lo", "0.01", "--mu-hi", "100",
                "--ratio-lo", "0.01", "--ratio-hi", "10"]
        first, second = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run(args + ["--out", str(first)]) == 0
        assert run(args + ["--out", str(second)]) == 0
        assert first.read_bytes() == second.read_bytes()

    def test_defaults_are_gridspec_defaults(self, monkeypatch, capsys):
        seen = []
        real = validation._rows

        def one_row(spec, workers):
            seen.append(spec)
            return real(GridSpec(mu_points=1, sigma_points=1), workers)

        monkeypatch.setattr(validation, "_rows", one_row)
        cli._cmd_validate(cli._build_parser().parse_args(["validate"]))
        assert seen == [GridSpec()]

    def test_repeated_mu_values_rejected(self, capsys):
        code = run(["validate", "--mu-points", "3", "--sigma-points", "2",
                    "--mu-lo", "1", "--mu-hi", "1.0000000000000002",
                    "--ratio-lo", "0.5", "--ratio-hi", "1"])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert_one_error_line(captured.err)
        assert "mu_points" in captured.err

    @pytest.mark.parametrize("bounds", [
        # sigma_ratio_lo * mu_lo underflows to 0
        ["--mu-points", "2", "--sigma-points", "2", "--mu-lo", "1e-320", "--mu-hi", "1e-310"],
        # sigma_ratio_hi * mu_hi overflows
        ["--mu-points", "2", "--sigma-points", "3", "--mu-lo", "1", "--mu-hi", "1e300",
         "--ratio-hi", "1e10"],
    ])
    def test_sigma_range_outside_doubles_leaves_out_file(self, bounds, tmp_path, capsys):
        out_file = tmp_path / "cells.csv"
        out_file.write_bytes(b"kept\n")
        code = run(["validate", *bounds, "--out", str(out_file)])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert_one_error_line(captured.err)
        assert "sigma_ratio_lo * mu_lo" in captured.err
        assert out_file.read_bytes() == b"kept\n"

    def test_bad_workers_leaves_out_file(self, tmp_path, capsys):
        out_file = tmp_path / "cells.csv"
        out_file.write_bytes(b"kept\n")
        code = run(["validate", "--mu-points", "2", "--sigma-points", "2", "--workers", "0",
                    "--out", str(out_file)])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert_one_error_line(captured.err)
        assert "workers" in captured.err
        assert out_file.read_bytes() == b"kept\n"

    def test_unwritable_out_path(self, tmp_path, monkeypatch, capsys):
        def no_row(mu, sigmas, shapes):
            raise AssertionError("a cell was solved before the file was opened")

        monkeypatch.setattr(validation, "_row", no_row)
        code = run(["validate", "--mu-points", "2", "--sigma-points", "2",
                    "--out", str(tmp_path / "missing" / "cells.csv")])
        assert code == 1
        err = capsys.readouterr().err
        assert_one_error_line(err)

    def test_streams_rows_without_cell_records(self, tmp_path, monkeypatch, capsys):
        # validate folds the row step's tuples straight into the CSV and the
        # summary: no CellResult is built and no cell stream is regrouped
        def unused(*args, **kwargs):
            raise AssertionError("validate left the row stream")

        monkeypatch.setattr(validation, "CellResult", unused)
        monkeypatch.setattr(validation, "groupby", unused)
        code = run(["validate", "--mu-points", "3", "--sigma-points", "4",
                    "--out", str(tmp_path / "cells.csv")])
        assert code == 0
        assert parse_plain(capsys.readouterr().out)["cells"] == "12"

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_stream_matches_run_grid(self, workers, tmp_path, capsys):
        # sigma/mu reaches 1e9, so the last column fails and the rectangle
        # is a strict part of the grid
        spec = GridSpec(mu_points=4, sigma_points=6, mu_lo=0.01, mu_hi=100.0,
                        sigma_ratio_lo=0.01, sigma_ratio_hi=1e9)
        streamed, listed = tmp_path / "streamed.csv", tmp_path / "listed.csv"
        code = run(["validate", "--mu-points", "4", "--sigma-points", "6",
                    "--mu-lo", "0.01", "--mu-hi", "100", "--ratio-lo", "0.01",
                    "--ratio-hi", "1e9", "--workers", workers, "--out", str(streamed)])
        printed = parse_plain(capsys.readouterr().out)
        results = run_grid(spec)
        write_csv(results, str(listed))
        assert streamed.read_bytes() == listed.read_bytes()
        summary = summarize(results)
        lo_mu, hi_mu, lo_r, hi_r = summary.pass_rectangle
        assert hi_r < spec.sigma_ratio_hi
        assert code == (0 if summary.cutoff_region_pass else 2)
        assert printed == {
            "cells": str(summary.n_cells),
            "passed": str(summary.n_passed),
            "pass_fraction": f"{summary.pass_fraction:.6f}",
            "pass_rectangle": f"mu [{lo_mu:.12g}, {hi_mu:.12g}] "
                              f"ratio [{lo_r:.12g}, {hi_r:.12g}]",
            "cutoff_region_pass": str(summary.cutoff_region_pass).lower(),
        }

    def test_memory_holds_rows_not_grid(self, tmp_path, fresh):
        # The serial sweep streams cells through the CSV writer and the
        # summary, so ten times the rows may cost a few rows' bytes more,
        # not ten times the grid's. Each reading comes from a fresh
        # interpreter that runs the same warm-up sweep first, so it does not
        # depend on what ran before it.
        def measure(*what):
            return int(fresh(MEMORY_PROBE, str(tmp_path / "cells.csv"), *what).split()[-1])

        row_bytes = measure("row")
        growth = measure("peak", "40") - measure("peak", "4")
        assert growth < 3 * row_bytes, (growth, row_bytes)


# Run as a script by TestValidate::test_memory_holds_rows_not_grid, with the
# CSV path and then "row" (the bytes a 40-cell row of run_grid keeps) or
# "peak N" (the tracemalloc peak of a serial N x 40 validate), printed last.
MEMORY_PROBE = """
import sys, tracemalloc
from gammasd import GridSpec, run_grid
from gammasd.cli import run

out, what = sys.argv[1], sys.argv[2:]

def sweep(mu_points):
    run(["validate", "--mu-points", str(mu_points), "--sigma-points", "40",
         "--workers", "1", "--out", out])

sweep(4)  # warm-up: lazy imports and caches
tracemalloc.start()
if what == ["row"]:
    row = run_grid(GridSpec(mu_points=1, sigma_points=40))
    assert len(row) == 40
    print(tracemalloc.get_traced_memory()[0])
else:
    sweep(int(what[1]))
    print(tracemalloc.get_traced_memory()[1])
"""


class TestValidateBytes:
    # SHA-256 of the CSV and stdout of `validate --mu-points 48
    # --sigma-points 48`. The digests depend on the platform's libm (lgamma,
    # exp, log, expm1). A deliberate numeric change updates them and
    # records the change in CHANGES.md.
    CSV_SHA256 = "d277fbaaf8019204dd6e45d92a92271918b7b0ab71aa0039e8c96f20e99df311"
    STDOUT_SHA256 = "d978dc0bed7136760ea7387a07afa97d9e7e3cd79e884cb9f90c8437849b6676"

    def test_48x48_output_is_pinned(self, tmp_path, capsys):
        out_file = tmp_path / "cells.csv"
        code = run(["validate", "--mu-points", "48", "--sigma-points", "48",
                    "--out", str(out_file)])
        assert code == 0
        stdout = capsys.readouterr().out.encode()
        assert hashlib.sha256(out_file.read_bytes()).hexdigest() == self.CSV_SHA256
        assert hashlib.sha256(stdout).hexdigest() == self.STDOUT_SHA256


@pytest.mark.long
class TestValidateBytesFullGrid:
    # SHA-256 of the CSV and stdout of `validate --workers 1` on the default
    # 1000 x 1000 grid; like the 48 x 48 pin, they depend on the platform's libm
    CSV_SHA256 = "0a81b3f6c48dc1a1f35e3468188aca19d543dfe087c946c34f1943f3065b01ad"
    STDOUT_SHA256 = "d9266e030fb258288c941b00aeda5c2c5352414c30ae7b4f985c8c99306edc65"

    def test_default_grid_output_is_pinned(self, tmp_path, capsys):
        out_file = tmp_path / "cells.csv"
        assert run(["validate", "--workers", "1", "--out", str(out_file)]) == 0
        stdout = capsys.readouterr().out.encode()
        digest = hashlib.sha256()
        with open(out_file, "rb") as fh:  # about 156 MB: hashed a block at a time
            for block in iter(lambda: fh.read(1 << 20), b""):
                digest.update(block)
        assert digest.hexdigest() == self.CSV_SHA256
        assert hashlib.sha256(stdout).hexdigest() == self.STDOUT_SHA256


class TestUsageErrors:
    @pytest.mark.parametrize(
        "argv",
        [
            [],
            ["frobnicate"],
            ["forward"],
            ["forward", "--a", "2"],
            ["forward", "--a", "-1", "--b", "2"],
            ["forward", "--a", "nan", "--b", "2"],
            ["inverse", "--mu", "1"],
            ["pdf", "--dist", "sd", "--a", "2", "--b", "2",
             "--from", "0", "--to", "1", "--points", "1"],
            ["validate", "--mu-points", "1", "--sigma-points", "1",
             "--threshold", "0.05"],
            ["validate", "--mu-points", "1", "--sigma-points", "1", "--workers", "0"],
            ["validate", "--mu-points", "1", "--sigma-points", "1", "--workers", "-1"],
        ],
    )
    def test_exit_code_one(self, argv, capsys):
        assert run(argv) == 1
        assert_one_error_line(capsys.readouterr().err)

    def test_unparsable_number(self, capsys):
        # argparse names the type function in its own message for a ValueError
        assert run(["forward", "--a", "x", "--b", "2"]) == 1
        assert capsys.readouterr().err == (
            "error: argument --a: expected a finite positive number, got x\n")
