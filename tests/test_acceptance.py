"""Acceptance gate: one test per headline criterion, each printing a
PASS/FAIL line (run with -s to see them on success), plus a 40-digit
mpmath round trip over the paper's small-ratio band.

The full-resolution 1000 x 1000 sweep is opt-in: pytest -m long.
"""

import math

import mpmath
import pytest

from gammasd import (
    BRACKET_EPS,
    GammaParams,
    GridSpec,
    fit_prior,
    log_gamma,
    precision_moments,
    precision_pdf,
    residual_D,
    run_grid,
    sd_moments,
    sd_pdf,
    summarize,
    upper_bound_a,
    write_csv,
)
from mp_oracle import sd_moments as mp_sd_moments
from quadrature import integrate

CUTOFF_MU = (2e-3, 1e4)
CUTOFF_RATIO = (3e-3, 50.0)


def _report(number, name, ok):
    print(f"acceptance criterion {number} ({name}): {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {number} ({name}) failed"


def _inside_cutoff(cell):
    ratio = cell.sigma / cell.mu
    return (
        CUTOFF_MU[0] < cell.mu < CUTOFF_MU[1]
        and CUTOFF_RATIO[0] < ratio < CUTOFF_RATIO[1]
    )


def _cutoff_cells_all_pass(mu_points, sigma_points, workers=1):
    spec = GridSpec(mu_points=mu_points, sigma_points=sigma_points)
    results = run_grid(spec, workers=workers)
    inside = [c for c in results if _inside_cutoff(c)]
    assert inside, "cut-off region not sampled"
    failing = [c for c in inside if not c.passed]
    assert summarize(results).cutoff_region_pass == (not failing)
    return failing


def test_criterion_1_cutoff_region_reduced_grid():
    failing = _cutoff_cells_all_pass(200, 200)
    _report(1, "cut-off region, 200x200 grid", not failing)


@pytest.mark.long
def test_criterion_1_cutoff_region_full_grid():
    failing = _cutoff_cells_all_pass(1000, 1000, workers=None)
    _report(1, "cut-off region, full 1000x1000 grid", not failing)


def test_small_ratio_band_round_trips_against_mpmath():
    # The paper's grid reaches sigma/mu = 1e-4, below the robust region.
    # Every cell of a reduced grid over that band must converge, and its
    # prior must reproduce the target within 1 % by a 40-digit oracle.
    spec = GridSpec(mu_points=8, sigma_points=12,
                    sigma_ratio_lo=1e-4, sigma_ratio_hi=3e-3)
    bad = []
    for cell in run_grid(spec):
        ok = cell.passed
        if ok:
            mu, sigma = mp_sd_moments(cell.a0, cell.b0)
            ok = (abs(mu - cell.mu) < 1e-2 * cell.mu
                  and abs(sigma - cell.sigma) < 1e-2 * cell.sigma)
        if not ok:
            bad.append((cell.mu, cell.sigma / cell.mu))
    assert not bad, f"{len(bad)} of 96 cells fail: {bad[:5]}"


def test_criterion_2_worked_example():
    params = GammaParams(2.0, 2.0)
    summary = sd_moments(params)
    ok = math.isclose(summary.mu, math.sqrt(math.pi / 2.0), rel_tol=1e-12)
    ok &= math.isclose(summary.sigma, math.sqrt(2.0 - math.pi / 2.0), rel_tol=1e-12)

    mean = integrate(
        lambda s: s * sd_pdf(s, params), 0.0, math.inf, 1e-12, max_subdivisions=20000
    ).value
    second = integrate(
        lambda s: s * s * sd_pdf(s, params), 0.0, math.inf, 1e-12, max_subdivisions=20000
    ).value
    ok &= math.isclose(summary.mu, mean, rel_tol=1e-8)
    ok &= math.isclose(summary.sigma, math.sqrt(second - mean * mean), rel_tol=1e-8)

    # expectation does not commute with s = 1/sqrt(p)
    naive = 1.0 / math.sqrt(precision_moments(params)[0])
    ok &= abs(summary.mu - naive) > 0.1
    _report(2, "worked example a=b=2", ok)


def test_criterion_3_inverse_consistency():
    fit = fit_prior(1.253314137, 0.655136377)
    ok = fit.converged
    ok &= math.isclose(fit.params.a, 2.0, rel_tol=1e-6)
    ok &= math.isclose(fit.params.b, 2.0, rel_tol=1e-6)
    ok &= fit.objective_at_min < 1e-12
    _report(3, "inverse consistency", ok)


def _halton(index, base):
    result, f = 0.0, 1.0
    while index > 0:
        f /= base
        result += f * (index % base)
        index //= base
    return result


def test_criterion_4_upper_bound_property():
    log_mu = (math.log(CUTOFF_MU[0]), math.log(CUTOFF_MU[1]))
    log_ratio = (math.log(CUTOFF_RATIO[0]), math.log(CUTOFF_RATIO[1]))
    violations = 0
    for i in range(1, 1001):
        mu = math.exp(log_mu[0] + (log_mu[1] - log_mu[0]) * _halton(i, 2))
        ratio = math.exp(log_ratio[0] + (log_ratio[1] - log_ratio[0]) * _halton(i, 3))
        sigma = ratio * mu
        a_hat = upper_bound_a(mu, sigma)
        lo = 1.0 + BRACKET_EPS
        d_lo, d_hi = residual_D(lo, mu, sigma), residual_D(a_hat, mu, sigma)
        if not (d_lo > 0.0 >= d_hi):
            violations += 1
            continue
        # independent bisection; the bracket confines the root to (1, a_hat]
        hi = a_hat
        while True:
            mid = 0.5 * (lo + hi)
            if mid <= lo or mid >= hi:
                break
            if residual_D(mid, mu, sigma) <= 0.0:
                hi = mid
            else:
                lo = mid
        root = 0.5 * (lo + hi)
        if not (1.0 < root <= a_hat):
            violations += 1
    _report(4, "analytic upper bound brackets the root", violations == 0)


def test_criterion_5_normalisation_and_change_of_variables():
    ok = True
    for a, b in [(2.0, 2.0), (5.0, 1.0), (1.5, 10.0)]:
        params = GammaParams(a, b)
        total = integrate(
            lambda s: sd_pdf(s, params), 0.0, math.inf, 1e-8, max_subdivisions=20000
        ).value
        ok &= abs(total - 1.0) < 1e-6
        for x in (0.1, 1.0, 10.0):
            f_p = integrate(lambda q: precision_pdf(q, params), 0.0, x, 1e-8).value
            tail = integrate(
                lambda s: sd_pdf(s, params), 1.0 / math.sqrt(x), math.inf, 1e-8
            ).value
            ok &= abs(f_p - tail) < 1e-6
    _report(5, "normalisation and CDF identity", ok)


def test_criterion_6_log_gamma_references():
    with mpmath.workdps(30):
        references = {
            1.0: 0.0,
            1.5: -0.120782237635245,
            2.0: 0.0,
            10.0: 12.801827480081469,
            100.5: float(mpmath.loggamma(100.5)),  # 361.435540467777622...
        }
    ok = all(
        math.isclose(log_gamma(x), expected, rel_tol=1e-12, abs_tol=1e-12)
        for x, expected in references.items()
    )
    _report(6, "special-function accuracy", ok)


def test_criterion_7_determinism_and_parallel_equivalence(tmp_path):
    spec = GridSpec(mu_points=40, sigma_points=40)

    def sweep_csv(workers):
        path = tmp_path / "cells.csv"
        write_csv(run_grid(spec, workers=workers), str(path))
        return path.read_bytes()

    first, second = sweep_csv(1), sweep_csv(1)
    parallel = sweep_csv(2)
    _report(7, "determinism and parallel equivalence",
            first == second == parallel)
