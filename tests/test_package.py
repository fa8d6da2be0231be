import pickle
import random

import pytest

import gammasd
from gammasd import (
    FitResult,
    GammaParams,
    GridSpec,
    GridSummary,
    OptimResult,
    S,
    SdSummary,
    fit_prior,
    log_gamma,
    minimize_bounded,
    objective,
    precision_moments,
    precision_pdf,
    residual_D,
    run_grid,
    sd_moments,
    sd_pdf,
    summarize,
    upper_bound_a,
)


def test_public_names():
    assert set(gammasd.__all__) == {
        "BRACKET_EPS", "CellResult", "FitResult", "GammaParams", "GridSpec",
        "GridSummary", "OptimResult", "ROUND_TRIP_TOL", "S", "SdSummary",
        "fit_prior", "log_gamma", "minimize_bounded", "objective",
        "precision_moments", "precision_pdf", "residual_D", "run_grid",
        "sd_moments", "sd_pdf", "summarize", "upper_bound_a", "write_csv",
    }
    assert len(gammasd.__all__) == len(set(gammasd.__all__))


def test_import_loads_no_process_pool(fresh):
    # only a sweep with more than one worker needs concurrent.futures
    assert fresh("import gammasd, sys; print('concurrent.futures' in sys.modules)") == "False"


def test_cli_import_loads_no_json(fresh):
    # only --output json needs the json module
    assert fresh("import gammasd.cli, sys; print('json' in sys.modules)") == "False"


@pytest.mark.parametrize("module", ["gammasd", "gammasd.cli"])
def test_import_loads_no_dataclasses(fresh, module):
    # the records are named tuples; dataclasses would pull in inspect, ast and dis
    code = f"import {module}, sys; print('dataclasses' in sys.modules, 'inspect' in sys.modules)"
    assert fresh(code) == "False False"


@pytest.mark.parametrize("module, absent", [("gammasd", {"gammasd.validation", "gammasd.optimize"}),
                                            ("gammasd.cli", {"gammasd.optimize"})])
def test_import_loads_no_sweep_or_minimiser(fresh, module, absent):
    # `import gammasd` loads the transform; the sweep and the minimiser load on first use
    assert fresh(f"import {module}, sys; print(sorted(sys.modules.keys() & {absent!r}))") == "[]"


def test_reading_all_loads_no_sweep_or_minimiser(fresh):
    # __all__ is built at import from the two transform modules and the lazy table
    code = ("import gammasd, sys; names = gammasd.__all__; "
            "loaded = sorted(sys.modules.keys() & {'gammasd.validation', 'gammasd.optimize'}); "
            "from gammasd import distributions, elicitation, optimize, validation; "
            "print(loaded, names == [*distributions.__all__, *elicitation.__all__, "
            "*optimize.__all__, *validation.__all__])")
    assert fresh(code) == "[] True"


def test_star_import_and_dir_list_the_public_names(fresh):
    code = ("from gammasd import *; import gammasd; names = set(gammasd.__all__); "
            "print(len(names), names <= set(globals()), names <= set(dir(gammasd)))")
    assert fresh(code) == "23 True True"


def test_lazy_names_resolve_without_a_prior_import(fresh):
    code = ("import gammasd, sys; "
            "print(gammasd.GridSpec is gammasd.validation.GridSpec, "
            "gammasd.optimize.minimize_bounded is sys.modules['gammasd.optimize'].minimize_bounded)")
    assert fresh(code) == "True True"


def test_unknown_name_raises_attribute_error(fresh):
    with pytest.raises(AttributeError, match="^module 'gammasd' has no attribute 'nonexistent'$"):
        gammasd.nonexistent  # noqa: B018
    # hasattr swallows only AttributeError
    assert fresh("import gammasd; print(hasattr(gammasd, 'nonexistent'))") == "False"


# Each public numeric entry point as a function of three positive doubles,
# with the inputs that once escaped as another exception first. A shape
# that must exceed 1 is 1 + the draw.
ENTRY_POINTS = {
    "precision_moments": (lambda x, y, z: precision_moments(GammaParams(1.0 + x, y)),
                          [(0.0, 1e-200, 1.0)]),  # b * b underflowed to 0
    "sd_moments": (lambda x, y, z: sd_moments(GammaParams(1.0 + x, y)), []),
    "S": (lambda x, y, z: S(1.0 + x), []),
    "residual_D": (lambda x, y, z: residual_D(1.0 + x, y, z),
                   [(1e-7, 1.0, 1e300), (1.0, 1e200, 1e200), (1.0, 1e200, 1.0)]),
    "objective": (lambda x, y, z: objective(1.0 + x, y, z), [(1e-7, 1.0, 1e300)]),
    "upper_bound_a": (lambda x, y, z: upper_bound_a(x, y), []),
    "fit_prior": (lambda x, y, z: fit_prior(x, y), []),
    "precision_pdf": (lambda x, y, z: precision_pdf(x, GammaParams(y, z)), []),
    "sd_pdf": (lambda x, y, z: sd_pdf(x, GammaParams(y, z)), []),
    "log_gamma": (lambda x, y, z: log_gamma(x), []),
}


@pytest.mark.parametrize("name", ENTRY_POINTS)
def test_every_failure_is_a_value_error(name):
    # 2000 seeded log-uniform draws over [1e-320, 1e308] for each argument
    call, known = ENTRY_POINTS[name]
    rng = random.Random(name)
    draws = [tuple(10.0 ** rng.uniform(-320.0, 308.0) for _ in range(3)) for _ in range(2000)]
    for args in known + draws:
        try:
            call(*args)
        except ValueError:
            pass


# each record's fields in order: fit_prior builds its records positionally, and callers unpack them
FIELDS = {
    GammaParams: ("a", "b"),
    SdSummary: ("mu", "sigma"),
    FitResult: ("params", "objective_at_min", "round_trip", "round_trip_rel_err",
                "converged", "iterations"),
    OptimResult: ("x_min", "f_min", "iterations", "converged"),
    GridSpec: ("mu_points", "sigma_points", "mu_lo", "mu_hi", "sigma_ratio_lo", "sigma_ratio_hi"),
    GridSummary: ("n_cells", "n_passed", "pass_fraction", "pass_rectangle", "cutoff_region_pass"),
}


def sample(cls):
    return {
        GammaParams: lambda: GammaParams(2.0, 3.0),
        SdSummary: lambda: SdSummary(1.0, 0.5),
        FitResult: lambda: fit_prior(1.0, 0.5),
        OptimResult: lambda: minimize_bounded(lambda x: (x - 1.0) ** 2, 0.0, 3.0),
        GridSpec: lambda: GridSpec(mu_points=4, sigma_points=3),
        GridSummary: lambda: summarize(run_grid(GridSpec(mu_points=2, sigma_points=2))),
    }[cls]()


@pytest.mark.parametrize("cls", FIELDS, ids=lambda cls: cls.__name__)
class TestRecords:
    def test_fields_in_order(self, cls):
        assert cls._fields == FIELDS[cls]
        record = sample(cls)
        assert tuple(record) == tuple(getattr(record, name) for name in FIELDS[cls])

    def test_frozen(self, cls):
        record = sample(cls)
        with pytest.raises(AttributeError):
            setattr(record, cls._fields[0], record[1])
        with pytest.raises(AttributeError):
            record.extra = 1

    def test_make_replace_and_pickle_keep_the_type(self, cls):
        record = sample(cls)
        for copy in (cls._make(record), record._replace(**{cls._fields[0]: record[0]}),
                     pickle.loads(pickle.dumps(record))):
            assert type(copy) is cls and copy == record
