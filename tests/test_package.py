import os
import subprocess
import sys
from pathlib import Path

import gammasd

SRC = Path(__file__).resolve().parent.parent / "src"


def test_public_names():
    assert set(gammasd.__all__) == {
        "BRACKET_EPS", "CellResult", "FitResult", "GammaParams", "GridSpec",
        "GridSummary", "OptimResult", "ROUND_TRIP_TOL", "S", "SdSummary",
        "fit_prior", "log_gamma", "minimize_bounded", "objective",
        "precision_moments", "precision_pdf", "residual_D", "run_grid",
        "sd_moments", "sd_pdf", "summarize", "upper_bound_a", "write_csv",
    }
    assert len(gammasd.__all__) == len(set(gammasd.__all__))


def test_import_loads_no_process_pool():
    # only a sweep with more than one worker needs concurrent.futures
    code = "import gammasd, sys; print('concurrent.futures' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": str(SRC)},
                         capture_output=True, text=True, check=True).stdout
    assert out.strip() == "False"


def test_cli_import_loads_no_json():
    # only --output json needs the json module
    code = "import gammasd.cli, sys; print('json' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": str(SRC)},
                         capture_output=True, text=True, check=True).stdout
    assert out.strip() == "False"
