"""The benchmark under perfbench/ drives gammasd only through its public
names and the `gammasd validate` command line. The tier-1 suite never runs
the benchmark's per-layer mode, so these tests read perfbench/ (without
changing it) and check that the interface it uses still exists."""

import ast
import importlib.util
from pathlib import Path

import gammasd
from gammasd.cli import _build_parser

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _gammasd_imports():
    for path in sorted(PERFBENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.ImportFrom) and node.module == "gammasd":
                for alias in node.names:
                    yield path.name, alias.name


def test_imported_names_are_public():
    imports = list(_gammasd_imports())
    assert imports, "no `from gammasd import ...` found under perfbench/"
    missing = [(f, name) for f, name in imports if name not in gammasd.__all__]
    assert not missing


def test_cli_accepts_validate_argv():
    spec = importlib.util.spec_from_file_location("benchlib", PERFBENCH / "benchlib.py")
    benchlib = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(benchlib)
    args = _build_parser().parse_args(benchlib.validate_argv("x.csv"))
    assert args.subcommand == "validate" and args.out == "x.csv"
