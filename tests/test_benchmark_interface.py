"""The benchmark under perfbench/ drives gammasd only through its public
names and the `gammasd validate` command line. The tier-1 suite never runs
the benchmark's per-layer mode, so these tests read perfbench/ (without
changing it) and check that the interface it uses still exists."""

import ast
import csv
import importlib.util
import inspect
from pathlib import Path

import gammasd
from gammasd.cli import _build_parser, run

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _trees():
    for path in sorted(PERFBENCH.glob("*.py")):
        yield path.name, ast.parse(path.read_text(), filename=str(path))


def _gammasd_imports(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "gammasd":
            for alias in node.names:
                yield alias


def _direct_calls():
    """(file, line, imported name, positional count, keyword names) for
    every call by bare name to a name imported from gammasd, except calls
    with *args or **kwargs, whose shape is not known statically."""
    for filename, tree in _trees():
        imported = {a.asname or a.name: a.name for a in _gammasd_imports(tree)}
        for node in ast.walk(tree):
            if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id in imported):
                continue
            starred = any(isinstance(arg, ast.Starred) for arg in node.args)
            if starred or any(kw.arg is None for kw in node.keywords):
                continue
            yield (filename, node.lineno, imported[node.func.id], len(node.args),
                   [kw.arg for kw in node.keywords])


def test_imported_names_are_public():
    imports = [(f, a.name) for f, tree in _trees() for a in _gammasd_imports(tree)]
    assert imports, "no `from gammasd import ...` found under perfbench/"
    missing = [(f, name) for f, name in imports if name not in gammasd.__all__]
    assert not missing


def test_call_shapes_bind():
    calls = list(_direct_calls())
    assert calls, "no direct call to a gammasd name found under perfbench/"
    rejected = []
    for filename, line, name, n_args, keywords in calls:
        signature = inspect.signature(getattr(gammasd, name))
        try:
            signature.bind(*[None] * n_args, **dict.fromkeys(keywords))
        except TypeError as exc:
            rejected.append(f"{filename}:{line} {name}: {exc}")
    assert not rejected


def _benchlib():
    spec = importlib.util.spec_from_file_location("benchlib", PERFBENCH / "benchlib.py")
    benchlib = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(benchlib)
    return benchlib


def test_cli_accepts_validate_argv():
    args = _build_parser().parse_args(_benchlib().validate_argv("x.csv"))
    assert args.subcommand == "validate" and args.out == "x.csv"


def test_validate_run_gives_what_the_benchmark_reads(tmp_path, capsys):
    # run.py parses these stdout keys and CSV columns of the sweep workload;
    # layers.py takes len() and repr() of run_grid's result
    path = tmp_path / "cells.csv"
    assert run(_benchlib().validate_argv(str(path))) == 0
    printed = dict(line.split(" ", 1) for line in capsys.readouterr().out.splitlines())
    assert {"cells", "passed", "cutoff_region_pass", "pass_rectangle"} <= set(printed)
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == int(printed["cells"])
    assert {"mu", "sigma", "a0", "b0", "passed"} <= set(rows[0])
    assert isinstance(gammasd.run_grid(gammasd.GridSpec(mu_points=2, sigma_points=2)), list)
