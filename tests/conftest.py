"""Test doubles shared by the test modules: an in-process stand-in for the
sweep's process pool, a call counter, and a runner for code in a fresh
interpreter. Collection also checks that no module changed mpmath's
global precision."""

import concurrent.futures
import os
import subprocess
import sys
from pathlib import Path

import mpmath
import pytest

from gammasd import validation

SRC = Path(__file__).resolve().parent.parent / "src"


def pytest_collection_finish(session):
    # a module-level mpmath.mp.dps would set every later reference's
    # precision by which files happen to be collected
    if mpmath.mp.dps != 15:
        pytest.exit(f"mpmath.mp.dps is {mpmath.mp.dps} after collection, not 15: "
                    "set precision with mpmath.workdps", returncode=pytest.ExitCode.TESTS_FAILED)


class _ReadFuture(concurrent.futures.Future):
    """A finished future that leaves in_flight when its result is read."""

    def __init__(self, in_flight):
        super().__init__()
        self.in_flight = in_flight

    def result(self, timeout=None):
        self.in_flight.remove(self)
        return super().result(timeout)


class InlinePool:
    """concurrent.futures.ProcessPoolExecutor run in this process: submit
    calls fn at once and returns a finished future."""

    def __init__(self):
        self.sizes = []  # max_workers of each pool started
        self.rows = []  # the arguments after fn of each submit
        self.in_flight = []  # futures submitted and not yet read
        self.peaks = []  # len(in_flight) after each submit

    def __call__(self, max_workers):
        self.sizes.append(max_workers)
        return self

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def submit(self, fn, *args):
        self.rows.append(args)
        future = _ReadFuture(self.in_flight)
        future.set_result(fn(*args))
        self.in_flight.append(future)
        self.peaks.append(len(self.in_flight))
        return future


@pytest.fixture
def inline_pool(monkeypatch):
    # an in-process "worker" fills the parent's shape cache, so it starts and ends empty
    pool = InlinePool()
    validation._WORKER_SHAPES.clear()
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", pool)
    yield pool
    validation._WORKER_SHAPES.clear()


def _counted(f, calls):
    def counted(x):
        calls.append(x)
        return f(x)

    return counted


@pytest.fixture
def count_calls(monkeypatch):
    """count_calls((module, name), ...) wraps each named one-argument
    function so that every call appends its argument to one list, shared by
    all the targets, and returns that list."""

    def install(*targets):
        calls = []
        for module, name in targets:
            monkeypatch.setattr(module, name, _counted(getattr(module, name), calls))
        return calls

    return install


@pytest.fixture
def fresh():
    """fresh(code, *argv): the stripped stdout of code run in a new
    interpreter with only src/ added to the path."""

    def run(code, *argv):
        return subprocess.run([sys.executable, "-c", code, *argv],
                              env={**os.environ, "PYTHONPATH": str(SRC)}, capture_output=True,
                              text=True, check=True, timeout=120).stdout.strip()

    return run
