"""Shared fixtures for the test suite."""

import contextlib
import gc
import io
import sys
from dataclasses import dataclass
from typing import Optional

import numpy as np
import pytest

from shiftwatch import Dataset


@pytest.fixture
def five_point() -> Dataset:
    """Small hand-checkable dataset used across selector and source-rate
    tests: two high-error rows, one mid score on a low-error row."""
    features = np.arange(10, dtype=float).reshape(5, 2)
    errors = np.array([0.1, 0.2, 0.3, 0.8, 0.9])
    scores = np.array([0.05, 0.5, 0.1, 0.6, 0.7])
    return Dataset(features, errors, scores)


@pytest.fixture
def correlated_dataset() -> Dataset:
    """Medium dataset whose scores rank errors well but not perfectly."""
    rng = np.random.default_rng(42)
    n = 400
    errors = rng.random(n) * 0.9
    scores = errors + rng.normal(0.0, 0.05, n)
    features = rng.random((n, 3))
    return Dataset(features, errors, scores)


@dataclass
class Result:
    """One in-process run of the command line: its exit code, what it
    wrote to stdout and stderr in the order written, and the exception
    that ended it (a SystemExit of a nonzero code, or what escaped)."""

    exit_code: int
    output: str
    exception: Optional[BaseException]


class Runner:
    """Runs the command line in process. stdin is ``input`` (text or bytes)
    in a UTF-8 text stream with universal newlines, as a console's is, and
    empty without it. ``main`` freezes the garbage collector's objects,
    which a process does once before it exits; here the test process
    goes on, so each command's freeze is undone when it returns."""

    def invoke(self, main, args, input=None):
        data = input.encode() if isinstance(input, str) else input or b""
        output, stdin = io.StringIO(), sys.stdin
        exit_code, exception = 0, None
        sys.stdin = io.TextIOWrapper(io.BytesIO(data), encoding="utf-8")
        try:
            with contextlib.redirect_stdout(output), contextlib.redirect_stderr(output):
                main(args)
        except SystemExit as exc:
            exit_code = exc.code or 0
            exception = exc if exit_code else None
        except Exception as exc:
            exit_code, exception = 1, exc
        finally:
            sys.stdin = stdin
            gc.unfreeze()
        return Result(exit_code, output.getvalue(), exception)


@pytest.fixture(scope="session")
def runner() -> Runner:
    return Runner()
