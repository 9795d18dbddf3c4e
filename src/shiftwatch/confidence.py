"""Anytime-valid lower confidence sequence (PM-EB) and Hoeffding interval.

The PM-EB arithmetic is ``pmeb_update``, which advances the confidence
sequence over a chunk of observations with numpy running sums that
resume from the carried accumulators. The quantile detectors reach it
through ``monitor.MonitorState.feed``, the one detector core that the
streaming monitor feeds once per chunk and the experiment suite once per
whole stream; the mean detectors use ``pmeb_best_lower_path``, one call
on a fresh state. ``pmeb_update`` keeps the order of operations of the
one-observation-at-a-time recurrence and routes both logarithms through
libm ``math.log`` (numpy's vectorized ``np.log`` can differ in the last
bit), so its bounds equal that recurrence's bit for bit; the tests hold
them to a scalar reference. The step logarithms log(t + 1) depend only on
where a chunk starts and how long it is, so ``_log_next_steps`` keeps the
last chunk's array: every pass of a suite run covers steps 1..horizon and
reads it from there, while a monitor's chunks each start anew and the
cache holds one array no longer than a chunk. The steps are integers
below 2**53, exact as floats, so a cached array holds the same libm bits
a fresh one would.
"""

from __future__ import annotations

import functools
import math
from typing import NamedTuple, Tuple

import numpy as np

from .errors import Checked, InvalidInput

# Named in the environment line that perfbench/run.py prints.
BACKEND = "numpy"


def hoeffding_halfwidth(n: int, alpha: float) -> float:
    """Half-width of the fixed-n two-sided Hoeffding interval for a mean
    of [0, 1]-valued variables: sqrt(ln(2/alpha) / (2n))."""
    if n < 1 or int(n) != n:
        raise InvalidInput(f"sample count must be a positive integer, got {n}")
    if not 0.0 < alpha < 1.0:
        raise InvalidInput(f"miscoverage level must lie in (0, 1), got {alpha}")
    return math.sqrt(math.log(2.0 / alpha) / (2.0 * n))


class _PmEbFields(NamedTuple):
    alpha: float
    t: int = 0
    sum_lx: float = 0.0
    sum_l: float = 0.0
    sum_psi: float = 0.0
    sum_x: float = 0.0
    sum_dev: float = 0.0
    best_lower: float = 0.0


class PmEbState(Checked, _PmEbFields):
    """Accumulators of the predictably-mixed empirical-Bernstein lower
    confidence sequence for a running mean of [0, 1]-valued variables.

    ``best_lower`` is the running maximum of the per-step lower bounds,
    the current anytime-valid lower bound (vacuous 0 before any data);
    intersecting a confidence sequence over time keeps it valid. Every
    way to make one, ``_replace`` included, raises InvalidInput for an
    ``alpha`` outside (0, 1).
    """

    __slots__ = ()

    @staticmethod
    def _check(alpha, *sums):
        if not 0.0 < alpha < 1.0:
            raise InvalidInput(f"miscoverage level must lie in (0, 1), got {alpha}")
        return (alpha, *sums)


def _running(carry: float, values: np.ndarray) -> np.ndarray:
    """Running sums that start from a carried accumulator: entry i is
    ``carry`` plus the first i values, so ``[:-1]`` is the exclusive and
    ``[1:]`` the inclusive sum, and ``[-1]`` is the next carry.
    ``np.cumsum`` adds left to right, as one scalar accumulator would."""
    return np.cumsum(np.concatenate(([carry], values)))


def _libm_log(values: np.ndarray) -> np.ndarray:
    return np.fromiter(map(math.log, values.tolist()), float, values.size)


@functools.lru_cache(maxsize=1)
def _log_next_steps(t: int, n: int) -> np.ndarray:
    """libm logs of t + 2 .. t + n + 1, read-only: log(step + 1) for the
    n steps after step t."""
    logs = _libm_log(np.arange(t + 2.0, t + n + 2.0))
    logs.flags.writeable = False
    return logs


def pmeb_update(state: PmEbState, xs) -> Tuple[np.ndarray, PmEbState]:
    """Feed a chunk of observations in [0, 1] into the confidence sequence.

    Returns the per-step clipped lower bounds of the chunk (no running
    max) and the state after it. Each accumulator resumes from its
    carried value, so any cutting of a stream into chunks gives the same
    bounds and final state, bit for bit, as one call over the whole
    stream.
    """
    xs = np.asarray(xs, dtype=float)
    if xs.ndim != 1:
        raise InvalidInput("stream must be one-dimensional")
    if not np.all((xs >= 0.0) & (xs <= 1.0)):
        raise InvalidInput(
            "PM-EB observations must lie in [0, 1]; an unnormalized error "
            "reached the monitor"
        )
    log_inv_alpha = math.log(1.0 / state.alpha)
    tn = np.arange(state.t + 1.0, state.t + xs.size + 1.0)
    sum_x = _running(state.sum_x, xs)
    mu_prev = (0.5 + sum_x[:-1]) / tn
    mu_new = (0.5 + sum_x[1:]) / (tn + 1.0)
    sum_dev = _running(state.sum_dev, (xs - mu_new) * (xs - mu_new))
    sig2_prev = (0.25 + sum_dev[:-1]) / tn
    lam = np.sqrt(2.0 * log_inv_alpha / (sig2_prev * tn * _log_next_steps(state.t, xs.size)))
    np.minimum(lam, 0.5, out=lam)
    v = 4.0 * (xs - mu_prev) * (xs - mu_prev)
    psi = (-_libm_log(1.0 - lam) - lam) / 4.0
    sum_lx = _running(state.sum_lx, lam * xs)
    sum_l = _running(state.sum_l, lam)
    sum_psi = _running(state.sum_psi, v * psi)
    lowers = np.clip((sum_lx[1:] - log_inv_alpha - sum_psi[1:]) / sum_l[1:], 0.0, 1.0)
    return lowers, PmEbState(
        alpha=state.alpha,
        t=state.t + xs.size,
        sum_lx=float(sum_lx[-1]),
        sum_l=float(sum_l[-1]),
        sum_psi=float(sum_psi[-1]),
        sum_x=float(sum_x[-1]),
        sum_dev=float(sum_dev[-1]),
        best_lower=float(np.max(lowers, initial=state.best_lower)),
    )


def pmeb_best_lower_path(xs, alpha: float) -> np.ndarray:
    """Running-maximum (intersected) lower-bound trajectory of a whole stream."""
    return np.maximum.accumulate(pmeb_update(PmEbState(alpha), xs)[0])
