"""Anytime-valid lower confidence sequence (PM-EB) and Hoeffding interval.

The PM-EB arithmetic exists in two forms: ``step``, the scalar update the
streaming monitor feeds one observation at a time, and
``pmeb_lower_path``, which computes a whole stream's bounds at once from
numpy running sums. The batch form keeps the scalar form's order of
operations and routes both logarithms through libm ``math.log`` (numpy's
vectorized ``np.log`` can differ in the last bit), so the two agree bit
for bit; the tests hold them to that.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInput

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


@dataclass(frozen=True)
class PmEbState:
    """Accumulators of the predictably-mixed empirical-Bernstein lower
    confidence sequence for a running mean of [0, 1]-valued variables.

    ``best_lower`` is the running maximum of the per-step lower bounds,
    the current anytime-valid lower bound (vacuous 0 before any data);
    intersecting a confidence sequence over time keeps it valid.
    """

    alpha: float
    t: int = 0
    sum_lx: float = 0.0
    sum_l: float = 0.0
    sum_psi: float = 0.0
    sum_x: float = 0.0
    sum_dev: float = 0.0
    best_lower: float = 0.0


def step(t, sum_lx, sum_l, sum_psi, sum_x, sum_dev, log_inv_alpha, x):
    """Advance the PM-EB accumulators by one observation.

    Returns (t, sum_lx, sum_l, sum_psi, sum_x, sum_dev, lower) after the
    update, with ``lower`` already clipped to [0, 1].
    """
    mu_prev = (0.5 + sum_x) / (t + 1.0)
    sig2_prev = (0.25 + sum_dev) / (t + 1.0)
    tn = t + 1
    lam = math.sqrt(2.0 * log_inv_alpha / (sig2_prev * tn * math.log(tn + 1.0)))
    if lam > 0.5:
        lam = 0.5
    v = 4.0 * (x - mu_prev) * (x - mu_prev)
    psi = (-math.log(1.0 - lam) - lam) / 4.0
    sum_lx += lam * x
    sum_l += lam
    sum_psi += v * psi
    sum_x += x
    mu_new = (0.5 + sum_x) / (tn + 1.0)
    sum_dev += (x - mu_new) * (x - mu_new)
    lower = (sum_lx - log_inv_alpha - sum_psi) / sum_l
    if lower < 0.0:
        lower = 0.0
    elif lower > 1.0:
        lower = 1.0
    return tn, sum_lx, sum_l, sum_psi, sum_x, sum_dev, lower


def pmeb_fresh(alpha: float) -> PmEbState:
    if not 0.0 < alpha < 1.0:
        raise InvalidInput(f"miscoverage level must lie in (0, 1), got {alpha}")
    return PmEbState(alpha=alpha)


def pmeb_update(state: PmEbState, x: float) -> PmEbState:
    """Feed one observation in [0, 1] into the confidence sequence."""
    if not 0.0 <= x <= 1.0:
        raise InvalidInput(
            f"PM-EB observations must lie in [0, 1], got {x}; an unnormalized "
            "error reached the monitor"
        )
    t, sum_lx, sum_l, sum_psi, sum_x, sum_dev, lower = step(
        state.t,
        state.sum_lx,
        state.sum_l,
        state.sum_psi,
        state.sum_x,
        state.sum_dev,
        math.log(1.0 / state.alpha),
        float(x),
    )
    return PmEbState(
        alpha=state.alpha,
        t=t,
        sum_lx=sum_lx,
        sum_l=sum_l,
        sum_psi=sum_psi,
        sum_x=sum_x,
        sum_dev=sum_dev,
        best_lower=max(state.best_lower, lower),
    )


def _running(values: np.ndarray) -> np.ndarray:
    """Running sums with a leading 0: entry i is the sum of the first i
    values, so ``[:-1]`` is the exclusive and ``[1:]`` the inclusive sum.
    ``np.cumsum`` adds left to right, as the scalar accumulators do."""
    return np.cumsum(np.concatenate(([0.0], values)))


def _libm_log(values: np.ndarray) -> np.ndarray:
    return np.fromiter(map(math.log, values.tolist()), float, values.size)


def pmeb_lower_path(xs, alpha: float) -> np.ndarray:
    """Per-step clipped lower bounds over a whole stream (no running max).

    Batch equivalent of repeated ``pmeb_update``: entry i equals, bit for
    bit, the bound a streaming state would report after observation i.
    """
    if not 0.0 < alpha < 1.0:
        raise InvalidInput(f"miscoverage level must lie in (0, 1), got {alpha}")
    xs = np.asarray(xs, dtype=float)
    if xs.ndim != 1:
        raise InvalidInput("stream must be one-dimensional")
    if xs.size and (xs.min() < 0.0 or xs.max() > 1.0):
        raise InvalidInput("PM-EB observations must lie in [0, 1]")
    log_inv_alpha = math.log(1.0 / alpha)
    tn = np.arange(1.0, xs.size + 1.0)
    sum_x = _running(xs)
    mu_prev = (0.5 + sum_x[:-1]) / tn
    mu_new = (0.5 + sum_x[1:]) / (tn + 1.0)
    sig2_prev = (0.25 + _running((xs - mu_new) * (xs - mu_new))[:-1]) / tn
    lam = np.sqrt(2.0 * log_inv_alpha / (sig2_prev * tn * _libm_log(tn + 1.0)))
    np.minimum(lam, 0.5, out=lam)
    v = 4.0 * (xs - mu_prev) * (xs - mu_prev)
    psi = (-_libm_log(1.0 - lam) - lam) / 4.0
    sum_lx = _running(lam * xs)[1:]
    sum_l = _running(lam)[1:]
    sum_psi = _running(v * psi)[1:]
    return np.clip((sum_lx - log_inv_alpha - sum_psi) / sum_l, 0.0, 1.0)


def pmeb_best_lower_path(xs, alpha: float) -> np.ndarray:
    """Running-maximum (intersected) lower-bound trajectory."""
    return np.maximum.accumulate(pmeb_lower_path(xs, alpha))
