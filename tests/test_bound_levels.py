"""Statistical gates: each bound the quantile detectors rest on fails at
no more than its nominal rate, as a command builds it.

Each of R draws takes a calibration set from a known joint law of error
and score, lets ``calibrate`` pick its cell on those same rows, and holds
the source-side upper bounds to the law's exact rates at that cell. A
fresh production stream from the law then checks the PM-EB lower bound
that ``MonitorState.feed`` keeps. A bound passes when its violations over
the R draws stay within the binomial 0.999 quantile of R at its one-sided
level; a bound that lost its width term fails about half of its draws.
The law is synthetic, so no k-NN runs.
"""

import math

import numpy as np
import pytest

from shiftwatch.calibration import GridSpec, calibrate
from shiftwatch.core import Dataset
from shiftwatch.monitor import MonitorConfig, MonitorState, SourceStats, source_statistics

R = 1000
N_CAL = 500
HORIZON = 1000
# score = error + SIGMA * N(0, 1), error ~ U(0, 1)
SIGMA = 0.1
CONFIG = MonitorConfig()
# A Hoeffding half-width is two-sided at its alpha, so each side fails
# with probability at most alpha / 2; the PM-EB sequence is one-sided.
LEVELS = {
    "u_q": CONFIG.alpha_source / 2,
    "u_q2": CONFIG.alpha_source / 2,
    "fd": CONFIG.alpha2 / 2,
    "pmeb": CONFIG.alpha1,
}


def _draw(rng, n) -> Dataset:
    errors = rng.random(n)
    return Dataset(errors[:, None], errors, errors + SIGMA * rng.standard_normal(n))


def _tail_integral(u: float) -> float:
    """An antiderivative of the normal upper tail: u Q(u) - phi(u)."""
    return u * 0.5 * math.erfc(u / math.sqrt(2.0)) - math.exp(-u * u / 2.0) / math.sqrt(2.0 * math.pi)


def _rates(q: float, q_hat: float):
    """The law's exact P(E > q), P(S > q_hat, E > q) and P(S > q_hat, E <= q):
    P(S > a, E > b) integrates the tail of the noise over e in (b, 1)."""
    low, mid, high = (SIGMA * _tail_integral((q_hat - b) / SIGMA) for b in (0.0, q, 1.0))
    return 1.0 - q, mid - high, low - mid


def _binomial_upper(r: int, level: float, quantile: float = 0.999) -> int:
    """The smallest k with P(Binomial(r, level) <= k) >= quantile."""
    total = 0.0
    for k in range(r + 1):
        total += math.comb(r, k) * level**k * (1.0 - level) ** (r - k)
        if total >= quantile:
            return k
    return r


@pytest.fixture(scope="module")
def violations():
    counts = dict.fromkeys(LEVELS, 0)
    rng = np.random.default_rng(22)
    no_source_terms = SourceStats(0.0, 0.0, 0.0, 0.0, 0.0)
    for _ in range(R):
        cal = _draw(rng, N_CAL)
        selector = calibrate(GridSpec(), cal).selector
        stats = source_statistics(cal, selector, CONFIG)
        above, true_disc, false_disc = _rates(selector.q, selector.q_hat)
        counts["u_q"] += above > stats.u_q
        counts["u_q2"] += true_disc > stats.u_q2
        counts["fd"] += false_disc > stats.rate_false_discovery + stats.w_fd
        # with no source terms, L_q is the running maximum of the PM-EB lower
        # bounds on the selection rate
        flags = selector.select(_draw(rng, HORIZON).scores)
        l_q = MonitorState(no_source_terms, CONFIG).feed(flags)
        counts["pmeb"] += l_q.max() > true_disc + false_disc
    return counts


@pytest.mark.parametrize("bound", list(LEVELS))
def test_bound_fails_at_most_at_its_level(violations, bound):
    limit = _binomial_upper(R, LEVELS[bound])
    assert violations[bound] <= limit, f"{bound}: {violations[bound]} of {R} draws violated it (limit {limit})"


def test_exact_rates_match_a_large_sample():
    """The closed-form rates agree with one large sample of the law."""
    data = _draw(np.random.default_rng(7), 1_000_000)
    for q, q_hat in ((0.5, 0.5), (0.7, 0.6), (0.9, 0.3)):
        above = data.errors > q
        selected = data.scores > q_hat
        sample = above.mean(), (selected & above).mean(), (selected & ~above).mean()
        # 5 standard errors of a rate from 10^6 draws is at most 0.0025
        assert np.allclose(_rates(q, q_hat), sample, rtol=0.0, atol=0.0025)
