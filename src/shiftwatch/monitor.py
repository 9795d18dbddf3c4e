"""Sequential detectors.

Quantile detectors compare a lower confidence-sequence bound on the
production high-error rate against upper bounds computed once on labeled
source data; the mean detectors compare a lower bound on the running mean
of errors (or estimated scores) against a source-mean upper bound. All
alarms latch: once fired, a detector stays fired.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Optional

import numpy as np

from .confidence import (
    PmEbState,
    hoeffding_halfwidth,
    pmeb_best_lower_path,
    pmeb_update,
)
from .core import Dataset, Selector
from .errors import Checked, ConfigError, InvalidInput


class _MonitorFields(NamedTuple):
    alpha_source: float = 0.05
    alpha_prod: float = 0.05
    alpha1: Optional[float] = None
    eps_tol: float = 0.0
    delta_corr: float = 0.0


class MonitorConfig(Checked, _MonitorFields):
    """Miscoverage budget and tolerances.

    ``alpha_prod`` is split between the production confidence sequence
    (``alpha1``, by default half of it) and the source false-discovery
    interval, which gets the rest (``alpha2``). ``delta_corr`` is the
    additive lower-bound correction covering violations of the
    source-to-production false-discovery assumption. Every way to make
    one, ``_replace`` included, checks its fields and raises ConfigError
    under the key at fault.
    """

    __slots__ = ()

    @staticmethod
    def _check(alpha_source, alpha_prod, alpha1, eps_tol, delta_corr):
        if not 0.0 < alpha_source < 1.0:
            raise ConfigError("alpha_source", f"must lie in (0, 1), got {alpha_source}")
        if not 0.0 < alpha_prod < 1.0:
            raise ConfigError("alpha_prod", f"must lie in (0, 1), got {alpha_prod}")
        if alpha1 is None:
            alpha1 = alpha_prod / 2.0
        if not 0.0 < alpha1 < alpha_prod:
            raise ConfigError("alpha1", f"must lie in (0, alpha_prod), got {alpha1}")
        # written as "not >=" so that NaN, which compares false, fails too
        if not eps_tol >= 0.0:
            raise ConfigError("eps_tol", f"must be >= 0, got {eps_tol}")
        if not delta_corr >= 0.0:
            raise ConfigError("delta_corr", f"must be >= 0, got {delta_corr}")
        return alpha_source, alpha_prod, alpha1, eps_tol, delta_corr

    @property
    def alpha2(self) -> float:
        """The rest of alpha_prod, for the source false-discovery interval."""
        return self.alpha_prod - self.alpha1


class SourceStats(NamedTuple):
    """Empirical source rates plus Hoeffding half-widths.

    ``u_q`` upper-bounds the source probability of a true error above q;
    ``u_q2`` upper-bounds the probability of a true discovery (selected and
    above q). ``w_fd`` is the half-width attached to the false-discovery
    rate inside the production lower bound.
    """

    rate_above_q: float
    rate_true_discovery: float
    rate_false_discovery: float
    w_source: float
    w_fd: float

    @property
    def u_q(self) -> float:
        return self.rate_above_q + self.w_source

    @property
    def u_q2(self) -> float:
        return self.rate_true_discovery + self.w_source


def source_statistics(source: Dataset, selector: Selector, config: MonitorConfig) -> SourceStats:
    """Compute the source-side rates feeding every quantile-detector bound.

    Indicator conventions: strictly above q counts as high error, at or
    below q counts as low; selection uses strictly above q_hat.
    """
    if source.errors is None or source.scores is None:
        raise InvalidInput("source statistics need both true errors and scores")
    n = source.n
    above = source.errors > selector.q
    selected = selector.select(source.scores)
    return SourceStats(
        rate_above_q=float(above.sum()) / n,
        rate_true_discovery=float((selected & above).sum()) / n,
        rate_false_discovery=float((selected & ~above).sum()) / n,
        w_source=hoeffding_halfwidth(n, config.alpha_source),
        w_fd=hoeffding_halfwidth(n, config.alpha2),
    )


def oracle_source_statistics(source: Dataset, selector: Selector, config: MonitorConfig) -> SourceStats:
    """Source stats for the labeled-oracle quantile detector, whose selector
    is the true-error flag 1{E > q} itself (zero false discoveries by
    construction)."""
    if source.errors is None:
        raise InvalidInput("oracle statistics need true errors")
    oracle = Dataset(source.features, source.errors, source.errors)
    return source_statistics(
        oracle, Selector(q=selector.q, q_hat=selector.q, p=selector.p, p_hat=selector.p), config
    )


TRAJECTORY_COLUMNS = ("t", "selection_rate", "L_q", "U_q", "U_q2", "phi_q", "phi_q2")
# the header row of trajectory.csv, in the CSV dialect of ``write_trajectory_csv``
TRAJECTORY_HEADER = ",".join(TRAJECTORY_COLUMNS) + "\r\n"


class MonitorState:
    """Single-writer state of the quantile detectors, streaming or batch.

    Feeds the binary selection stream 1{score > q_hat} into a PM-EB
    confidence sequence at level alpha1 and latches the two alarm flags.
    Its state is ``selection_cs``, whose ``t`` and ``sum_x`` count the events
    and the selected ones (exactly below 2^53), and the two latch times.
    """

    def __init__(self, selector: Selector, source: SourceStats, config: MonitorConfig):
        self.selector = selector
        self.source = source
        self.config = config
        self.selection_cs = PmEbState(config.alpha1)
        self.phi_q_time: Optional[int] = None
        self.phi_q2_time: Optional[int] = None

    @property
    def t(self) -> int:
        return self.selection_cs.t

    @property
    def phi_q(self) -> bool:
        return self.phi_q_time is not None

    @property
    def phi_q2(self) -> bool:
        return self.phi_q2_time is not None

    def feed(self, flags) -> np.ndarray:
        """Feed the next chunk of selection flags and latch any alarm they
        raise. Returns the chunk's L_q: the running maximum of the PM-EB
        lower bounds less the source false-discovery upper bound and
        ``delta_corr``, floored at 0. phi_q (phi_q2) latches at the first
        margin L_q - u_q (L_q - u_q2) above eps_tol. Chained over any cuts
        of a stream, it gives the bits, state and alarm times of one call."""
        lowers, after = pmeb_update(self.selection_cs, flags)
        best = np.maximum(np.maximum.accumulate(lowers), self.selection_cs.best_lower)
        l_q = best - (self.source.rate_false_discovery + self.source.w_fd) - self.config.delta_corr
        l_q = np.maximum(l_q, 0.0)
        hit_q = first_alarm_time(l_q - self.source.u_q, self.config.eps_tol)
        hit_q2 = first_alarm_time(l_q - self.source.u_q2, self.config.eps_tol)
        if self.phi_q_time is None and hit_q is not None:
            self.phi_q_time = self.t + hit_q
        if self.phi_q2_time is None and hit_q2 is not None:
            self.phi_q2_time = self.t + hit_q2
        self.selection_cs = after
        return l_q

    def observe(self, scores) -> list:
        """Feed the next chunk of event scores and latch any alarm it raises.

        Returns the chunk's trajectory rows, one tuple per event with the
        fields of ``TRAJECTORY_COLUMNS`` (the flags as 0/1)."""
        flags = self.selector.select(scores)
        n = flags.size
        t = np.arange(self.t + 1, self.t + n + 1)
        selection_rate = (self.selection_cs.sum_x + np.cumsum(flags)) / t
        l_q = self.feed(flags)
        u_q, u_q2 = [self.source.u_q] * n, [self.source.u_q2] * n
        phi_q = (t >= (self.phi_q_time or math.inf)).astype(int).tolist()
        phi_q2 = (t >= (self.phi_q2_time or math.inf)).astype(int).tolist()
        return list(zip(t.tolist(), selection_rate.tolist(), l_q.tolist(), u_q, u_q2, phi_q, phi_q2))


def first_alarm_time(margins: np.ndarray, eps_tol: float) -> Optional[int]:
    """First 1-based index where the margin strictly exceeds eps_tol."""
    hits = np.nonzero(margins > eps_tol)[0]
    return int(hits[0]) + 1 if hits.size else None


def mean_lower_path(values, config: MonitorConfig) -> np.ndarray:
    """Batch trajectory of the mean detector's lower bound over values in
    [0, 1]."""
    return pmeb_best_lower_path(values, config.alpha_prod)


def source_mean_upper(errors, alpha_source: float) -> float:
    """Source-mean Hoeffding upper bound fed to both mean detectors."""
    errors = np.asarray(errors, dtype=float)
    return float(errors.mean()) + hoeffding_halfwidth(errors.size, alpha_source)


def delta_diagnostic(errors, scores, selector: Selector, source: SourceStats) -> float:
    """Signed gap between the production and source false-discovery rates,
    from the production true errors and scores (evaluation mode only); a
    non-positive value means the false-discovery assumption held
    empirically.
    """
    if errors is None or scores is None:
        raise InvalidInput("delta diagnostic needs production true errors and scores")
    low = np.asarray(errors) <= selector.q
    prod_fd = float((selector.select(scores) & low).sum()) / low.size
    return prod_fd - source.rate_false_discovery


def write_trajectory_csv(fh, rows) -> None:
    """Append rows returned by ``MonitorState.observe`` to an open CSV file
    that begins with ``TRAJECTORY_HEADER``, in one write. The bytes are
    csv.writer's: floats as repr, ints as str, lines ended by \\r\\n."""
    fh.write("".join(
        f"{t},{rate!r},{l_q!r},{u_q!r},{u_q2!r},{a},{b}\r\n" for t, rate, l_q, u_q, u_q2, a, b in rows
    ))
