"""Grid-search calibration of the threshold pair (q, q_hat).

Sweeps a grid of quantile levels, computes selector power and false
discovery proportion for every cell on held-out labeled source data, and
picks the maximum-power cell among those with FDP under the cap. The
grid is counted in one pass: one sort each of the errors and the scores
gives every threshold, and one integer matrix product every cell's true
positives.
"""

from __future__ import annotations

import csv
from typing import List, NamedTuple, Tuple

import numpy as np

from .core import Dataset, Selector, empirical_quantile
from .errors import CalibrationInfeasible, Checked, ConfigError, InvalidInput

DEFAULT_P_VALUES = tuple(round(0.50 + 0.05 * i, 2) for i in range(10))  # 0.50..0.95
DEFAULT_P_HAT_VALUES = tuple(round(0.1 * i, 1) for i in range(1, 10))  # 0.1..0.9
DEFAULT_FDP_MAX = 0.2


class _GridFields(NamedTuple):
    p_values: Tuple[float, ...] = DEFAULT_P_VALUES
    p_hat_values: Tuple[float, ...] = DEFAULT_P_HAT_VALUES
    fdp_max: float = DEFAULT_FDP_MAX


class GridSpec(Checked, _GridFields):
    """The calibration grid: the levels p of q and p_hat of q_hat, and
    the FDP cap. Each level list is held as a tuple. Every way to make
    one checks its fields and raises ConfigError under the key at
    fault."""

    __slots__ = ()

    @staticmethod
    def _check(p_values, p_hat_values, fdp_max):
        p_values, p_hat_values = tuple(p_values), tuple(p_hat_values)
        if not p_values:
            raise ConfigError("p_values", "must list at least one value")
        if list(p_values) != sorted(set(p_values)):
            raise ConfigError("p_values", "must be strictly increasing")
        if any(not 0.5 <= p < 1.0 for p in p_values):
            raise ConfigError("p_values", "must lie in [0.5, 1)")
        if not p_hat_values:
            raise ConfigError("p_hat_values", "must list at least one value")
        if list(p_hat_values) != sorted(set(p_hat_values)):
            raise ConfigError("p_hat_values", "must be strictly increasing")
        if any(not 0.0 < p < 1.0 for p in p_hat_values):
            raise ConfigError("p_hat_values", "must lie in (0, 1)")
        if not 0.0 < fdp_max < 1.0:
            raise ConfigError("fdp_max", f"must lie in (0, 1), got {fdp_max}")
        return p_values, p_hat_values, fdp_max


class GridCell(NamedTuple):
    p: float
    p_hat: float
    q: float
    q_hat: float
    power: float
    fdp: float
    qualifying: bool


class CalibrationResult(NamedTuple):
    selector: Selector
    power: float
    fdp: float
    grid_report: Tuple[GridCell, ...]


def calibrate(grid: GridSpec, data: Dataset) -> CalibrationResult:
    """Evaluate every grid cell and return the best qualifying selector.

    A cell's power is the share of the errors above q whose score is above
    q_hat, and its FDP the share of the scores above q_hat whose error is
    not above q; power := 1 when no error exceeds q, fdp := 0 when no score
    exceeds q_hat. Qualifying = FDP strictly under the cap, with at least
    one positive and one selection (cells where a 0/0 convention decided
    the value are reported but never chosen).
    Ties break toward lowest FDP, then largest p, then smallest p_hat.
    """
    if data.errors is None or data.scores is None:
        raise InvalidInput("calibration needs both true errors and scores")

    qs = empirical_quantile(grid.p_values, data.errors)
    q_hats = empirical_quantile(grid.p_hat_values, data.scores)
    # one row per level: the positives 1{E > q} and the selections
    # 1{score > q_hat}; an int64 product counts every cell's true positives
    positive = data.errors > np.array(qs)[:, None]
    selected = data.scores > np.array(q_hats)[:, None]
    true_pos = (positive.astype(np.int64) @ selected.T.astype(np.int64)).tolist()
    n_pos = np.count_nonzero(positive, axis=1).tolist()
    n_sel = np.count_nonzero(selected, axis=1).tolist()
    report: List[GridCell] = []
    for p, q, pos, hits in zip(grid.p_values, qs, n_pos, true_pos):
        for p_hat, q_hat, sel, tp in zip(grid.p_hat_values, q_hats, n_sel, hits):
            power = 1.0 if pos == 0 else tp / pos
            fdp = 0.0 if sel == 0 else (sel - tp) / sel
            report.append(
                GridCell(
                    p=p,
                    p_hat=p_hat,
                    q=q,
                    q_hat=q_hat,
                    power=power,
                    fdp=fdp,
                    qualifying=fdp < grid.fdp_max and pos > 0 and sel > 0,
                )
            )

    eligible = [c for c in report if c.qualifying]
    if not eligible:
        # cells run through p_hat within p; one selecting nothing has FDP 0 by convention only
        raise CalibrationInfeasible(min((c.fdp for c, sel in zip(report, n_sel * len(qs)) if sel), default=None))
    chosen = max(eligible, key=lambda c: (c.power, -c.fdp, c.p, -c.p_hat))
    return CalibrationResult(
        selector=Selector(q=chosen.q, q_hat=chosen.q_hat, p=chosen.p, p_hat=chosen.p_hat),
        power=chosen.power,
        fdp=chosen.fdp,
        grid_report=tuple(report),
    )


def write_grid_report(path, report) -> None:
    """Export the per-cell table as CSV, a column per ``GridCell`` field."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(GridCell._fields)
        writer.writerows(c._replace(qualifying=int(c.qualifying)) for c in report)
