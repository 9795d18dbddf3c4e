"""Grid-search calibration of the threshold pair (q, q_hat).

Sweeps a grid of quantile levels, computes selector power and false
discovery proportion for every cell on held-out labeled source data, and
picks the maximum-power cell among those with FDP under the cap.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from typing import List, Tuple

from .core import Dataset, Selector, empirical_quantile
from .errors import CalibrationInfeasible, ConfigError, InvalidInput

DEFAULT_P_VALUES = tuple(round(0.50 + 0.05 * i, 2) for i in range(10))  # 0.50..0.95
DEFAULT_P_HAT_VALUES = tuple(round(0.1 * i, 1) for i in range(1, 10))  # 0.1..0.9
DEFAULT_FDP_MAX = 0.2


@dataclass(frozen=True)
class GridSpec:
    p_values: tuple = DEFAULT_P_VALUES
    p_hat_values: tuple = DEFAULT_P_HAT_VALUES
    fdp_max: float = DEFAULT_FDP_MAX

    def __post_init__(self):
        object.__setattr__(self, "p_values", tuple(self.p_values))
        object.__setattr__(self, "p_hat_values", tuple(self.p_hat_values))
        if not self.p_values:
            raise ConfigError("p_values", "must list at least one value")
        if list(self.p_values) != sorted(set(self.p_values)):
            raise ConfigError("p_values", "must be strictly increasing")
        if any(not 0.5 <= p < 1.0 for p in self.p_values):
            raise ConfigError("p_values", "must lie in [0.5, 1)")
        if not self.p_hat_values:
            raise ConfigError("p_hat_values", "must list at least one value")
        if list(self.p_hat_values) != sorted(set(self.p_hat_values)):
            raise ConfigError("p_hat_values", "must be strictly increasing")
        if any(not 0.0 < p < 1.0 for p in self.p_hat_values):
            raise ConfigError("p_hat_values", "must lie in (0, 1)")
        if not 0.0 < self.fdp_max < 1.0:
            raise ConfigError("fdp_max", f"must lie in (0, 1), got {self.fdp_max}")


@dataclass(frozen=True)
class GridCell:
    p: float
    p_hat: float
    q: float
    q_hat: float
    power: float
    fdp: float
    qualifying: bool


@dataclass(frozen=True)
class CalibrationResult:
    selector: Selector
    power: float
    fdp: float
    grid_report: Tuple[GridCell, ...] = field(repr=False)


def _power_fdp(selector: Selector, errors, scores) -> Tuple[float, float, int, int]:
    """(power, fdp, n_pos, n_sel) of the high-error flag against
    the true-error flag 1{E > q}.

    Conventions: power := 1 when nothing exceeds q; fdp := 0 when nothing
    is selected.
    """
    selected = selector.select(scores)
    positive = errors > selector.q
    n_pos = int(positive.sum())
    n_sel = int(selected.sum())
    power = 1.0 if n_pos == 0 else float((selected & positive).sum()) / n_pos
    fdp = 0.0 if n_sel == 0 else float((selected & ~positive).sum()) / n_sel
    return power, fdp, n_pos, n_sel


def calibrate(grid: GridSpec, data: Dataset) -> CalibrationResult:
    """Evaluate every grid cell and return the best qualifying selector.

    Qualifying = FDP strictly under the cap, with at least one positive and
    one selection (cells where a 0/0 convention decided the value are
    reported but never chosen).
    Ties break toward lowest FDP, then largest p, then smallest p_hat.
    """
    if data.errors is None or data.scores is None:
        raise InvalidInput("calibration needs both true errors and scores")

    q_hats = [empirical_quantile(p_hat, data.scores) for p_hat in grid.p_hat_values]
    report: List[GridCell] = []
    for p in grid.p_values:
        q = empirical_quantile(p, data.errors)
        for p_hat, q_hat in zip(grid.p_hat_values, q_hats):
            selector = Selector(q=q, q_hat=q_hat, p=p, p_hat=p_hat)
            power, fdp, n_pos, n_sel = _power_fdp(selector, data.errors, data.scores)
            report.append(
                GridCell(
                    p=p,
                    p_hat=p_hat,
                    q=q,
                    q_hat=q_hat,
                    power=power,
                    fdp=fdp,
                    qualifying=fdp < grid.fdp_max and n_pos > 0 and n_sel > 0,
                )
            )

    eligible = [c for c in report if c.qualifying]
    if not eligible:
        best = min(report, key=lambda c: (c.fdp, -c.power))
        raise CalibrationInfeasible(best.fdp)
    chosen = max(eligible, key=lambda c: (c.power, -c.fdp, c.p, -c.p_hat))
    return CalibrationResult(
        selector=Selector(q=chosen.q, q_hat=chosen.q_hat, p=chosen.p, p_hat=chosen.p_hat),
        power=chosen.power,
        fdp=chosen.fdp,
        grid_report=tuple(report),
    )


def write_grid_report(path, report) -> None:
    """Export the per-cell table as CSV."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["p", "p_hat", "q", "q_hat", "power", "fdp", "qualifying"])
        for c in report:
            writer.writerow(
                [c.p, c.p_hat, repr(c.q), repr(c.q_hat), repr(c.power), repr(c.fdp), int(c.qualifying)]
            )
