"""Grid-search calibration of the threshold pair."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from shiftwatch import Dataset, GridSpec, calibrate
from shiftwatch.core import Selector, empirical_quantile
from shiftwatch.errors import CalibrationInfeasible, InvalidInput


def power_fdp(selector, errors, scores):
    """(power, fdp, n_pos, n_sel) of one selector's high-error flag against
    the true-error flag 1{E > q}, counted cell by cell: the reference that
    every cell of ``calibrate``'s grid is held to.

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


class TestGridSpec:
    def test_default_grid_size(self):
        grid = GridSpec()
        assert len(grid.p_values) == 10
        assert len(grid.p_hat_values) == 9
        assert grid.fdp_max == 0.2

    def test_validation(self):
        with pytest.raises(InvalidInput):
            GridSpec(p_values=())
        with pytest.raises(InvalidInput):
            GridSpec(p_values=(0.4,))
        with pytest.raises(InvalidInput):
            GridSpec(p_hat_values=(0.5, 0.3))
        with pytest.raises(InvalidInput):
            GridSpec(fdp_max=1.5)


def _metrics(selector, data):
    """(power, fdp) of ``selector`` on ``data``."""
    return power_fdp(selector, data.errors, data.scores)[:2]


class TestSelectorMetrics:
    def test_five_point_hand_count(self, five_point):
        sel = Selector(q=0.3, q_hat=0.45, p=0.6, p_hat=0.6)
        power, fdp = _metrics(sel, five_point)
        assert power == 1.0
        assert fdp == pytest.approx(1.0 / 3.0)

    def test_empty_selection_conventions(self, five_point):
        sel = Selector(q=0.3, q_hat=10.0, p=0.6, p_hat=0.9)
        power, fdp = _metrics(sel, five_point)
        assert power == 0.0 and fdp == 0.0

    def test_no_positives_all_selected(self, five_point):
        sel = Selector(q=0.9, q_hat=-1.0, p=0.95, p_hat=0.1)
        power, fdp = _metrics(sel, five_point)
        assert power == 1.0 and fdp == 1.0


class TestCalibrate:
    def test_default_grid_has_90_cells(self, correlated_dataset):
        result = calibrate(GridSpec(), correlated_dataset)
        assert len(result.grid_report) == 90

    def test_perfect_estimator_reaches_power_one(self):
        rng = np.random.default_rng(0)
        errors = rng.random(200)
        data = Dataset(rng.random((200, 2)), errors, errors)
        result = calibrate(GridSpec(), data)
        assert result.power == 1.0
        assert result.fdp == 0.0

    def test_anticorrelated_scores_infeasible(self):
        errors = np.linspace(0.0, 1.0, 100)
        data = Dataset(np.arange(100.0).reshape(-1, 1), errors, 1.0 - errors)
        with pytest.raises(CalibrationInfeasible) as exc:
            calibrate(GridSpec(), data)
        assert exc.value.best_fdp >= 0.2

    def test_chosen_cell_qualifies_and_maximizes_power(self, correlated_dataset):
        result = calibrate(GridSpec(), correlated_dataset)
        assert result.fdp < 0.2
        qualifying = [c for c in result.grid_report if c.qualifying]
        assert result.power == max(c.power for c in qualifying)

    def test_degenerate_cells_reported_but_never_chosen(self):
        # Scores all equal: every cell selects nothing (strict >), so all
        # cells are degenerate and calibration must be infeasible, not a
        # power-0 / fdp-0 "success" via the conventions.
        rng = np.random.default_rng(1)
        data = Dataset(rng.random((50, 1)), rng.random(50), np.full(50, 0.5))
        with pytest.raises(CalibrationInfeasible):
            calibrate(GridSpec(), data)

    def test_deterministic_tie_breaks(self, correlated_dataset):
        r1 = calibrate(GridSpec(), correlated_dataset)
        r2 = calibrate(GridSpec(), correlated_dataset)
        assert r1.selector == r2.selector

    def test_power_nonincreasing_in_p_hat(self, correlated_dataset):
        result = calibrate(GridSpec(), correlated_dataset)
        by_p = {}
        for cell in result.grid_report:
            by_p.setdefault(cell.p, []).append(cell)
        for cells in by_p.values():
            cells.sort(key=lambda c: c.p_hat)
            powers = [c.power for c in cells]
            selected = [int((correlated_dataset.scores > c.q_hat).sum()) for c in cells]
            assert powers == sorted(powers, reverse=True)
            assert selected == sorted(selected, reverse=True)

    @pytest.mark.parametrize("transform", [lambda s: 2.0 * s + 1.0, lambda s: s**3])
    def test_monotone_transform_invariance(self, correlated_dataset, transform):
        # Only the ordering of scores matters: strictly increasing
        # transforms leave every cell's power/FDP and the chosen (p, p_hat)
        # unchanged, with thresholds transforming covariantly.
        scores = np.abs(correlated_dataset.scores)  # nonnegative for s**3
        data = Dataset(
            correlated_dataset.features, correlated_dataset.errors, scores
        )
        ref = calibrate(GridSpec(), data)
        mapped = calibrate(GridSpec(), Dataset(data.features, data.errors, transform(scores)))
        for a, b in zip(ref.grid_report, mapped.grid_report):
            assert (a.p, a.p_hat) == (b.p, b.p_hat)
            assert a.power == b.power and a.fdp == b.fdp
            assert b.q_hat == pytest.approx(transform(a.q_hat), rel=1e-12)
        assert (ref.selector.p, ref.selector.p_hat) == (
            mapped.selector.p,
            mapped.selector.p_hat,
        )

    @settings(max_examples=300, deadline=None)
    @given(
        st.integers(1, 60).flatmap(
            lambda n: st.tuples(
                st.lists(st.sampled_from([0.0, 0.1, 0.25, 0.5, 0.5, 0.75, 1.0]), min_size=n, max_size=n),
                st.lists(st.sampled_from([-1.0, 0.0, 0.2, 0.2, 0.5, 3.0]), min_size=n, max_size=n),
            )
        ),
        st.floats(0.01, 0.99),
    )
    @example(([0.5], [0.2]), 0.2)
    @example(([0.1, 0.9], [0.5, 0.5]), 0.2)
    @example(([0.5, 0.5, 0.5], [0.0, 0.2, 3.0]), 0.2)
    @example(([0.0, 0.25, 1.0], [3.0, 0.2, -1.0]), 0.2)
    def test_every_cell_equals_the_per_cell_count(self, columns, fdp_max):
        """Every grid cell's thresholds, power, FDP and qualifying flag are
        those of the per-cell reference, bit for bit; values drawn from a
        small set tie at the quantiles, and n from 1 leaves cells with no
        positive or no selection."""
        errors, scores = (np.array(c) for c in columns)
        data = Dataset(np.zeros((errors.size, 1)), errors, scores)
        grid = GridSpec(fdp_max=fdp_max)
        try:
            report = calibrate(grid, data).grid_report
        except CalibrationInfeasible as exc:
            report, best_fdp = None, exc.best_fdp
        cells = []
        for p in grid.p_values:
            for p_hat in grid.p_hat_values:
                q, q_hat = empirical_quantile(p, errors), empirical_quantile(p_hat, scores)
                power, fdp, n_pos, n_sel = power_fdp(Selector(q, q_hat, p, p_hat), errors, scores)
                cells.append((p, p_hat, q, q_hat, power, fdp, fdp < fdp_max and n_pos > 0 and n_sel > 0))
        if report is None:
            assert not any(cell[-1] for cell in cells)
            assert best_fdp == min((cell[5], -cell[4]) for cell in cells)[0]
            return
        assert [(c.p, c.p_hat, c.q, c.q_hat, c.power, c.fdp, c.qualifying) for c in report] == cells
        assert all(type(v) is float for c in report for v in (c.q, c.q_hat, c.power, c.fdp))

    def test_requires_labeled_scored_data(self):
        with pytest.raises(InvalidInput):
            calibrate(GridSpec(), Dataset([[1.0]], [0.5]))
