"""Sequential detectors: quantile and mean families."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shiftwatch import Dataset, MonitorConfig, MonitorState, source_statistics
from shiftwatch.confidence import PmEbState, pmeb_best_lower_path, pmeb_update
from shiftwatch.core import Selector
from shiftwatch.errors import InvalidInput
from shiftwatch.monitor import (
    TRAJECTORY_COLUMNS,
    SourceStats,
    delta_diagnostic,
    first_alarm_time,
    mean_lower_path,
    oracle_source_statistics,
    source_mean_upper,
    write_trajectory_csv,
)


class TestMonitorConfig:
    def test_default_alpha_split(self):
        cfg = MonitorConfig()
        assert cfg.alpha1 == cfg.alpha2 == 0.025

    def test_alpha2_is_the_rest_of_alpha_prod(self):
        assert MonitorConfig(alpha_prod=0.05, alpha1=0.01).alpha2 == 0.05 - 0.01
        for alpha1 in (0.0, 0.05, 0.2):
            with pytest.raises(InvalidInput):
                MonitorConfig(alpha_prod=0.05, alpha1=alpha1)

    def test_range_checks(self):
        with pytest.raises(InvalidInput):
            MonitorConfig(alpha_source=1.5)
        with pytest.raises(InvalidInput):
            MonitorConfig(eps_tol=-0.1)
        with pytest.raises(InvalidInput):
            MonitorConfig(delta_corr=-0.1)


class TestSourceStatistics:
    def test_five_point_hand_count(self, five_point):
        sel = Selector(q=0.3, q_hat=0.45, p=0.6, p_hat=0.6)
        stats = source_statistics(five_point, sel, MonitorConfig())
        w = math.sqrt(math.log(40.0) / 10.0)  # n = 5, alpha = 0.05
        assert stats.rate_above_q == pytest.approx(0.4)
        assert stats.rate_true_discovery == pytest.approx(0.4)
        assert stats.rate_false_discovery == pytest.approx(0.2)
        assert stats.w_source == pytest.approx(w, rel=1e-12)
        assert stats.u_q == pytest.approx(0.4 + w, rel=1e-12)
        assert stats.u_q2 == pytest.approx(0.4 + w, rel=1e-12)

    def test_perfect_estimator_collapses_bounds(self):
        rng = np.random.default_rng(0)
        errors = rng.random(100)
        data = Dataset(rng.random((100, 1)), errors, errors)
        sel = Selector(q=0.5, q_hat=0.5, p=0.7, p_hat=0.5)
        stats = source_statistics(data, sel, MonitorConfig())
        assert stats.rate_false_discovery == 0.0
        assert stats.rate_true_discovery == stats.rate_above_q
        assert stats.u_q2 == stats.u_q

    def test_empty_selection(self, five_point):
        sel = Selector(q=0.3, q_hat=10.0, p=0.6, p_hat=0.9)
        stats = source_statistics(five_point, sel, MonitorConfig())
        assert stats.rate_true_discovery == 0.0
        assert stats.rate_false_discovery == 0.0

    def test_dominance_u_q2_le_u_q(self):
        for seed in range(20):
            r = np.random.default_rng(seed)
            errors = r.random(50)
            scores = errors + r.normal(0, 0.3, 50)
            data = Dataset(r.random((50, 1)), errors, scores)
            sel = Selector(q=0.6, q_hat=float(np.median(scores)), p=0.7, p_hat=0.5)
            stats = source_statistics(data, sel, MonitorConfig())
            assert stats.u_q2 <= stats.u_q

    def test_oracle_stats_have_no_false_discoveries(self, five_point):
        sel = Selector(q=0.3, q_hat=0.45, p=0.6, p_hat=0.6)
        stats = oracle_source_statistics(five_point, sel, MonitorConfig())
        assert stats.rate_false_discovery == 0.0
        assert stats.rate_true_discovery == stats.rate_above_q


def _stats(**kwargs) -> SourceStats:
    base = dict(
        rate_above_q=0.2,
        rate_true_discovery=0.15,
        rate_false_discovery=0.1,
        w_source=0.05,
        w_fd=0.05,
    )
    base.update(kwargs)
    return SourceStats(**base)


# MonitorState.feed never reads the selector; observe applies it to scores
SELECTOR = Selector(q=0.5, q_hat=0.5, p=0.7, p_hat=0.5)


def _lq_path(flags, stats, cfg) -> np.ndarray:
    """L_q over a whole stream: one ``feed`` call on a fresh state."""
    return MonitorState(SELECTOR, stats, cfg).feed(flags)


class TestQuantileDetector:
    def test_lower_bound_component_arithmetic(self):
        # L_q = production lower bound - (false-discovery rate + width) - delta:
        # 0.75 - (0.10 + 0.05) - 0 = 0.60
        assert max(0.0, 0.75 - (0.10 + 0.05) - 0.0) == pytest.approx(0.60)
        sel = np.ones(500)
        cfg = MonitorConfig()
        state = MonitorState(SELECTOR, _stats(), cfg)
        l_q = state.feed(sel)
        expected = np.clip(
            pmeb_best_lower_path(sel, cfg.alpha1) - (0.1 + 0.05), 0.0, None
        )
        assert np.array_equal(l_q, expected)
        assert state.selection_cs == pmeb_update(PmEbState(cfg.alpha1), sel)[1]
        assert state.t == 500 and state.selection_cs.sum_x == 500

    def test_streaming_observe_matches_batch_path(self):
        rng = np.random.default_rng(2)
        # selection rate 0.4 for 200 events, then 0.7: both detectors fire
        scores = rng.random(600)
        scores[200:] += 0.3
        selector = Selector(q=0.5, q_hat=0.6, p=0.7, p_hat=0.6)
        stats = _stats()
        selected = selector.select(scores)
        t = np.arange(1, scores.size + 1)
        for delta_corr in (0.0, 0.02):
            cfg = MonitorConfig(delta_corr=delta_corr)
            batch = _lq_path(selected.astype(float), stats, cfg)
            t_q = first_alarm_time(batch - stats.u_q, cfg.eps_tol)
            t_q2 = first_alarm_time(batch - stats.u_q2, cfg.eps_tol)
            assert t_q2 is not None and t_q is not None
            for _ in range(5):
                # random cuts, a chunk of length 1, and a chunk that
                # crosses each alarm
                cuts = sorted(
                    rng.integers(0, scores.size + 1, size=6).tolist()
                    + [t_q2 - 3, t_q2 + 2, t_q - 1, t_q + 4, 50, 51]
                )
                state = MonitorState(selector, stats, cfg)
                rows = []
                for chunk in np.split(scores, cuts):
                    rows += state.observe(chunk)
                assert state.phi_q_time == t_q and state.phi_q2_time == t_q2
                assert state.t == scores.size and state.selection_cs.sum_x == selected.sum()
                cols = list(zip(*rows))
                assert np.array_equal(np.array(cols[2]), batch)
                assert list(cols[0]) == t.tolist()
                assert list(cols[1]) == [int(n) / int(i) for n, i in zip(np.cumsum(selected), t)]
                assert set(cols[3]) == {stats.u_q} and set(cols[4]) == {stats.u_q2}
                assert list(cols[5]) == (t >= t_q).astype(int).tolist()
                assert list(cols[6]) == (t >= t_q2).astype(int).tolist()

    def test_alarm_rule_at_float_boundary(self):
        """Streaming and batch share the rule margin > eps_tol, also where
        it differs from L_q > U + eps_tol in the last bit."""
        eps_tol, n = 0.01, 400
        cfg = MonitorConfig(eps_tol=eps_tol)
        flat = dict(rate_above_q=1.0, rate_false_discovery=0.0, w_source=0.0, w_fd=0.0)
        l_final = _lq_path(np.ones(n), _stats(**flat), cfg)[-1]
        u = l_final - eps_tol
        for _ in range(100):
            if (l_final - u) > eps_tol and not (l_final > u + eps_tol):
                break
            u = math.nextafter(u, -math.inf)
        else:
            pytest.fail("no boundary upper bound found")
        stats = _stats(rate_true_discovery=u, **flat)
        assert stats.u_q2 == u
        batch = _lq_path(np.ones(n), stats, cfg)
        assert first_alarm_time(batch - stats.u_q2, eps_tol) == n
        state = MonitorState(Selector(q=0.5, q_hat=0.5, p=0.7, p_hat=0.5), stats, cfg)
        state.observe(np.ones(n - 1))
        assert state.phi_q2_time is None
        state.observe(np.ones(1))
        assert state.phi_q2_time == n
        assert state.phi_q_time is None

    def test_alarm_comparisons_and_latching(self):
        cfg = MonitorConfig()
        stats = _stats(rate_above_q=0.1, rate_true_discovery=0.05, w_source=0.02)
        selector = Selector(q=0.5, q_hat=0.5, p=0.7, p_hat=0.5)
        state = MonitorState(selector, stats, cfg)
        # feed constant selections until phi_q2 (threshold 0.07) fires
        while not state.phi_q2 and state.t < 2000:
            state.observe([1.0])
        assert state.phi_q2
        first = state.phi_q2_time
        rows = state.observe(np.zeros(50))
        assert state.phi_q2_time == first  # latched
        assert all(row[6] == 1 for row in rows)
        assert state.phi_q2_time <= (state.phi_q_time or 10**9)

    def test_simple_threshold_comparisons(self):
        assert first_alarm_time(np.array([0.40 - 0.30]), 0.0) == 1
        assert first_alarm_time(np.array([0.40 - 0.45]), 0.0) is None

    def test_delta_correction_shifts_bound_exactly(self):
        sel = np.ones(400)
        stats = _stats(rate_false_discovery=0.0, w_fd=0.01)
        plain = _lq_path(sel, stats, MonitorConfig())
        corrected = _lq_path(sel, stats, MonitorConfig(delta_corr=0.02))
        active = plain > 0.05  # away from the clip floor
        assert np.allclose(plain[active] - corrected[active], 0.02, atol=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(
        flags=st.lists(st.booleans(), max_size=300),
        cuts=st.lists(st.integers(0, 300), max_size=8),
        delta_corr=st.sampled_from([0.0, 0.02]),
    )
    def test_chained_chunks_equal_one_call(self, flags, cuts, delta_corr):
        """Chaining ``feed`` over any cuts of a 0/1 stream gives the L_q
        bits, final confidence-sequence state, counts and alarm times of
        one call on a fresh state."""
        flags = np.array(flags, dtype=bool)
        cfg = MonitorConfig(delta_corr=delta_corr)
        stats = _stats(rate_false_discovery=0.02, w_fd=0.01)
        whole = MonitorState(SELECTOR, stats, cfg)
        whole_l_q = whole.feed(flags)
        state = MonitorState(SELECTOR, stats, cfg)
        parts = [state.feed(chunk) for chunk in np.split(flags, sorted(min(c, flags.size) for c in cuts))]
        assert np.concatenate(parts).tobytes() == whole_l_q.tobytes()
        assert repr(state.selection_cs) == repr(whole.selection_cs)
        assert (state.t, state.selection_cs.sum_x) == (whole.t, whole.selection_cs.sum_x) == (flags.size, flags.sum())
        assert state.phi_q_time == whole.phi_q_time == first_alarm_time(whole_l_q - stats.u_q, 0.0)
        assert state.phi_q2_time == whole.phi_q2_time == first_alarm_time(whole_l_q - stats.u_q2, 0.0)

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**16),
        n=st.integers(0, 400),
        cuts=st.lists(st.integers(0, 400), max_size=8),
    )
    def test_a_restart_from_the_saved_state_goes_on_as_one_run(self, seed, n, cuts):
        """A run cut into pieces, each observed by a fresh state that gets
        only the last piece's ``selection_cs`` and latch times, gives the
        rows, event count and alarm times of one uninterrupted ``observe``,
        bit for bit. A stream of 400 events latches phi_q2 after about 70 to
        130 of them, and phi_q later or never."""
        scores = np.random.default_rng(seed).random(n)
        cfg = MonitorConfig()
        stats = _stats(rate_above_q=0.35, rate_true_discovery=0.3, rate_false_discovery=0.02, w_source=0.02, w_fd=0.01)
        whole = MonitorState(SELECTOR, stats, cfg)
        whole_rows = whole.observe(scores)
        state, rows = MonitorState(SELECTOR, stats, cfg), []
        for piece in np.split(scores, sorted(min(c, n) for c in cuts)):
            saved, state = state, MonitorState(SELECTOR, stats, cfg)
            state.selection_cs, state.phi_q_time, state.phi_q2_time = (
                saved.selection_cs, saved.phi_q_time, saved.phi_q2_time
            )
            rows += state.observe(piece)
        assert repr(rows) == repr(whole_rows)
        assert (state.t, state.phi_q_time, state.phi_q2_time) == (whole.t, whole.phi_q_time, whole.phi_q2_time)

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        noise=st.sampled_from([0.0, 0.1, 0.3]),
        p_hat=st.sampled_from([0.3, 0.5, 0.8]),
        shift=st.floats(0.0, 0.6),
        cuts=st.lists(st.integers(0, 600), max_size=5),
    )
    def test_phi_q2_never_alarms_after_phi_q(self, seed, noise, p_hat, shift, cuts):
        """With source stats from ``source_statistics``, u_q2 <= u_q, so
        phi_q2 latches no later than phi_q on any stream and any cuts."""
        rng = np.random.default_rng(seed)
        errors = rng.random(200)
        scores = errors + rng.normal(0.0, noise, 200)
        source = Dataset(rng.random((200, 1)), errors, scores)
        selector = Selector(q=0.6, q_hat=float(np.quantile(scores, p_hat)), p=0.6, p_hat=p_hat)
        cfg = MonitorConfig()
        state = MonitorState(selector, source_statistics(source, selector, cfg), cfg)
        stream = rng.random(600) + shift
        for chunk in np.split(stream, sorted(cuts)):
            state.observe(chunk)
            if state.phi_q:
                assert state.phi_q2 and state.phi_q2_time <= state.phi_q_time

    def test_trajectory_exports(self, tmp_path):
        state = MonitorState(Selector(0.5, 0.5, 0.7, 0.5), _stats(), MonitorConfig())
        rows = state.observe([1.0, 0.0, 1.0]) + state.observe([0.0, 1.0])
        assert [row[0] for row in rows] == [1, 2, 3, 4, 5]
        assert all(type(x) is float for row in rows for x in row[1:5])
        assert all(type(x) is int for row in rows for x in (row[0], row[5], row[6]))
        path = tmp_path / "traj.csv"
        with open(path, "w", newline="") as fh:
            fh.write(",".join(TRAJECTORY_COLUMNS) + "\r\n")
            write_trajectory_csv(fh, rows[:3])
            write_trajectory_csv(fh, rows[3:])
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "t,selection_rate,L_q,U_q,U_q2,phi_q,phi_q2"
        assert lines[2] == f"2,0.5,{rows[1][2]!r},{rows[1][3]!r},{rows[1][4]!r},0,0"
        assert len(lines) == 6


class TestMeanDetector:
    def test_source_mean_upper(self):
        errors = np.full(200, 0.1)
        expected = 0.1 + math.sqrt(math.log(40.0) / 400.0)
        assert source_mean_upper(errors, 0.05) == pytest.approx(expected, rel=1e-12)

    def test_constant_stream_at_source_mean_never_alarms(self):
        cfg = MonitorConfig()
        upper = source_mean_upper(np.full(500, 0.3), 0.05)
        lowers = mean_lower_path(np.full(10_000, 0.3), cfg)
        assert first_alarm_time(lowers - upper, cfg.eps_tol) is None

    def test_all_ones_stream_alarms_in_finite_time(self):
        cfg = MonitorConfig()
        upper = source_mean_upper(np.full(10_000, 0.1), 0.05)
        lowers = mean_lower_path(np.ones(5000), cfg)
        assert first_alarm_time(lowers - upper, cfg.eps_tol) is not None

    def test_eps_tol_one_never_fires(self):
        cfg = MonitorConfig(eps_tol=1.0)
        lowers = mean_lower_path(np.ones(2000), cfg)
        assert first_alarm_time(lowers, cfg.eps_tol) is None

    def test_batch_path_matches_streaming(self):
        rng = np.random.default_rng(3)
        xs = rng.random(200)
        cfg = MonitorConfig()
        state = PmEbState(cfg.alpha_prod)
        lowers = []
        for x in xs:
            _, state = pmeb_update(state, [x])
            lowers.append(state.best_lower)
        assert np.array_equal(np.array(lowers), mean_lower_path(xs, cfg))


class TestDeltaDiagnostic:
    def test_zero_on_identical_distribution(self, five_point):
        sel = Selector(q=0.3, q_hat=0.45, p=0.6, p_hat=0.6)
        stats = source_statistics(five_point, sel, MonitorConfig())
        assert delta_diagnostic(five_point.errors, five_point.scores, sel, stats) == pytest.approx(0.0)

    def test_nonpositive_when_shift_only_adds_high_errors(self, five_point):
        sel = Selector(q=0.3, q_hat=0.45, p=0.6, p_hat=0.6)
        stats = source_statistics(five_point, sel, MonitorConfig())
        # production = source plus extra rows that are all above q
        feats = np.vstack([five_point.features, np.zeros((5, 2))])
        errors = np.concatenate([five_point.errors, np.full(5, 0.95)])
        scores = np.concatenate([five_point.scores, np.full(5, 0.9)])
        prod = Dataset(feats, errors, scores)
        assert delta_diagnostic(prod.errors, prod.scores, sel, stats) <= 0.0

    def test_requires_labels(self):
        sel = Selector(q=0.3, q_hat=0.45, p=0.6, p_hat=0.6)
        with pytest.raises(InvalidInput):
            unscored = Dataset([[1.0]], [0.5])
            delta_diagnostic(unscored.errors, unscored.scores, sel, _stats())
