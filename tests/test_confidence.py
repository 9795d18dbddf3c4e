"""PM-EB confidence sequence and Hoeffding interval."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from shiftwatch import MonitorConfig, MonitorState
from shiftwatch.confidence import (
    PmEbState,
    _log_next_steps,
    hoeffding_halfwidth,
    pmeb_best_lower_path,
    pmeb_update,
)
from shiftwatch.errors import InvalidInput
from shiftwatch.monitor import SourceStats

REL = 1e-12


class TestHoeffding:
    def test_closed_form_200(self):
        expected = math.sqrt(math.log(40.0) / 400.0)
        assert hoeffding_halfwidth(200, 0.05) == pytest.approx(expected, rel=REL)

    def test_closed_form_50(self):
        expected = math.sqrt(math.log(40.0) / 100.0)
        assert hoeffding_halfwidth(50, 0.05) == pytest.approx(expected, rel=REL)

    def test_quadruple_n_halves_width(self):
        assert hoeffding_halfwidth(800, 0.05) == pytest.approx(
            hoeffding_halfwidth(200, 0.05) / 2.0, rel=REL
        )

    def test_rejects_bad_inputs(self):
        with pytest.raises(InvalidInput):
            hoeffding_halfwidth(0, 0.05)
        with pytest.raises(InvalidInput):
            hoeffding_halfwidth(10, 0.0)
        with pytest.raises(InvalidInput):
            hoeffding_halfwidth(10, 1.0)

    @given(st.integers(1, 10_000), st.floats(0.001, 0.5), st.floats(0.001, 0.5))
    def test_monotonicity(self, n, a1, a2):
        lo, hi = sorted((a1, a2))
        assert hoeffding_halfwidth(n, lo) >= hoeffding_halfwidth(n, hi)
        assert hoeffding_halfwidth(n + 1, lo) < hoeffding_halfwidth(n, lo)


class TestPmEb:
    def test_fresh_state_vacuous(self):
        state = PmEbState(0.05)
        assert state.best_lower == 0.0
        assert state.t == 0

    def test_rejects_bad_alpha(self):
        with pytest.raises(InvalidInput):
            PmEbState(0.0)
        with pytest.raises(InvalidInput):
            PmEbState(1.0)

    def test_rejects_out_of_range_observation(self):
        state = PmEbState(0.05)
        for bad in (1.5, -0.1, math.nan):
            with pytest.raises(InvalidInput):
                pmeb_update(state, [0.5, bad])

    def test_single_one_hand_computed(self):
        # First update at alpha=0.05: mu_0 = 1/2, sigma2_0 = 1/4, so
        # lambda_1 = min(sqrt(2 ln20 / (0.25 * 1 * ln2)), 1/2) = 1/2,
        # psi_E(1/2) = (-ln(1/2) - 1/2) / 4, and the raw bound
        # (0.5 - ln20 - psi) / 0.5 is deeply negative, clipping to 0.
        lowers, state = pmeb_update(PmEbState(0.05), [1.0])
        psi = (-math.log(0.5) - 0.5) / 4.0
        assert state.t == 1
        assert state.sum_l == pytest.approx(0.5, rel=REL)
        assert state.sum_lx == pytest.approx(0.5, rel=REL)
        assert state.sum_psi == pytest.approx(psi, rel=REL)
        raw = (0.5 - math.log(20.0) - psi) / 0.5
        assert raw < 0.0
        assert lowers.tolist() == [0.0]
        assert state.best_lower == 0.0

    def test_all_zeros_stream(self):
        state = PmEbState(0.05)
        for _ in range(100):
            lowers, state = pmeb_update(state, [0.0])
            assert lowers.tolist() == [0.0]
        assert state.best_lower == 0.0

    def test_all_ones_stream_approaches_one(self):
        path = pmeb_best_lower_path(np.ones(5000), 0.05)
        assert np.all(np.diff(path) >= 0.0)
        assert path[-1] > 0.95
        assert path.max() <= 1.0

    def test_streaming_matches_batch_path(self):
        rng = np.random.default_rng(0)
        xs = rng.random(300)
        state = PmEbState(0.1)
        best = []
        for x in xs:
            _, state = pmeb_update(state, [x])
            best.append(state.best_lower)
        assert np.array_equal(np.array(best), pmeb_best_lower_path(xs, 0.1))

    def test_best_lower_is_running_max_of_path(self):
        rng = np.random.default_rng(1)
        xs = rng.random(200)
        path = pmeb_update(PmEbState(0.05), xs)[0]
        assert np.array_equal(
            pmeb_best_lower_path(xs, 0.05), np.maximum.accumulate(path)
        )

    def test_determinism(self):
        xs = np.random.default_rng(2).random(100)
        a = pmeb_best_lower_path(xs, 0.05)
        b = pmeb_best_lower_path(xs, 0.05)
        assert np.array_equal(a, b)

    def test_path_rejects_bad_input(self):
        with pytest.raises(InvalidInput):
            pmeb_update(PmEbState(0.05), [0.5, 1.2])[0]
        with pytest.raises(InvalidInput):
            pmeb_update(PmEbState(0.05), [[0.5]])[0]
        with pytest.raises(InvalidInput):
            pmeb_update(PmEbState(0.0), [0.5])[0]

    @settings(max_examples=50)
    @given(
        st.lists(st.floats(0, 1, allow_nan=False), min_size=1, max_size=200),
        st.floats(0.01, 0.5),
    )
    def test_bound_properties(self, xs, alpha):
        path = pmeb_best_lower_path(np.array(xs), alpha)
        assert np.all(path >= 0.0) and np.all(path <= 1.0)
        assert np.all(np.diff(path) >= 0.0)


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


def _scalar_run(xs, alpha):
    """Reference: ``step`` looped over the stream; returns the per-step
    bounds and the final (t, sum_lx, sum_l, sum_psi, sum_x, sum_dev)."""
    log_inv_alpha = math.log(1.0 / alpha)
    acc = (0, 0.0, 0.0, 0.0, 0.0, 0.0)
    out = []
    for x in xs.tolist():
        *acc, lower = step(*acc, log_inv_alpha, x)
        out.append(lower)
    return np.array(out, dtype=float), tuple(acc)


def _random_cuts(n, rng):
    """Sorted cut points of a stream of length n: a few random ones, a
    chunk of length 1 and an empty chunk included."""
    i = int(rng.integers(0, n - 1))
    cuts = rng.integers(0, n + 1, size=int(rng.integers(1, 12))).tolist()
    return sorted(cuts + [i, i + 1, i + 1])


def _stream(kind, n, rng):
    if kind == "uniform":
        return rng.random(n)
    if kind == "bernoulli":
        return (rng.random(n) < 0.3).astype(float)
    return np.full(n, 1.0 if kind == "ones" else 0.0)


class TestBatchPathBitIdentity:
    """The numpy batch path must reproduce the scalar step bit for bit."""

    @pytest.mark.parametrize("kind", ["uniform", "bernoulli", "zeros", "ones"])
    @pytest.mark.parametrize("alpha", [0.01, 0.05, 0.25])
    def test_matches_scalar_step(self, alpha, kind):
        rng = np.random.default_rng(7)
        for n in (0, 1, 2, 1000):
            xs = _stream(kind, n, rng)
            assert pmeb_update(PmEbState(alpha), xs)[0].tobytes() == _scalar_run(xs, alpha)[0].tobytes()

    @pytest.mark.parametrize("kind", ["uniform", "bernoulli"])
    @pytest.mark.parametrize("alpha", [0.01, 0.05, 0.25])
    def test_resumed_chunks_match_scalar_step(self, alpha, kind):
        rng = np.random.default_rng(11)
        xs = _stream(kind, 3000, rng)
        lowers_ref, acc_ref = _scalar_run(xs, alpha)
        for _ in range(5):
            state, parts = PmEbState(alpha), []
            for chunk in np.split(xs, _random_cuts(xs.size, rng)):
                lowers, state = pmeb_update(state, chunk)
                parts.append(lowers)
            assert np.concatenate(parts).tobytes() == lowers_ref.tobytes()
            acc = (state.t, state.sum_lx, state.sum_l, state.sum_psi, state.sum_x, state.sum_dev)
            assert np.array(acc).tobytes() == np.array(acc_ref).tobytes()
            assert state.best_lower == lowers_ref.max()

    def test_long_stream_matches_scalar_step(self):
        # Long enough that numpy's vectorized log, which differs from libm
        # in the last bit on some inputs, would show: swapping either
        # log(t + 1) or log(1 - lambda) to np.log changes bounds from step
        # 9,637 and 14,559 of this stream respectively.
        xs = np.random.default_rng(103).random(15_000)
        assert pmeb_update(PmEbState(0.05), xs)[0].tobytes() == _scalar_run(xs, 0.05)[0].tobytes()


class TestStepLogCache:
    """``_log_next_steps`` keeps the step logs of the last (start, length)."""

    def test_cut_streams_miss_and_match_one_call(self):
        rng = np.random.default_rng(19)
        xs = rng.random(2000)
        _log_next_steps.cache_clear()
        whole, final = pmeb_update(PmEbState(0.05), xs)
        for _ in range(5):
            state, parts = PmEbState(0.05), []
            misses = _log_next_steps.cache_info().misses
            chunks = [c for c in np.split(xs, _random_cuts(xs.size, rng)) if c.size]
            for chunk in chunks:
                lowers, state = pmeb_update(state, chunk)
                parts.append(lowers)
            assert _log_next_steps.cache_info().misses >= misses + len(chunks) - 1
            assert np.concatenate(parts).tobytes() == whole.tobytes()
            assert state == final

    def test_repeated_call_hits_and_matches(self):
        xs = np.random.default_rng(20).random(1500)
        state = pmeb_update(PmEbState(0.05), xs[:500])[1]
        first = pmeb_update(state, xs[500:])
        hits = _log_next_steps.cache_info().hits
        second = pmeb_update(state, xs[500:])
        assert _log_next_steps.cache_info().hits == hits + 1
        assert second[0].tobytes() == first[0].tobytes() and second[1] == first[1]
        assert _log_next_steps(500, 1000).tobytes() == np.array([math.log(t + 1.0) for t in range(501, 1501)]).tobytes()

    def test_cached_array_is_read_only(self):
        logs = _log_next_steps(0, 10)
        assert not logs.flags.writeable
        with pytest.raises(ValueError):
            logs[0] = 0.0
        assert _log_next_steps(0, 10) is logs

    def test_monitor_stream_keeps_at_most_one_array(self):
        stats = SourceStats(
            rate_above_q=0.2, rate_true_discovery=0.15, rate_false_discovery=0.1, w_source=0.05, w_fd=0.05
        )
        state = MonitorState(stats, MonitorConfig())
        rng = np.random.default_rng(21)
        for _ in range(100):
            state.observe(rng.random(int(rng.integers(1, 50))) > 0.5)
        assert state.t > 100
        assert _log_next_steps.cache_info().currsize <= 1
