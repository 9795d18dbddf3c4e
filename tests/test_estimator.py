"""k-NN error estimator, R^2 diagnostic, and external score ingestion."""

import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from shiftwatch import Dataset, fit_knn
from shiftwatch.errors import DegenerateError, InvalidInput
from shiftwatch.estimator import _nearest, predict_many, r_squared, score_dataset, split_half


def one_d(values, errors) -> Dataset:
    return Dataset(np.asarray(values, dtype=float).reshape(-1, 1), errors)


def predict(model, x) -> float:
    """The score of one query row, scored as a batch of one."""
    return float(predict_many(model, [x])[0])


def traced_peak(model, x):
    """predict_many's scores for x and the peak bytes numpy allocated
    while computing them."""
    tracemalloc.start()
    try:
        scores = predict_many(model, x)
        return scores, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _stable_argsort_scores(model, x):
    """The scorer predict_many replaced: a stable argsort of every distance
    row. Returns the scores and, per query row, how many train rows lie at
    or below its k-th distance."""
    z = (np.asarray(x, dtype=float) - model.feature_means) / model.feature_stds
    train = model.train_features
    chunk = max(1, int(1_000_000 // train.shape[0]))
    scores, at_or_below = [], []
    for lo in range(0, z.shape[0], chunk):
        zc = z[lo : lo + chunk]
        d2 = (zc * zc).sum(axis=1)[:, None] - 2.0 * zc @ train.T + (train * train).sum(axis=1)[None, :]
        order = np.argsort(d2, axis=1, kind="stable")
        kth = np.take_along_axis(d2, order[:, model.k - 1 : model.k], axis=1)
        scores.append(model.train_errors[order[:, : model.k]].mean(axis=1))
        at_or_below.append((d2 <= kth).sum(axis=1))
    return np.concatenate(scores), np.concatenate(at_or_below)


class TestKnn:
    def test_k1_recovers_training_point(self):
        data = one_d([0.0, 1.0, 2.0], [0.0, 0.5, 1.0])
        model = fit_knn(data, k=1)
        assert predict(model, [1.0]) == 0.5

    def test_k_equals_n_is_global_mean(self):
        data = one_d([0.0, 1.0, 2.0], [0.0, 0.5, 1.0])
        model = fit_knn(data, k=3)
        assert predict(model, [-5.0]) == pytest.approx(0.5)
        assert predict(model, [100.0]) == pytest.approx(0.5)

    def test_two_nearest_hand_computed(self):
        # query 0.9: nearest are 1.0 then 0.0 (standardization is a
        # monotone map in 1-D, so neighbor order is preserved)
        data = one_d([0.0, 1.0, 2.0], [0.0, 0.5, 1.0])
        model = fit_knn(data, k=2)
        assert predict(model, [0.9]) == pytest.approx(0.25)

    def test_rejects_bad_k(self):
        data = one_d([0.0, 1.0], [0.1, 0.2])
        with pytest.raises(InvalidInput):
            fit_knn(data, k=0)
        with pytest.raises(InvalidInput):
            fit_knn(data, k=3)

    def test_rejects_unlabeled_training_data(self):
        with pytest.raises(InvalidInput):
            fit_knn(Dataset([[1.0]]), k=1)

    def test_dimension_mismatch(self):
        model = fit_knn(one_d([0.0, 1.0], [0.1, 0.2]), k=1)
        with pytest.raises(InvalidInput):
            predict(model, [1.0, 2.0])

    def test_distance_ties_break_to_lower_index(self):
        # two training points equidistant from the query; the earlier row wins
        data = one_d([0.0, 2.0, 5.0], [0.1, 0.9, 0.5])
        model = fit_knn(data, k=1)
        assert predict(model, [1.0]) == 0.1

    def test_per_row_scores_equal_chunked_scores(self):
        # 1,500 queries cross predict_many's distance blocks (BLOCK // 3,000
        # = 43 rows) 34 times; integer features and duplicate train rows
        # force exact distance ties, which only the (distance, index) order
        # of the candidates resolves
        rng = np.random.default_rng(11)
        features = rng.integers(0, 4, size=(3000, 3)).astype(float)
        features[1500:] = features[:1500]
        model = fit_knn(Dataset(features, rng.random(3000)), k=10)
        queries = rng.integers(0, 4, size=(1500, 3)).astype(float)
        batch = predict_many(model, queries)
        rows = np.array([predict(model, x) for x in queries])
        assert np.array_equal(rows, batch)

    @pytest.mark.parametrize("k", [1, 10, 2000])
    def test_partition_top_k_equals_stable_argsort(self, k):
        # 1,000 unique continuous train rows far from 500 distinct integer
        # lattice points, each present twice; lattice queries tie at the k-th
        # distance, which only the (distance, index) order of the candidates
        # resolves, continuous ones do not. 2,100 queries cross the 65-row
        # distance blocks (BLOCK // 2,000) 32 times.
        rng = np.random.default_rng(12)
        grid = np.indices((10, 10, 10)).reshape(3, -1).T.astype(float)
        lattice = grid[rng.choice(len(grid), 500, replace=False)]
        features = np.vstack([rng.uniform(20.0, 24.0, size=(1000, 3)), lattice, lattice])
        model = fit_knn(Dataset(features, rng.random(2000)), k=k)
        queries = np.empty((2100, 3))
        queries[0::2] = rng.integers(0, 10, size=(1050, 3))
        queries[1::2] = rng.uniform(20.0, 24.0, size=(1050, 3))
        expected, at_or_below = _stable_argsort_scores(model, queries)
        assert np.array_equal(predict_many(model, queries).view(np.int64), expected.view(np.int64))
        if k < 2000:  # rows with and without ties at the k-th distance ran
            assert (at_or_below > k).any() and (at_or_below == k).any()

    def test_scores_cross_block_and_selection_boundaries(self):
        # 3,000 train rows: 300 copies of hub a (a query there ties them,
        # under the n // 8 = 375 cutoff), 400 of hub b (sorted whole) and
        # 2,300 integer lattice rows. The padded arrays of near-tied rows
        # fill a selection every 90-100 rows, so 1,200 queries cross the
        # 43-row distance blocks 27 times and the selections 9 times, and
        # rows sorted whole sit between rows selected from candidates.
        rng = np.random.default_rng(19)
        hubs = rng.uniform(10.0, 11.0, size=(2, 3))
        features = np.vstack([np.repeat(hubs, [300, 400], axis=0), rng.integers(0, 4, size=(2300, 3))])
        model = fit_knn(Dataset(features[rng.permutation(3000)], rng.random(3000)), k=10)
        kind = rng.integers(0, 4, size=1200)
        queries = rng.integers(0, 4, size=(1200, 3)).astype(float)
        queries[kind == 0] = hubs[0]
        queries[kind == 1] = hubs[1]
        queries[kind == 3] = rng.uniform(0.0, 3.0, size=(np.count_nonzero(kind == 3), 3))
        batch = predict_many(model, queries)
        expected, at_or_below = _stable_argsort_scores(model, queries)
        assert np.array_equal(batch.view(np.int64), expected.view(np.int64))
        assert np.array_equal(batch, [predict(model, x) for x in queries])
        assert (at_or_below[kind == 0] == 300).all() and (at_or_below[kind == 1] == 400).all()

    def test_empty_batch_scores_to_an_empty_array(self):
        rng = np.random.default_rng(20)
        model = fit_knn(Dataset(rng.random((50, 3)), rng.random(50)), k=5)
        scores = predict_many(model, np.empty((0, 3)))
        assert scores.shape == (0,) and scores.dtype == np.float64

    def test_predict_many_peak_memory_stays_near_one_distance_block(self):
        # monitor-knn's shape; one distance block is BLOCK // 3,000 = 43
        # rows of 3,000 float64, about 1 MB. An (m, n) index array or a
        # second live block would pass the bound.
        rng = np.random.default_rng(15)
        model = fit_knn(Dataset(rng.random((3000, 10)), rng.random(3000)), k=10)
        _, peak = traced_peak(model, rng.random((3000, 10)))
        assert peak < 4_000_000

    def test_predict_many_peak_memory_with_a_long_batch(self):
        # four times monitor-knn's batch: only the (m, k) neighbour index
        # grows with m, and candidates held for the whole batch would pass
        # the bound
        rng = np.random.default_rng(15)
        model = fit_knn(Dataset(rng.random((3000, 10)), rng.random(3000)), k=10)
        _, peak = traced_peak(model, rng.random((12000, 10)))
        assert peak < 8_000_000

    def test_predict_many_peak_memory_with_every_distance_tied(self):
        # identical train rows tie every distance at the bound, so every
        # row is sorted whole, one row at a time; padding candidate arrays
        # to n columns, or indexing every tied entry, would pass the bound
        rng = np.random.default_rng(16)
        features = np.repeat(rng.random((1, 10)), 3000, axis=0)
        model = fit_knn(Dataset(features, rng.random(3000)), k=10)
        scores, peak = traced_peak(model, features)
        assert peak < 4_000_000
        assert np.array_equal(scores, np.full(3000, model.train_errors[:10].mean()))

    def test_predict_many_peak_memory_with_near_tied_rows(self):
        # each of 12,000 queries ties the 300 copies of one of 10 train
        # points, just under the n // 8 = 375 cutoff: 3.6 million
        # candidates, about 58 MB as (column, distance) pairs, are selected
        # about 100 rows at a time
        rng = np.random.default_rng(17)
        points = rng.random((10, 10))
        model = fit_knn(Dataset(points[np.arange(3000) % 10], rng.random(3000)), k=10)
        queries = points[rng.integers(0, 10, 12000)]
        scores, peak = traced_peak(model, queries)
        assert peak < 8_000_000
        assert np.array_equal(scores, _stable_argsort_scores(model, queries)[0])

    def test_predict_many_peak_memory_with_a_few_near_tied_rows(self):
        # one near-tied row among a thousand ordinary ones widens the padded
        # arrays of every row selected with it to 300 columns: a selection
        # bounded by its count of candidates, not by its padded size, held
        # about 3,000 rows x 300 columns, 26 MB
        rng = np.random.default_rng(18)
        features = rng.random((3000, 10))
        features[:300] = 5.0
        model = fit_knn(Dataset(features, rng.random(3000)), k=10)
        queries = rng.random((12000, 10))
        queries[::1000] = 5.0
        scores, peak = traced_peak(model, queries)
        assert peak < 8_000_000
        assert np.array_equal(scores, _stable_argsort_scores(model, queries)[0])

    @pytest.mark.parametrize("value", [1e200, -1e200, 1e308, np.inf, np.nan])
    def test_query_too_far_to_standardize_is_rejected(self, value):
        # (z * z) overflowed to inf, every distance of the row became NaN,
        # and the row scored as the mean of the first k train rows
        rng = np.random.default_rng(13)
        model = fit_knn(Dataset(rng.random((50, 2)), rng.random(50)), k=3)
        queries = rng.random((4, 2))
        queries[2, 0] = value
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidInput, match="query row 2: feature f0"):
                predict_many(model, queries)

    @pytest.mark.parametrize("column", [[1e308, -1e308], [1e308, 1e308], [1e200, 0.0]])
    def test_feature_too_large_to_standardize_is_rejected(self, column):
        # a column whose mean or std overflows was silently standardized
        # by inf, which zeroed it out of every distance
        rng = np.random.default_rng(14)
        features = rng.random((50, 2))
        features[:2, 1] = column
        features[2:, 1] = 0.5
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidInput, match="feature f1"):
                fit_knn(Dataset(features, rng.random(50)), k=3)

    def test_constant_column_guard(self):
        feats = np.column_stack([np.ones(4), [0.0, 1.0, 2.0, 3.0]])
        data = Dataset(feats, [0.0, 0.1, 0.2, 0.3])
        model = fit_knn(data, k=1)
        assert predict(model, [1.0, 2.0]) == 0.2

    def test_feature_permutation_invariance(self):
        rng = np.random.default_rng(3)
        feats = rng.random((50, 4))
        errors = rng.random(50)
        queries = rng.random((10, 4))
        perm = [2, 0, 3, 1]
        m1 = fit_knn(Dataset(feats, errors), k=5)
        m2 = fit_knn(Dataset(feats[:, perm], errors), k=5)
        assert np.array_equal(
            predict_many(m1, queries), predict_many(m2, queries[:, perm])
        )

    def test_determinism(self):
        rng = np.random.default_rng(4)
        data = Dataset(rng.random((80, 3)), rng.random(80))
        queries = rng.random((20, 3))
        m = fit_knn(data, k=7)
        assert np.array_equal(predict_many(m, queries), predict_many(m, queries))

    def test_score_dataset_attaches_scores(self):
        rng = np.random.default_rng(5)
        data = Dataset(rng.random((30, 2)), rng.random(30))
        scored = score_dataset(fit_knn(data, k=3), data)
        assert scored.scores is not None and scored.scores.shape == (30,)


@st.composite
def _distance_rows(draw):
    """A (m, n) matrix over a few values, so ties are frequent, with some
    NaN and +-inf, and a k in [1, n]."""
    n = draw(st.integers(1, 200))
    m = draw(st.integers(1, 6))
    values = st.sampled_from([0.0, -0.0, 1.0, 2.0, 3.0, 4.0, 5.0, np.nan, np.inf, -np.inf])
    plain = st.sampled_from([0.0, 1.0, 2.0, 3.0, 4.0, 5.0])
    d2 = draw(arrays(np.float64, (m, n), elements=st.one_of(plain, values)))
    return d2, draw(st.integers(1, n))


def _crowded_row():
    # n = 200, k = 10: g = 25 groups of w = 8 strided columns, each group
    # holding 8 consecutive values, so the bound is 72 and 73 entries lie
    # at or below it
    return (np.arange(200.0).reshape(25, 8).T.ravel()[None, :], 10)


def _nan_bound_row():
    # n = 16, k = 2: both strided groups hold a NaN, so the bound is NaN
    # though 14 entries are finite; the second row has a finite bound
    d2 = np.vstack([np.r_[np.nan, np.nan, np.arange(14.0)[::-1]], np.arange(16.0)])
    return (d2, 2)


class TestNearest:
    @settings(max_examples=300, deadline=None)
    @given(case=_distance_rows())
    @example(case=(np.ones((3, 50)), 5))  # all-equal rows
    @example(case=(np.tile(np.arange(200.0), (2, 1)), 10))  # sorted ascending
    @example(case=_crowded_row())  # the neighbours crowd into few groups
    @example(case=(np.tile([3.0, 1.0, 1.0, 0.0, 2.0, 1.0, 0.0], (2, 1)), 4))  # n < 8k: w = 1
    @example(case=_nan_bound_row())  # the NaN-bound fallback
    @example(case=(np.full((2, 9), np.nan), 3))
    @example(case=(np.vstack([np.zeros(64), np.arange(64.0)]), 2))  # one row sorted whole
    def test_equals_stable_argsort(self, case):
        d2, k = case
        expected = np.argsort(d2, axis=1, kind="stable")[:, :k]
        assert np.array_equal(_nearest([d2], len(d2), k), expected)
        # in blocks of one row, so candidates of several blocks are selected together
        assert np.array_equal(_nearest(np.split(d2, len(d2)), len(d2), k), expected)


class TestRSquared:
    def test_perfect_fit(self):
        assert r_squared([0.1, 0.5, 0.9], [0.1, 0.5, 0.9]) == 1.0

    def test_mean_baseline_is_zero(self):
        actual = np.array([0.2, 0.4, 0.9])
        pred = np.full(3, actual.mean())
        assert r_squared(pred, actual) == pytest.approx(0.0, abs=1e-12)

    def test_hand_computed_negative(self):
        # ss_res = 1, ss_tot = 2/3 -> 1 - 3/2 = -0.5
        assert r_squared([0.0, 0.0, 1.0], [0.0, 1.0, 1.0]) == pytest.approx(-0.5)

    def test_constant_target_degenerate(self):
        with pytest.raises(DegenerateError):
            r_squared([0.1, 0.2], [0.5, 0.5])

    def test_shape_mismatch(self):
        with pytest.raises(InvalidInput):
            r_squared([0.1], [0.1, 0.2])
        with pytest.raises(InvalidInput):
            r_squared([], [])


class TestSplitHalf:
    def test_partitions_and_is_deterministic(self):
        rng = np.random.default_rng(6)
        data = Dataset(rng.random((21, 2)), rng.random(21))
        a1, b1 = split_half(data, seed=9)
        a2, b2 = split_half(data, seed=9)
        assert a1.n == 10 and b1.n == 11
        assert np.array_equal(a1.features, a2.features)
        assert np.array_equal(b1.features, b2.features)
        merged = np.vstack([a1.features, b1.features])
        assert np.array_equal(
            np.sort(merged, axis=0), np.sort(data.features, axis=0)
        )

    def test_too_small(self):
        with pytest.raises(InvalidInput):
            split_half(Dataset([[1.0]], [0.1]), seed=0)
