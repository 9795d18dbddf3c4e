"""k-NN error estimator, R^2 diagnostic, and external score ingestion."""

import os
import pathlib
import subprocess
import sys
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from shiftwatch import Dataset, estimator, fit_knn
from shiftwatch.errors import DegenerateError, InvalidInput, QueryRowError
from shiftwatch.estimator import BLOCK, KnnModel, predict_many, r_squared, score_dataset, split_half


SRC = pathlib.Path(__file__).resolve().parent.parent / "src"


def _has_avx2() -> bool:
    try:
        from numpy._core._multiarray_umath import __cpu_features__
    except ImportError:
        return False
    return bool(__cpu_features__.get("AVX2"))


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


def _exact_d2(model, x):
    """Every exact distance of query rows ``x``, shape (m, n): the squares
    of z_p - t_p summed in float64 in feature order, as prediction decides
    neighbours."""
    z = (np.asarray(x, dtype=float) - model.feature_means) / model.feature_stds
    d2 = np.zeros((z.shape[0], model.train_features.shape[0]))
    diff = np.empty_like(d2)
    for p in range(z.shape[1]):
        np.subtract(z[:, p, None], model.train_features[:, p], out=diff)
        d2 += np.square(diff, out=diff)
    return d2


def _stable_argsort_scores(model, x):
    """The reference scorer: a stable argsort of every exact distance row.
    Returns the scores and, per query row, how many train rows lie at or
    below its k-th distance."""
    x = np.asarray(x, dtype=float)
    chunk = max(1, 1_000_000 // model.train_features.shape[0])
    scores, at_or_below = [], []
    for lo in range(0, x.shape[0], chunk):
        d2 = _exact_d2(model, x[lo : lo + chunk])
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
        # 1,500 queries cross predict_many's screen blocks (BLOCK // 3,000
        # = 87 rows) 17 times; integer features and duplicate train rows
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
        # resolves, continuous ones do not. 2,100 queries cross the 131-row
        # screen blocks (BLOCK // 2,000) 16 times.
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
        # 2,300 integer lattice rows. 1,200 queries cross the 87-row screen
        # blocks, each one selection, 13 times, and rows sorted whole sit
        # between rows selected from candidates.
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

    @pytest.mark.parametrize("seed", range(3))
    def test_row_scores_do_not_depend_on_the_batch(self, seed):
        # 84 identical train rows at one random point among 358, k = 1: the
        # float64 matrix product that picked neighbours rounded one of them
        # apart from the rest in products of 16 or more query rows, not of
        # 8 or fewer, so a query near them took another neighbour in a
        # batch of 32 than alone
        rng = np.random.default_rng(seed)
        hub = rng.uniform(0.0, 1.0, 10)
        features = rng.uniform(0.0, 1.0, (358, 10))
        features[rng.choice(358, 84, replace=False)] = hub
        model = fit_knn(Dataset(features, rng.random(358)), k=1)
        queries = hub + rng.uniform(-0.01, 0.01, (32, 10))
        assert np.array_equal(predict_many(model, queries), [predict(model, x) for x in queries])

    @pytest.mark.skipif(not _has_avx2(), reason="the Haswell kernels need an x86-64 CPU with AVX2")
    def test_scores_do_not_depend_on_the_blas_kernel(self):
        # queries halfway between two train rows tie in exact arithmetic;
        # OpenBLAS's Sandybridge kernels multiply and add, its Haswell ones
        # fuse, so a product of the two rounds such ties apart differently
        code = (
            "import sys\n"
            "import numpy as np\n"
            "from shiftwatch import Dataset, fit_knn\n"
            "from shiftwatch.estimator import predict_many\n"
            "rng = np.random.default_rng(0)\n"
            "train = rng.standard_normal((400, 10))\n"
            "model = fit_knn(Dataset(train, rng.random(400)), k=1)\n"
            "i, j = rng.integers(0, 400, size=(2, 3000))\n"
            "sys.stdout.write(predict_many(model, (train[i] + train[j]) / 2).tobytes().hex())\n"
        )
        outputs = []
        for core in ("Sandybridge", "Haswell"):
            env = dict(os.environ, OPENBLAS_CORETYPE=core, OPENBLAS_NUM_THREADS="1")
            env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
            proc = subprocess.run(
                [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120
            )
            assert proc.returncode == 0, proc.stderr
            outputs.append(proc.stdout)
        assert outputs[0] == outputs[1]

    def test_empty_batch_scores_to_an_empty_array(self):
        rng = np.random.default_rng(20)
        model = fit_knn(Dataset(rng.random((50, 3)), rng.random(50)), k=5)
        scores = predict_many(model, np.empty((0, 3)))
        assert scores.shape == (0,) and scores.dtype == np.float64

    def test_predict_many_peak_memory_stays_near_one_distance_block(self):
        # monitor-knn's shape; one screen block is BLOCK // 3,000 = 87
        # rows of 3,000 float32, about 1 MB, and its mask 0.26 MB. An
        # (m, n) index array would pass the bound.
        rng = np.random.default_rng(15)
        model = fit_knn(Dataset(rng.random((3000, 10)), rng.random(3000)), k=10)
        _, peak = traced_peak(model, rng.random((3000, 10)))
        assert peak < 4_000_000

    def test_predict_many_peak_memory_with_a_long_batch(self):
        # four times monitor-knn's batch: only the (m,) scores grow with m,
        # and candidates held for the whole batch would pass the bound
        rng = np.random.default_rng(15)
        model = fit_knn(Dataset(rng.random((3000, 10)), rng.random(3000)), k=10)
        _, peak = traced_peak(model, rng.random((12000, 10)))
        assert peak < 4_000_000

    def test_predict_many_peak_memory_with_a_hundred_thousand_rows(self):
        # the (m,) scores, 0.8 MB, are the only array that grows with the
        # batch; a standardized copy of the queries (8 MB) or an (m, k)
        # neighbour index (8 MB) would pass the bound
        rng = np.random.default_rng(15)
        model = fit_knn(Dataset(rng.random((3000, 10)), rng.random(3000)), k=10)
        queries = rng.random((100_000, 10))
        scores, peak = traced_peak(model, queries)
        assert peak < 4_000_000
        assert np.array_equal(scores[::997], predict_many(model, queries[::997]))

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
        # one 87-row block at a time
        rng = np.random.default_rng(17)
        points = rng.random((10, 10))
        model = fit_knn(Dataset(points[np.arange(3000) % 10], rng.random(3000)), k=10)
        queries = points[rng.integers(0, 10, 12000)]
        scores, peak = traced_peak(model, queries)
        assert peak < 4_000_000
        assert np.array_equal(scores, _stable_argsort_scores(model, queries)[0])

    def test_predict_many_peak_memory_with_a_few_near_tied_rows(self):
        # one near-tied row among a thousand ordinary ones widens the padded
        # arrays of its block's rows to 300 columns: a selection
        # bounded by its count of candidates, not by its padded size, held
        # about 3,000 rows x 300 columns, 26 MB
        rng = np.random.default_rng(18)
        features = rng.random((3000, 10))
        features[:300] = 5.0
        model = fit_knn(Dataset(features, rng.random(3000)), k=10)
        queries = rng.random((12000, 10))
        queries[::1000] = 5.0
        scores, peak = traced_peak(model, queries)
        assert peak < 4_000_000
        assert np.array_equal(scores, _stable_argsort_scores(model, queries)[0])

    @pytest.mark.parametrize("near_tied", [False, True], ids=["spread", "near-tied"])
    def test_each_block_is_one_selection(self, monkeypatch, near_tied):
        # monitor-knn's shape, 87-row blocks of n = 3,000, with about 10
        # candidates a row, or 300 for queries at one of 10 points copied
        # 300 times each: _select runs once a block, on all of its rows,
        # and pads them to at most max(k, n // 8) = 375 columns
        rng = np.random.default_rng(15)
        if near_tied:
            points = rng.random((10, 10))
            features, queries = points[np.arange(3000) % 10], points[rng.integers(0, 10, 3000)]
        else:
            features, queries = rng.random((3000, 10)), rng.random((3000, 10))
        model = fit_knn(Dataset(features, rng.random(3000)), k=10)
        blocks, selections = [], []
        nearest, select = estimator._nearest, estimator._select

        def recorded_nearest(model, x, lo, scratch):
            blocks.append(len(x))
            return nearest(model, x, lo, scratch)

        def recorded_select(counts, cols, d2, k, n):
            selections.append((counts.size, max(k, int(counts.max()))))
            return select(counts, cols, d2, k, n)

        monkeypatch.setattr(estimator, "_nearest", recorded_nearest)
        monkeypatch.setattr(estimator, "_select", recorded_select)
        predict_many(model, queries)
        assert blocks == [87] * 34 + [42]
        assert [rows for rows, _ in selections] == blocks
        widths = {width for _, width in selections}
        assert max(widths) <= 375
        assert widths == {300} or not near_tied

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


def _far_queries(model, m, rng):
    """m query rows 10^0 to 10^150 standard deviations from the training
    mean: past about 10^15 their screen values could overflow float32."""
    d = len(model.feature_means)
    signs = rng.choice([-1.0, 1.0], size=(m, d))
    return model.feature_means + model.feature_stds * signs * 10.0 ** rng.uniform(0.0, 150.0, size=(m, 1))


@st.composite
def _screen_cases(draw):
    """A k-NN model and query rows that stress the screen's bound: a tight
    cluster of rows away from the training mean, whose distances to a
    query nearby differ by less than the float32 screen's rounding error;
    copies of cluster rows, which tie at the bound; and queries at a
    cluster row, halfway between two (a near-tie), near the cluster, in
    the bulk, or far enough out to take the overflow fallback."""
    d = draw(st.integers(1, 6))
    n_bulk, n_cluster, copies = draw(st.integers(0, 60)), draw(st.integers(1, 40)), draw(st.integers(0, 30))
    spread = draw(st.sampled_from([0.0, 1e-9, 1e-6, 1e-3]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    cluster = rng.uniform(5.0, 20.0, d) + spread * rng.standard_normal((n_cluster, d))
    features = np.vstack([rng.standard_normal((n_bulk, d)), cluster, cluster[rng.integers(0, n_cluster, copies)]])
    n = len(features)
    model = fit_knn(Dataset(features[rng.permutation(n)], rng.random(n)), k=draw(st.integers(1, n)))
    m = draw(st.integers(1, 8))

    def at_cluster():
        return cluster[rng.integers(0, n_cluster, m)]

    kind = rng.integers(0, 5, size=(m, 1))
    choices = [
        at_cluster(),
        (at_cluster() + at_cluster()) / 2,
        at_cluster() + spread * rng.standard_normal((m, d)),
        rng.standard_normal((m, d)),
    ]
    queries = np.select([kind == 0, kind == 1, kind == 2, kind == 3], choices, _far_queries(model, m, rng))
    return model, queries


def _one_d_case(values, k, queries):
    model = fit_knn(one_d(values, np.linspace(0.0, 1.0, len(values))), k=k)
    return model, np.asarray(queries, dtype=float).reshape(-1, 1)


def _crowded_case():
    # n = 200, k = 10: g = 25 groups of w = 8 strided columns, each group
    # holding 8 consecutive values, so the query at the smallest has 73
    # train rows at or below its unwidened bound
    return _one_d_case(np.arange(200.0).reshape(25, 8).T.ravel(), 10, [0.0, 3.5])


def _far_case():
    # a 50-row fit: the far rows are sorted whole, the others screened
    rng = np.random.default_rng(13)
    model = fit_knn(Dataset(rng.random((50, 3)), rng.random(50)), k=3)
    queries = rng.random((6, 3))
    queries[::2, 0] = [1e16, 1e20, 1e100]
    return model, queries


def _nearest_indices(model, queries):
    """The (m, k) columns that _nearest returns for the blocks of one
    predict_many call on ``queries``."""
    found = []

    def recorded(*args):
        found.append(nearest(*args))
        return found[-1]

    nearest = estimator._nearest
    with mock.patch.object(estimator, "_nearest", recorded):
        predict_many(model, queries)
    return np.concatenate(found)


class TestNearest:
    @settings(max_examples=300, deadline=None)
    @given(case=_screen_cases())
    @example(case=_one_d_case(np.full(50, 0.3), 5, [0.3, 0.3, 0.3]))  # all tied
    @example(case=_one_d_case(np.arange(200.0), 10, [0.0, 0.0]))  # sorted ascending
    @example(case=_crowded_case())  # the neighbours crowd into few groups
    @example(case=_one_d_case([3.0, 1.0, 1.0, 0.0, 2.0, 1.0, 0.0], 4, [0.5, 1.0]))  # n < 8k: w = 1
    @example(case=_far_case())  # the overflow fallback
    def test_equals_stable_argsort(self, case):
        model, queries = case
        expected = np.argsort(_exact_d2(model, queries), axis=1, kind="stable")[:, : model.k]
        assert np.array_equal(_nearest_indices(model, queries), expected)
        # one row a call, so each row is screened and selected in a block of its own
        rows = [_nearest_indices(model, q) for q in np.split(queries, len(queries))]
        assert np.array_equal(np.concatenate(rows), expected)


@st.composite
def _scoring_cases(draw):
    """A k-NN model over integer lattice rows (exact ties and duplicate
    rows) and two hubs of identical rows: a query at the first ties its
    copies at the bound and is selected from them, a query at the second
    has more than n // 8 rows at the bound and is sorted whole. Up to
    three BLOCK // n-row screen blocks and a row of queries among the
    hubs, lattice and other points cross the blocks and the selections;
    sorted cut points of the batch; and a non-finite cell to plant, as
    (row, column, value), past the first block when the batch is.

    Every value is a multiple of 1/16 and every mean and std a power of
    two or an integer, so each standardized value and each distance is
    exact, and lattice rows tie exactly."""
    n = draw(st.integers(100, 600))
    k = draw(st.integers(1, 12))
    limit = max(k, n // 8)
    copies = [draw(st.integers(k, limit)), draw(st.integers(limit + 1, 2 * limit))]
    step = BLOCK // n
    m = draw(st.integers(1, 3 * step + 1))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    means, stds = np.array([1.0, 2.0, 0.0]), np.array([1.0, 2.0, 0.5])
    hubs = rng.integers(10, 12, size=(2, 3)) + [[0.0, 0.0, 0.0], [0.5, 0.0, 0.0]]  # never equal
    raw = np.vstack([np.repeat(hubs, copies, axis=0), rng.integers(0, 4, size=(n - sum(copies), 3))])
    train = (raw[rng.permutation(n)] - means) / stds
    screen = np.vstack([train.T, (train * train).sum(axis=1)]).astype(np.float32)
    model = KnnModel(k, train, rng.random(n), means, stds, screen)
    kind = rng.integers(0, 4, size=m)
    queries = rng.integers(0, 4, size=(m, 3)).astype(float)
    queries[kind == 0] = hubs[0]
    queries[kind == 1] = hubs[1]
    queries[kind == 3] = rng.integers(0, 48, size=(np.count_nonzero(kind == 3), 3)) / 16
    cuts = sorted(draw(st.lists(st.integers(0, m), max_size=6)))
    bad = (
        draw(st.integers(min(step, m - 1), m - 1)),
        draw(st.integers(0, 2)),
        draw(st.sampled_from([np.inf, -np.inf, np.nan, 1e200])),
    )
    return model, queries, cuts, bad


class TestBlockScoring:
    @settings(max_examples=25, deadline=None)
    @given(case=_scoring_cases())
    def test_blocks_equal_stable_argsort_and_any_cut(self, case):
        model, queries, cuts, (row, column, value) = case
        scores = predict_many(model, queries)
        expected, _ = _stable_argsort_scores(model, queries)
        assert np.array_equal(scores.view(np.int64), expected.view(np.int64))
        pieces = np.concatenate([predict_many(model, q) for q in np.split(queries, cuts)])
        assert np.array_equal(pieces.view(np.int64), scores.view(np.int64))
        # the first non-finite row, in whichever block, is named by its
        # index in the whole batch; a later one is never reached
        queries[row, column] = value
        queries[row + 1 :: 7, 0] = np.nan
        with pytest.raises(QueryRowError) as exc:
            predict_many(model, queries)
        assert exc.value.row == row
        assert exc.value.message.startswith(f"feature f{column} = {value!r}")


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
