"""Synthetic shift generation: scenario enumeration, pool splitting,
schedules, and the subgroup-failure dataset generator."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shiftwatch import Dataset
from shiftwatch.shiftsim import (
    MIN_SUBGROUP,
    SPLIT_KINDS,
    Schedule,
    ShiftScenario,
    build_stream,
    enumerate_scenarios,
    make_subgroup_dataset,
    sigmoid_mixture,
    split_pools,
    subgroup_feature_kinds,
)
from shiftwatch.errors import ConfigError, InvalidInput
from test_acceptance import SUITE_GEN


class TestScenarioEnumeration:
    def test_three_continuous_features_six_scenarios(self):
        rng = np.random.default_rng(0)
        data = Dataset(rng.random((100, 3)), rng.random(100))
        scenarios = enumerate_scenarios(data, ["continuous"] * 3)
        assert len(scenarios) == 6
        kinds = {(s.feature_index, s.split_kind) for s in scenarios}
        assert (0, "above_median") in kinds and (2, "below_median") in kinds

    def test_categorical_feature_one_scenario_per_category(self):
        rng = np.random.default_rng(1)
        # four categories at 25 rows each: all large enough, none a majority
        col = np.repeat([0.0, 1.0, 2.0, 3.0], 25)
        data = Dataset(np.column_stack([col, rng.random(100)]), rng.random(100))
        scenarios = enumerate_scenarios(data, ["categorical", "continuous"])
        cat = [s for s in scenarios if s.split_kind == "category"]
        assert len(cat) == 4
        assert {s.category_value for s in cat} == {0.0, 1.0, 2.0, 3.0}

    def test_small_category_dropped(self):
        col = np.array([0.0] * 95 + [1.0] * 5)
        data = Dataset(col.reshape(-1, 1), np.random.default_rng(2).random(100))
        scenarios = enumerate_scenarios(data, ["categorical"])
        # category 1 has 5 rows (< 10); category 0 holds 95 rows (> half)
        assert scenarios == []

    def test_majority_ablation_dropped(self):
        col = np.array([0.0] * 80 + [1.0] * 20)
        data = Dataset(col.reshape(-1, 1), np.random.default_rng(3).random(100))
        scenarios = enumerate_scenarios(data, ["categorical"])
        assert [s.category_value for s in scenarios] == [1.0]

    def test_small_continuous_side_dropped(self):
        rng = np.random.default_rng(4)
        data = Dataset(rng.random((20, 1)), rng.random(20))
        # above side has 10 rows, 0.8 * 10 = 8 < 10 -> dropped both ways
        assert enumerate_scenarios(data, ["continuous"]) == []

    def test_kind_list_must_cover_features(self):
        data = Dataset(np.random.default_rng(5).random((30, 2)), None)
        with pytest.raises(InvalidInput):
            enumerate_scenarios(data, ["continuous"])

    def test_zero_ablation_fraction_is_config_error(self):
        data = Dataset(np.random.default_rng(5).random((100, 1)), None)
        with pytest.raises(ConfigError, match="ablation_fraction"):
            enumerate_scenarios(data, ["continuous"], 0.0)

    def test_close_categories_get_distinct_ids(self):
        # both values print as 0.123456 under :g
        ids = [ShiftScenario(0, "category", v).scenario_id for v in (0.1234561, 0.1234562, 1.0, 2.5)]
        assert ids == ["f0_category_0.1234561", "f0_category_0.1234562", "f0_category_1", "f0_category_2.5"]

    @settings(max_examples=200, deadline=None)
    @given(
        st.one_of(
            st.tuples(
                st.just("continuous"),
                # few distinct values, so that the median is often tied
                st.lists(st.integers(0, 6).map(float) | st.floats(0.0, 1.0), min_size=1, max_size=80),
            ),
            st.tuples(
                st.just("categorical"),
                st.lists(st.sampled_from([0.0, 1.0, 2.0, 0.1234561, 0.1234562]), min_size=1, max_size=80),
            ),
        ),
        st.sampled_from([0.3, 0.8, 1.0]),
    )
    def test_enumeration_and_split_pools_agree(self, kind_and_col, fraction):
        """A scenario is admitted exactly when split_pools excludes between
        MIN_SUBGROUP and n // 2 rows, and that pool has the scenario's
        excluded count of rows, all from its side."""
        kind, values = kind_and_col
        col = np.array(values)
        data = Dataset(col.reshape(-1, 1), None)
        admitted = enumerate_scenarios(data, [kind], fraction)
        if kind == "continuous":
            candidates = [ShiftScenario(0, split, ablation_fraction=fraction) for split in SPLIT_KINDS[:2]]
        else:
            candidates = [
                ShiftScenario(0, "category", float(v), ablation_fraction=1.0) for v in np.unique(col)
            ]
        for scenario in candidates:
            side = scenario.side(col)
            try:
                _, excluded = split_pools(data, scenario, seed=0)
            except InvalidInput:  # an empty pool on either side
                assert scenario.excluded_count(side.size) in (0, data.n)
                assert scenario not in admitted
                continue
            assert excluded.n == scenario.excluded_count(side.size)
            assert np.isin(excluded.features[:, 0], col[side]).all()
            admissible = MIN_SUBGROUP <= excluded.n <= data.n // 2
            assert (scenario in admitted) == admissible
        assert all(s in candidates for s in admitted)


class TestSplitPools:
    def test_continuous_hand_count(self):
        values = np.arange(1.0, 11.0)  # 1..10, median = 5
        data = Dataset(values.reshape(-1, 1), np.full(10, 0.5))
        scenario = ShiftScenario(0, "above_median", ablation_fraction=0.8)
        retained, excluded = split_pools(data, scenario, seed=3)
        # side {6..10} has 5 rows; floor(0.8 * 5) = 4 go to excluded
        assert excluded.n == 4
        assert np.all(excluded.features[:, 0] > 5)
        assert retained.n == 6

    def test_category_takes_whole_group(self):
        col = np.array([0.0] * 12 + [1.0] * 20)
        data = Dataset(col.reshape(-1, 1), np.full(32, 0.5))
        scenario = ShiftScenario(0, "category", category_value=0.0)
        retained, excluded = split_pools(data, scenario, seed=0)
        assert excluded.n == 12
        assert np.all(excluded.features[:, 0] == 0.0)

    def test_partition_property(self):
        rng = np.random.default_rng(6)
        data = Dataset(rng.random((60, 2)), rng.random(60))
        for kind in ("above_median", "below_median"):
            retained, excluded = split_pools(data, ShiftScenario(1, kind), seed=9)
            assert retained.n + excluded.n == data.n
            merged = np.vstack([retained.features, excluded.features])
            assert np.array_equal(
                np.sort(merged, axis=0), np.sort(data.features, axis=0)
            )

    def test_seeded_and_deterministic(self):
        rng = np.random.default_rng(7)
        data = Dataset(rng.random((60, 1)), rng.random(60))
        s = ShiftScenario(0, "above_median")
        _, e1 = split_pools(data, s, seed=11)
        _, e2 = split_pools(data, s, seed=11)
        assert np.array_equal(e1.features, e2.features)

    def test_scenario_validation(self):
        with pytest.raises(InvalidInput):
            ShiftScenario(0, "sideways")
        with pytest.raises(InvalidInput):
            ShiftScenario(0, "category")
        with pytest.raises(InvalidInput):
            ShiftScenario(0, "above_median", ablation_fraction=0.0)


class TestSigmoid:
    def test_midpoint(self):
        assert sigmoid_mixture(100, 100) == 0.5

    def test_plus_five(self):
        expected = 1.0 / (1.0 + math.exp(-5.0))
        assert sigmoid_mixture(105, 100) == pytest.approx(expected, rel=1e-12)

    def test_symmetry(self):
        t0 = 50
        for t in (30, 42, 49, 61):
            assert sigmoid_mixture(t, t0) + sigmoid_mixture(2 * t0 - t, t0) == pytest.approx(1.0)

    def test_far_off_times_and_arrays(self):
        # the exponent is clipped: a far-off t gives a probability, not an
        # OverflowError
        for t, t0 in ((0, 1000), (10**6, 0), (-(10**9), 10**9)):
            value = sigmoid_mixture(t, t0)
            assert math.isfinite(value) and 0.0 <= value <= 1.0
        t = np.arange(1, 2001)
        assert np.array_equal(sigmoid_mixture(t, 1000), [sigmoid_mixture(int(x), 1000) for x in t])


class TestBuildStream:
    @pytest.fixture
    def pools(self):
        rng = np.random.default_rng(8)
        retained = Dataset(np.zeros((50, 1)), rng.random(50) * 0.2)
        excluded = Dataset(np.ones((30, 1)), 0.8 + rng.random(30) * 0.2)
        return retained, excluded

    def test_schedule_none_only_retained(self, pools):
        retained, excluded = pools
        stream = build_stream(retained, excluded, Schedule("none", 200), seed=0)
        assert stream.horizon == 200
        assert np.all(stream.features[:, 0] == 0.0)

    def test_sudden_switches_at_onset(self, pools):
        retained, excluded = pools
        stream = build_stream(retained, excluded, Schedule("sudden", 100, onset=40), seed=0)
        assert np.all(stream.features[:39, 0] == 0.0)
        assert np.all(stream.features[39:, 0] == 1.0)

    def test_sigmoid_fraction_matches_analytic_mean(self, pools):
        retained, excluded = pools
        horizon, t0 = 3000, 1500
        stream = build_stream(
            retained, excluded, Schedule("sigmoid", horizon, onset=t0), seed=12
        )
        window = stream.features[2000:, 0]
        t = np.arange(2001, horizon + 1)
        analytic = float(np.mean(1.0 / (1.0 + np.exp(-(t - t0).astype(float)))))
        assert window.mean() == pytest.approx(analytic, abs=0.05)

    def test_reproducible(self, pools):
        retained, excluded = pools
        s1 = build_stream(retained, excluded, Schedule("sudden", 100, onset=50), seed=5)
        s2 = build_stream(retained, excluded, Schedule("sudden", 100, onset=50), seed=5)
        assert np.array_equal(s1.features, s2.features)
        assert np.array_equal(s1.errors, s2.errors)

    def test_errors_need_every_pool_drawn_from_to_be_labeled(self, pools):
        # each event gathers its row's features and error; the excluded
        # events of an unlabeled excluded pool kept the errors of the
        # retained rows they replaced
        retained, excluded = pools
        stream = build_stream(retained, excluded, Schedule("sigmoid", 200, onset=100), seed=3)
        for name in ("features", "errors"):
            pooled = np.concatenate([getattr(retained, name), getattr(excluded, name)])
            assert np.array_equal(getattr(stream, name), pooled[stream.rows])
        unlabeled = Dataset(excluded.features)
        stream = build_stream(retained, unlabeled, Schedule("sudden", 10, onset=6), seed=0)
        assert np.all(stream.features[5:, 0] == 1.0)
        assert stream.errors is None
        stream = build_stream(retained, unlabeled, Schedule("none", 10), seed=0)
        assert np.array_equal(stream.errors, retained.errors[stream.rows])

    @settings(max_examples=200, deadline=None)
    @given(
        st.sampled_from(["none", "sudden", "sigmoid"]),
        st.integers(1, 60),
        st.integers(1, 20),
        st.integers(0, 20),
        st.integers(1, 3),
        st.sampled_from(["both", "test", "excluded", "neither"]),
        st.integers(0, 2**32 - 1),
        st.data(),
    )
    def test_gather_is_the_concatenated_pools_gather(self, kind, horizon, n_test, n_excluded, d, labeled, seed, data):
        """Each event's features and error, gathered from its own pool,
        are bit for bit those the stream read from a copy of its pools laid
        end to end, for every schedule, a stream drawn only from the test
        pool and an unlabeled pool of either kind."""
        rng = np.random.default_rng(seed)
        test = Dataset(rng.normal(size=(n_test, d)), rng.random(n_test) if labeled in ("both", "test") else None)
        excluded = None
        if n_excluded:
            errors = rng.random(n_excluded) if labeled in ("both", "excluded") else None
            excluded = Dataset(rng.normal(size=(n_excluded, d)), errors)
        elif kind != "none":
            kind = "none"  # a shifting schedule needs an excluded pool
        onset = data.draw(st.none() | st.integers(1, horizon)) if kind != "none" else None
        stream = build_stream(test, excluded, Schedule(kind, horizon, onset), seed)
        pools = [test] + ([excluded] if (stream.rows >= test.n).any() else [])
        reference = np.concatenate([p.features for p in pools])[stream.rows]
        assert stream.features.tobytes() == reference.tobytes()
        if all(p.errors is not None for p in pools):
            reference = np.concatenate([p.errors for p in pools])[stream.rows]
            assert stream.errors.tobytes() == reference.tobytes()
        else:
            assert stream.errors is None

    def test_empty_excluded_rejected(self, pools):
        retained, _ = pools
        with pytest.raises(InvalidInput):
            build_stream(retained, None, Schedule("sudden", 100, onset=50), seed=0)

    def test_schedule_validation(self):
        with pytest.raises(InvalidInput):
            Schedule("sometimes", 100)
        with pytest.raises(InvalidInput):
            Schedule("sudden", 100, onset=0)
        with pytest.raises(InvalidInput):
            Schedule("sudden", 100, onset=101)

    def test_onset_defaults_to_half_the_horizon(self):
        assert Schedule("sudden", 100).onset == 50
        assert Schedule("sigmoid", 101).onset == 50
        assert Schedule("sudden", 1).onset == 1
        assert Schedule("none", 100).onset is None


class TestSubgroupGenerator:
    def test_reproducible_and_bounded(self):
        a = make_subgroup_dataset(500, seed=3)
        b = make_subgroup_dataset(500, seed=3)
        assert np.array_equal(a.features, b.features)
        assert np.array_equal(a.errors, b.errors)
        assert a.errors.min() >= 0.0 and a.errors.max() <= 1.0

    def test_zone_errors_elevated(self):
        data = make_subgroup_dataset(
            4000, subgroup_frac=0.3, base_error=0.15, error_ratio=3.0, seed=4
        )
        zone = data.features[:, 0] > 0.7
        assert data.errors[zone].mean() == pytest.approx(0.45, abs=0.02)
        assert data.errors[~zone].mean() == pytest.approx(0.15, abs=0.02)

    def test_feature_kinds_match_columns(self):
        for kwargs in (
            {},
            {"hidden_prob": 0.2},
            {"grade_coef": 0.05},
            {"second_zone_frac": 0.1},
            {
                "second_zone_frac": 0.1,
                "immune_anchor": "second",
                "immune_frac": 0.05,
                "masked_frac": 0.08,
            },
            SUITE_GEN,
        ):
            data = make_subgroup_dataset(300, seed=0, **kwargs)
            kinds = subgroup_feature_kinds(**kwargs)
            assert len(kinds) == data.d
            for j, kind in enumerate(kinds):
                distinct = np.unique(data.features[:, j])
                if kind == "categorical":
                    assert set(distinct) <= {0.0, 1.0}, (kwargs, j)
                else:
                    assert kind == "continuous" and distinct.size > 2, (kwargs, j)

    def test_feature_kinds_reject_an_unknown_key(self):
        # make_subgroup_dataset takes grade_coef; a misspelt key used to be dropped
        with pytest.raises(InvalidInput, match="grade_coeff"):
            subgroup_feature_kinds(grade_coeff=0.1)

    def test_immune_anchor_validation(self):
        with pytest.raises(InvalidInput, match="^unknown immune anchor 'nowhere'$"):
            make_subgroup_dataset(100, immune_anchor="nowhere")
        with pytest.raises(InvalidInput, match="^anchoring to the second zone requires one$"):
            make_subgroup_dataset(100, immune_anchor="second", immune_frac=0.1)

    @pytest.mark.parametrize(
        "keywords, message",
        [
            ({"subgroup_frac": -0.1}, "subgroup_frac must lie in [0, 1], got -0.1"),
            ({"immune_frac": 1.2, "masked_frac": 0.3}, "immune_frac must lie in [0, 1], got 1.2"),
            ({"masked_frac": 1.5}, "masked_frac must lie in [0, 1], got 1.5"),
            ({"second_zone_frac": float("nan")}, "second_zone_frac must lie in [0, 1], got nan"),
            ({"hidden_prob": 2.0}, "hidden_prob must lie in [0, 1], got 2.0"),
            ({"coin_prob": -1.0}, "coin_prob must lie in [0, 1], got -1.0"),
            ({"immune_frac": 0.8, "masked_frac": 0.3}, "immune_frac + masked_frac must not exceed 1, got 0.8 + 0.3"),
            ({"hidden_prob": 0.8, "coin_prob": 0.5}, "hidden_prob + coin_prob must not exceed 1, got 0.8 + 0.5"),
        ],
    )
    def test_fractions_are_checked(self, keywords, message):
        # out-of-range fractions built silently: immune_frac 1.2 flagged
        # every row immune and left the masked flag column all zero
        with pytest.raises(InvalidInput) as exc:
            make_subgroup_dataset(1000, seed=1, **keywords)
        assert str(exc.value) == message

    def test_fractions_at_their_limits_build(self):
        limits = ({"subgroup_frac": 1.0}, {"immune_frac": 0.7, "masked_frac": 0.3}, {"hidden_prob": 0.5, "coin_prob": 0.5})
        for keywords in limits:
            assert make_subgroup_dataset(50, seed=1, **keywords).n == 50
