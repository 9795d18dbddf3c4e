"""Synthetic shift generation.

Feature-split ablation carves a subgroup out of a labeled pool (the
excluded pool), and production streams reintroduce that subgroup either
suddenly or along a sigmoid mixing schedule. A small synthetic
subgroup-failure dataset generator is included for experiments and tests.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from .core import Dataset, empirical_quantile
from .errors import ConfigError, InvalidInput

CONTINUOUS = "continuous"
CATEGORICAL = "categorical"

DEFAULT_ABLATION_FRACTION = 0.8
MIN_SUBGROUP = 10
IMMUNE_BAND = 0.05


@dataclass(frozen=True)
class ShiftScenario:
    """Recipe for one feature-split ablation."""

    feature_index: int
    split_kind: str  # above_median | below_median | category
    category_value: Optional[float] = None
    ablation_fraction: float = DEFAULT_ABLATION_FRACTION
    seed: int = 0

    def __post_init__(self):
        if self.split_kind not in ("above_median", "below_median", "category"):
            raise InvalidInput(f"unknown split kind {self.split_kind!r}")
        if self.split_kind == "category" and self.category_value is None:
            raise InvalidInput("category splits need a category value")
        if not 0.0 < self.ablation_fraction <= 1.0:
            raise InvalidInput("ablation fraction must lie in (0, 1]")

    @property
    def scenario_id(self) -> str:
        if self.split_kind == "category":
            return f"f{self.feature_index}_category_{self.category_value:g}"
        return f"f{self.feature_index}_{self.split_kind}"


@dataclass(frozen=True)
class Schedule:
    """Production schedule: none, sudden(T), or sigmoid(t0). A given onset
    lies in [1, horizon] whatever the kind; a shifting schedule without
    one shifts at half the horizon (at least 1)."""

    kind: str  # none | sudden | sigmoid
    horizon: int
    onset: Optional[int] = None

    def __post_init__(self):
        if self.kind not in ("none", "sudden", "sigmoid"):
            raise ConfigError("schedule", f"unknown schedule {self.kind!r}")
        if self.horizon < 1:
            raise ConfigError("horizon", "must be >= 1")
        if self.onset is not None and not 1 <= self.onset <= self.horizon:
            raise ConfigError("onset", "must lie in [1, horizon]")
        if self.kind != "none" and self.onset is None:
            object.__setattr__(self, "onset", max(1, self.horizon // 2))


def sigmoid_mixture(t, t0):
    """Probability of drawing a shifted observation at time t (scalar or
    array): the logistic 1 / (1 + exp(-(t - t0))), exponent clipped to
    [-700, 700] so that far-off times give 0 or 1, not an overflow."""
    z = np.clip(np.asarray(t - t0, dtype=float), -700.0, 700.0)
    return 1.0 / (1.0 + np.exp(-z))


def enumerate_scenarios(
    data: Dataset,
    feature_kinds: Sequence[str],
    ablation_fraction: float = DEFAULT_ABLATION_FRACTION,
    base_seed: int = 0,
) -> List[ShiftScenario]:
    """All feature-split scenarios for a dataset: two per continuous feature
    (above/below median), one per category of each categorical feature.
    Scenarios whose excluded subgroup would hold fewer than ``MIN_SUBGROUP``
    observations, or more than half the dataset, are dropped: an ablated
    majority is not a subgroup shift."""
    if len(feature_kinds) != data.d:
        raise InvalidInput("feature kinds must be declared for every feature")
    scenarios: List[ShiftScenario] = []
    for j, kind in enumerate(feature_kinds):
        col = data.features[:, j]
        if kind == CONTINUOUS:
            median = empirical_quantile(0.5, col)
            for split, side in (
                ("above_median", int((col > median).sum())),
                ("below_median", int((col <= median).sum())),
            ):
                n_excl = int(ablation_fraction * side)
                if MIN_SUBGROUP <= n_excl <= data.n // 2:
                    scenarios.append(
                        ShiftScenario(
                            feature_index=j,
                            split_kind=split,
                            ablation_fraction=ablation_fraction,
                            seed=base_seed + len(scenarios),
                        )
                    )
        elif kind == CATEGORICAL:
            for value in np.unique(col):
                if MIN_SUBGROUP <= int((col == value).sum()) <= data.n // 2:
                    scenarios.append(
                        ShiftScenario(
                            feature_index=j,
                            split_kind="category",
                            category_value=float(value),
                            ablation_fraction=1.0,
                            seed=base_seed + len(scenarios),
                        )
                    )
        else:
            raise InvalidInput(f"unknown feature kind {kind!r} for feature {j}")
    return scenarios


def split_pools(data: Dataset, scenario: ShiftScenario):
    """Partition a dataset into (retained, excluded) pools.

    Continuous splits move a seeded uniform ``ablation_fraction`` of the
    chosen median side into the excluded pool; category splits move the
    whole category. Ties at the median count as the below side.
    """
    col = data.features[:, scenario.feature_index]
    if scenario.split_kind == "category":
        side = np.nonzero(col == scenario.category_value)[0]
        excluded_idx = side
    else:
        median = empirical_quantile(0.5, col)
        if scenario.split_kind == "above_median":
            side = np.nonzero(col > median)[0]
        else:
            side = np.nonzero(col <= median)[0]
        n_excl = int(scenario.ablation_fraction * side.size)
        rng = np.random.default_rng(scenario.seed)
        excluded_idx = np.sort(rng.choice(side, size=n_excl, replace=False))
    mask = np.zeros(data.n, dtype=bool)
    mask[excluded_idx] = True
    if not mask.any() or mask.all():
        raise InvalidInput(f"scenario {scenario.scenario_id} leaves an empty pool")
    return data.subset(np.nonzero(~mask)[0]), data.subset(np.nonzero(mask)[0])


@dataclass(frozen=True)
class ProductionStream:
    """A realized production stream; errors ride along for oracle evaluation."""

    features: np.ndarray  # (T, d)
    errors: Optional[np.ndarray]  # (T,) or None

    @property
    def horizon(self) -> int:
        return self.features.shape[0]

    def to_dataset(self) -> Dataset:
        return Dataset(self.features, self.errors)


def build_stream(
    retained_test: Dataset,
    excluded: Optional[Dataset],
    schedule: Schedule,
    seed: int,
) -> ProductionStream:
    """Sample a production stream (with replacement) under a schedule.

    Before onset every event comes from the retained test pool; afterwards
    sudden schedules draw from the excluded pool, sigmoid schedules draw
    from it with probability sigmoid_mixture(t, onset).
    """
    if schedule.kind != "none" and (excluded is None or excluded.n == 0):
        raise InvalidInput("a shifting schedule needs a nonempty excluded pool")

    rng = np.random.default_rng(seed)
    horizon = schedule.horizon
    t = np.arange(1, horizon + 1)
    if schedule.kind == "none":
        from_excluded = np.zeros(horizon, dtype=bool)
    elif schedule.kind == "sudden":
        from_excluded = t >= schedule.onset
    else:
        beta = sigmoid_mixture(t, schedule.onset)
        from_excluded = (t >= schedule.onset) & (rng.random(horizon) < beta)

    idx_r = rng.integers(0, retained_test.n, size=horizon)
    features = retained_test.features[idx_r].copy()
    errors = None if retained_test.errors is None else retained_test.errors[idx_r].copy()
    if from_excluded.any():
        idx_e = rng.integers(0, excluded.n, size=horizon)
        features[from_excluded] = excluded.features[idx_e[from_excluded]]
        if errors is not None and excluded.errors is not None:
            errors[from_excluded] = excluded.errors[idx_e[from_excluded]]
    return ProductionStream(features=features, errors=errors)


def make_subgroup_dataset(
    n: int,
    n_noise_features: int = 3,
    subgroup_frac: float = 0.3,
    base_error: float = 0.15,
    error_ratio: float = 3.0,
    error_noise: float = 0.08,
    zone_noise: Optional[float] = None,
    hidden_prob: float = 0.0,
    hidden_boost: float = 0.45,
    hidden_skew: float = 3.0,
    coin_prob: float = 0.0,
    coin_boost: float = 0.45,
    grade_coef: float = 0.0,
    immune_frac: float = 0.0,
    immune_anchor: str = "zone",
    immune_error: Optional[float] = None,
    masked_frac: float = 0.0,
    masked_error: float = 0.55,
    second_zone_frac: float = 0.0,
    second_zone_error: Optional[float] = None,
    seed: int = 0,
) -> Dataset:
    """Synthetic subgroup-failure dataset.

    Feature f0 drives membership in a failure zone (top ``subgroup_frac``
    of f0) whose members have mean error ``error_ratio`` times the base
    with their own noise scale ``zone_noise`` (defaults to the global
    ``error_noise``). With ``hidden_prob`` > 0 a medium-error group is
    added: membership is an unobserved Bernoulli(hidden_prob) draw adding
    ``hidden_boost`` to the error, and an observed carrier feature is
    skewed toward 1 for members (u ** (1/hidden_skew) versus uniform u),
    so the carrier enriches the group under a split without revealing
    individual membership. ``coin_prob`` > 0 adds a second boosted group
    (exclusive of the hidden group) with no observable trace at all,
    which keeps a large share of the error variance irreducible.
    ``grade_coef`` > 0 adds a feature with a small linear error gradient,
    giving feature splits of marginal harmfulness. Error noise is bounded
    uniform (plus or minus the scale), so the error distribution forms
    separated bands when boosts and noise scales are small.
    With ``second_zone_frac`` > 0 a second zone with error level
    ``second_zone_error`` (defaults to the primary zone level) is added,
    modeling a milder but still predictable failure mode: it is driven
    by its own continuous feature (top ``second_zone_frac``) when
    ``immune_anchor`` is "zone" and by a categorical marker feature when
    it is "second". With
    ``immune_frac`` > 0 a categorical segment is added that shares the
    feature neighborhood of a failure zone (the primary zone's boundary
    band of width ``IMMUNE_BAND`` under the "zone" anchor, the second
    zone's categorical marker under "second") yet keeps the base error
    rate: a model segment that looks like a failure zone but is immune
    to it (its error level is ``immune_error``, defaulting to the base). With ``masked_frac`` > 0 the opposite segment is added: a
    categorical group with elevated error ``masked_error`` but otherwise
    unremarkable features, so its error level is visible only through
    its own category flag.
    Remaining features are pure noise, which keeps any estimator trained
    on them deliberately weak.
    """
    if immune_anchor not in ("zone", "second"):
        raise InvalidInput(f"unknown immune anchor {immune_anchor!r}")
    if immune_anchor == "second" and immune_frac > 0.0 and second_zone_frac <= 0.0:
        raise InvalidInput("anchoring to the second zone requires one")
    rng = np.random.default_rng(seed)
    driver = rng.random(n)
    categorical_second = immune_anchor == "second" and second_zone_frac > 0.0
    driver2 = None
    if second_zone_frac > 0.0 and not categorical_second:
        driver2 = rng.random(n)
    immune = None
    masked = None
    if immune_frac > 0.0 or masked_frac > 0.0:
        seg = rng.random(n)
        placement = rng.random(n)
        if immune_frac > 0.0:
            immune = seg < immune_frac
            if immune_anchor == "zone":
                edge = 1.0 - subgroup_frac
                driver = np.where(immune, edge - IMMUNE_BAND * placement, driver)
            else:
                # keep immune members out of the primary zone; they share
                # the second zone's marker instead of a driver band
                driver = np.where(
                    immune, (1.0 - subgroup_frac) * placement, driver
                )
        if masked_frac > 0.0:
            masked = (seg >= immune_frac) & (seg < immune_frac + masked_frac)
            driver = np.where(masked, (1.0 - subgroup_frac) * placement, driver)
    zone = driver > 1.0 - subgroup_frac
    cols = [driver]
    zone2 = np.zeros(n, dtype=bool)
    if driver2 is not None:
        zone2 = driver2 > 1.0 - second_zone_frac
    elif categorical_second:
        zone2 = rng.random(n) < second_zone_frac
    if immune is not None:
        zone2 = zone2 & ~immune
    if masked is not None:
        zone2 = zone2 & ~masked
    if second_zone_error is None:
        second_zone_error = base_error * error_ratio
    failing = zone | zone2
    errors = np.where(
        zone, base_error * error_ratio, np.where(zone2, second_zone_error, base_error)
    )
    if masked is not None:
        errors = np.where(masked, masked_error, errors)
        failing = failing | masked
    if immune is not None and immune_error is not None:
        errors = np.where(immune & ~failing, immune_error, errors)
    boostable = ~failing
    if immune is not None:
        boostable = boostable & ~immune
    if hidden_prob > 0.0 or coin_prob > 0.0:
        latent = rng.random(n)
        coin = latent < coin_prob
        hidden = (latent >= coin_prob) & (latent < coin_prob + hidden_prob)
        errors = errors + coin_boost * (coin & boostable)
        errors = errors + hidden_boost * (hidden & boostable)
        if hidden_prob > 0.0:
            u = rng.random(n)
            carrier = np.where(hidden, u ** (1.0 / hidden_skew), u)
            cols.append(carrier)
    if grade_coef > 0.0:
        graded = rng.random(n)
        errors = errors + grade_coef * graded * boostable
        cols.append(graded)
    if immune is not None:
        cols.append(immune.astype(float))
    if masked is not None:
        cols.append(masked.astype(float))
    if driver2 is not None:
        cols.append(driver2)
    elif categorical_second:
        marker = zone2 if immune is None else (zone2 | immune)
        cols.append(marker.astype(float))
    cols.append(rng.random((n, n_noise_features)))
    if zone_noise is None:
        zone_noise = error_noise
    scale = np.where(failing, zone_noise, error_noise)
    if immune is not None:
        scale = np.where(immune & ~failing, zone_noise, scale)
    errors = errors + scale * rng.uniform(-1.0, 1.0, n)
    errors = np.clip(errors, 0.0, 1.0)
    return Dataset(np.column_stack(cols), errors)


def subgroup_feature_kinds(**keywords) -> List[str]:
    """Feature kind declarations matching the columns make_subgroup_dataset
    builds from the same keywords; a keyword it does not take is an error."""
    try:
        bound = inspect.signature(make_subgroup_dataset).bind_partial(**keywords)
    except TypeError as exc:
        raise InvalidInput(f"make_subgroup_dataset: {exc}")
    bound.apply_defaults()
    args = bound.arguments
    kinds = [CONTINUOUS]
    if args["hidden_prob"] > 0.0:
        kinds.append(CONTINUOUS)
    if args["grade_coef"] > 0.0:
        kinds.append(CONTINUOUS)
    if args["immune_frac"] > 0.0:
        kinds.append(CATEGORICAL)
    if args["masked_frac"] > 0.0:
        kinds.append(CATEGORICAL)
    if args["second_zone_frac"] > 0.0:
        kinds.append(CATEGORICAL if args["immune_anchor"] == "second" else CONTINUOUS)
    kinds.extend([CONTINUOUS] * args["n_noise_features"])
    return kinds
