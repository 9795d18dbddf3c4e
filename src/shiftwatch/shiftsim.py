"""Synthetic shift generation.

Feature-split ablation carves a subgroup out of a labeled pool (the
excluded pool), and production streams reintroduce that subgroup either
suddenly or along a sigmoid mixing schedule; ``ShiftScenario`` owns the
split rule that both ``enumerate_scenarios`` and ``split_pools`` apply. A
small synthetic subgroup-failure dataset generator, which builds each
feature column together with its kind, is included for experiments and tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .core import Dataset, empirical_quantile, sorted_distinct
from .errors import ConfigError, InvalidInput

CONTINUOUS = "continuous"
CATEGORICAL = "categorical"
# a kind's index here is part of each suite run's seeds: append only
SPLIT_KINDS = ("above_median", "below_median", "category")

DEFAULT_ABLATION_FRACTION = 0.8
MIN_SUBGROUP = 10
IMMUNE_BAND = 0.05


@dataclass(frozen=True)
class ShiftScenario:
    """Recipe for one feature-split ablation. It carries no seed: the
    caller of ``split_pools`` owns the seed of each ablation. It owns the
    split rule (its kind among ``SPLIT_KINDS``, its ``side`` of a column
    and the ``excluded_count`` of that side) and the ``ablation_fraction``
    range rule, which it raises under that key."""

    feature_index: int
    split_kind: str  # one of SPLIT_KINDS
    category_value: Optional[float] = None
    ablation_fraction: float = DEFAULT_ABLATION_FRACTION

    def __post_init__(self):
        if self.split_kind not in SPLIT_KINDS:
            raise InvalidInput(f"unknown split kind {self.split_kind!r}")
        if self.split_kind == "category" and self.category_value is None:
            raise InvalidInput("category splits need a category value")
        if not 0.0 < self.ablation_fraction <= 1.0:
            raise ConfigError("ablation_fraction", "must lie in (0, 1]")

    @property
    def scenario_id(self) -> str:
        if self.split_kind == "category":
            text = f"{self.category_value:g}"
            if float(text) != self.category_value:  # :g would merge close categories
                text = repr(float(self.category_value))
            return f"f{self.feature_index}_category_{text}"
        return f"f{self.feature_index}_{self.split_kind}"

    def side(self, col: np.ndarray) -> np.ndarray:
        """Row indices of this scenario's side of a feature column: above
        the median, at or below it (ties go below), or equal to the
        category value."""
        if self.split_kind == "category":
            return np.nonzero(col == self.category_value)[0]
        median = empirical_quantile(0.5, col)
        return np.nonzero(col > median if self.split_kind == "above_median" else col <= median)[0]

    def excluded_count(self, side_size: int) -> int:
        """How many rows of a side of ``side_size`` rows are excluded: the
        whole category, or ``ablation_fraction`` of a median side, floored."""
        if self.split_kind == "category":
            return side_size
        return int(self.ablation_fraction * side_size)


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
) -> List[ShiftScenario]:
    """All feature-split scenarios for a dataset: two per continuous feature
    (above/below median), one per category of each categorical feature.
    Scenarios whose excluded subgroup would hold fewer than ``MIN_SUBGROUP``
    observations, or more than half the dataset, are dropped: an ablated
    majority is not a subgroup shift. ``feature_kinds`` declares one kind
    per feature column; a wrong count or an unknown kind raises
    ``ConfigError`` under ``feature_kinds``, and a continuous feature's
    ``ablation_fraction`` outside (0, 1] under that key."""
    if len(feature_kinds) != data.d:
        raise ConfigError("feature_kinds", f"expected {data.d} kinds, got {len(feature_kinds)}")
    scenarios: List[ShiftScenario] = []
    for j, kind in enumerate(feature_kinds):
        col = data.features[:, j]
        if kind == CONTINUOUS:
            candidates = [
                ShiftScenario(j, split, ablation_fraction=ablation_fraction)
                for split in SPLIT_KINDS[:2]  # the median sides
            ]
        elif kind == CATEGORICAL:
            candidates = [
                ShiftScenario(j, "category", v, ablation_fraction=1.0) for v in sorted_distinct(col).tolist()
            ]
        else:
            raise ConfigError("feature_kinds", f"unknown kind {kind!r} for feature {j}")
        scenarios += [
            s for s in candidates if MIN_SUBGROUP <= s.excluded_count(s.side(col).size) <= data.n // 2
        ]
    return scenarios


def split_pools(data: Dataset, scenario: ShiftScenario, seed: int):
    """Partition a dataset into (retained, excluded) pools.

    The excluded pool is a uniform draw, with ``seed``, of the scenario's
    ``excluded_count`` rows from its ``side`` of the feature column: a
    fraction of a median side, or a whole category. The caller owns the
    seed, as for ``build_stream``.
    """
    side = scenario.side(data.features[:, scenario.feature_index])
    n_excl = scenario.excluded_count(side.size)
    if not 0 < n_excl < data.n:
        raise InvalidInput(f"scenario {scenario.scenario_id} leaves an empty pool")
    mask = np.zeros(data.n, dtype=bool)
    mask[np.random.default_rng(seed).choice(side, size=n_excl, replace=False)] = True
    return data.subset(np.nonzero(~mask)[0]), data.subset(np.nonzero(mask)[0])


@dataclass(frozen=True)
class ProductionStream:
    """A realized production stream; errors ride along for oracle evaluation.
    ``rows`` names each event's pool row: an index into the retained test
    pool, or an index into the excluded pool plus the test pool's size.
    Events that share a row share its features and error."""

    features: np.ndarray  # (T, d)
    errors: Optional[np.ndarray]  # (T,) or None
    rows: np.ndarray  # (T,) int

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
    from it with probability sigmoid_mixture(t, onset). The stream carries
    errors only when every pool it draws from has them.
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

    rows = rng.integers(0, retained_test.n, size=horizon)
    pools = [retained_test]
    if from_excluded.any():
        rows[from_excluded] = retained_test.n + rng.integers(0, excluded.n, size=horizon)[from_excluded]
        pools.append(excluded)
    features = np.concatenate([p.features for p in pools])[rows]
    labeled = all(p.errors is not None for p in pools)
    errors = np.concatenate([p.errors for p in pools])[rows] if labeled else None
    return ProductionStream(features=features, errors=errors, rows=rows)


def _build_subgroup_dataset(
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
) -> Tuple[Dataset, List[str]]:
    """Synthetic subgroup-failure dataset and the kind of each of its
    feature columns, built together.

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
    cols = [(driver, CONTINUOUS)]
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
            cols.append((carrier, CONTINUOUS))
    if grade_coef > 0.0:
        graded = rng.random(n)
        errors = errors + grade_coef * graded * boostable
        cols.append((graded, CONTINUOUS))
    if immune is not None:
        cols.append((immune.astype(float), CATEGORICAL))
    if masked is not None:
        cols.append((masked.astype(float), CATEGORICAL))
    if driver2 is not None:
        cols.append((driver2, CONTINUOUS))
    elif categorical_second:
        marker = zone2 if immune is None else (zone2 | immune)
        cols.append((marker.astype(float), CATEGORICAL))
    cols += [(noise, CONTINUOUS) for noise in rng.random((n, n_noise_features)).T]
    if zone_noise is None:
        zone_noise = error_noise
    scale = np.where(failing, zone_noise, error_noise)
    if immune is not None:
        scale = np.where(immune & ~failing, zone_noise, scale)
    errors = errors + scale * rng.uniform(-1.0, 1.0, n)
    errors = np.clip(errors, 0.0, 1.0)
    columns, kinds = zip(*cols)
    return Dataset(np.column_stack(columns), errors), list(kinds)


def make_subgroup_dataset(n: int, **keywords) -> Dataset:
    """Synthetic subgroup-failure dataset of ``n`` rows; the keywords are
    those of ``_build_subgroup_dataset``."""
    return _build_subgroup_dataset(n, **keywords)[0]


def subgroup_feature_kinds(**keywords) -> List[str]:
    """The kind of each feature column that make_subgroup_dataset builds
    from the same keywords, read off a one-row build by the same builder;
    a keyword it does not take is ``InvalidInput``."""
    try:
        return _build_subgroup_dataset(1, **keywords)[1]
    except TypeError as exc:
        raise InvalidInput(f"make_subgroup_dataset: {exc}")
