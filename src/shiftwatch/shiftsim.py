"""Synthetic shift generation.

Feature-split ablation carves a subgroup out of a labeled pool (the
excluded pool), and production streams reintroduce that subgroup either
suddenly or along a sigmoid mixing schedule; ``ShiftScenario`` owns the
split rule that both ``enumerate_scenarios`` and ``split_pools`` apply.
Pools and streams are row indices into the source dataset, never copies
of its rows: the caller gathers the rows it reads. A small synthetic
subgroup-failure dataset generator, which builds each feature column
together with its kind, is included for experiments and tests.
"""

from __future__ import annotations

from typing import List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .core import Dataset, empirical_quantile, sorted_distinct
from .errors import Checked, ConfigError, InvalidInput

CONTINUOUS = "continuous"
CATEGORICAL = "categorical"
# a kind's index here is part of each suite run's seeds: append only
SPLIT_KINDS = ("above_median", "below_median", "category")

DEFAULT_ABLATION_FRACTION = 0.8
MIN_SUBGROUP = 10
IMMUNE_BAND = 0.05


class _ScenarioFields(NamedTuple):
    feature_index: int
    split_kind: str  # one of SPLIT_KINDS
    category_value: Optional[float] = None
    ablation_fraction: float = DEFAULT_ABLATION_FRACTION


class ShiftScenario(Checked, _ScenarioFields):
    """Recipe for one feature-split ablation. It carries no seed: the
    caller of ``split_pools`` owns the seed of each ablation. It owns the
    split rule (its kind among ``SPLIT_KINDS``, its ``side`` of a column
    and the ``excluded_count`` of that side) and the ``ablation_fraction``
    range rule, which it raises under that key. Every way to make one,
    ``_replace`` included, runs these checks."""

    __slots__ = ()

    @staticmethod
    def _check(feature_index, split_kind, category_value, ablation_fraction):
        if split_kind not in SPLIT_KINDS:
            raise InvalidInput(f"unknown split kind {split_kind!r}")
        if split_kind == "category" and category_value is None:
            raise InvalidInput("category splits need a category value")
        if not 0.0 < ablation_fraction <= 1.0:
            raise ConfigError("ablation_fraction", "must lie in (0, 1]")
        return feature_index, split_kind, category_value, ablation_fraction

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


class _ScheduleFields(NamedTuple):
    kind: str = "sudden"  # none | sudden | sigmoid
    horizon: int = 2000
    onset: Optional[int] = None


class Schedule(Checked, _ScheduleFields):
    """Production schedule: none, sudden(T), or sigmoid(t0); by default
    sudden over 2,000 events. A given onset lies in [1, horizon] whatever
    the kind; a shifting schedule without one shifts at half the horizon
    (at least 1). Each field is the key of its name, save ``kind``, keyed
    ``schedule``. Every way to make one, ``_replace`` included, checks
    its fields and raises ConfigError under the key at fault."""

    __slots__ = ()

    @staticmethod
    def _check(kind, horizon, onset):
        if kind not in ("none", "sudden", "sigmoid"):
            raise ConfigError("schedule", f"unknown schedule {kind!r}")
        if horizon < 1:
            raise ConfigError("horizon", "must be >= 1")
        if onset is not None and not 1 <= onset <= horizon:
            raise ConfigError("onset", "must lie in [1, horizon]")
        if kind != "none" and onset is None:
            onset = max(1, horizon // 2)
        return kind, horizon, onset


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
    ``ablation_fraction`` outside (0, 1] under that key. A category
    excludes its whole side, so ``sorted_distinct`` counts every category
    of a column in one sort, and only the kept ones are built; as ``side``
    finds them with ``==``, 0.0 and -0.0 are one category."""
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
            scenarios += [
                s for s in candidates if MIN_SUBGROUP <= s.excluded_count(s.side(col).size) <= data.n // 2
            ]
        elif kind == CATEGORICAL:
            values, sizes = sorted_distinct(col, return_counts=True)
            kept = values[(MIN_SUBGROUP <= sizes) & (sizes <= data.n // 2)]
            scenarios += [ShiftScenario(j, "category", v, ablation_fraction=1.0) for v in kept.tolist()]
        else:
            raise ConfigError("feature_kinds", f"unknown kind {kind!r} for feature {j}")
    return scenarios


def split_pools(data: Dataset, scenario: ShiftScenario, seed: int):
    """Partition a dataset's rows into (retained, excluded) pools, each an
    ascending array of row indices into ``data``.

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
    return np.flatnonzero(~mask), np.flatnonzero(mask)


class ProductionStream:
    """A realized production stream: ``rows`` (T,) names each event's row
    of the source its pools index, so events that share a row share its
    features and error. ``horizon`` is T; it stays a name of its own
    because the benchmark's tracer counts each ``build_stream`` call by it,
    until ROADMAP item 19 replaces that tracer."""

    def __init__(self, rows):
        self.rows = rows

    @property
    def horizon(self) -> int:
        return self.rows.size


def build_stream(test: np.ndarray, excluded: np.ndarray, schedule: Schedule, seed: int) -> ProductionStream:
    """Sample a production stream (with replacement) under a schedule from
    two pools of source row indices, the test pool and the excluded pool.

    Before onset every event draws from the test pool; afterwards sudden
    schedules draw from the excluded pool, sigmoid schedules draw from it
    with probability sigmoid_mixture(t, onset). The excluded pool may be
    empty only under the ``none`` schedule. No row is copied: the stream
    holds each event's source row index.
    """
    if test.size == 0:
        raise InvalidInput("a stream needs a nonempty test pool")
    if schedule.kind != "none" and excluded.size == 0:
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

    rows = test[rng.integers(0, test.size, size=horizon)]
    if from_excluded.any():
        rows[from_excluded] = excluded[rng.integers(0, excluded.size, size=horizon)[from_excluded]]
    return ProductionStream(rows)


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

    Feature f0, the driver, puts its top ``subgroup_frac`` in a failure
    zone whose members have mean error ``error_ratio`` times
    ``base_error`` and noise scale ``zone_noise`` (default
    ``error_noise``). Error noise is bounded uniform (plus or minus the
    scale), so the errors form separated bands when boosts and noise
    scales are small. The last ``n_noise_features`` features are pure
    noise, which keeps any estimator trained on them deliberately weak.

    Second zone (``second_zone_frac`` > 0): a milder but still predictable
    failure mode at error ``second_zone_error`` (default the primary
    zone's level). Under the "zone" ``immune_anchor`` it is the top
    ``second_zone_frac`` of its own continuous driver; under "second" it
    is a Bernoulli(``second_zone_frac``) draw, flagged by a categorical
    marker feature.

    The immune and masked segments are boolean masks over the rows, all
    False when their fraction is 0. One uniform draw assigns them, so they
    never overlap, and neither is part of a zone. Each adds a categorical
    flag column when its fraction is above 0.

    Immune (``immune_frac``): looks like a failure zone but is immune to
    it. Under the "zone" anchor its driver lies in the band of width
    ``IMMUNE_BAND`` just below the primary zone; under "second" its driver
    lies anywhere below the zone and it shares the second zone's marker.
    It keeps the base error, or ``immune_error`` when given, with the
    zone noise scale.

    Masked (``masked_frac``): the opposite, error ``masked_error`` with a
    driver anywhere below the zone, so its error level shows only through
    its own flag.

    Hidden group (``hidden_prob`` > 0): an unobserved
    Bernoulli(``hidden_prob``) draw adds ``hidden_boost`` to the error,
    and an observed carrier feature is skewed toward 1 for members
    (u ** (1/hidden_skew) versus uniform u), so the carrier enriches the
    group under a split without revealing individual membership.

    Coin group (``coin_prob`` > 0): a second boosted group, exclusive of
    the hidden one, with no observable trace at all, which keeps a large
    share of the error variance irreducible.

    Grade (``grade_coef`` > 0): a feature with a small linear error
    gradient, giving feature splits of marginal harmfulness.

    The boosts and the grade apply only to rows outside the zones and
    the segments.

    Each fraction and probability must lie in [0, 1], and the segments'
    (``immune_frac + masked_frac``) and the boosted groups'
    (``hidden_prob + coin_prob``) must not exceed 1 together; otherwise
    InvalidInput names the keywords.
    """
    if immune_anchor not in ("zone", "second"):
        raise InvalidInput(f"unknown immune anchor {immune_anchor!r}")
    if immune_anchor == "second" and immune_frac > 0.0 and second_zone_frac <= 0.0:
        raise InvalidInput("anchoring to the second zone requires one")
    fractions = {
        "subgroup_frac": subgroup_frac,
        "immune_frac": immune_frac,
        "masked_frac": masked_frac,
        "second_zone_frac": second_zone_frac,
        "hidden_prob": hidden_prob,
        "coin_prob": coin_prob,
    }
    for name, value in fractions.items():
        if not 0.0 <= value <= 1.0:
            raise InvalidInput(f"{name} must lie in [0, 1], got {value!r}")
    for a, b in (("immune_frac", "masked_frac"), ("hidden_prob", "coin_prob")):
        if fractions[a] + fractions[b] > 1.0:
            raise InvalidInput(f"{a} + {b} must not exceed 1, got {fractions[a]!r} + {fractions[b]!r}")
    rng = np.random.default_rng(seed)
    edge = 1.0 - subgroup_frac
    driver = rng.random(n)
    categorical_second = immune_anchor == "second" and second_zone_frac > 0.0
    driver2 = rng.random(n) if second_zone_frac > 0.0 and not categorical_second else None
    immune = masked = np.zeros(n, dtype=bool)
    if immune_frac > 0.0 or masked_frac > 0.0:
        seg = rng.random(n)
        placement = rng.random(n)
        immune = seg < immune_frac
        masked = (seg >= immune_frac) & (seg < immune_frac + masked_frac)
        below = edge * placement  # anywhere below the zone
        band = edge - IMMUNE_BAND * placement if immune_anchor == "zone" else below
        driver = np.where(immune, band, np.where(masked, below, driver))
    zone = driver > edge
    zone2 = np.zeros(n, dtype=bool) if driver2 is None else driver2 > 1.0 - second_zone_frac
    if categorical_second:
        zone2 = rng.random(n) < second_zone_frac
    zone2 = zone2 & ~immune & ~masked
    if second_zone_error is None:
        second_zone_error = base_error * error_ratio
    failing = zone | zone2 | masked
    errors = np.where(zone, base_error * error_ratio, np.where(zone2, second_zone_error, base_error))
    errors = np.where(masked, masked_error, errors)
    if immune_error is not None:
        errors = np.where(immune & ~failing, immune_error, errors)
    boostable = ~failing & ~immune
    cols = [(driver, CONTINUOUS)]
    if hidden_prob > 0.0 or coin_prob > 0.0:
        latent = rng.random(n)
        coin = latent < coin_prob
        hidden = (latent >= coin_prob) & (latent < coin_prob + hidden_prob)
        errors = errors + coin_boost * (coin & boostable)
        errors = errors + hidden_boost * (hidden & boostable)
        if hidden_prob > 0.0:
            u = rng.random(n)
            cols.append((np.where(hidden, u ** (1.0 / hidden_skew), u), CONTINUOUS))
    if grade_coef > 0.0:
        graded = rng.random(n)
        errors = errors + grade_coef * graded * boostable
        cols.append((graded, CONTINUOUS))
    if immune_frac > 0.0:
        cols.append((immune.astype(float), CATEGORICAL))
    if masked_frac > 0.0:
        cols.append((masked.astype(float), CATEGORICAL))
    if driver2 is not None:
        cols.append((driver2, CONTINUOUS))
    elif categorical_second:
        cols.append(((zone2 | immune).astype(float), CATEGORICAL))
    cols += [(noise, CONTINUOUS) for noise in rng.random((n, n_noise_features)).T]
    if zone_noise is None:
        zone_noise = error_noise
    scale = np.where(failing | immune, zone_noise, error_noise)
    errors = np.clip(errors + scale * rng.uniform(-1.0, 1.0, n), 0.0, 1.0)
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
