"""End-to-end acceptance suite.

Each test checks one headline behavioral guarantee of the package and
prints a single PASS/FAIL line (run ``pytest -s tests/test_acceptance.py``
to see the lines as they complete). The suites are sized so the whole
file runs in a few minutes on one core.
"""

import math
import time

import numpy as np
import pytest

from shiftwatch import Dataset, GridSpec, MonitorConfig, MonitorState, calibrate, fit_knn, source_statistics
from shiftwatch.cli import main as cli_main
from shiftwatch.confidence import hoeffding_halfwidth, pmeb_best_lower_path
from shiftwatch.core import Selector, empirical_quantile, write_dataset
from shiftwatch.errors import CalibrationInfeasible
from shiftwatch.estimator import predict_many, score_dataset, split_half
from shiftwatch.harness import ExperimentConfig, run_suite, suite_metrics
from shiftwatch.monitor import oracle_source_statistics
from shiftwatch.shiftsim import (
    Schedule,
    build_stream,
    enumerate_scenarios,
    make_subgroup_dataset,
    sigmoid_mixture,
    subgroup_feature_kinds,
)
from test_calibration import power_fdp

# Generator settings for the feature-split shift suite shared by the
# quantile-vs-mean, dominance, and delta tests. The design packs several
# failure modes into one population: a primary high-error zone driven by
# f0, a milder categorical second zone, a hidden medium-error group with
# an enriching carrier feature, a large unobservable high-error group
# (keeping the estimator weak), a graded feature, a segment sharing the
# second zone's marker but immune to its failures, and a masked
# elevated-error segment visible only through its own category flag.
SUITE_GEN = dict(
    n_noise_features=4,
    subgroup_frac=0.28,
    base_error=0.02,
    error_ratio=40.0,
    error_noise=0.03,
    zone_noise=0.04,
    hidden_prob=0.20,
    hidden_boost=0.30,
    hidden_skew=6.0,
    coin_prob=0.35,
    coin_boost=0.64,
    grade_coef=0.03,
    immune_frac=0.05,
    immune_anchor="second",
    immune_error=0.25,
    masked_frac=0.08,
    masked_error=0.55,
    second_zone_frac=0.10,
    second_zone_error=0.55,
)
SUITE_N = 16_000
SUITE_HORIZON = 4_000
SUITE_ONSET = 200
SUITE_DATASETS = 7
SUITE_SEEDS_PER_DATASET = 2


def _verdict(name: str, ok: bool, detail: str) -> None:
    print(f"[acceptance] {'PASS' if ok else 'FAIL'} {name}: {detail}")
    assert ok, f"{name}: {detail}"


@pytest.fixture(scope="module")
def shift_suite():
    """The feature-split shift suite: 7 datasets x 17 scenarios x 2 seeds."""
    config = ExperimentConfig(k=10)
    schedule = Schedule(kind="sudden", horizon=SUITE_HORIZON, onset=SUITE_ONSET)
    reports = []
    start = time.time()
    for ds in range(SUITE_DATASETS):
        data = make_subgroup_dataset(SUITE_N, seed=100 + ds, **SUITE_GEN)
        scenarios = enumerate_scenarios(data, subgroup_feature_kinds(**SUITE_GEN))
        seeds = [1000 * ds + s for s in range(SUITE_SEEDS_PER_DATASET)]
        reports += run_suite(data, scenarios, schedule, config, seeds=seeds)
    return reports, time.time() - start


def test_confidence_sequence_coverage():
    """1000 Bernoulli(0.3) streams of length 2000 at alpha 0.05: the lower
    bound may ever exceed the true mean in at most a 0.05 + 0.02 fraction
    of streams."""
    start = time.time()
    rng = np.random.default_rng(12_345)
    violations = 0
    for _ in range(1000):
        xs = (rng.random(2000) < 0.3).astype(float)
        if pmeb_best_lower_path(xs, 0.05).max() > 0.3:
            violations += 1
    elapsed = time.time() - start
    rate = violations / 1000.0
    _verdict(
        "confidence-sequence coverage",
        rate <= 0.07 and elapsed < 120,
        f"violation rate {rate:.3f} (limit 0.07), {elapsed:.0f}s (limit 120s)",
    )


def test_false_alarm_control():
    """500 no-shift production runs: the fraction where the tight quantile
    detector ever fires must stay at or below 0.10."""
    start = time.time()
    fired = 0
    total = 0
    for ds in range(100):
        data = make_subgroup_dataset(
            2000,
            subgroup_frac=0.3,
            base_error=0.15,
            error_ratio=3.0,
            error_noise=0.08,
            seed=5000 + ds,
        )
        fit_half, cal_half = split_half(data, ds)
        model = fit_knn(fit_half, 10)
        cal = score_dataset(model, cal_half)
        try:
            result = calibrate(GridSpec(), cal)
        except CalibrationInfeasible:
            continue
        cfg = MonitorConfig()
        stats = source_statistics(cal, result.selector, cfg)
        for s in range(5):
            stream = build_stream(
                np.arange(data.n), np.arange(0), Schedule("none", 2000), 9000 + ds * 10 + s
            )
            scores = predict_many(model, data.features[stream.rows])
            state = MonitorState(result.selector, stats, cfg)
            state.feed(result.selector.select(scores))
            total += 1
            if state.phi_q2:
                fired += 1
    elapsed = time.time() - start
    rate = fired / total
    _verdict(
        "no-shift false alarm control",
        total >= 500 and rate <= 0.10 and elapsed < 300,
        f"{fired}/{total} runs fired ({rate:.3f}, limit 0.10), "
        f"{elapsed:.0f}s (limit 300s)",
    )


def _flagged_dataset(n: int, seed: int) -> Dataset:
    """One binary feature flags a subgroup whose mean error is 3x the rest."""
    rng = np.random.default_rng(seed)
    flag = (rng.random(n) < 0.35).astype(float)
    features = np.column_stack([flag, rng.random((n, 3))])
    errors = np.where(flag > 0, 0.45, 0.15) + 0.08 * rng.uniform(-1.0, 1.0, n)
    return Dataset(features, np.clip(errors, 0.0, 1.0))


def test_calibration_fdp_generalization():
    """Calibrated selectors must hold their FDP promise beyond the data
    they were tuned on: held-out FDP < 0.2 in at least 90 of 100 seeds,
    and FDP on a fresh production-like sample < 0.3 in at least 90."""
    start = time.time()
    ok_held = 0
    ok_prod = 0
    for s in range(100):
        data = _flagged_dataset(2000, s)
        fit_half, cal_half = split_half(data, s)
        model = fit_knn(fit_half, 10)
        try:
            result = calibrate(GridSpec(), score_dataset(model, cal_half))
        except CalibrationInfeasible:
            continue
        held = score_dataset(model, _flagged_dataset(2000, 10_000 + s))
        prod = score_dataset(model, _flagged_dataset(2000, 20_000 + s))
        if power_fdp(result.selector, held.errors, held.scores)[1] < 0.2:
            ok_held += 1
        if power_fdp(result.selector, prod.errors, prod.scores)[1] < 0.3:
            ok_prod += 1
    elapsed = time.time() - start
    _verdict(
        "calibration FDP generalization",
        ok_held >= 90 and ok_prod >= 90 and elapsed < 180,
        f"held-out FDP<0.2 in {ok_held}/100, production FDP<0.3 in "
        f"{ok_prod}/100 (both need >= 90), {elapsed:.0f}s (limit 180s)",
    )


def test_quantile_beats_mean_with_weak_estimator(shift_suite):
    """Over 200+ feature-split shifts with a deliberately weak estimator,
    the tight quantile detector must beat the plug-in mean detector on
    both suite power (by at least 0.1) and suite FDP."""
    reports, elapsed = shift_suite
    usable = [r for r in reports if not r.uncalibratable]
    r2_median = float(np.median([r.r2 for r in usable]))
    m_q2 = suite_metrics(reports, "phi_q2", eps_harm=0.0)
    m_mean = suite_metrics(reports, "mean", eps_harm=0.0)
    ok = (
        len(usable) >= 200
        and r2_median < 0.3
        and m_q2["power"] is not None
        and m_mean["power"] is not None
        and m_q2["fdp"] is not None
        and m_mean["fdp"] is not None
        and m_q2["power"] > m_mean["power"]
        and m_q2["power"] - m_mean["power"] >= 0.1
        and m_q2["fdp"] < m_mean["fdp"]
        and elapsed < 900
    )
    _verdict(
        "quantile vs mean direction",
        ok,
        f"{len(usable)} runs (need >= 200), estimator r2 median "
        f"{r2_median:.3f} (need < 0.3), quantile power {m_q2['power']:.2f} / "
        f"fdp {m_q2['fdp']:.2f} vs mean power {m_mean['power']:.2f} / fdp "
        f"{m_mean['fdp']:.2f} (need +0.1 power and lower fdp), "
        f"{elapsed:.0f}s (limit 900s)",
    )


def test_tight_bound_dominates(shift_suite):
    """On every stream, the tight quantile detector's upper bound is at
    most the loose one's and it therefore never alarms later. Exact
    assertion, no tolerance."""
    reports, _ = shift_suite
    checked = 0
    ok = True
    for r in reports:
        if r.uncalibratable:
            continue
        for tight, loose in (("plugin_q2", "plugin_q"), ("oracle_q2", "oracle_q")):
            diff = r.traces[tight] - r.traces[loose]
            # margins share one lower bound, so diff == u_q - u_q2 >= 0
            if diff.min() < 0.0:
                ok = False
            t_tight = r.first_alarm(tight)
            t_loose = r.first_alarm(loose)
            if t_loose is not None and (t_tight is None or t_tight > t_loose):
                ok = False
        checked += 1
    _verdict(
        "tight-bound dominance",
        ok and checked >= 200,
        f"upper-bound ordering and first-alarm ordering exact on all "
        f"{checked} runs",
    )


def test_delta_diagnostic_smallness(shift_suite):
    """The false-discovery transfer gap delta stays small across the shift
    suite: median at most 0.02 and non-positive in at least 40% of runs."""
    reports, _ = shift_suite
    deltas = np.array([r.delta for r in reports if r.delta is not None])
    med = float(np.median(deltas))
    frac_nonpos = float(np.mean(deltas <= 0.0))
    _verdict(
        "delta smallness",
        med <= 0.02 and frac_nonpos >= 0.4,
        f"median delta {med:.4f} (limit 0.02), {frac_nonpos:.0%} of runs "
        f"non-positive (need >= 40%)",
    )


def test_perfect_estimator_equivalence():
    """With scores equal to true errors and the score threshold calibrated
    to the error threshold, the plug-in detector's alarm times equal the
    labeled-oracle detector's on 50 sudden-shift streams, each drawn from
    400 retained rows and, from the onset, 200 excluded ones. Exact."""
    rng = np.random.default_rng(7)
    retained_errors = rng.random(400) * 0.4
    excluded_errors = 0.6 + rng.random(200) * 0.4
    retained = Dataset(rng.random((400, 2)), retained_errors, retained_errors)
    errors = np.concatenate([retained_errors, excluded_errors])
    # a single-cell grid at matching levels forces q_hat == q
    result = calibrate(GridSpec(p_values=(0.75,), p_hat_values=(0.75,)), retained)
    selector = result.selector
    cfg = MonitorConfig()
    stats = source_statistics(retained, selector, cfg)
    oracle_stats = oracle_source_statistics(retained, selector, cfg)
    all_equal = True
    all_finite = True
    for s in range(50):
        stream = build_stream(
            np.arange(400), np.arange(400, 600), Schedule("sudden", 1000, onset=100), 100 + s
        )
        plugin_sel = (errors[stream.rows] > selector.q_hat).astype(float)
        oracle_sel = (errors[stream.rows] > selector.q).astype(float)
        plugin = MonitorState(selector, stats, cfg)
        plugin.feed(plugin_sel)
        oracle = MonitorState(selector, oracle_stats, cfg)
        oracle.feed(oracle_sel)
        t_plugin, t_oracle = plugin.phi_q2_time, oracle.phi_q2_time
        if t_plugin != t_oracle:
            all_equal = False
        if t_plugin is None:
            all_finite = False
    _verdict(
        "perfect-estimator equivalence",
        selector.q == selector.q_hat and all_equal and all_finite,
        f"q == q_hat: {selector.q == selector.q_hat}, alarm times equal and "
        f"finite on all 50 streams: {all_equal and all_finite}",
    )


def test_unit_exactness():
    """Closed-form and hand-counted primitives match to 1e-12 relative
    tolerance."""
    checks = []
    checks.append(
        math.isclose(
            hoeffding_halfwidth(200, 0.05),
            math.sqrt(math.log(40.0) / 400.0),
            rel_tol=1e-12,
        )
    )
    checks.append(
        math.isclose(
            hoeffding_halfwidth(50, 0.05),
            math.sqrt(math.log(40.0) / 100.0),
            rel_tol=1e-12,
        )
    )
    checks.append(sigmoid_mixture(100, 100) == 0.5)
    checks.append(
        math.isclose(
            sigmoid_mixture(105, 100), 1.0 / (1.0 + math.exp(-5.0)), rel_tol=1e-12
        )
    )
    data = Dataset(
        np.arange(10, dtype=float).reshape(5, 2),
        np.array([0.1, 0.2, 0.3, 0.8, 0.9]),
        np.array([0.05, 0.5, 0.1, 0.6, 0.7]),
    )
    power, fdp, _, _ = power_fdp(Selector(0.3, 0.45, 0.6, 0.6), data.errors, data.scores)
    checks.append(power == 1.0 and math.isclose(fdp, 1.0 / 3.0, rel_tol=1e-12))
    checks.append(empirical_quantile(0.5, [1, 2, 3, 4]) == 2.0)
    checks.append(
        empirical_quantile(0.9, [10, 20, 30, 40, 50, 60, 70, 80, 90, 100]) == 90.0
    )
    checks.append(empirical_quantile(0.4, [7.0]) == 7.0)
    _verdict(
        "unit exactness",
        all(checks),
        f"{sum(checks)}/{len(checks)} closed-form checks exact",
    )


def test_evaluate_determinism(tmp_path, runner):
    """Repeating the evaluate command with identical configuration must
    produce byte-identical metric JSON."""
    src = tmp_path / "src.csv"
    write_dataset(
        src,
        make_subgroup_dataset(
            500, subgroup_frac=0.3, base_error=0.15, error_ratio=3.0, seed=31
        ),
    )

    def run(out):
        return runner.invoke(
            cli_main,
            [
                "evaluate",
                "--source",
                str(src),
                "--out-dir",
                str(out),
                "--horizon",
                "300",
                "--onset",
                "80",
                "--n-seeds",
                "2",
            ],
        )

    r1 = run(tmp_path / "o1")
    r2 = run(tmp_path / "o2")
    same_metrics = (tmp_path / "o1" / "metrics.json").read_bytes() == (
        tmp_path / "o2" / "metrics.json"
    ).read_bytes()
    same_runs = (tmp_path / "o1" / "runs.json").read_bytes() == (
        tmp_path / "o2" / "runs.json"
    ).read_bytes()
    _verdict(
        "evaluate determinism",
        r1.exit_code == 0 and r2.exit_code == 0 and same_metrics and same_runs,
        f"exit codes ({r1.exit_code}, {r2.exit_code}), metrics.json "
        f"byte-identical: {same_metrics}, runs.json byte-identical: {same_runs}",
    )
