"""End-to-end experiment runner and suite metrics.

One experiment = ablate a source dataset per a shift scenario, run the
full calibration pipeline on the retained pool, stream a simulated
production environment, and keep every detector's margin trajectory
(plug-in and labeled-oracle variants) as its record points. Suite
metrics aggregate power, FDP, and detection times across many such
runs, judging each detector family against its own oracle's
ground-truth harmfulness.
"""

from __future__ import annotations

import json
import os
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .calibration import GridSpec, calibrate
from .core import Dataset, Selector, sorted_distinct
from .errors import CalibrationInfeasible, DegenerateError, InvalidInput
from .estimator import DEFAULT_K, fit_knn, predict_many, r_squared, score_dataset, split_half
from .monitor import (
    MonitorConfig,
    MonitorState,
    delta_diagnostic,
    mean_lower_path,
    oracle_source_statistics,
    source_mean_upper,
    source_statistics,
)
from .shiftsim import SPLIT_KINDS, Schedule, ShiftScenario, build_stream, split_pools

SCHEMA_VERSION = 1

# By detector family, in the order of sweep's rows: its plug-in and oracle trace keys
_TRACE_KEYS = {
    "phi_q": ("plugin_q", "oracle_q"),
    "phi_q2": ("plugin_q2", "oracle_q2"),
    "mean": ("plugin_mean", "oracle_mean"),
}
PLUGIN_DETECTORS = tuple(_TRACE_KEYS)
# Shares of the shuffled retained pool: the first TRAIN_FRAC is left unused,
# and never copied, the next TEST_FRAC feeds the production stream and the
# rest calibrates.
TRAIN_FRAC = 0.6
TEST_FRAC = 0.2
R2_BINS = 10


class ExperimentConfig(NamedTuple):
    """Knobs shared by every run in a suite."""

    k: int = DEFAULT_K
    grid: GridSpec = GridSpec()
    monitor: MonitorConfig = MonitorConfig()


class Records(NamedTuple):
    """A non-decreasing trajectory held as its record points: from step
    ``steps[i]`` (0-based) to the next record it holds ``values[i]``. A
    record starts wherever the value's bits change, so -0.0 beside 0.0
    starts one. ``top`` is the trajectory's ``max()``, which is not always
    the last record: where -0.0 and 0.0 tie at the top, numpy's reduction
    picks one by position."""

    steps: np.ndarray
    values: np.ndarray
    top: float

    @classmethod
    def of(cls, trace) -> "Records":
        trace = np.asarray(trace, dtype=np.float64)
        if not (trace[1:] >= trace[:-1]).all():
            raise InvalidInput("a margin trajectory must never fall")
        bits = trace.view(np.int64)
        # ~ makes the first step differ from what precedes it
        steps = np.flatnonzero(np.diff(bits, prepend=~bits[:1]))
        # the smallest unsigned type that holds every step: 4 bytes or less below 2^32 steps
        return cls(steps.astype(np.min_scalar_type(trace.size)), trace[steps], float(trace.max()))


class RunReport(NamedTuple):
    """Outcome of one run, made once where ``run_experiment`` ends: the
    run's identity, then ``records``, which has no default, so that no two
    reports share one dict, then the outcome fields, which keep their
    defaults on an uncalibratable run. ``records`` maps each detector
    key to the record points of its base trajectory and the upper bound
    its margins subtract, margin_t = lower_t - upper; the detector at
    tolerance eps alarms iff some margin exceeds eps, so one trajectory
    answers every tolerance sweep. A base is a running maximum, so it
    changes at few of its steps: 183 to 431 of 3,000 on average in the
    benchmark's suite."""

    scenario_id: str
    seed: int
    horizon: int
    eps_tol: float
    records: Dict[str, Tuple[Records, float]]
    uncalibratable: bool = False
    r2: Optional[float] = None
    calib_power: Optional[float] = None
    calib_fdp: Optional[float] = None
    selector: Optional[Selector] = None
    delta: Optional[float] = None
    n_clipped: int = 0

    def first_alarm(self, key: str, eps_tol: Optional[float] = None) -> Optional[int]:
        """First 1-based step whose margin strictly exceeds the tolerance,
        as ``first_alarm_time`` finds it in the whole trajectory."""
        eps = self.eps_tol if eps_tol is None else eps_tol
        held, upper = self.records[key]
        i = int(np.searchsorted(held.values - upper, eps, side="right"))
        return int(held.steps[i]) + 1 if i < held.steps.size else None

    def max_margin(self, key: str) -> float:
        held, upper = self.records[key]
        return float(held.top - upper)

    @property
    def traces(self) -> Dict[str, np.ndarray]:
        """Each detector's whole margin trajectory, its records repeated to the horizon."""
        return {
            key: np.repeat(held.values - upper, np.diff(held.steps, append=self.horizon))
            for key, (held, upper) in self.records.items()
        }

    def to_dict(self, include_margins: bool = False) -> dict:
        """The runs.json record: every field but ``records``, which gives
        each detector's first alarm and maximum margin (and its margins)."""
        out = {name: getattr(self, name) for name in self._fields if name != "records"}
        if self.selector is not None:
            out["selector"] = self.selector._asdict()
        out["schema_version"] = SCHEMA_VERSION
        traces = self.traces if include_margins else {}
        out["detectors"] = {
            key: {"first_alarm": self.first_alarm(key), "max_margin": self.max_margin(key)}
            | ({"margins": traces[key].tolist()} if include_margins else {})
            for key in self.records
        }
        return out


def record_margins(bases) -> Dict[str, Tuple[Records, float]]:
    """The records of a report: each (base trajectory, {detector key:
    upper bound}) of ``bases`` held as the base's record points, shared by
    its keys."""
    bases = [(Records.of(trace), uppers) for trace, uppers in bases]
    return {key: (held, upper) for held, uppers in bases for key, upper in uppers.items()}


def _sub_seeds(seed: int, scenario: ShiftScenario) -> Tuple[int, int, int]:
    # stable across processes: never use hash() here
    tag = (scenario.feature_index << 2) | SPLIT_KINDS.index(scenario.split_kind)
    if scenario.category_value is not None:
        cat_bits = int(np.float64(scenario.category_value).view(np.int64)) & 0xFFFFFFFF
    else:
        cat_bits = 0
    ss = np.random.SeedSequence([int(seed), tag, cat_bits])
    return tuple(int(c.generate_state(1)[0]) for c in ss.spawn(3))


def _partition(rows: np.ndarray, seed: int):
    """The (test, calibration) shares of a pool of row indices, shuffled with ``seed``."""
    shuffled = np.random.default_rng(seed).permutation(rows)
    n_train = int(TRAIN_FRAC * rows.size)
    n_test = int(TEST_FRAC * rows.size)
    return shuffled[n_train : n_train + n_test], shuffled[n_train + n_test :]


def run_experiment(
    source: Dataset,
    scenario: ShiftScenario,
    schedule: Schedule,
    config: ExperimentConfig,
    seed: int,
) -> RunReport:
    """One full pipeline run; deterministic given (source, scenario,
    schedule, config, seed).

    Pipeline: ablate pools, draw the test and calibration shares of the
    retained pool, simulate the production stream, fit the error estimator
    on half the calibration set, calibrate the selector on the other half,
    compute source statistics, and run all six detectors (plug-in and
    oracle variants of the two quantile statistics and the mean statistic).
    Every run fits its own k-NN and never reads a ``score`` column of the
    source. The k-NN scores each distinct source row of the stream once;
    every event reads its row's score, bit for bit the score of the whole
    stream. The quantile detectors' L_q and alarms come from
    ``MonitorState.feed``, which the streaming monitor calls per chunk,
    here once per stream.

    The report is made once, at the exit the run takes: uncalibratable,
    with no records and the R^2 if it was computed, or with every outcome.

    The pools, their shares and the stream are row indices into the
    source, each dropped at its last read, so the run copies from the
    source only the calibration share and the stream's distinct rows. Per
    step it peaks while the last mean detector's path is built (see
    ``cli._check_sizes``).
    """
    if source.errors is None:
        raise InvalidInput("experiments need a labeled source dataset")
    ablate_seed, part_seed, stream_seed = _sub_seeds(seed, scenario)
    retained, excluded = split_pools(source, scenario, ablate_seed)
    test, calib = _partition(retained, part_seed)
    del retained
    stream = build_stream(test, excluded, schedule, stream_seed)
    del test, excluded
    _, first, inverse = np.unique(stream.rows, return_index=True, return_inverse=True)
    distinct = source.features[stream.rows[first]]
    stream_errors = source.errors[stream.rows]
    del stream, first

    identity = scenario.scenario_id, seed, schedule.horizon, config.monitor.eps_tol
    fit_half, cal_half = split_half(source.subset(calib), part_seed + 1)
    del calib
    model = fit_knn(fit_half, min(config.k, fit_half.n))
    del fit_half
    cal_scored = score_dataset(model, cal_half)
    r2 = None
    try:
        r2 = r_squared(cal_scored.scores, cal_scored.errors)
        calres = calibrate(config.grid, cal_scored)
    except (CalibrationInfeasible, DegenerateError):
        # all-equal errors have no R^2, and no error exceeds q to qualify
        return RunReport(*identity, {}, uncalibratable=True, r2=r2)
    selector = calres.selector

    mon_cfg = config.monitor
    stats = source_statistics(cal_scored, selector, mon_cfg)
    oracle_stats = oracle_source_statistics(cal_scored, selector, mon_cfg)
    upper_mean = source_mean_upper(cal_scored.errors, mon_cfg.alpha_source)

    stream_scores = predict_many(model, distinct)[inverse]

    # plug-in quantile detectors share one lower-bound trajectory; the
    # oracle's selection is the true-error flag, so it has no false discoveries
    l_plugin = MonitorState(selector, stats, mon_cfg).feed(selector.select(stream_scores))
    l_oracle = MonitorState(selector, oracle_stats, mon_cfg).feed(stream_errors > selector.q)
    # mean detectors
    clipped = np.clip(stream_scores, 0.0, 1.0)
    low_mean_plugin = mean_lower_path(clipped, mon_cfg)
    low_mean_oracle = mean_lower_path(stream_errors, mon_cfg)

    records = record_margins((
        (l_plugin, {"plugin_q": stats.u_q, "plugin_q2": stats.u_q2}),
        (l_oracle, {"oracle_q": oracle_stats.u_q, "oracle_q2": oracle_stats.u_q2}),
        (low_mean_plugin, {"plugin_mean": upper_mean}),
        (low_mean_oracle, {"oracle_mean": upper_mean}),
    ))
    return RunReport(
        *identity,
        records,
        r2=r2,
        calib_power=calres.power,
        calib_fdp=calres.fdp,
        selector=selector,
        delta=delta_diagnostic(stream_errors, stream_scores, selector, stats),
        n_clipped=int((stream_scores != clipped).sum()),
    )


def suite_metrics(
    reports: Sequence[RunReport],
    detector: str,
    eps_harm: float,
    eps_tol: Optional[float] = None,
) -> dict:
    """Aggregate one plug-in detector over a suite of runs into the record
    that metrics.json, sweep.json and sweep.csv write.

    Ground truth per run comes from the same family's oracle trace at
    tolerance ``eps_harm``; the plug-in alarms at its configured eps_tol
    unless overridden. Means over empty sets are reported as None, never 0.
    """
    if not reports:
        raise InvalidInput("suite metrics need at least one run report")
    if detector not in PLUGIN_DETECTORS:
        raise InvalidInput(f"unknown detector family {detector!r}")
    plugin_key, oracle_key = _TRACE_KEYS[detector]

    usable = [r for r in reports if not r.uncalibratable]
    n_harmful = n_alarms = 0
    det_times, gaps = [], []  # a detection is an alarmed harmful run
    for r in usable:
        is_harmful = r.max_margin(oracle_key) > eps_harm
        n_harmful += int(is_harmful)
        t_plugin = r.first_alarm(plugin_key, eps_tol)
        if t_plugin is None:
            continue
        n_alarms += 1
        if is_harmful:
            det_times.append(t_plugin)
        t_oracle = r.first_alarm(oracle_key, eps_tol)
        if t_oracle is not None:
            gaps.append(abs(t_plugin - t_oracle))

    true_pos = len(det_times)
    return {
        "schema_version": SCHEMA_VERSION,
        "detector": detector,
        "eps_harm": eps_harm,
        "n_runs": len(usable),
        "n_harmful": n_harmful,
        "n_alarms": n_alarms,
        "power": None if n_harmful == 0 else true_pos / n_harmful,
        "fdp": None if n_alarms == 0 else (n_alarms - true_pos) / n_alarms,
        "mean_detection_time": None if not det_times else float(np.mean(det_times)),
        "mean_oracle_time_gap": None if not gaps else float(np.mean(gaps)),
    }


def _linear_quantiles(values: np.ndarray, levels: np.ndarray) -> np.ndarray:
    """``np.quantile(values, levels)`` of finite values by its default
    (linear) rule, in its order of operations, so the same bits, with
    ``sorted_distinct`` where np.quantile calls np.unique."""
    pos = (values.size - 1) * levels
    below = np.floor(pos)
    above = below + 1
    last = pos >= values.size - 1
    below[last] = above[last] = -1  # the largest value, indexed as np.quantile does
    gamma = pos - below
    below, above = below.astype(np.intp), above.astype(np.intp)
    # partitioned at the positions np.quantile partitions at, so that 0.0
    # and -0.0, which compare equal, take the places they take there
    values = np.array(values)
    values.partition(sorted_distinct(np.concatenate(([0, -1], below, above))))
    a, b = values[below], values[above]
    diff = b - a
    return np.where(gamma >= 0.5, b - diff * (1 - gamma), a + diff * gamma)


def suite_metrics_by_r2(
    reports: Sequence[RunReport], detector: str, eps_harm: float
) -> List[dict]:
    """Suite metrics grouped by estimator-R^2 decile; bins partition the
    usable reports exactly."""
    usable = [r for r in reports if not r.uncalibratable]
    if not usable:
        return []
    r2s = np.array([r.r2 for r in usable])
    edges = _linear_quantiles(r2s, np.linspace(0.0, 1.0, R2_BINS + 1))
    bins = np.clip(np.searchsorted(edges, r2s, side="right") - 1, 0, R2_BINS - 1)
    out = []
    for b in range(R2_BINS):
        members = [r for r, k in zip(usable, bins) if k == b]
        if not members:
            continue
        out.append(
            {
                "bin": b,
                "r2_low": float(edges[b]),
                "r2_high": float(edges[b + 1]),
                "count": len(members),
                "metrics": suite_metrics(members, detector, eps_harm),
            }
        )
    return out


def usable_cpus() -> int:
    """The CPUs this process may run on: its affinity set where the
    platform has one, else the machine's count, or 1 when that is
    unknown."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _run_one(args):
    source, scenario, schedule, config, seed = args
    return run_experiment(source, scenario, schedule, config, seed)


def run_suite(
    source: Dataset,
    scenarios: Sequence[ShiftScenario],
    schedule: Schedule,
    config: ExperimentConfig,
    seeds: Sequence[int],
    workers: int = 1,
) -> List[RunReport]:
    """Cross product of scenarios and seeds, optionally over worker
    processes; the report order is deterministic either way. A source
    whose errors are all equal has no run that could calibrate."""
    if source.errors is not None and np.ptp(source.errors) == 0.0:
        raise DegenerateError("R^2 is undefined for a constant target")
    runs = len(scenarios) * len(seeds)
    jobs = ((source, scenario, schedule, config, seed) for scenario in scenarios for seed in seeds)
    # a pool forks all its workers at the first submit, so never more than
    # there are runs or CPUs
    workers = min(workers, runs, usable_cpus())
    if workers <= 1:
        return [_run_one(job) for job in jobs]
    # imported here, so that only runs with workers pay for loading multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(_run_one, jobs, chunksize=max(1, runs // (4 * workers))))


def reports_to_json(reports: Sequence[RunReport], include_margins: bool = False) -> str:
    return json.dumps(
        {
            "schema_version": SCHEMA_VERSION,
            "runs": [r.to_dict(include_margins) for r in reports],
        },
        sort_keys=True,
    )
