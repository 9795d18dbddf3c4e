"""Experiment runner and suite metrics."""

import os
import pathlib
import pickle
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from shiftwatch import Dataset
from shiftwatch import harness as harness_module
from shiftwatch.errors import InvalidInput
from shiftwatch.estimator import predict_many
from shiftwatch.monitor import first_alarm_time
from shiftwatch.harness import (
    SCHEMA_VERSION,
    ExperimentConfig,
    RunReport,
    record_margins,
    reports_to_json,
    run_experiment,
    run_suite,
    suite_metrics,
    suite_metrics_by_r2,
    usable_cpus,
)
from shiftwatch.shiftsim import (
    Schedule,
    ShiftScenario,
    enumerate_scenarios,
    make_subgroup_dataset,
    subgroup_feature_kinds,
)

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"


def _report(i, oracle_max, plugin_max, r2=0.5):
    """Synthetic report whose q2 pair has the given max margins."""
    margins = {key: oracle_max if key.startswith("oracle") else plugin_max for key in _KEYS}
    records = record_margins((np.array([m - 0.5, m]), {key: 0.0}) for key, m in margins.items())
    return RunReport(scenario_id=f"s{i}", seed=i, horizon=2, eps_tol=0.0, records=records, r2=r2)


_FAMILY_KEYS = (("plugin_q", "oracle_q"), ("plugin_q2", "oracle_q2"), ("plugin_mean", "oracle_mean"))
_KEYS = [key for pair in _FAMILY_KEYS for key in pair]
# thresholds and margins are drawn from one palette, so that margins touch them
_LEVELS = (-0.1, 0.0, 0.05, 0.25)


def _first_above(margins, eps):
    return next((t for t, m in enumerate(margins, 1) if m > eps), None)


def _reference_metrics(reports, family, plugin_key, oracle_key, eps_harm, eps_tol):
    """Suite metrics counted run by run: a run is harmful when its oracle
    margin ever exceeds eps_harm, alarmed when its plug-in margin exceeds
    the tolerance, detected when both."""
    n_runs = n_harmful = n_alarms = true_pos = false_pos = 0
    det_times, gaps = [], []
    for r in reports:
        if r.uncalibratable:
            continue
        n_runs += 1
        tol = r.eps_tol if eps_tol is None else eps_tol
        harmful = any(m > eps_harm for m in r.traces[oracle_key])
        t_plugin = _first_above(r.traces[plugin_key], tol)
        t_oracle = _first_above(r.traces[oracle_key], tol)
        n_harmful += harmful
        if t_plugin is not None:
            n_alarms += 1
            true_pos += harmful
            false_pos += not harmful
            if harmful:
                det_times.append(t_plugin)
            if t_oracle is not None:
                gaps.append(abs(t_plugin - t_oracle))
    return {
        "schema_version": SCHEMA_VERSION,
        "detector": family,
        "eps_harm": eps_harm,
        "n_runs": n_runs,
        "n_harmful": n_harmful,
        "n_alarms": n_alarms,
        "power": None if n_harmful == 0 else true_pos / n_harmful,
        "fdp": None if n_alarms == 0 else false_pos / n_alarms,
        "mean_detection_time": None if not det_times else float(np.mean(det_times)),
        "mean_oracle_time_gap": None if not gaps else float(np.mean(gaps)),
    }


class TestSuiteMetrics:
    def test_hand_counted_power_and_fdp(self):
        # 4 harmful shifts, 3 detected; 6 benign, 1 false alarm
        reports = []
        for i in range(3):
            reports.append(_report(i, oracle_max=0.2, plugin_max=0.1))  # TP
        reports.append(_report(3, oracle_max=0.2, plugin_max=-0.1))  # miss
        reports.append(_report(4, oracle_max=-0.2, plugin_max=0.1))  # FA
        for i in range(5, 10):
            reports.append(_report(i, oracle_max=-0.2, plugin_max=-0.1))
        m = suite_metrics(reports, "phi_q2", eps_harm=0.0)
        assert m["n_harmful"] == 4 and m["n_alarms"] == 4
        assert m["power"] == pytest.approx(0.75)
        assert m["fdp"] == pytest.approx(0.25)

    def test_never_fires(self):
        reports = [_report(i, oracle_max=0.2, plugin_max=-0.1) for i in range(4)]
        m = suite_metrics(reports, "phi_q2", eps_harm=0.0)
        assert m["power"] == 0.0
        assert m["fdp"] is None
        assert m["mean_detection_time"] is None

    def test_all_harmful_all_detected(self):
        reports = [_report(i, oracle_max=0.2, plugin_max=0.1) for i in range(4)]
        m = suite_metrics(reports, "phi_q2", eps_harm=0.0)
        assert m["power"] == 1.0 and m["fdp"] == 0.0

    def test_raising_eps_harm_shrinks_harmful_set(self):
        reports = [_report(i, oracle_max=0.05 * i, plugin_max=0.1) for i in range(10)]
        harmful_counts = [
            suite_metrics(reports, "phi_q2", eps_harm=e)["n_harmful"]
            for e in (0.0, 0.1, 0.2, 0.4)
        ]
        assert harmful_counts == sorted(harmful_counts, reverse=True)
        alarms = {
            suite_metrics(reports, "phi_q2", eps_harm=e)["n_alarms"]
            for e in (0.0, 0.1, 0.2, 0.4)
        }
        assert len(alarms) == 1  # alarms unchanged by the harmfulness threshold

    def test_validation(self):
        with pytest.raises(InvalidInput):
            suite_metrics([], "phi_q2", 0.0)
        with pytest.raises(InvalidInput):
            suite_metrics([_report(0, 0.1, 0.1)], "phi_q3", 0.0)

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_matches_per_run_reference(self, data):
        """Every suite metrics record field, for each family with and without an
        eps_tol override, equals a plain per-run count over non-decreasing
        margins that cross, touch or miss eps_harm and eps_tol."""
        eps_harm = data.draw(st.sampled_from(_LEVELS), label="eps_harm")
        eps_tol = data.draw(st.sampled_from(_LEVELS[1:]), label="eps_tol")
        horizon = data.draw(st.integers(1, 6), label="horizon")
        values = st.one_of(st.sampled_from(_LEVELS), st.floats(-1.0, 1.0))
        # one report: uncalibratable (None), or one sorted row of margins per trace key
        margins = st.none() | st.lists(values, min_size=6 * horizon, max_size=6 * horizon).map(
            lambda v: np.sort(np.reshape(v, (6, horizon)), axis=1)
        )
        drawn = data.draw(st.lists(st.tuples(st.sampled_from(_LEVELS[1:]), margins), min_size=1, max_size=30))
        reports = []
        for i, (report_tol, rows) in enumerate(drawn):
            records = {} if rows is None else record_margins((row, {key: 0.0}) for key, row in zip(_KEYS, rows))
            reports.append(RunReport(f"s{i}", i, horizon, report_tol, records, uncalibratable=rows is None))
        for family, (plugin_key, oracle_key) in zip(("phi_q", "phi_q2", "mean"), _FAMILY_KEYS):
            for tol in (None, eps_tol):
                expected = _reference_metrics(reports, family, plugin_key, oracle_key, eps_harm, tol)
                assert suite_metrics(reports, family, eps_harm, tol) == expected

    def test_r2_deciles_partition_reports(self):
        reports = [
            _report(i, oracle_max=0.1, plugin_max=0.1, r2=i / 40.0) for i in range(40)
        ]
        groups = suite_metrics_by_r2(reports, "phi_q2", eps_harm=0.0)
        assert sum(g["count"] for g in groups) == 40

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(
            st.one_of(st.sampled_from([-3.0, -0.0, 0.0, 0.25, 0.5, 1.0]), st.floats(-1e6, 1.0, width=64)),
            min_size=1,
            max_size=40,
        )
    )
    @example([0.5])
    @example([0.5, 0.5, 0.5])
    @example([1e6 * (i % 3) - 3.0 for i in range(11)])
    def test_r2_edges_are_np_quantile(self, values):
        """The decile edges equal np.quantile's, bit for bit, on ties,
        signed zeros, one value and n on either side of the bin count."""
        values = np.array(values)
        levels = np.linspace(0.0, 1.0, harness_module.R2_BINS + 1)
        assert harness_module._linear_quantiles(values, levels).tobytes() == np.quantile(values, levels).tobytes()


# margins and tolerances are drawn from one palette, with both zeros, so
# that plateaus, ties, touches and -0.0 beside 0.0 are common
_RECORD_LEVELS = (-0.25, -0.0, 0.0, 0.25, 1.0)


class TestRecords:
    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(st.one_of(st.sampled_from(_RECORD_LEVELS), st.floats(-1.0, 1.0)), min_size=1, max_size=80),
        st.sampled_from((0.0, 0.25, 0.1)),
        st.booleans(),
    )
    @example([0.0], 0.0, False)
    @example([0.25] * 7, 0.25, False)
    @example([-1.0, 0.0, -0.0], 0.0, False)
    # numpy's max of these gives 0.0, though the last of them is -0.0
    @example([-1.0] * 4 + [0.0] * 4 + [-0.0], 0.0, False)
    def test_records_give_the_dense_definitions(self, values, upper, capped):
        """A report built from a non-decreasing trajectory answers the first
        alarm at every tolerance, the maximum margin and the whole margins
        as the dense margins do, bit for bit, for a base less 0.0 (whose
        margins keep -0.0) and less a positive upper bound. A capped
        trajectory ends in a plateau of zeros."""
        # -0.0 and 0.0 compare equal, so sorting leaves them mixed
        base = np.sort(np.minimum(values, 0.0) if capped else values)
        report = RunReport("s", 0, base.size, 0.25, record_margins([(base, {"zero": 0.0, "upper": upper})]))
        held, _ = report.records["zero"]
        assert report.records["upper"][0] is held  # one base, shared by its keys
        assert held.steps[0] == 0 and held.values.size <= base.size
        for key, dense in (("zero", base - 0.0), ("upper", base - upper)):
            for eps in (*_RECORD_LEVELS, 0.1, -1.0, 2.0):
                assert report.first_alarm(key, eps) == first_alarm_time(dense, eps), (key, eps)
            assert report.first_alarm(key) == first_alarm_time(dense, 0.25)
            assert np.float64(report.max_margin(key)).tobytes() == dense.max().tobytes()
            assert report.traces[key].tobytes() == dense.tobytes()

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=20), st.booleans())
    def test_a_falling_trace_is_refused(self, values, to_nan):
        """A trace that falls, by one ulp or to NaN, is no margin trajectory."""
        base = np.sort(values)
        after = np.nan if to_nan else np.nextafter(base[-1], -np.inf)
        with pytest.raises(InvalidInput, match="never fall"):
            record_margins([(np.append(base, after), {"plugin_q": 0.0})])


def _record(monkeypatch, *names):
    """Wrap each named harness function so that its latest call's arguments
    and result are kept, as calls[name] = (args, result)."""
    calls = {}

    def recording(name, fn):
        def recorded(*args):
            calls[name] = (args, fn(*args))
            return calls[name][1]

        return recorded

    for name in names:
        monkeypatch.setattr(harness_module, name, recording(name, getattr(harness_module, name)))
    return calls


@pytest.fixture(scope="module")
def small_run():
    data = make_subgroup_dataset(
        800, subgroup_frac=0.3, base_error=0.15, error_ratio=3.0, seed=21
    )
    scenario = ShiftScenario(0, "above_median")
    schedule = Schedule("sudden", 400, onset=100)
    config = ExperimentConfig()
    return data, scenario, schedule, config


class TestRunReport:
    def test_fields_are_read_only(self):
        report = _report(0, 0.1, 0.2)
        for name in ("r2", "records", "uncalibratable"):
            with pytest.raises(AttributeError):
                setattr(report, name, None)

    def test_unknown_or_missing_fields_are_refused(self):
        """A report takes only its own fields, and its records always: no
        dict of records is shared by reports made without one."""
        with pytest.raises(TypeError):
            RunReport("s", 0, 2, 0.0, {}, r3=0.5)
        with pytest.raises(TypeError):
            RunReport("s", 0, 2, 0.0, uncalibratable=True)

    def test_a_report_pickles_to_the_same_record(self):
        """Reports cross from --workers children by pickle, with records or
        without, and give the same runs.json record after."""
        for report in (_report(0, 0.1, 0.2), RunReport("s", 0, 2, 0.0, {}, uncalibratable=True, r2=0.5)):
            again = pickle.loads(pickle.dumps(report))
            assert again.to_dict(include_margins=True) == report.to_dict(include_margins=True)


class TestRunExperiment:
    def test_deterministic(self, small_run):
        data, scenario, schedule, config = small_run
        r1 = run_experiment(data, scenario, schedule, config, seed=5)
        r2 = run_experiment(data, scenario, schedule, config, seed=5)
        assert r1.selector == r2.selector
        assert r1.r2 == r2.r2 and r1.delta == r2.delta
        for key in r1.traces:
            assert np.array_equal(r1.traces[key], r2.traces[key])

    def test_report_is_complete(self, small_run):
        data, scenario, schedule, config = small_run
        report = run_experiment(data, scenario, schedule, config, seed=5)
        assert not report.uncalibratable
        assert set(report.traces) == {
            "plugin_q",
            "plugin_q2",
            "oracle_q",
            "oracle_q2",
            "plugin_mean",
            "oracle_mean",
        }
        assert all(m.shape == (400,) for m in report.traces.values())
        assert report.calib_fdp < 0.2

    @pytest.mark.parametrize("kind, seed", [("sudden", 2), ("sigmoid", 2), ("none", 5)])
    def test_margins_are_non_decreasing(self, small_run, kind, seed):
        """Each trace is a running maximum less constants (floored at 0 for
        the quantile detectors), so it never falls, and its last entry is
        its maximum."""
        data, scenario, _, config = small_run
        report = run_experiment(data, scenario, Schedule(kind, 600, onset=100), config, seed=seed)
        assert not report.uncalibratable
        for key, margins in report.traces.items():
            assert margins.size == 600
            assert np.all(np.diff(margins) >= 0.0), key
            assert report.max_margin(key) == margins[-1]

    def test_benign_ablation_rarely_alarms(self):
        # ablating a pure-noise feature split leaves the error distribution
        # unchanged, so the shift is benign for every family
        data = make_subgroup_dataset(
            800, subgroup_frac=0.3, base_error=0.15, error_ratio=3.0, seed=22
        )
        scenario = ShiftScenario(2, "above_median")  # noise feature
        schedule = Schedule("sudden", 400, onset=100)
        config = ExperimentConfig()
        fired = 0
        for seed in range(5):
            report = run_experiment(data, scenario, schedule, config, seed=seed)
            if report.uncalibratable:
                continue
            if report.first_alarm("plugin_q2") is not None:
                fired += 1
            assert report.max_margin("oracle_q2") <= 0.0
        assert fired == 0

    def test_out_of_range_scores_are_clipped_and_counted(self, small_run, monkeypatch):
        """The plug-in mean detector sees scores clipped to [0, 1], and the
        report counts the clipped ones."""
        data, scenario, schedule, config = small_run
        stretched = lambda model, x: 3.0 * predict_many(model, x) - 1.0
        monkeypatch.setattr(harness_module, "predict_many", stretched)
        calls = _record(monkeypatch, "build_stream", "predict_many")
        report = run_experiment(data, scenario, schedule, config, seed=5)
        # the report counts clipped events, whether or not they share a pool row
        (model, _), _ = calls["predict_many"]
        scores = stretched(model, data.features[calls["build_stream"][1].rows])
        monkeypatch.setattr(harness_module, "predict_many", lambda m, x: np.clip(stretched(m, x), 0.0, 1.0))
        clipped = run_experiment(data, scenario, schedule, config, seed=5)
        assert report.n_clipped == int(((scores < 0.0) | (scores > 1.0)).sum()) > 0
        assert clipped.n_clipped == 0
        assert report.selector == clipped.selector
        for key in report.traces:
            assert np.array_equal(report.traces[key], clipped.traces[key])

    @pytest.mark.parametrize("scenario_id", ["f3_above_median", "f1_category_1"])
    def test_stream_scores_equal_whole_stream_scores(self, monkeypatch, scenario_id):
        """Each distinct source row of the stream is scored once, in
        ascending row order; the scores the detectors read equal
        predict_many over the whole stream's rows, bit for bit, and each
        event's row lies in the pools it was drawn from and gives the
        oracle its error."""
        keywords = dict(immune_frac=0.3)  # f1 is a 0/1 category
        data = make_subgroup_dataset(800, seed=21, **keywords)
        scenarios = enumerate_scenarios(data, subgroup_feature_kinds(**keywords))
        scenario = next(s for s in scenarios if s.scenario_id == scenario_id)
        calls = _record(monkeypatch, "build_stream", "predict_many", "delta_diagnostic")
        report = run_experiment(data, scenario, Schedule("sudden", 400, onset=100), ExperimentConfig(), seed=3)
        assert not report.uncalibratable
        (test, excluded, _, _), stream = calls["build_stream"]
        assert np.isin(stream.rows, np.concatenate([test, excluded])).all()
        (model, scored_rows), _ = calls["predict_many"]
        distinct = np.unique(stream.rows)
        assert np.array_equal(scored_rows, data.features[distinct]) and distinct.size < stream.horizon
        (errors, scores, _, _), _ = calls["delta_diagnostic"]
        assert np.array_equal(errors, data.errors[stream.rows])
        expected = predict_many(model, data.features[stream.rows])
        assert np.array_equal(scores.view(np.int64), expected.view(np.int64))
        assert report.n_clipped == int((expected != np.clip(expected, 0.0, 1.0)).sum())

    def test_peak_grows_by_less_than_half_the_added_rows(self):
        """A run holds its pools, their shares and its stream as row indices
        into the source, and copies from it only the calibration share and
        the stream's distinct rows, so its traced peak, which comes while
        the k-NN scores the calibration half, grows little with the source:
        between 32,000 and 64,000 rows it grew by 0.15 times the added rows'
        bytes, and by 1.31 when the pools and the stream were copies."""
        peaks, sizes = [], []
        for n in (32_000, 64_000):
            source = make_subgroup_dataset(n, n_noise_features=9, seed=23)
            sizes.append(source.features.nbytes + source.errors.nbytes)
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                schedule = Schedule("sudden", 50)
                report = run_experiment(source, ShiftScenario(0, "above_median"), schedule, ExperimentConfig(), 1)
                peaks.append(tracemalloc.get_traced_memory()[1] - base)
            finally:
                tracemalloc.stop()
            assert not report.uncalibratable
        assert peaks[1] - peaks[0] < 0.5 * (sizes[1] - sizes[0]), peaks

    def test_requires_labels(self, small_run):
        _, scenario, schedule, config = small_run
        unlabeled = Dataset(np.random.default_rng(0).random((100, 3)))
        with pytest.raises(InvalidInput):
            run_experiment(unlabeled, scenario, schedule, config, seed=0)

    def test_run_suite_order_and_json(self, small_run):
        data, scenario, schedule, config = small_run
        scenarios = [scenario, ShiftScenario(1, "below_median")]
        reports = run_suite(data, scenarios, schedule, config, seeds=[0, 1])
        assert [r.scenario_id for r in reports] == [
            "f0_above_median",
            "f0_above_median",
            "f1_below_median",
            "f1_below_median",
        ]
        payload = reports_to_json(reports)
        assert payload == reports_to_json(
            run_suite(data, scenarios, schedule, config, seeds=[0, 1])
        )

    def test_parallel_suite_matches_serial(self, small_run):
        data, scenario, schedule, config = small_run
        scenarios = [scenario, ShiftScenario(1, "below_median")]
        serial, parallel = (
            reports_to_json(
                run_suite(data, scenarios, schedule, config, seeds=[0, 1], workers=workers),
                include_margins=True,
            )
            for workers in (1, 2)
        )
        assert serial == parallel

    @pytest.mark.parametrize(
        "workers, n_runs, pool, cpus",
        [(500, 2, 4, 8), (3, 2, 3, 8), (500, 1, None, 8), (2, 1, None, 8), (500, 2, 3, 3), (4, 2, None, None)],
        # the CPU count is 8 unless the id names it
        ids=["500-2-4", "3-2-3", "500-1-None", "2-1-None", "500-2-3-cpus-3", "4-2-None-cpus-unknown"],
    )
    def test_pool_never_has_more_workers_than_jobs(self, small_run, monkeypatch, workers, n_runs, pool, cpus):
        # a fork pool starts all max_workers children at the first submit,
        # so it is capped at the jobs and at usable_cpus(): here, with no
        # affinity set to read, the CPU count, one when os.cpu_count cannot
        # tell; the stand-in records the size and runs the jobs in this
        # process
        import concurrent.futures

        sizes = []

        class StandIn:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, jobs, chunksize=1):
                return map(fn, jobs)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", StandIn)
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        data, scenario, schedule, config = small_run
        # n_runs scenarios by n_runs seeds: 4 jobs or 1
        scenarios = [scenario, ShiftScenario(1, "below_median")][:n_runs]
        seeds = [0, 1][:n_runs]
        reports = run_suite(data, scenarios, schedule, config, seeds=seeds, workers=workers)
        assert sizes == ([] if pool is None else [pool])
        assert reports_to_json(reports, include_margins=True) == reports_to_json(
            run_suite(data, scenarios, schedule, config, seeds=seeds), include_margins=True
        )

    def test_usable_cpus(self, monkeypatch):
        """The CPUs of the process's affinity set where the platform has
        one; else the machine's count, one when that is unknown."""
        if hasattr(os, "sched_getaffinity"):
            assert usable_cpus() == len(os.sched_getaffinity(0))
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        for count, usable in ((3, 3), (None, 1)):
            monkeypatch.setattr(os, "cpu_count", lambda: count)
            assert usable_cpus() == usable

    @pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="no CPU affinity on this platform")
    def test_a_process_pinned_to_one_cpu_runs_its_suite_in_process(self):
        """A process pinned to one CPU runs a suite of two workers in
        itself: it never loads the worker pool, whatever the machine's
        CPU count."""
        code = (
            "import os, sys\n"
            "os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})\n"
            "from shiftwatch.harness import ExperimentConfig, run_suite\n"
            "from shiftwatch.shiftsim import Schedule, ShiftScenario, make_subgroup_dataset\n"
            "scenarios = [ShiftScenario(0, 'above_median'), ShiftScenario(1, 'below_median')]\n"
            "reports = run_suite(make_subgroup_dataset(400, seed=21), scenarios, Schedule('sudden', 50), "
            "ExperimentConfig(), seeds=[0, 1], workers=2)\n"
            "print(len(reports), 'concurrent.futures.process' in sys.modules)\n"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["4", "False"]
