"""Command-line front end.

Subcommands: calibrate, monitor, simulate, evaluate, sweep. All outputs
land under the configured output directory; report payloads contain no
timestamps so reruns with identical config are byte-identical. Exit codes:
0 ok, 1 error, 2 alarm raised (monitor).
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import gc
import json
import os
import sys

from .calibration import calibrate, write_grid_report
from .config import AppConfig, parse_config
from .core import read_chunks, read_dataset, write_dataset
from .errors import ConfigError, IngestError, InvalidInput, QueryRowError, ShiftwatchError
# perfbench/trace_cli.py times the monitor's scoring under cli.predict until ROADMAP item 19 lands
from .estimator import fit_knn, predict_many as predict, r_squared, score_dataset, split_half
from .harness import (
    PLUGIN_DETECTORS,
    SCHEMA_VERSION,
    ExperimentConfig,
    reports_to_json,
    run_suite,
    suite_metrics,
    suite_metrics_by_r2,
    usable_cpus,
)
from .monitor import TRAJECTORY_HEADER, MonitorState, source_statistics, write_trajectory_csv
from .shiftsim import CONTINUOUS, MIN_SUBGROUP, build_stream, enumerate_scenarios, split_pools


def _read_source(cfg: AppConfig):
    if cfg.source is None:
        raise ConfigError("source", "a source CSV is required")
    return read_dataset(cfg.source)


def _check_sizes(horizon: int, runs: int, workers: int = 1) -> None:
    """Refuse a suite that cannot fit in physical memory before anything of
    its size is allocated. A run in flight holds its stream as source row
    indices and gathers only its distinct rows, so it peaks at 192 bytes a
    step whatever the feature count, while its last mean detector's path
    is built (README, "Command line", gives the measurements). ``simulate``
    builds one stream of row indices at a time and writes it a block of
    rows at a time, so it peaks at 64 bytes a step whatever the feature
    count, while the indices are drawn. A suite holds min(workers, runs,
    usable CPUs) runs in flight and, for each of ``runs``, a report of 6 x 8 bytes
    a step and 10 KiB: the record points of its four margin bases, a
    float64 and a step index each, the index of at most 4 bytes below 2^32
    steps; beyond, it takes 8, and the estimate counts 8 x 8 bytes a step."""
    memory = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    run = (192 if runs else 64) * horizon
    report = 8 * (6 if horizon < 2**32 else 8) * horizon + 10 * 1024
    in_flight = max(1, min(workers, runs, usable_cpus()))
    beyond = f"more than the {memory / 2**30:,.1f} GiB of physical memory"
    if run + report * min(runs, 1) > memory:
        raise ConfigError("horizon", f"one run of {horizon} events needs {beyond}")
    if run * in_flight + report * runs > memory:
        raise ConfigError("n_seeds", f"{runs} runs of {horizon} events need {beyond}")


def _scenarios(cfg: AppConfig, runs_per_scenario: int = 0, workers: int = 1):
    """The source and its feature-split scenarios, for simulate, evaluate
    and sweep, once the sizes of ``runs_per_scenario`` runs of each
    scenario, over ``workers`` processes, are checked."""
    source = _read_source(cfg)
    kinds = (CONTINUOUS,) * source.d if cfg.feature_kinds is None else cfg.feature_kinds
    scenarios = enumerate_scenarios(source, kinds, cfg.ablation_fraction)
    _check_sizes(cfg.shift_schedule.horizon, len(scenarios) * runs_per_scenario, workers)
    return source, scenarios


def _calibration_pipeline(cfg: AppConfig):
    """Shared calibrate/monitor front half.

    Returns (model_or_None, scored calibration dataset, calibration result,
    estimator R^2). When the source file already carries a score column it
    is used directly and no estimator is fitted.
    """
    source = _read_source(cfg)
    if source.scores is not None:
        model, cal_scored = None, source
    else:
        fit_half, cal_half = split_half(source, cfg.seed)
        model = fit_knn(fit_half, min(cfg.k, fit_half.n))
        cal_scored = score_dataset(model, cal_half)
    r2 = r_squared(cal_scored.scores, cal_scored.errors)
    calres = calibrate(cfg.grid, cal_scored)
    return model, cal_scored, calres, r2


@contextlib.contextmanager
def _outputs(cfg: AppConfig, summary: str):
    """Make the out dir and yield a dict that the command fills as it
    writes its data files; on a normal exit the dict is written last, as
    the JSON ``summary``. An earlier run's summary is removed first, so a
    run stopped by an error leaves no summary beside data it does not
    describe, nor a directory this call made that is still empty."""
    made, path = [], os.path.abspath(cfg.out_dir)
    while not os.path.exists(path):
        made.append(path)
        path = os.path.dirname(path)
    payload = {}
    try:
        try:
            os.makedirs(cfg.out_dir, exist_ok=True)
        except OSError as exc:
            raise ConfigError("out_dir", f"cannot create directory {cfg.out_dir}: {exc.strerror}")
        with contextlib.suppress(FileNotFoundError):
            os.remove(os.path.join(cfg.out_dir, summary))
        yield payload
        with open(os.path.join(cfg.out_dir, summary), "w") as fh:
            fh.write(json.dumps({"schema_version": SCHEMA_VERSION, **payload}, sort_keys=True, indent=2))
    except BaseException:
        for path in made:  # deepest first; rmdir never removes a file
            with contextlib.suppress(OSError):
                os.rmdir(path)
        raise


_HELP = {
    "config_file": "Flat key = value config file.",
    "source": "Labeled source CSV (f0..fD, error[, score]).",
    "production": "Production CSV path, or '-' for stdin (one event per line).",
    "out_dir": "Output directory.",
    "k": "k-NN neighbor count.",
    "eps_harm_grid": "Comma-separated harmfulness thresholds.",
    "eps_tol_grid": "Comma-separated detector tolerances.",
}


def cmd_calibrate(cfg: AppConfig):
    """Calibrate the threshold pair and emit the grid report."""
    model, cal_scored, calres, r2 = _calibration_pipeline(cfg)
    with _outputs(cfg, "selector.json") as summary:
        write_grid_report(os.path.join(cfg.out_dir, "grid_report.csv"), calres.grid_report)
        summary.update(
            selector=calres.selector._asdict(),
            power=calres.power,
            fdp=calres.fdp,
            estimator_r2=r2,
            estimator="external_scores" if model is None else f"knn(k={model.k})",
            grid_cells=len(calres.grid_report),
        )
    print(
        f"selector: q={calres.selector.q:.6g} q_hat={calres.selector.q_hat:.6g} "
        f"power={calres.power:.3f} fdp={calres.fdp:.3f} (r2={r2:.3f})"
    )


def cmd_monitor(cfg: AppConfig):
    """Stream a production file (or stdin) through the quantile detectors.

    Production rows carry a 'score' column exactly when the source does;
    otherwise the k-NN fitted on the source scores each chunk of rows in
    one call, and a row's score does not depend on its chunk. trajectory.csv
    is written as the chunks are read, monitor.json when the input ends.
    Exits 2 when an alarm latched."""
    if cfg.production is None:
        raise ConfigError("production", "a production CSV (or '-') is required")
    model, cal_scored, calres, r2 = _calibration_pipeline(cfg)
    stats = source_statistics(cal_scored, calres.selector, cfg.monitor)
    state = MonitorState(calres.selector, stats, cfg.monitor)
    with (
        _outputs(cfg, "monitor.json") as summary,
        open(os.path.join(cfg.out_dir, "trajectory.csv"), "w", newline="") as fh,
    ):
        fh.write(TRAJECTORY_HEADER)
        for chunk in read_chunks(cfg.production, "production stream"):
            if (chunk.scores is None) != (model is not None):
                raise IngestError(
                    "production stream: the source file has a 'score' column, so the "
                    "production rows need one too"
                    if model is None
                    else "production stream: a 'score' column is not allowed when the "
                    "k-NN fitted on the source scores the rows"
                )
            try:
                scores = chunk.scores if model is None else predict(model, chunk.features)
            except QueryRowError as exc:  # the refused row, named by its event time t as in trajectory.csv
                raise InvalidInput(f"production event t={state.t + exc.row + 1}: k-NN query: {exc.message}") from None
            except InvalidInput as exc:  # a feature count other than the source's
                raise IngestError(f"production stream: {exc}") from None
            write_trajectory_csv(fh, state.observe(scores))
        summary.update(events=state.t, phi_q_alarm_time=state.phi_q_time, phi_q2_alarm_time=state.phi_q2_time)
    if state.phi_q or state.phi_q2:
        print(
            f"ALARM: phi_q at t={state.phi_q_time}, phi_q2 at t={state.phi_q2_time}"
        )
        sys.exit(2)
    print(f"no alarm over {state.t} events")


def cmd_simulate(cfg: AppConfig):
    """Enumerate feature-split scenarios and write replayable streams."""
    source, scenarios = _scenarios(cfg)
    with _outputs(cfg, "scenarios.json") as summary:
        index = summary["scenarios"] = []
        for i, scenario in enumerate(scenarios):
            retained, excluded = split_pools(source, scenario, cfg.seed + i)
            path = os.path.join(cfg.out_dir, f"stream_{scenario.scenario_id}.csv")
            # unnamed, so that a stream dies before the next is built
            write_dataset(path, source, build_stream(retained, excluded, cfg.shift_schedule, cfg.seed).rows)
            index.append(
                {
                    "scenario_id": scenario.scenario_id,
                    "feature_index": scenario.feature_index,
                    "split_kind": scenario.split_kind,
                    "category_value": scenario.category_value,
                    "excluded_size": excluded.size,
                    "stream_file": os.path.basename(path),
                }
            )
    print(f"wrote {len(index)} scenario streams to {cfg.out_dir}")


def _suite(cfg: AppConfig):
    """The arguments of run_suite for evaluate and sweep, from the source
    read and the suite's size checked, before the out dir is touched."""
    source, scenarios = _scenarios(cfg, cfg.n_seeds, cfg.workers)
    if not scenarios:
        n_half = source.n // 2
        raise InvalidInput(f"no feature split excludes between {MIN_SUBGROUP} and n/2 = {n_half} source rows")
    exp = ExperimentConfig(k=cfg.k, grid=cfg.grid, monitor=cfg.monitor)
    return source, scenarios, cfg.shift_schedule, exp, range(cfg.seed, cfg.seed + cfg.n_seeds)


def cmd_evaluate(cfg: AppConfig):
    """Run the full shift suite and emit per-detector metrics JSON."""
    suite = _suite(cfg)
    with _outputs(cfg, "metrics.json") as summary:
        reports = run_suite(*suite, workers=cfg.workers)
        summary.update(
            n_runs=len(reports),
            n_uncalibratable=sum(r.uncalibratable for r in reports),
            detectors={det: suite_metrics(reports, det, eps_harm=0.0) for det in PLUGIN_DETECTORS},
            by_r2_decile={det: suite_metrics_by_r2(reports, det, eps_harm=0.0) for det in ("phi_q2", "mean")},
        )
        with open(os.path.join(cfg.out_dir, "runs.json"), "w") as fh:
            fh.write(reports_to_json(reports))
    print(json.dumps(summary["detectors"], sort_keys=True))


def cmd_sweep(cfg: AppConfig):
    """Sweep harmfulness-threshold and tolerance grids over one suite run."""
    suite = _suite(cfg)
    with _outputs(cfg, "sweep.json") as summary:
        reports = run_suite(*suite, workers=cfg.workers)
        rows = summary["sweep"] = []
        for eps_tol in cfg.eps_tol_grid:
            for eps_harm in cfg.eps_harm_grid:
                for det in PLUGIN_DETECTORS:
                    rows.append({"eps_tol": eps_tol, **suite_metrics(reports, det, eps_harm, eps_tol)})
        with open(os.path.join(cfg.out_dir, "sweep.csv"), "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=sorted(rows[0].keys()))
            writer.writeheader()
            writer.writerows(rows)
    print(f"wrote {len(rows)} sweep rows to {cfg.out_dir}")


# Per command: its function and the configuration keys it has a flag for
# (--key-name, or -k), besides --config. Flag values stay strings:
# parse_config parses them as it parses file values.
_COMMANDS = {
    "calibrate": (cmd_calibrate, "source out_dir seed k fdp_max"),
    "monitor": (cmd_monitor, "source production out_dir seed k fdp_max alpha_source alpha_prod eps_tol delta_corr"),
    "simulate": (cmd_simulate, "source out_dir seed schedule horizon onset feature_kinds ablation_fraction"),
    "evaluate": (cmd_evaluate, "source out_dir seed k fdp_max alpha_source alpha_prod eps_tol delta_corr "
                 "schedule horizon onset feature_kinds ablation_fraction n_seeds workers"),
    # no --eps-tol: each row's tolerance comes from --eps-tol-grid
    "sweep": (cmd_sweep, "source out_dir seed k fdp_max alpha_source alpha_prod delta_corr schedule horizon onset "
              "feature_kinds ablation_fraction n_seeds workers eps_harm_grid eps_tol_grid"),
}


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as a package error, one ``Error:`` line and
    exit code 1, where argparse prints its usage and exits 2, the code of
    an alarm."""

    def error(self, message):
        raise ShiftwatchError(message)


def main(args=None, prog_name="shiftwatch"):
    """Label-free sequential harmful-shift monitoring.

    The first line is the help text. ``gc.freeze()`` first moves the
    objects of the loaded modules, about 22,500 from numpy and the
    package, out of reach of the cyclic garbage collector: the
    collections that run as the interpreter exits then skip them, which
    saves about 20 ms a command (README, "How it works"). Those objects
    live until the exit anyway, and each output file is closed by its
    ``with`` block before then."""
    gc.freeze()
    args = sys.argv[1:] if args is None else list(args)
    parser = _Parser(prog=prog_name, description=main.__doc__.split("\n")[0], allow_abbrev=False)
    commands = parser.add_subparsers(dest="command", metavar="COMMAND", required=True)
    for name, (command, keys) in _COMMANDS.items():
        keys, doc = ["config_file", *keys.split()], command.__doc__
        sub = commands.add_parser(name, help=doc.split("\n")[0], description=doc, allow_abbrev=False)
        options = [{"config_file": "--config", "k": "-k"}.get(key, "--" + key.replace("_", "-")) for key in keys]
        for option, key in zip(options, keys):
            sub.add_argument(option, dest=key, metavar=key.upper(), help=_HELP.get(key))
        if args[:1] == [name]:
            # a flag takes the word after it as its value, even '-' or
            # '-5,nan', which argparse alone would read as a flag
            words, args = iter(args[1:]), [name]
            for word in words:
                value = next(words, None) if word in options else None
                args.append(word if value is None else f"{word}={value}")
    try:
        if args[:1] and args[0].startswith("-") and args[0] not in ("-h", "--help"):
            raise ShiftwatchError(f"{args[0]}: flags come after the command ({prog_name} COMMAND {args[0]} ...)")
        flags = vars(parser.parse_args(args))
        command, _ = _COMMANDS[flags.pop("command")]
        command(parse_config(flags.pop("config_file"), **flags))
    except (ShiftwatchError, OSError) as exc:  # OSError: an output that cannot be written
        print(f"Error: {exc}", file=sys.stderr)
        sys.exit(1)
    except KeyboardInterrupt:  # an interrupted run is an error too, never an alarm
        print("\nAborted!", file=sys.stderr)
        sys.exit(1)


# perfbench/trace_cli.py calls cli.main.main(args=..., prog_name=...);
# ROADMAP item 19 deletes this alias
main.main = main


if __name__ == "__main__":
    main()
