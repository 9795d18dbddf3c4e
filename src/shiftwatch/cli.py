"""Command-line front end.

Subcommands: calibrate, monitor, simulate, evaluate, sweep. All outputs
land under the configured output directory; report payloads contain no
timestamps so reruns with identical config are byte-identical. Exit codes:
0 ok, 1 error, 2 alarm raised (monitor).
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import json
import os
import sys

import click

from .calibration import calibrate, write_grid_report
from .config import AppConfig, parse_config
from .core import read_chunks, read_dataset, write_dataset
from .errors import ConfigError, IngestError, InvalidInput, QueryRowError, ShiftwatchError
# perfbench/trace_cli.py times the monitor's scoring under cli.predict until ROADMAP item 1 lands
from .estimator import fit_knn, predict_many as predict, r_squared, score_dataset, split_half
from .harness import (
    PLUGIN_DETECTORS,
    SCHEMA_VERSION,
    ExperimentConfig,
    reports_to_json,
    run_suite,
    suite_metrics,
    suite_metrics_by_r2,
)
from .monitor import TRAJECTORY_HEADER, MonitorState, source_statistics, write_trajectory_csv
from .shiftsim import CONTINUOUS, MIN_SUBGROUP, build_stream, enumerate_scenarios, split_pools


def _read_source(cfg: AppConfig):
    if cfg.source is None:
        raise ConfigError("source", "a source CSV is required")
    return read_dataset(cfg.source)


def _check_sizes(horizon: int, d: int, runs: int) -> None:
    """Refuse a suite that cannot fit in physical memory before anything of
    its size is allocated. The estimate is a lower bound: one run's stream,
    horizon x (d + 2) float64s, plus what each of ``runs`` keeps: six margin
    traces of horizon float64s and 512 bytes. Under tracemalloc, horizon-1
    suites kept 0.7 KB a run when most runs could not calibrate and 1.4 KB
    when all could (reports, selectors, array headers), and peaked 0.15 KB
    a run higher while the runs' job tuples lived."""
    memory = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    stream, per_run = 8 * horizon * (d + 2), 8 * 6 * horizon + 512
    beyond = f"more than the {memory / 2**30:,.1f} GiB of physical memory"
    if stream + per_run * min(runs, 1) > memory:
        raise ConfigError("horizon", f"one run of {horizon} events needs {beyond}")
    if stream + per_run * runs > memory:
        raise ConfigError("n_seeds", f"{runs} runs of {horizon} events need {beyond}")


def _scenarios(cfg: AppConfig, runs_per_scenario: int = 0):
    """The source and its feature-split scenarios, for simulate, evaluate
    and sweep, once the sizes of ``runs_per_scenario`` runs of each
    scenario are checked."""
    source = _read_source(cfg)
    kinds = (CONTINUOUS,) * source.d if cfg.feature_kinds is None else cfg.feature_kinds
    scenarios = enumerate_scenarios(source, kinds, cfg.ablation_fraction)
    _check_sizes(cfg.horizon, source.d, len(scenarios) * runs_per_scenario)
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


def _write_json(path: str, payload) -> None:
    with open(path, "w") as fh:
        fh.write(json.dumps(payload, sort_keys=True, indent=2))


def _make_out_dir(path: str) -> None:
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as exc:
        raise ConfigError("out_dir", f"cannot create directory {path}: {exc.strerror}")


_HELP = {
    "config_file": "Flat key = value config file.",
    "source": "Labeled source CSV (f0..fD, error[, score]).",
    "production": "Production CSV path, or '-' for stdin (one event per line).",
    "out_dir": "Output directory.",
    "k": "k-NN neighbor count.",
    "eps_harm_grid": "Comma-separated harmfulness thresholds.",
    "eps_tol_grid": "Comma-separated detector tolerances.",
}


def _flags(*keys):
    """``--config`` plus one flag per configuration key the command reads
    (``--key-name``, or ``-k``). Flag values stay strings: parse_config
    parses them as it parses file values."""

    def decorate(fn):
        for key in reversed(("config_file",) + keys):
            name = {"config_file": "--config", "k": "-k"}.get(key, "--" + key.replace("_", "-"))
            fn = click.option(name, key, default=None, metavar=key.upper(), help=_HELP.get(key))(fn)
        return fn

    return decorate


class _Group(click.Group):
    """Reports a package error from any subcommand as one line and exit
    code 1, in place of a traceback."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except ShiftwatchError as exc:
            raise click.ClickException(str(exc))


@click.group(cls=_Group)
def main():
    """Label-free sequential harmful-shift monitoring."""


@main.command("calibrate")
@_flags("source", "out_dir", "seed", "k", "fdp_max")
def cmd_calibrate(config_file, **flags):
    """Calibrate the threshold pair and emit the grid report."""
    cfg = parse_config(config_file, **flags)
    model, cal_scored, calres, r2 = _calibration_pipeline(cfg)
    _make_out_dir(cfg.out_dir)
    write_grid_report(os.path.join(cfg.out_dir, "grid_report.csv"), calres.grid_report)
    payload = {
        "schema_version": SCHEMA_VERSION,
        "selector": dataclasses.asdict(calres.selector),
        "power": calres.power,
        "fdp": calres.fdp,
        "estimator_r2": r2,
        "estimator": "external_scores" if model is None else f"knn(k={model.k})",
        "grid_cells": len(calres.grid_report),
    }
    _write_json(os.path.join(cfg.out_dir, "selector.json"), payload)
    click.echo(
        f"selector: q={calres.selector.q:.6g} q_hat={calres.selector.q_hat:.6g} "
        f"power={calres.power:.3f} fdp={calres.fdp:.3f} (r2={r2:.3f})"
    )


@main.command("monitor")
@_flags("source", "production", "out_dir", "seed", "k", "fdp_max", "alpha_source", "alpha_prod", "eps_tol", "delta_corr")
def cmd_monitor(config_file, **flags):
    """Stream a production file (or stdin) through the quantile detectors.

    Production rows carry a 'score' column exactly when the source does;
    otherwise the k-NN fitted on the source scores each chunk of rows in
    one call, and a row's score does not depend on its chunk. trajectory.csv
    is written as the chunks are read, monitor.json when the input ends.
    Exits 2 when an alarm latched."""
    cfg = parse_config(config_file, **flags)
    if cfg.production is None:
        raise ConfigError("production", "a production CSV (or '-') is required")
    model, cal_scored, calres, r2 = _calibration_pipeline(cfg)
    stats = source_statistics(cal_scored, calres.selector, cfg.monitor)
    state = MonitorState(calres.selector, stats, cfg.monitor)
    _make_out_dir(cfg.out_dir)
    summary_path = os.path.join(cfg.out_dir, "monitor.json")
    # A run stopped by an error leaves the trajectory rows read so far;
    # an earlier run's summary must not sit beside them.
    with contextlib.suppress(FileNotFoundError):
        os.remove(summary_path)
    with open(os.path.join(cfg.out_dir, "trajectory.csv"), "w", newline="") as fh:
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
    summary = {
        "schema_version": SCHEMA_VERSION,
        "events": state.t,
        "phi_q_alarm_time": state.phi_q_time,
        "phi_q2_alarm_time": state.phi_q2_time,
    }
    _write_json(summary_path, summary)
    if state.phi_q or state.phi_q2:
        click.echo(
            f"ALARM: phi_q at t={state.phi_q_time}, phi_q2 at t={state.phi_q2_time}"
        )
        sys.exit(2)
    click.echo(f"no alarm over {state.t} events")


@main.command("simulate")
@_flags("source", "out_dir", "seed", "schedule", "horizon", "onset", "feature_kinds", "ablation_fraction")
def cmd_simulate(config_file, **flags):
    """Enumerate feature-split scenarios and write replayable streams."""
    cfg = parse_config(config_file, **flags)
    source, scenarios = _scenarios(cfg)
    _make_out_dir(cfg.out_dir)
    index = []
    for i, scenario in enumerate(scenarios):
        retained, excluded = split_pools(source, scenario, cfg.seed + i)
        stream = build_stream(retained, excluded, cfg.shift_schedule, cfg.seed)
        path = os.path.join(cfg.out_dir, f"stream_{scenario.scenario_id}.csv")
        write_dataset(path, stream.to_dataset())
        index.append(
            {
                "scenario_id": scenario.scenario_id,
                "feature_index": scenario.feature_index,
                "split_kind": scenario.split_kind,
                "category_value": scenario.category_value,
                "excluded_size": excluded.n,
                "stream_file": os.path.basename(path),
            }
        )
    payload = {"schema_version": SCHEMA_VERSION, "scenarios": index}
    _write_json(os.path.join(cfg.out_dir, "scenarios.json"), payload)
    click.echo(f"wrote {len(index)} scenario streams to {cfg.out_dir}")


def _run_suite_from_config(cfg: AppConfig):
    source, scenarios = _scenarios(cfg, cfg.n_seeds)
    if not scenarios:
        n_half = source.n // 2
        raise InvalidInput(f"no feature split excludes between {MIN_SUBGROUP} and n/2 = {n_half} source rows")
    exp = ExperimentConfig(k=cfg.k, grid=cfg.grid, monitor=cfg.monitor)
    seeds = range(cfg.seed, cfg.seed + cfg.n_seeds)
    # an unusable --out-dir fails before the suite runs, not after it;
    # a suite that fails on its input still leaves no directory behind
    missing = []
    path = os.path.abspath(cfg.out_dir)
    while not os.path.exists(path):
        missing.append(path)
        path = os.path.dirname(path)
    _make_out_dir(cfg.out_dir)
    try:
        return run_suite(source, scenarios, cfg.shift_schedule, exp, seeds, workers=cfg.workers)
    except BaseException:
        for made in missing:  # deepest first; rmdir never removes a file
            with contextlib.suppress(OSError):
                os.rmdir(made)
        raise


@main.command("evaluate")
@_flags(
    "source", "out_dir", "seed", "k", "fdp_max", "alpha_source", "alpha_prod", "eps_tol", "delta_corr",
    "schedule", "horizon", "onset", "feature_kinds", "ablation_fraction", "n_seeds", "workers",
)
def cmd_evaluate(config_file, **flags):
    """Run the full shift suite and emit per-detector metrics JSON."""
    cfg = parse_config(config_file, **flags)
    reports = _run_suite_from_config(cfg)
    payload = {
        "schema_version": SCHEMA_VERSION,
        "n_runs": len(reports),
        "n_uncalibratable": sum(r.uncalibratable for r in reports),
        "detectors": {
            det: suite_metrics(reports, det, eps_harm=0.0).to_dict()
            for det in PLUGIN_DETECTORS
        },
        "by_r2_decile": {
            det: suite_metrics_by_r2(reports, det, eps_harm=0.0)
            for det in ("phi_q2", "mean")
        },
    }
    _write_json(os.path.join(cfg.out_dir, "metrics.json"), payload)
    with open(os.path.join(cfg.out_dir, "runs.json"), "w") as fh:
        fh.write(reports_to_json(reports))
    click.echo(json.dumps(payload["detectors"], sort_keys=True))


@main.command("sweep")
# no --eps-tol: each row's tolerance comes from --eps-tol-grid
@_flags(
    "source", "out_dir", "seed", "k", "fdp_max", "alpha_source", "alpha_prod", "delta_corr",
    "schedule", "horizon", "onset", "feature_kinds", "ablation_fraction", "n_seeds", "workers",
    "eps_harm_grid", "eps_tol_grid",
)
def cmd_sweep(config_file, **flags):
    """Sweep harmfulness-threshold and tolerance grids over one suite run."""
    cfg = parse_config(config_file, **flags)
    reports = _run_suite_from_config(cfg)
    rows = []
    for eps_tol in cfg.eps_tol_grid:
        for eps_harm in cfg.eps_harm_grid:
            for det in PLUGIN_DETECTORS:
                m = suite_metrics(reports, det, eps_harm=eps_harm, eps_tol=eps_tol)
                rows.append({"eps_tol": eps_tol, **m.to_dict()})
    payload = {"schema_version": SCHEMA_VERSION, "sweep": rows}
    _write_json(os.path.join(cfg.out_dir, "sweep.json"), payload)
    with open(os.path.join(cfg.out_dir, "sweep.csv"), "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=sorted(rows[0].keys()))
        writer.writeheader()
        writer.writerows(rows)
    click.echo(f"wrote {len(rows)} sweep rows to {cfg.out_dir}")


if __name__ == "__main__":
    main()
