"""Golden output digests: every command's outputs, byte for byte.

Each case runs one command in process on small inputs built from
``make_subgroup_dataset`` and compares the sha256 of every file it writes,
of its stdout and of its exit code with ``tests/golden.json``. For
``evaluate`` the table also holds the digest of
``reports_to_json(reports, include_margins=True)``, the margin
trajectories of every detector. An optimization that moves one bit of an
output fails here.

Re-record the table only for a change that is meant to move outputs:

    SHIFTWATCH_RECORD_GOLDEN=1 python -m pytest tests/test_golden.py

and say which digests moved and why. The table names the numpy version
it was recorded with; a mismatch under another numpy or BLAS kernel is a
reproducibility defect, not a reason to re-record.
"""

import hashlib
import json
import os
import pathlib

import numpy as np
import pytest
from click.testing import CliRunner

from shiftwatch import Dataset, cli, core
from shiftwatch.core import write_dataset
from shiftwatch.shiftsim import make_subgroup_dataset, subgroup_feature_kinds

GOLDEN = pathlib.Path(__file__).resolve().parent / "golden.json"
RECORD = os.environ.get("SHIFTWATCH_RECORD_GOLDEN") == "1"
SUITE = "--horizon 1000 --onset 100 --n-seeds 4"
# a driver column and two 0/1 category columns, so the suite has category splits
CATEGORICAL_GEN = dict(
    n_noise_features=0, base_error=0.05, error_ratio=10.0, error_noise=0.03, immune_frac=0.1, masked_frac=0.1, seed=11
)
CATEGORICAL_KINDS = "continuous,categorical,categorical"


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """Labeled sources with and without a score column, production
    streams whose second part is the highest-error rows of a fresh draw,
    so a quantile detector latches mid-stream, and a suite source on
    which some runs alarm."""
    root = tmp_path_factory.mktemp("golden_inputs")
    source = make_subgroup_dataset(1000, seed=3)
    fresh = make_subgroup_dataset(3000, seed=4)
    rows = np.concatenate([np.arange(1000), np.argsort(-fresh.errors, kind="stable")[:1000]])
    noise = np.random.default_rng(7).normal(0.0, 0.05, source.n + rows.size)
    paths = {name: root / f"{name}.csv" for name in ("knn", "scored", "prod_knn", "prod_scored", "suite", "categorical")}
    write_dataset(paths["knn"], source)
    write_dataset(paths["scored"], source.with_scores(source.errors + noise[: source.n]))
    write_dataset(paths["prod_knn"], Dataset(fresh.features[rows]))
    write_dataset(paths["prod_scored"], Dataset(fresh.features[rows], None, fresh.errors[rows] + noise[source.n :]))
    suite = make_subgroup_dataset(2000, subgroup_frac=0.3, base_error=0.05, error_ratio=10.0, error_noise=0.03, seed=9)
    write_dataset(paths["suite"], suite)
    assert subgroup_feature_kinds(**CATEGORICAL_GEN) == CATEGORICAL_KINDS.split(",")
    write_dataset(paths["categorical"], make_subgroup_dataset(2000, **CATEGORICAL_GEN))
    return paths


# per case: the command line, whose {name} fields name the inputs, and the input read from stdin
CASES = {
    "calibrate": ("calibrate --source {knn}", None),
    "monitor_knn_file": ("monitor --source {knn} --production {prod_knn}", None),
    "monitor_knn_stdin": ("monitor --source {knn} --production -", "prod_knn"),
    "monitor_scored_file": ("monitor --source {scored} --production {prod_scored}", None),
    "monitor_scored_stdin": ("monitor --source {scored} --production -", "prod_scored"),
    "simulate": ("simulate --source {knn} --horizon 200 --onset 50", None),
    "evaluate": ("evaluate --source {suite} " + SUITE, None),
    "evaluate_categorical": ("evaluate --source {categorical} --feature-kinds " + CATEGORICAL_KINDS + " " + SUITE, None),
    "sweep": ("sweep --source {suite} " + SUITE + " --eps-tol-grid 0,0.05 --eps-harm-grid 0,0.1", None),
}


def _digests(case, paths, out, monkeypatch):
    template, stdin = CASES[case]
    args = [word.format(**paths) for word in template.split()]
    kept = []
    real = cli.reports_to_json
    monkeypatch.setattr(cli, "reports_to_json", lambda reports, *a: kept.append(reports) or real(reports, *a))
    if stdin is not None:
        # stdin in chunks of 64 lines, so the detectors are fed across chunk boundaries
        monkeypatch.setattr(core, "CHUNK_ROWS", 64)
    result = CliRunner().invoke(
        cli.main, args + ["--out-dir", str(out)], input=None if stdin is None else paths[stdin].read_bytes()
    )
    assert result.exception is None or isinstance(result.exception, SystemExit), result.output
    digests = {
        "exit_code": result.exit_code,
        "stdout": _sha(result.output.replace(str(out), "OUT").encode()),
    }
    digests.update({p.name: _sha(p.read_bytes()) for p in sorted(out.iterdir())})
    if kept:
        digests["runs_margins"] = _sha(real(kept[0], include_margins=True).encode())
    return digests


@pytest.mark.parametrize("case", list(CASES))
def test_outputs_match_recorded_digests(case, inputs, tmp_path, monkeypatch):
    digests = _digests(case, inputs, tmp_path / "out", monkeypatch)
    table = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {"cases": {}}
    if RECORD:
        table["numpy"] = np.__version__
        table["cases"][case] = digests
        GOLDEN.write_text(json.dumps(table, sort_keys=True, indent=2) + "\n")
    assert digests == table["cases"][case], f"recorded with numpy {table['numpy']}, running numpy {np.__version__}"
