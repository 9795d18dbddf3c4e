"""Seeded input generator for the shiftwatch benchmark.

Every input is a CSV in the schema the CLI reads (f0..f{d-1}, [error],
[score]). Labeled data comes from ``make_subgroup_dataset`` with the
acceptance suite's generator parameters, copied here so that editing a
test cannot change a workload. The same (workload, input seed, sizes)
always gives byte-identical files; ``write_inputs`` returns a manifest
with each file's sha256 and the generated shift onset.

Usage: python3 perfbench/gen.py WORKLOAD SEED SIZES_JSON OUT_DIR
prints the manifest as JSON. The benchmark runs it in a child process, so
that its own memory stays small: a CLI child's peak RSS includes the peak
RSS of the process that forked it.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys

import numpy as np

from shiftwatch.shiftsim import make_subgroup_dataset, subgroup_feature_kinds

# Copy of tests/test_acceptance.py::SUITE_GEN.
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

# Noise of the external estimator whose scores the monitor-scores inputs carry.
SCORE_NOISE = 0.05


def sha256_file(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def _write_csv(path, features, errors=None, scores=None) -> None:
    header = [f"f{i}" for i in range(features.shape[1])]
    cols = [features[:, i] for i in range(features.shape[1])]
    for name, col in (("error", errors), ("score", scores)):
        if col is not None:
            header.append(name)
            cols.append(col)
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for row in zip(*(c.tolist() for c in cols)):
            fh.write(",".join(map(repr, row)) + "\n")


def _labeled(n: int, seed: int):
    return make_subgroup_dataset(n, seed=seed, **SUITE_GEN)


def _zone(features) -> np.ndarray:
    """Rows in the primary failure zone: f0 in the top ``subgroup_frac``."""
    return features[:, 0] > 1.0 - SUITE_GEN["subgroup_frac"]


def _external_scores(errors, rng) -> np.ndarray:
    return errors + SCORE_NOISE * rng.standard_normal(errors.shape[0])


def _production(pool, n_events: int, onset: int, rng) -> np.ndarray:
    """Row indices into ``pool``: in-distribution draws before ``onset``,
    draws from the failure zone from ``onset`` on (a sudden harmful shift)."""
    zone_idx = np.nonzero(_zone(pool.features))[0]
    idx = rng.integers(0, pool.n, size=n_events)
    post = np.arange(1, n_events + 1) >= onset
    idx[post] = zone_idx[rng.integers(0, zone_idx.size, size=int(post.sum()))]
    return idx


def write_inputs(workload: str, seed: int, sizes: dict, out_dir: str) -> dict:
    """Write the inputs of one workload and return its manifest.

    ``sizes`` holds ``n_source`` plus ``horizon`` (evaluate-suite) or
    ``events`` (monitor workloads), and ``onset``. Monitor workloads get a
    full production file and a one-event production file for set-up runs.
    """
    os.makedirs(out_dir, exist_ok=True)
    files = {}
    source = _labeled(sizes["n_source"], 100 + seed)
    rng = np.random.default_rng([seed, 7])
    path = os.path.join(out_dir, "source.csv")
    if workload == "monitor-scores":
        _write_csv(path, source.features, source.errors, _external_scores(source.errors, rng))
    else:
        _write_csv(path, source.features, source.errors)
    files["source"] = path
    if workload != "evaluate-suite":
        pool = _labeled(sizes["n_source"], 10_000 + seed)
        pool_scores = _external_scores(pool.errors, rng) if workload == "monitor-scores" else None
        idx = _production(pool, sizes["events"], sizes["onset"], rng)
        for name, rows in (("production", idx), ("production_one", idx[:1])):
            path = os.path.join(out_dir, f"{name}.csv")
            _write_csv(path, pool.features[rows], None, None if pool_scores is None else pool_scores[rows])
            files[name] = path
    return {
        "workload": workload,
        "seed": seed,
        "onset": sizes["onset"],
        "feature_kinds": ",".join(subgroup_feature_kinds(**SUITE_GEN)),
        "files": files,
        "sha256": {name: sha256_file(p) for name, p in files.items()},
    }


if __name__ == "__main__":
    workload, seed, sizes, out_dir = sys.argv[1:]
    print(json.dumps(write_inputs(workload, int(seed), json.loads(sizes), out_dir)))
