"""Shared domain types, the empirical-quantile primitive, and CSV ingestion.

A ``Dataset`` stores its columns as numpy arrays whose row order is the
file order. ``_feature_columns`` is the one check that a CSV header names
its feature columns f0..f{d-1} in order.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import IngestError, InvalidInput


@dataclass(frozen=True)
class Selector:
    """Calibrated threshold pair defining the high-error flag 1{score > q_hat}.

    ``q`` thresholds true errors, ``q_hat`` thresholds estimated scores;
    ``p``/``p_hat`` are the quantile levels they were read off at. Both
    thresholds are attained order statistics of their calibration multisets.
    """

    q: float
    q_hat: float
    p: float
    p_hat: float

    def select(self, scores) -> np.ndarray:
        """Apply the high-error flag to an array of scores (strict >)."""
        return np.asarray(scores, dtype=float) > self.q_hat


class Dataset:
    """Ordered collection of observations.

    ``features`` is an (n, d) array; ``errors`` holds true errors in [0, 1]
    (may be None for unlabeled production files); ``scores`` holds estimator
    outputs (any finite float) when available.
    """

    def __init__(self, features, errors=None, scores=None):
        features = np.atleast_2d(np.asarray(features, dtype=float))
        if features.size == 0 or features.shape[0] < 1:
            raise InvalidInput("dataset must contain at least one sample")
        if not np.all(np.isfinite(features)):
            raise InvalidInput("features must be finite")
        self.features = features
        n = features.shape[0]

        if errors is not None:
            errors = np.asarray(errors, dtype=float)
            if errors.shape != (n,):
                raise InvalidInput("errors length must match sample count")
            if not np.all(np.isfinite(errors)):
                raise InvalidInput("errors must be finite")
            if np.any(errors < 0.0) or np.any(errors > 1.0):
                raise InvalidInput(
                    "true errors must lie in [0, 1]; normalize the monitored "
                    "loss before ingestion"
                )
        self.errors = errors

        if scores is not None:
            scores = np.asarray(scores, dtype=float)
            if scores.shape != (n,):
                raise InvalidInput("scores length must match sample count")
            if not np.all(np.isfinite(scores)):
                raise InvalidInput("scores must be finite")
        self.scores = scores

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def d(self) -> int:
        return self.features.shape[1]

    def __len__(self) -> int:
        return self.n

    def subset(self, idx) -> "Dataset":
        idx = np.asarray(idx)
        return Dataset(
            self.features[idx],
            None if self.errors is None else self.errors[idx],
            None if self.scores is None else self.scores[idx],
        )

    def with_scores(self, scores) -> "Dataset":
        return Dataset(self.features, self.errors, scores)


def empirical_quantile(p: float, values) -> float:
    """k-th smallest element with k = ceil(p * n), 1-indexed.

    No interpolation: the result is always a member of ``values``, so
    thresholds built from it give exact integer selection counts.
    """
    if not 0.0 < p < 1.0:
        raise InvalidInput(f"quantile level must lie in (0, 1), got {p}")
    values = np.asarray(values, dtype=float).ravel()
    if values.size == 0:
        raise InvalidInput("cannot take a quantile of an empty multiset")
    k = math.ceil(p * values.size)
    return float(np.sort(values)[k - 1])


def _feature_columns(header: Sequence[str], where) -> list:
    """The feature columns of a CSV header, which must be f0..f{d-1} in
    order with d >= 1; ``where`` names the input in the IngestError."""
    cols = [c for c in header if c.startswith("f") and c[1:].isdigit()]
    if not cols:
        raise IngestError(f"{where}: no feature columns f0..f{{d-1}} found")
    expected = [f"f{i}" for i in range(len(cols))]
    if cols != expected:
        raise IngestError(
            f"{where}: feature columns must be named f0..f{{d-1}} in order, got {cols}"
        )
    return cols


def read_dataset(path, require_error: bool = True) -> Dataset:
    """Read a dataset from the CSV schema: f0..f{d-1}, [error], [score]."""
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None:
            raise IngestError(f"{path}: missing header row")
        fcols = _feature_columns(reader.fieldnames, path)
        has_error = "error" in reader.fieldnames
        has_score = "score" in reader.fieldnames
        if require_error and not has_error:
            raise IngestError(f"{path}: missing required 'error' column")

        feats, errs, scs = [], [], []
        for row in reader:
            try:
                feats.append([float(row[c]) for c in fcols])
                if has_error:
                    errs.append(float(row["error"]))
                if has_score:
                    scs.append(float(row["score"]))
            except (TypeError, ValueError) as exc:
                raise IngestError(f"{path}: unparseable row {reader.line_num}: {exc}")
    if not feats:
        raise IngestError(f"{path}: no data rows")
    try:
        return Dataset(
            np.array(feats),
            np.array(errs) if has_error else None,
            np.array(scs) if has_score else None,
        )
    except InvalidInput as exc:
        raise IngestError(f"{path}: {exc}")


def write_dataset(path, data: Dataset) -> None:
    """Write a dataset back out in the same CSV schema."""
    header = [f"f{i}" for i in range(data.d)]
    if data.errors is not None:
        header.append("error")
    if data.scores is not None:
        header.append("score")
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for i in range(data.n):
            row = [repr(float(x)) for x in data.features[i]]
            if data.errors is not None:
                row.append(repr(float(data.errors[i])))
            if data.scores is not None:
                row.append(repr(float(data.scores[i])))
            writer.writerow(row)
