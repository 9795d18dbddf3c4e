"""Error-score estimation: a deterministic k-NN regressor. Externally
computed scores need no estimator; they arrive as the ``score`` column of
the source CSV.

The downstream machinery only uses the ordering of scores, so the
estimator does not need to be accurate in magnitude; it needs to rank
high-error observations above low-error ones.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import Dataset
from .errors import DegenerateError, InvalidInput

DEFAULT_K = 10


@dataclass(frozen=True)
class KnnModel:
    """k-NN error regressor over z-scored features.

    Constant columns get std 1 so standardization never divides by zero.
    Distance ties are broken by lower training index, which makes
    prediction fully deterministic.
    """

    k: int
    train_features: np.ndarray  # standardized, (n, d)
    train_errors: np.ndarray  # (n,)
    feature_means: np.ndarray
    feature_stds: np.ndarray


def fit_knn(train: Dataset, k: int) -> KnnModel:
    if train.errors is None:
        raise InvalidInput("k-NN training data must carry true errors")
    if k < 1 or k > train.n:
        raise InvalidInput(f"k must satisfy 1 <= k <= n, got k={k}, n={train.n}")
    means = train.features.mean(axis=0)
    stds = train.features.std(axis=0)
    stds = np.where(stds > 0.0, stds, 1.0)
    return KnnModel(
        k=int(k),
        train_features=(train.features - means) / stds,
        train_errors=train.errors.copy(),
        feature_means=means,
        feature_stds=stds,
    )


def predict_many(model: KnnModel, x) -> np.ndarray:
    """Scores for a batch of query rows (m, d)."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    if x.shape[1] != model.train_features.shape[1]:
        raise InvalidInput(
            f"query dimension {x.shape[1]} does not match model dimension "
            f"{model.train_features.shape[1]}"
        )
    z = (x - model.feature_means) / model.feature_stds
    out = np.empty(z.shape[0])
    # chunked to bound the distance-matrix footprint
    chunk = max(1, int(2_000_000 // max(1, model.train_features.shape[0])))
    for lo in range(0, z.shape[0], chunk):
        zc = z[lo : lo + chunk]
        d2 = (
            (zc * zc).sum(axis=1)[:, None]
            - 2.0 * zc @ model.train_features.T
            + (model.train_features * model.train_features).sum(axis=1)[None, :]
        )
        # stable sort -> equal distances resolve to the lower training index
        idx = np.argsort(d2, axis=1, kind="stable")[:, : model.k]
        out[lo : lo + chunk] = model.train_errors[idx].mean(axis=1)
    return out


def predict(model: KnnModel, x) -> float:
    """Score for a single feature vector."""
    return float(predict_many(model, np.asarray(x, dtype=float).reshape(1, -1))[0])


def score_dataset(model: KnnModel, data: Dataset) -> Dataset:
    """Attach model scores to every row of a dataset."""
    return data.with_scores(predict_many(model, data.features))


def r_squared(predicted, actual) -> float:
    """Coefficient of determination; estimator diagnostic only."""
    predicted = np.asarray(predicted, dtype=float)
    actual = np.asarray(actual, dtype=float)
    if predicted.shape != actual.shape or predicted.size == 0:
        raise InvalidInput("predicted and actual must have equal nonzero length")
    ss_tot = float(((actual - actual.mean()) ** 2).sum())
    if ss_tot == 0.0:
        raise DegenerateError("R^2 is undefined for a constant target")
    ss_res = float(((actual - predicted) ** 2).sum())
    return 1.0 - ss_res / ss_tot


def split_half(data: Dataset, seed: int):
    """Deterministic seeded 50/50 split: (estimator-fit half, calibration half)."""
    rng = np.random.default_rng(seed)
    perm = rng.permutation(data.n)
    half = data.n // 2
    if half < 1 or data.n - half < 1:
        raise InvalidInput("dataset too small to split in half")
    return data.subset(perm[:half]), data.subset(perm[half:])
