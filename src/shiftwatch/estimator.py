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
from .errors import DegenerateError, InvalidInput, QueryRowError

DEFAULT_K = 10


@dataclass(frozen=True)
class KnnModel:
    """k-NN error regressor over z-scored features.

    Constant columns get std 1 so standardization never divides by zero.
    Distance ties are broken by lower training index, which makes
    prediction fully deterministic. Prediction picks each row's k nearest
    by a partition, orders them by (distance, training index), and falls
    back to a stable sort of the whole row only when more than k training
    rows lie at or below the k-th distance; the neighbours, their order
    and so the summed score are those of a stable sort of every distance.
    The training rows' squared norms are computed once, here, and reused
    by every prediction. A row's score depends on that row alone, not on
    the rest of its batch, so callers may score each distinct row once, or
    a stream chunk by chunk. Fitting rejects a feature whose mean or std is
    not finite, and prediction a query row whose squared standardized norm
    is not finite: either would turn every distance to NaN and the score
    into the mean of the first k training rows.
    """

    k: int
    train_features: np.ndarray  # standardized, (n, d)
    train_errors: np.ndarray  # (n,)
    feature_means: np.ndarray
    feature_stds: np.ndarray
    train_sq_norms: np.ndarray  # (train_features * train_features).sum(axis=1), (n,)


def fit_knn(train: Dataset, k: int) -> KnnModel:
    if train.errors is None:
        raise InvalidInput("k-NN training data must carry true errors")
    if k < 1 or k > train.n:
        raise InvalidInput(f"k must satisfy 1 <= k <= n, got k={k}, n={train.n}")
    with np.errstate(over="ignore", invalid="ignore"):
        means = train.features.mean(axis=0)
        stds = train.features.std(axis=0)
    bad = ~(np.isfinite(means) & np.isfinite(stds))
    if bad.any():
        j = int(np.argmax(bad))
        raise InvalidInput(
            f"k-NN feature f{j}: its mean or standard deviation is not finite; "
            "the values are too large to standardize"
        )
    stds = np.where(stds > 0.0, stds, 1.0)
    z = (train.features - means) / stds
    return KnnModel(
        k=int(k),
        train_features=z,
        train_errors=train.errors.copy(),
        feature_means=means,
        feature_stds=stds,
        train_sq_norms=(z * z).sum(axis=1),
    )


def _nearest(d2: np.ndarray, k: int) -> np.ndarray:
    """Column indices of the k smallest entries of each row of ``d2``,
    ordered by (value, column): the first k columns of a stable argsort."""
    idx = np.argpartition(d2, k - 1, axis=1)[:, :k]
    dist = np.take_along_axis(d2, idx, axis=1)
    idx = np.take_along_axis(idx, np.lexsort((idx, dist), axis=1), axis=1)
    # the candidates are the only choice when exactly k entries lie at or
    # below the k-th distance (a NaN k-th distance counts none)
    tied = np.count_nonzero(d2 <= dist.max(axis=1)[:, None], axis=1) != k
    if tied.any():
        idx[tied] = np.argsort(d2[tied], axis=1, kind="stable")[:, :k]
    return idx


def predict_many(model: KnnModel, x) -> np.ndarray:
    """Scores for a batch of query rows (m, d); a row too far to score
    raises QueryRowError with its index. The distances |z|^2 - 2 z.t +
    |t|^2 are built in the buffer the matrix product returns, in that order
    of operations."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    if x.shape[1] != model.train_features.shape[1]:
        raise InvalidInput(
            f"query dimension {x.shape[1]} does not match model dimension "
            f"{model.train_features.shape[1]}"
        )
    with np.errstate(over="ignore", invalid="ignore"):
        z = (x - model.feature_means) / model.feature_stds
        zz = (z * z).sum(axis=1)
    bad = ~np.isfinite(zz)
    if bad.any():
        i = int(np.argmax(bad))
        j = int(np.argmax(np.abs(z[i])))
        raise QueryRowError(
            i, f"feature f{j} = {float(x[i, j])!r} is too far from the training data "
            "(the squared standardized norm is not finite)"
        )
    out = np.empty(z.shape[0])
    # chunked to bound the distance-matrix footprint
    chunk = max(1, int(2_000_000 // max(1, model.train_features.shape[0])))
    for lo in range(0, z.shape[0], chunk):
        zc = z[lo : lo + chunk]
        d2 = 2.0 * zc @ model.train_features.T
        np.subtract(zz[lo : lo + chunk, None], d2, out=d2)
        d2 += model.train_sq_norms
        idx = _nearest(d2, model.k)
        out[lo : lo + chunk] = model.train_errors[idx].mean(axis=1)
    return out


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
