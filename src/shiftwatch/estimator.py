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
# distance entries per block: 1 MB of float64, inside a 2 MB per-core L2
BLOCK = 1 << 17


@dataclass(frozen=True)
class KnnModel:
    """k-NN error regressor over z-scored features.

    Constant columns get std 1 so standardization never divides by zero.
    Distance ties are broken by lower training index, which makes
    prediction fully deterministic. Prediction builds the distances in
    blocks of BLOCK entries, 1 MB, one block at a time. It splits each
    distance row into groups of up to 8 strided columns, at least k
    groups, and takes the k-th smallest group minimum as a bound: k
    distances of the row lie at or below it, so the k nearest do. The few
    training rows at or below the bound are the row's candidates. A row
    whose bound is NaN, or that has more than k and more than an eighth of
    the training rows at or below it, is sorted whole instead, as its
    block is scanned. The other rows' candidates are held, as (row,
    column, distance), across blocks, and selected together before the
    padded (rows, widest row) arrays of a selection would pass BLOCK // 4
    entries, and when the batch ends: a stable sort of each row's
    candidate distances, in training order, picks its k nearest. A block
    never splits a row, so every row is selected with all of its
    candidates. The neighbours, their order and so the summed score are
    those of a stable sort of every distance. The training rows' squared
    norms are computed once, here, and reused by every prediction. A row's
    score depends on that row alone, not on the rest of its batch, so
    callers may score each distinct row once, or a stream chunk by chunk.
    Fitting rejects a feature whose mean or std is not finite, and
    prediction a query row whose squared standardized norm is not finite:
    either would turn every distance to NaN and the score into the mean of
    the first k training rows.
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


def _candidates(d2: np.ndarray, k: int):
    """One block of distance rows: the rows to sort whole, the flat indices
    of the other rows' candidates in row-major order, and each row's count
    of them."""
    m, n = d2.shape
    # the k-th smallest of g group minima is an entry at or above the row's
    # k-th smallest, so every neighbour lies at or below it
    w = max(1, min(8, n // k))
    g = n // w
    mins = d2[:, : g * w].reshape(m, w, g).min(axis=1)
    mins.partition(k - 1, axis=1)
    bound = mins[:, k - 1]
    mask = d2 <= bound[:, None]
    # a NaN bound selects nothing, and a row tied at the bound with more
    # than an eighth of the columns would widen the padded arrays of every
    # row selected with it: such rows are sorted whole instead. Past that
    # many candidates in all, rows are counted before any entry is
    # indexed, so the tied rows' entries never are.
    limit = max(k, n // 8)
    whole = np.isnan(bound)
    if np.count_nonzero(mask) > m * limit:
        whole |= np.count_nonzero(mask, axis=1) > limit
        mask[whole] = False
    flat = np.flatnonzero(mask)
    rows = flat // n
    counts = np.bincount(rows, minlength=m)
    over = counts > limit
    if over.any():
        whole |= over
        flat = flat[~over[rows]]
        counts[over] = 0
    return np.flatnonzero(whole), flat, counts


def _select(held: list, idx: np.ndarray, n: int) -> None:
    """Write into ``idx`` the k nearest of every row in ``held``, a list of
    (row numbers, per-row counts, columns, values) arrays in row-major
    order, and empty ``held``."""
    rows, counts, cols, values = (np.concatenate(a) for a in zip(*held))
    held.clear()
    k = idx.shape[1]
    c = max(k, int(counts.max()))
    # a candidate's place in the padded (rows, c) arrays, row by row
    shift = np.arange(0, rows.size * c, c) - (np.cumsum(counts) - counts)
    dest = np.arange(cols.size) + np.repeat(shift, counts)
    cand = np.full((rows.size, c), np.inf)
    cand.ravel()[dest] = values
    cand_cols = np.full((rows.size, c), n)
    cand_cols.ravel()[dest] = cols
    # candidates sit in column order, ahead of the padding
    order = np.argsort(cand, axis=1, kind="stable")[:, :k]
    idx[rows] = np.take_along_axis(cand_cols, order, axis=1)


def _nearest(blocks, m: int, k: int) -> np.ndarray:
    """Column indices of the k smallest entries of each row of an (m, n)
    matrix given as consecutive blocks of rows, ordered by (value,
    column): the first k columns of a stable argsort."""
    idx = np.empty((m, k), dtype=np.intp)
    held, held_rows, held_width, lo = [], 0, 0, 0
    for d2 in blocks:
        r, n = d2.shape
        whole, flat, counts = _candidates(d2, k)
        for i in whole:  # row by row, so no copy of the block is made
            idx[lo + i] = np.argsort(d2[i], kind="stable")[:k]
        rows = np.flatnonzero(counts)
        cands = (lo + rows, counts[rows], flat % n, d2.ravel()[flat])
        del d2  # freed before a selection or the next block, so one block is live at a time
        lo += r
        if not rows.size:
            continue
        width = int(counts.max())
        # a selection's padded arrays stay within BLOCK // 4 entries, or
        # within one block's when that block alone is wider
        if held and (held_rows + rows.size) * max(held_width, width) > BLOCK // 4:
            _select(held, idx, n)
            held_rows = held_width = 0
        held.append(cands)
        held_rows += rows.size
        held_width = max(held_width, width)
    if held:
        _select(held, idx, n)
    return idx


def _distances(model: KnnModel, z: np.ndarray, zz: np.ndarray) -> np.ndarray:
    """|z|^2 - 2 z.t + |t|^2 for a block of standardized query rows, built
    in the buffer the matrix product returns, in that order of operations."""
    d2 = 2.0 * z @ model.train_features.T
    np.subtract(zz[:, None], d2, out=d2)
    d2 += model.train_sq_norms
    return d2


def predict_many(model: KnnModel, x) -> np.ndarray:
    """Scores for a batch of query rows (m, d), shape (m,); a row too far
    to score raises QueryRowError with its index. The distances are built
    BLOCK // n rows at a time, and the neighbours selected as the KnnModel
    docstring says."""
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
    m = z.shape[0]
    step = max(1, BLOCK // model.train_features.shape[0])
    blocks = (_distances(model, z[lo : lo + step], zz[lo : lo + step]) for lo in range(0, m, step))
    return model.train_errors[_nearest(blocks, m, model.k)].mean(axis=1)


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
