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
# screen entries per block: 1 MB of float32, inside a 2 MB per-core L2
BLOCK = 1 << 18
# a row whose error scale passes this is not screened: below it no float32
# value of its screen passes 2^102, far from overflow
SCREEN_LIMIT = 2.0**100


@dataclass(frozen=True)
class KnnModel:
    """k-NN error regressor over z-scored features.

    Constant columns get std 1 so standardization never divides by zero. A
    query row's neighbours are the k training rows nearest by exact
    distance, d2 = sum over p of (z_p - t_p)^2 summed in float64 in the
    order p = 0, 1, ..., ties broken by lower training index, and its score
    is the mean of their errors. d2 is built elementwise, so its bits depend
    on the query row and the training row alone, not on the BLAS kernel or
    on the rest of the batch: a row's score depends on that row alone, and
    callers may score each distinct row once, or a stream chunk by chunk.

    Prediction computes d2 only for a few candidates. It standardizes the
    query rows in blocks of BLOCK // n rows and screens each block with one
    float32 matrix product of [-2z, 1] against ``screen``, [t^T; |t|^2],
    built here: the screen value s = |t|^2 - 2 z.t is d2 less |z|^2, which
    is constant along a row. It splits each screen row into groups of up to
    8 strided columns, at least k groups, and takes the k-th smallest group
    minimum: k training rows lie at or below it. Widened by twice the
    screen's rounding error and rounded up to float32 (``_nearest`` derives
    the term), it bounds the screen values of the row's k nearest, and the
    training rows at or below it are the row's candidates. A row whose
    values could overflow float32, or that has more than k and more than an
    eighth of the training rows at or below its bound, has every d2
    computed and sorted instead. The block's other rows are selected
    together: a stable sort of each row's candidate d2, in training order,
    picks its k nearest. No candidate outlives its block, so no array but
    the scores grows with the batch. Fitting rejects a feature whose mean
    or std is not finite, and prediction a query row whose squared
    standardized norm is not finite: either would turn every distance to
    NaN and the score into the mean of the first k training rows. A far but
    finite query still scores so, as z - t rounds to z and every d2 of its
    row ties (ROADMAP item 4).
    """

    k: int
    train_features: np.ndarray  # standardized, (n, d)
    train_errors: np.ndarray  # (n,)
    feature_means: np.ndarray
    feature_stds: np.ndarray
    screen: np.ndarray  # float32 (d + 1, n): train_features.T over the rows' squared norms


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
        screen=np.vstack([z.T, (z * z).sum(axis=1)]).astype(np.float32),
    )


def _candidates(s: np.ndarray, widen: np.ndarray, k: int, mask: np.ndarray):
    """One block of screen rows, each widened by ``widen`` (NaN for a row
    not screened), and a boolean buffer of its shape: the rows to sort
    whole, the flat indices of the other rows' candidates in row-major
    order, and each row's count of them."""
    m, n = s.shape
    # the k-th smallest of g group minima is an entry at or above the row's
    # k-th smallest, so k screen values lie at or below it
    w = max(1, min(8, n // k))
    g = n // w
    mins = s[:, : g * w].reshape(m, w, g).min(axis=1)
    mins.partition(k - 1, axis=1)
    bound = mins[:, k - 1] + widen
    # rounded to float32 and raised one ulp, so at or above the float64 sum
    bound32 = np.nextafter(bound.astype(np.float32), np.float32(np.inf))
    np.less_equal(s, bound32[:, None], out=mask)
    # a NaN bound selects nothing, and a row tied at the bound with more
    # than an eighth of the columns would widen the padded arrays of every
    # row of its block: such rows are sorted whole instead. Past that
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


def _select(counts: np.ndarray, cols: np.ndarray, d2: np.ndarray, k: int, n: int) -> np.ndarray:
    """The (rows, k) columns of the k nearest of one block's rows that have
    candidates, given each row's count of them and their columns and d2 in
    row-major order. ``_candidates`` keeps a row's count within max(k,
    n // 8), and so the width of the padded arrays."""
    c = max(k, int(counts.max()))
    # a candidate's place in the padded (rows, c) arrays, row by row
    shift = np.arange(0, counts.size * c, c) - (np.cumsum(counts) - counts)
    dest = np.arange(cols.size) + np.repeat(shift, counts)
    cand = np.full((counts.size, c), np.inf)
    cand.ravel()[dest] = d2
    cand_cols = np.full((counts.size, c), n)
    cand_cols.ravel()[dest] = cols
    # candidates sit in column order, ahead of the padding
    order = np.argsort(cand, axis=1, kind="stable")[:, :k]
    return np.take_along_axis(cand_cols, order, axis=1)


def _standardized(model: KnnModel, x: np.ndarray, lo: int):
    """z and |z|^2 for a block of query rows ``x``, which starts at row
    ``lo`` of its batch. A row whose squared standardized norm is not
    finite raises QueryRowError with its index in the batch."""
    with np.errstate(over="ignore", invalid="ignore"):
        z = (x - model.feature_means) / model.feature_stds
        zz = (z * z).sum(axis=1)
    bad = ~np.isfinite(zz)
    if bad.any():
        i = int(np.argmax(bad))
        j = int(np.argmax(np.abs(z[i])))
        raise QueryRowError(
            lo + i, f"feature f{j} = {float(x[i, j])!r} is too far from the training data "
            "(the squared standardized norm is not finite)"
        )
    return z, zz


def _exact_d2(z: np.ndarray, train: np.ndarray, rows, cols) -> np.ndarray:
    """d2 of query rows ``z[rows]`` to training rows ``train[cols]``, pair
    by pair, summed over the features in order: each pair's bits are the
    same whatever else is computed with it."""
    return sum((z[:, p][rows] - train[:, p][cols]) ** 2 for p in range(z.shape[1]))


def _nearest(model: KnnModel, x: np.ndarray, lo: int, scratch) -> np.ndarray:
    """The (rows, k) indices of the k nearest training rows by (d2, index),
    as the KnnModel docstring says, of each row of the query block ``x``,
    which starts at row ``lo`` of its batch. The first row too far to score
    raises QueryRowError with its index in the batch. ``scratch`` is
    predict_many's (screen buffer, mask buffer, g_{d+6}, sqrt T), its
    buffers at least as tall as the block.

    The screen's rounding error. Let u = 2^-24 and g_j = j u / (1 - j u).
    For a query row z and a training row t the product sums d + 1 terms
    a_p b_p of the float32 operands a = fl(-2z) and b = fl([t; |t|^2]), so
    in any order of summation, fused or not, it lies within
    g_{d+1} sum |a_p b_p| of a.b (Higham, Accuracy and Stability of
    Numerical Algorithms, 2nd ed., section 3.1). Rounding the operands moves
    a.b by at most g_2 M from s = |t|^2 - 2 z.t, where M = 2 sum |z_p t_p|
    + |t|^2 <= (|z| + |t|)^2 by Cauchy-Schwarz, and sum |a_p b_p| <=
    (1 + g_2) M. So the screen value is within e = g_{d+3} (|z| + sqrt T)^2
    of s for every training row, T the largest |t|^2. The k training rows
    at or below the group-minimum bound b then have s <= b + e, so the k-th
    smallest d2 is at most |z|^2 + b + e, and each of the k nearest has s <=
    b + e and a screen value at most b + 2e. The widening is 2 g_{d+6}
    ((|z| + sqrt T)^2 + 1): the extra 3u covers T read from the float32
    norms and the float64 rounding of d2, of |z|^2 and of the bound, each
    below 2^-50 of the scale, and the 1 covers float32 underflow, whose
    error is absolute."""
    k, train, screen = model.k, model.train_features, model.screen
    n, d = train.shape
    buffer, mask, gamma, root_t = scratch
    z, zz = _standardized(model, x, lo)
    r = len(z)
    scale = (np.sqrt(zz) + root_t) ** 2 + 1.0
    screened = scale <= SCREEN_LIMIT
    a = np.zeros((r, d + 1), dtype=np.float32)
    np.multiply(z, -2.0, out=a[:, :d], where=screened[:, None], casting="same_kind")
    a[:, d] = 1.0
    s = np.matmul(a, screen, out=buffer[:r])
    widen = np.where(screened, 2.0 * gamma * scale, np.nan)
    whole, flat, counts = _candidates(s, widen, k, mask[:r])
    idx = np.empty((r, k), dtype=np.intp)
    for i in whole:  # row by row, so no (rows, n) d2 is made
        idx[i] = np.argsort(_exact_d2(z, train, i, slice(None)), kind="stable")[:k]
    rows = np.flatnonzero(counts)
    if rows.size:
        local, cols = np.divmod(flat, n)
        idx[rows] = _select(counts[rows], cols, _exact_d2(z, train, local, cols), k, n)
    return idx


def predict_many(model: KnnModel, x) -> np.ndarray:
    """Scores for a batch of query rows (m, d), shape (m,); the first row
    too far to score raises QueryRowError with its index in the batch.
    The rows are standardized, screened and selected BLOCK // n rows at a
    time, as the KnnModel docstring says; besides ``x``, only the (m,)
    output grows with the batch."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    n, d = model.train_features.shape
    if x.shape[1] != d:
        raise InvalidInput(f"query dimension {x.shape[1]} does not match model dimension {d}")
    m = x.shape[0]
    step = max(1, BLOCK // n)
    # one screen and one mask serve every block; _nearest derives g_{d+6} and sqrt T
    gamma = (d + 6) * 2.0**-24 / (1.0 - (d + 6) * 2.0**-24)
    root_t = np.sqrt(model.screen[-1].max(), dtype=float)
    r = min(m, step)
    scratch = np.empty((r, n), dtype=np.float32), np.empty((r, n), dtype=bool), gamma, root_t
    scores = np.empty(m)
    for lo in range(0, m, step):
        idx = _nearest(model, x[lo : lo + step], lo, scratch)
        scores[lo : lo + len(idx)] = model.train_errors[idx].mean(axis=1)
    return scores


def score_dataset(model: KnnModel, data: Dataset) -> Dataset:
    """Attach model scores to every row of a dataset."""
    return Dataset(data.features, data.errors, predict_many(model, data.features))


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
