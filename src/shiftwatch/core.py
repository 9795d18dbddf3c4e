"""Shared domain types, the empirical-quantile primitive, and CSV ingestion.

A ``Dataset`` stores its columns as numpy arrays whose row order is the
file order. ``read_chunks`` is the one CSV reader: ``read_dataset`` joins
its chunks and the monitor consumes them one by one. A chunk holds the
rows of at most ``CHUNK_ROWS`` lines, 1,024; blank lines are skipped, and
a UTF-8 byte-order mark before the header is dropped. Each chunk is
parsed by one ``np.loadtxt`` call, or, where that parse could differ
from reading cell by cell with csv and ``float()``, cell by cell; only
the per-cell parse reports a bad line. ``_feature_columns`` is the one
check that a CSV header names its feature columns f0..f{d-1} in order.
"""

from __future__ import annotations

import csv
import itertools
import math
import sys
from typing import Iterator, NamedTuple, Sequence

import numpy as np

from .errors import IngestError, InvalidInput

# Lines per chunk of ``read_chunks``; bounds the memory of a streaming read:
# each chunk's line list, its joined text and np.loadtxt's buffers.
CHUNK_ROWS = 1024


class Selector(NamedTuple):
    """Calibrated threshold pair defining the high-error flag 1{score > q_hat}.

    ``q`` thresholds true errors, ``q_hat`` thresholds estimated scores;
    ``p``/``p_hat`` are the quantile levels they were read off at. Both
    thresholds are attained order statistics of their calibration multisets.
    ``_asdict()`` is the record that selector.json and runs.json write.
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

    def subset(self, idx) -> "Dataset":
        idx = np.asarray(idx)
        return Dataset(
            self.features[idx],
            None if self.errors is None else self.errors[idx],
            None if self.scores is None else self.scores[idx],
        )


def empirical_quantile(p, values):
    """k-th smallest element with k = ceil(p * n), 1-indexed, for a level
    ``p``; for a sequence of levels, the list of them, read off one sort.

    No interpolation: the result is always a member of ``values``, so
    thresholds built from it give exact integer selection counts.
    """
    levels = np.asarray(p, dtype=float)
    if not np.all((levels > 0.0) & (levels < 1.0)):
        raise InvalidInput(f"quantile level must lie in (0, 1), got {p}")
    values = np.asarray(values, dtype=float).ravel()
    if values.size == 0:
        raise InvalidInput("cannot take a quantile of an empty multiset")
    k = np.ceil(levels * values.size).astype(np.intp)
    return np.sort(values)[k - 1].tolist()


def sorted_distinct(values, return_counts=False):
    """The distinct values of a 1-d array, ascending, as np.unique finds
    them (a sort and a neighbour-inequality mask), without its masked-array
    check, which imports numpy.ma: no command needs that module. With
    ``return_counts``, also how often each occurs, as np.unique counts."""
    values = np.sort(values)
    first = np.flatnonzero(np.concatenate(([True], values[1:] != values[:-1])))
    if return_counts:
        return values[first], np.diff(first, append=values.size)
    return values[first]


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


def read_chunks(path, where, check_header=None) -> Iterator[Dataset]:
    """Read a CSV of the dataset schema, f0..f{d-1}, [error], [score], as
    Datasets of the rows of at most ``CHUNK_ROWS`` lines each, in file
    order; ``path`` '-' reads stdin, in the same chunks. ``where`` names
    the input in errors. A byte-order mark (U+FEFF) that starts the header
    is dropped.

    Every cell of a feature, ``error`` or ``score`` column in the header
    must be a finite number, and every ``error`` cell must lie in [0, 1];
    otherwise IngestError names the line and the column. Blank lines are
    skipped. A header that names ``error`` or ``score`` twice, a cell
    longer than csv's field size limit, and a file that cannot be opened,
    read or decoded are IngestErrors too. ``check_header``, if given, is
    called with the header's feature count and whether it has a ``score``
    column once the header is read, so its rules hold for a file with no
    data rows too."""
    lines = _lines(path, where)
    head = [line.removeprefix("\ufeff") for line in itertools.islice(lines, 1)]
    reader = csv.reader(itertools.chain(head, lines))
    try:
        header = next(reader, None)
    except csv.Error as exc:
        raise IngestError(f"{where} line {reader.line_num}: {exc}")
    if header is None:
        raise IngestError(f"{where}: missing header row")
    names = _feature_columns(header, where)
    for name in ("error", "score"):
        if header.count(name) > 1:
            raise IngestError(f"{where}: the header names column {name!r} {header.count(name)} times")
    d = len(names)
    has_error, has_score = "error" in header, "score" in header
    names += [c for c in ("error", "score") if c in header]
    cols = [(header.index(name), name) for name in names]
    if check_header is not None:
        check_header(d, has_score)

    line = reader.line_num  # the physical lines read so far
    while True:
        # outside the try: a read error is the reader's IngestError, not a fallback
        block = list(itertools.islice(lines, CHUNK_ROWS))
        if not block:
            return
        try:
            values, used = _parse_block(block, cols), len(block)
        except Exception:  # the per-cell parse decides, and names any bad cell
            values = None
        if values is None:
            values, used = _parse_cells(block, lines, cols, line, where)
        line += used
        if values.shape[0]:
            yield Dataset(values[:, :d], values[:, d] if has_error else None, values[:, -1] if has_score else None)


def _parse_block(block, cols) -> np.ndarray:
    """One np.loadtxt call over a block of lines, or ValueError where its
    parse could differ from ``_parse_cells``: a quote (csv joins a quoted
    cell, loadtxt splits it at its commas), the ASCII separators
    \\x1c-\\x1f (loadtxt strips them as whitespace, float() refuses them),
    a line longer than csv's field size limit (loadtxt has none), a
    row count other than the non-blank lines', or a value ``_cell``
    refuses: a non-finite one, or an error outside [0, 1]."""
    text = "".join(block)
    if any(c in text for c in '"\x1c\x1d\x1e\x1f'):
        raise ValueError("a quote or an ASCII separator")
    if max(map(len, block)) > csv.field_size_limit():
        raise ValueError("a line longer than csv's field size limit")
    n_rows = len(block) - sum(map(block.count, ("\n", "\r\n", "\r")))
    if n_rows == 0:  # np.loadtxt warns on a block of blank lines
        return np.empty((0, len(cols)))
    values = np.loadtxt(block, delimiter=",", comments=None, usecols=[i for i, _ in cols], ndmin=2)
    errors = values[:, [name == "error" for _, name in cols]]
    if not np.isfinite(values).all() or (errors < 0.0).any() or (errors > 1.0).any():
        raise ValueError("a value _cell refuses")
    if values.shape[0] != n_rows:
        raise ValueError("a row count other than the non-blank lines'")
    return values


def _parse_cells(block, lines, cols, line, where):
    """The per-cell parse of a block whose first line follows physical line
    ``line``: the rows' values, and how many lines were read. A quoted cell
    open at the end of the block reads on from ``lines``. The only parse
    that names a bad line and column."""
    reader = csv.reader(itertools.chain(block, lines))
    rows = []
    try:
        for row in reader:
            if row:
                rows.append([_cell(row, i, name, line + reader.line_num, where) for i, name in cols])
            if reader.line_num >= len(block):
                break
    except csv.Error as exc:  # a cell longer than csv's field size limit
        raise IngestError(f"{where} line {line + reader.line_num}: {exc}")
    return np.array(rows, dtype=float).reshape(-1, len(cols)), reader.line_num


def _lines(path, where) -> Iterator[str]:
    """The lines of the file at ``path``, or of stdin for '-'; the file is
    closed when the lines are exhausted or abandoned."""
    try:
        if path == "-":
            yield from sys.stdin
        else:
            with open(path, newline="") as fh:
                yield from fh
    except (OSError, UnicodeDecodeError) as exc:
        raise IngestError(f"{where}: cannot read: {exc}")


def _cell(row, i, name, line, where) -> float:
    raw = row[i] if i < len(row) else ""
    try:
        value = float(raw)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise IngestError(f"{where} line {line}, column {name}: expected a finite number, got {raw!r}")
    if name == "error" and not 0.0 <= value <= 1.0:
        raise IngestError(
            f"{where} line {line}, column error: true errors must lie in [0, 1], got {raw!r}; "
            "normalize the monitored loss before ingestion"
        )
    return value


def read_dataset(path) -> Dataset:
    """Read a labeled dataset, which needs an ``error`` column, from the
    CSV schema by joining the chunks of ``read_chunks``."""
    chunks = list(read_chunks(path, path))
    if not chunks:
        raise IngestError(f"{path}: no data rows")
    if chunks[0].errors is None:
        raise IngestError(f"{path}: missing required 'error' column")
    scores = None if chunks[0].scores is None else np.concatenate([c.scores for c in chunks])
    return Dataset(
        np.concatenate([c.features for c in chunks]),
        np.concatenate([c.errors for c in chunks]),
        scores,
    )


def write_dataset(path, data: Dataset, rows=None) -> None:
    """Write a dataset, or the rows of it that ``rows`` indexes, in the same
    CSV schema, ``CHUNK_ROWS`` rows at a time, each block gathered as it is
    written, so that one block's cells at most are copies or Python floats."""
    header = [f"f{i}" for i in range(data.d)]
    columns = []
    for name, column in (("error", data.errors), ("score", data.scores)):
        if column is not None:
            header.append(name)
            columns.append(column)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        # csv writes a Python float as str(x), which equals repr(x)
        for lo in range(0, data.n if rows is None else len(rows), CHUNK_ROWS):
            block = slice(lo, lo + CHUNK_ROWS) if rows is None else rows[lo : lo + CHUNK_ROWS]
            writer.writerows(zip(*data.features[block].T.tolist(), *(column[block].tolist() for column in columns)))
