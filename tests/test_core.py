"""Domain types, the empirical-quantile primitive, and CSV ingestion."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from shiftwatch import Dataset, core
from shiftwatch.core import Selector, empirical_quantile, read_chunks, read_dataset, write_dataset
from shiftwatch.errors import IngestError, InvalidInput


class TestEmpiricalQuantile:
    def test_single_element(self):
        assert empirical_quantile(0.2, [7.0]) == 7.0
        assert empirical_quantile(0.99, [7.0]) == 7.0

    def test_four_element_median(self):
        # k = ceil(0.5 * 4) = 2 -> second smallest
        assert empirical_quantile(0.5, [1, 2, 3, 4]) == 2.0

    def test_ten_element_p90(self):
        values = [10, 20, 30, 40, 50, 60, 70, 80, 90, 100]
        assert empirical_quantile(0.9, values) == 90.0

    def test_rejects_empty(self):
        with pytest.raises(InvalidInput):
            empirical_quantile(0.5, [])

    @pytest.mark.parametrize("p", [0.0, 1.0, -0.1, 1.5])
    def test_rejects_bad_level(self, p):
        with pytest.raises(InvalidInput):
            empirical_quantile(p, [1.0, 2.0])

    @given(
        st.lists(st.floats(0, 1, allow_nan=False), min_size=1, max_size=50),
        st.floats(0.01, 0.99),
        st.floats(0.01, 0.99),
    )
    def test_monotone_in_level_and_membership(self, values, p1, p2):
        lo, hi = sorted((p1, p2))
        q_lo = empirical_quantile(lo, values)
        q_hi = empirical_quantile(hi, values)
        assert q_lo <= q_hi
        assert q_lo in values and q_hi in values

    @given(
        st.lists(st.floats(-10, 10, allow_nan=False), min_size=1, max_size=30),
        st.floats(0.01, 0.99),
        st.randoms(),
    )
    def test_permutation_invariance(self, values, p, rand):
        shuffled = list(values)
        rand.shuffle(shuffled)
        assert empirical_quantile(p, values) == empirical_quantile(p, shuffled)


class TestDataset:
    def test_requires_samples(self):
        with pytest.raises(InvalidInput):
            Dataset(np.empty((0, 3)))

    def test_rejects_out_of_range_errors(self):
        with pytest.raises(InvalidInput):
            Dataset([[1.0], [2.0]], errors=[0.5, 1.5])
        with pytest.raises(InvalidInput):
            Dataset([[1.0]], errors=[-0.1])

    def test_rejects_nonfinite(self):
        with pytest.raises(InvalidInput):
            Dataset([[np.nan]])
        with pytest.raises(InvalidInput):
            Dataset([[1.0]], errors=[np.inf])

    def test_rejects_length_mismatch(self):
        with pytest.raises(InvalidInput):
            Dataset([[1.0], [2.0]], errors=[0.5])
        with pytest.raises(InvalidInput):
            Dataset([[1.0], [2.0]], errors=[0.5, 0.5], scores=[0.1])

    def test_subset_preserves_columns(self):
        data = Dataset([[1.0], [2.0], [3.0]], [0.1, 0.2, 0.3], [5.0, 6.0, 7.0])
        sub = data.subset([2, 0])
        assert sub.n == 2
        assert list(sub.errors) == [0.3, 0.1]
        assert list(sub.scores) == [7.0, 5.0]


class TestSelector:
    def test_selection_is_strict(self):
        sel = Selector(q=0.3, q_hat=0.5, p=0.6, p_hat=0.5)
        chosen = sel.select([0.4, 0.5, 0.50000001, 0.6])
        assert list(chosen) == [False, False, True, True]


class TestCsvRoundTrip:
    def test_round_trip(self, tmp_path, five_point):
        path = tmp_path / "data.csv"
        write_dataset(path, five_point)
        back = read_dataset(path)
        assert np.array_equal(back.features, five_point.features)
        assert np.array_equal(back.errors, five_point.errors)
        assert np.array_equal(back.scores, five_point.scores)

    def test_missing_error_column(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("f0,f1\n1,2\n")
        with pytest.raises(IngestError, match="missing required 'error' column"):
            read_dataset(path)

    def test_chunks_join_to_the_whole_file(self, tmp_path, monkeypatch, correlated_dataset):
        path = tmp_path / "data.csv"
        write_dataset(path, correlated_dataset)
        whole = read_dataset(path)
        monkeypatch.setattr(core, "CHUNK_ROWS", 7)
        chunks = list(read_chunks(path, "data"))
        assert [c.n for c in chunks] == [7] * 57 + [1]
        joined = read_dataset(path)
        for col in ("features", "errors", "scores"):
            assert getattr(joined, col).tobytes() == getattr(whole, col).tobytes()
            assert np.concatenate([getattr(c, col) for c in chunks]).tobytes() == getattr(whole, col).tobytes()

    @pytest.mark.parametrize(
        "text, fragments",
        [
            ("f0,error\n1,0.5\n\n2,oops\n", ["line 4", "column error", "'oops'"]),
            ("f0,f1,error\n1,2,0.5\n1,2\n", ["line 3", "column error", "''"]),
            ("f0,error,score\n1,0.5,inf\n", ["line 2", "column score", "'inf'"]),
            ("f0,error\nnan,0.5\n", ["line 2", "column f0", "'nan'"]),
        ],
    )
    def test_bad_cell_names_line_and_column(self, tmp_path, text, fragments):
        path = tmp_path / "bad.csv"
        path.write_text(text)
        with pytest.raises(IngestError) as exc:
            read_dataset(path)
        for fragment in fragments:
            assert fragment in str(exc.value)

    def test_bad_feature_names(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("f0,f2,error\n1,2,0.5\n")
        with pytest.raises(IngestError):
            read_dataset(path)

    def test_unparseable_row(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("f0,error\n1,oops\n")
        with pytest.raises(IngestError):
            read_dataset(path)

    def test_empty_data_section(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("f0,error\n")
        with pytest.raises(IngestError):
            read_dataset(path)

    def test_out_of_range_error_rejected_at_ingest(self, tmp_path):
        path = tmp_path / "range.csv"
        path.write_text("f0,error\n1,1.5\n")
        with pytest.raises(IngestError):
            read_dataset(path)


# Cell texts on which np.loadtxt and csv + float() could part: quotes
# (one spans lines), underscores, whitespace, non-finite and out-of-range
# values, full-width digits, an ASCII separator and empty cells.
_CELLS = [
    "0", "0.5", "-0.0", "1", "1.5", "+.5", "5.", "1e-400", "1e400", "-1e400", "nan", "inf", "-inf", "1_0",
    " 0.25", "0.25 ", "\t0.75\t", "\xa00.5", "0.5\x1c", "\uff11", "", "x", '"0.5"', '"0.1,0.2"', '"0.5\n"', '"',
]
_HEADERS = ["f0,error", "f0,f1,error,score", "id,f0,f1,score", "f0,error,note", "f0,f1"]
_LINES = st.one_of(
    st.lists(st.one_of(st.sampled_from(_CELLS), st.floats(0, 1).map(repr)), max_size=5).map(",".join),
    st.sampled_from(["", " ", "\t"]),
)


def _outcome(path):
    """The bits of every chunk read_chunks yields, then the text of the
    error that ends the read, if one does."""
    out = []
    try:
        for c in read_chunks(path, "data"):
            out.append([c.features.shape] + [None if a is None else a.tobytes() for a in (c.features, c.errors, c.scores)])
    except Exception as exc:
        out.append(f"{type(exc).__name__}: {exc}")
    return out


def _refuse(*args):
    raise ValueError("per-cell path only")


class TestChunkParse:
    """read_chunks parses a block of lines with one np.loadtxt call, and the
    per-cell csv path takes over wherever that parse could differ."""

    @settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(
        st.sampled_from(_HEADERS),
        st.lists(st.tuples(_LINES, st.sampled_from(["\n", "\r\n"])), max_size=12),
        st.integers(1, 4),
    )
    def test_loadtxt_path_gives_the_per_cell_bits_or_error(self, tmp_path, header, lines, chunk_rows):
        path = tmp_path / "data.csv"
        path.write_bytes((header + "\n" + "".join(a + b for a, b in lines)).encode())
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(core, "CHUNK_ROWS", chunk_rows)
            fast = _outcome(path)
            mp.setattr(core, "_parse_block", _refuse)
            assert fast == _outcome(path)

    def test_clean_file_takes_the_loadtxt_path(self, tmp_path, monkeypatch, correlated_dataset):
        path = tmp_path / "data.csv"
        write_dataset(path, correlated_dataset)
        monkeypatch.setattr(core, "_parse_cells", _refuse)
        assert read_dataset(path).features.tobytes() == correlated_dataset.features.tobytes()

    def test_a_row_loadtxt_drops_goes_to_the_per_cell_path(self, tmp_path, monkeypatch):
        # np.loadtxt skips the lines csv reads as blank; were it ever to skip
        # another, the row count sends the block to the per-cell path
        path = tmp_path / "data.csv"
        path.write_text("f0,error\n1,0.5\n2,0.25\n")
        loadtxt = np.loadtxt
        monkeypatch.setattr(core.np, "loadtxt", lambda *args, **kwargs: loadtxt(*args, **kwargs)[1:])
        assert read_dataset(path).errors.tolist() == [0.5, 0.25]

    @pytest.mark.filterwarnings("error")
    def test_blank_lines_longer_than_a_chunk_warn_nothing(self, tmp_path, monkeypatch):
        path = tmp_path / "data.csv"
        path.write_text("f0,error\n1,0.5\n" + "\n" * 9 + "2,0.25\n")
        monkeypatch.setattr(core, "CHUNK_ROWS", 3)
        assert [c.errors.tolist() for c in read_chunks(path, "data")] == [[0.5], [0.25]]

    def test_quoted_cell_across_a_chunk_boundary(self, tmp_path, monkeypatch):
        path = tmp_path / "data.csv"
        path.write_text('f0,error\n1,0.5\n2,"0.25\n"\n3,x\n')
        monkeypatch.setattr(core, "CHUNK_ROWS", 2)
        chunks = read_chunks(path, "data")
        assert next(chunks).errors.tolist() == [0.5, 0.25]
        with pytest.raises(IngestError, match="data line 5, column error: expected a finite number, got 'x'"):
            next(chunks)
