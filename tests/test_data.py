"""Dataset container, CSV ingestion, and observation weights."""
from __future__ import annotations

import io
import subprocess
import sys
import textwrap
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tvcm import LongitudinalDataset, gen_scenario2, ingest_csv, write_csv
from tvcm import data as data_module
from tvcm.data import subject_uniform_weights
from tvcm.errors import CsvParseError, DataError, EmptyDataError, SchemaError

from conftest import by_subject, single_subject


def _csv(text: str) -> io.StringIO:
    return io.StringIO(textwrap.dedent(text).lstrip())


# ---------------------------------------------------------------------------
# CSV ingestion
# ---------------------------------------------------------------------------


class TestIngest:
    def test_two_subjects_five_rows(self):
        data = ingest_csv(_csv("""
            subject,time,y,x1
            a,0.1,1.0,0.5
            a,0.2,1.5,0.5
            a,0.3,2.0,0.5
            b,0.1,0.0,1.0
            b,0.4,0.5,1.0
        """))
        assert data.n_subjects == 2
        assert data.n_obs == 5
        assert tuple(data.counts) == (3, 2)
        assert data.covariate_dim == 1

    def test_rows_regrouped_and_time_sorted(self):
        """Rows may arrive in any order; subjects keep first-seen order and
        each subject's rows end up sorted by time."""
        data = ingest_csv(_csv("""
            subject,time,y
            b,0.4,4.0
            a,0.3,3.0
            a,0.1,1.0
            b,0.2,2.0
        """))
        assert data.subject_ids == ("b", "a")
        np.testing.assert_array_equal(data.counts, [2, 2])
        np.testing.assert_array_equal(data.times, [0.2, 0.4, 0.1, 0.3])
        np.testing.assert_array_equal(data.responses, [2.0, 4.0, 1.0, 3.0])

    def test_covariate_columns_detected_in_numeric_order(self):
        data = ingest_csv(_csv("""
            subject,time,y,x2,x10,x1
            a,0.0,1.0,20.0,100.0,10.0
        """))
        assert data.covariate_dim == 3
        # x1, x2, x10: numeric suffix order, not lexicographic
        np.testing.assert_array_equal(data.covariates[0], [10.0, 20.0, 100.0])

    def test_single_row_file(self):
        data = ingest_csv(_csv("""
            subject,time,y
            solo,0.5,1.0
        """))
        assert data.n_obs == 1
        assert data.time_domain == (0.5, 0.5)

    def test_bad_numeric_cell_names_row(self):
        with pytest.raises(CsvParseError, match="row 4"):
            ingest_csv(_csv("""
                subject,time,y
                a,0.1,1.0
                a,0.2,1.5
                a,0.3,oops
            """))

    def test_missing_required_column(self):
        with pytest.raises(SchemaError):
            ingest_csv(_csv("""
                subject,when,y
                a,0.1,1.0
            """))

    def test_empty_file(self):
        with pytest.raises(EmptyDataError):
            ingest_csv(io.StringIO(""))

    def test_header_only_file(self):
        with pytest.raises(EmptyDataError):
            ingest_csv(io.StringIO("subject,time,y\n"))

    def test_demo_script_reproduces_bundled_panel(self, demo_csv, tmp_path):
        out = tmp_path / "demo.csv"
        script = demo_csv.parents[1] / "scripts" / "make_demo_data.py"
        proc = subprocess.run([sys.executable, str(script), str(out)],
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert out.read_bytes() == demo_csv.read_bytes()

    def test_round_trip_is_identity(self, tmp_path):
        src = _csv("""
            subject,time,y,x1
            a,0.125,1.0,0.5
            a,0.25,1.5,0.5
            b,0.1,-0.75,1.0
        """)
        first = ingest_csv(src)
        path = tmp_path / "rt.csv"
        write_csv(first, path)
        second = ingest_csv(path)
        _assert_same_dataset(first, second)


class TestIngestDefects:
    def test_repeated_header_name_rejected(self):
        with pytest.raises(SchemaError, match="'x1'"):
            ingest_csv(_csv("""
                subject,time,y,x1,x1
                a,0.1,1.0,0.5,0.7
            """))

    def test_byte_order_mark_accepted(self, tmp_path):
        text = "subject,time,y,x1\r\na,0.1,1.0,0.5\r\nb,0.2,2.0,1.5\r\n"
        plain, marked = tmp_path / "plain.csv", tmp_path / "bom.csv"
        plain.write_bytes(text.encode("utf-8"))
        marked.write_bytes(text.encode("utf-8-sig"))
        _assert_same_dataset(ingest_csv(marked), ingest_csv(plain))

    @pytest.mark.parametrize("cell, column", [
        ("nan", "y"), ("inf", "time"), ("-Infinity", "x1"), ("NaN", "x1")])
    def test_non_finite_cell_names_row_and_column(self, cell, column):
        cells = {"time": "0.3", "y": "2.0", "x1": "0.5"}
        cells[column] = cell
        text = ("subject,time,y,x1\na,0.1,1.0,0.5\na,0.2,1.5,0.5\n"
                f"b,{cells['time']},{cells['y']},{cells['x1']}\n")
        with pytest.raises(CsvParseError) as info:
            ingest_csv(io.StringIO(text))
        message = str(info.value)
        assert "row 4" in message
        assert f"column {column!r}" in message
        assert repr(cell) in message
        assert isinstance(info.value, DataError)

    def test_ragged_row_reported_before_later_bad_cell(self):
        with pytest.raises(CsvParseError, match=r"row 3 has 2 cells, expected 3"):
            ingest_csv(io.StringIO("subject,time,y\na,0.1,1.0\na,0.2\na,0.3,oops\n"))

    def test_bad_cell_reported_before_later_ragged_row(self):
        with pytest.raises(
                CsvParseError,
                match=r"non-numeric value 'oops' in column 'y' at row 3"):
            ingest_csv(io.StringIO("subject,time,y\na,0.1,1.0\na,0.3,oops\na,0.2\n"))


# ---------------------------------------------------------------------------
# Columnar parse against the row loop
# ---------------------------------------------------------------------------


def _assert_same_dataset(a: LongitudinalDataset, b: LongitudinalDataset):
    assert a.subject_ids == b.subject_ids
    assert a.time_domain == b.time_domain
    np.testing.assert_array_equal(a.counts, b.counts)
    np.testing.assert_array_equal(a.times, b.times)
    np.testing.assert_array_equal(a.responses, b.responses)
    np.testing.assert_array_equal(a.covariates, b.covariates)
    assert a.covariates.shape == b.covariates.shape


def _row_loop_only(*args):
    raise ValueError("columnar parse disabled")


def _columnar_only(*args):
    raise AssertionError("the row loop ran on a file the columnar parse should take")


def _ingest_both(path, monkeypatch, columnar: bool):
    """(default parse, row-loop parse) of the file at path.  columnar=True
    also requires the default parse to finish without the row loop."""
    with monkeypatch.context() as m:
        if columnar:
            m.setattr(data_module, "_parse_rows", _columnar_only)
        default = ingest_csv(path)
    with monkeypatch.context() as m:
        m.setattr(data_module, "_load_columns", _row_loop_only)
        loop = ingest_csv(path)
    return default, loop


_EDGE_FILES = {
    # csv.reader yields [] for an empty line; the columnar parse drops it
    "empty_rows": ("subject,time,y\n\na,0.2,1.0\n\n\nb,0.1,2.0\na,0.1,3.0\n\n", True),
    # a whitespace-only line is one blank cell: the row loop skips it
    "whitespace_rows": ("subject,time,y\na,0.2,1.0\n   \nb,0.1,2.0\n\t\na,0.1,3.0\n", False),
    "blank_cell_rows": ("subject,time,y\na,0.2,1.0\n,,\nb,0.1,2.0\n , ,\n", False),
    "quoted_ids": ('subject,time,y,x1\n"Smith, J",0.2,1.0,4\n"Doe, ""A""",0.1,2.0,5\n'
                   '"Smith, J",0.1,3.0,4\n', True),
    "crlf": ("subject,time,y,x1\r\nb,0.3,1.0,1\r\na,0.2,2.0,0\r\nb,0.1,3.0,1\r\n", True),
    "tied_times": ("subject,time,y\na,0.5,1.0\nb,0.5,9.0\na,0.1,2.0\na,0.5,3.0\n"
                   "a,0.5,4.0\nb,0.5,8.0\n", True),
    "padded_cells": ("subject , time,y\n a ,  0.5 ,1.0\na,0.25, 2.0 \n", True),
}


class TestColumnarParity:
    @pytest.mark.parametrize("name", sorted(_EDGE_FILES))
    def test_edge_files(self, name, tmp_path, monkeypatch):
        text, columnar = _EDGE_FILES[name]
        path = tmp_path / f"{name}.csv"
        path.write_bytes(text.encode("utf-8"))
        default, loop = _ingest_both(path, monkeypatch, columnar)
        _assert_same_dataset(default, loop)

    def test_quoted_ids_keep_commas(self, tmp_path):
        path = tmp_path / "quoted.csv"
        path.write_bytes(_EDGE_FILES["quoted_ids"][0].encode("utf-8"))
        data = ingest_csv(path)
        assert data.subject_ids == ("Smith, J", 'Doe, "A"')
        np.testing.assert_array_equal(by_subject(data, data.responses)[0], [3.0, 1.0])

    def test_tied_times_keep_file_order(self, tmp_path):
        path = tmp_path / "ties.csv"
        path.write_bytes(_EDGE_FILES["tied_times"][0].encode("utf-8"))
        data = ingest_csv(path)
        a, b = by_subject(data, data.responses)
        np.testing.assert_array_equal(a, [2.0, 1.0, 3.0, 4.0])
        np.testing.assert_array_equal(b, [9.0, 8.0])

    def test_demo_panel(self, demo_csv, monkeypatch):
        default, loop = _ingest_both(demo_csv, monkeypatch, columnar=True)
        _assert_same_dataset(default, loop)

    def test_shuffled_scenario2_panel(self, tmp_path, monkeypatch):
        data, _ = gen_scenario2(60, np.random.default_rng(5))
        ordered = tmp_path / "ordered.csv"
        write_csv(data, ordered)
        header, *rows = ordered.read_text().splitlines(keepends=True)
        perm = np.random.default_rng(6).permutation(len(rows))
        shuffled = tmp_path / "shuffled.csv"
        shuffled.write_text(header + "".join(rows[i] for i in perm))
        default, loop = _ingest_both(shuffled, monkeypatch, columnar=True)
        _assert_same_dataset(default, loop)
        # subjects come back in first-seen order of the shuffled file
        first_ids = list(dict.fromkeys(rows[i].split(",", 1)[0] for i in perm))
        assert list(default.subject_ids) == first_ids
        times = dict(zip(data.subject_ids, by_subject(data, data.times)))
        covariates = dict(zip(data.subject_ids, by_subject(data, data.covariates)))
        for sid, t, x in zip(default.subject_ids, by_subject(default, default.times),
                             by_subject(default, default.covariates)):
            np.testing.assert_array_equal(t, times[sid])
            np.testing.assert_array_equal(x, covariates[sid])

    @pytest.mark.parametrize("rows, ordered", [
        ("a,0.1,1\na,0.2,2\nb,0.1,3\nb,0.3,4\nc,0.0,5\n", True),
        ("a,0.1,1\na,0.2,2\nb,0.3,3\nb,0.1,4\nc,0.0,5\n", False),
        ("a,0.1,1\nb,0.2,2\na,0.3,3\nc,0.0,4\n", False),
        ("a,0.5,1\na,0.5,2\nb,0.2,3\nb,0.2,4\nb,0.4,5\n", True),
    ], ids=["in-order", "one-subject-decreasing", "subject-reappears", "tied-times"])
    def test_row_order_matches_row_loop(self, rows, ordered, tmp_path, monkeypatch):
        """Rows already grouped and time-sorted skip the lexsort; every panel parses as the loop does."""
        path = tmp_path / "panel.csv"
        path.write_text("subject,time,y\n" + rows)
        sorts = []
        lexsort = np.lexsort
        monkeypatch.setattr(np, "lexsort", lambda keys: (sorts.append(keys), lexsort(keys))[1])
        default, loop = _ingest_both(path, monkeypatch, columnar=True)
        assert len(sorts) == (0 if ordered else 1)  # the row loop never calls it
        _assert_same_bits(default, loop)

    # spellings NumPy's parser takes give float()'s bits; the rest fall back
    @pytest.mark.parametrize("cell, columnar", [
        (" 1.5 ", True), ("\t2\t", True), (".5", True), ("5.", True), ("1E+3", True),
        ("+1", True), ("-0", True), ("4.9e-324", True), ("1e-320", True), ("1.79e308", True),
        ("0.1000000000000000055511151231257827", True), ("0." + "3" * 400, True),
        ("\xa01\u2003", True), ('"2.5"', True),
        ("1_0", False), ("\u0661\u0662", False), ("\uff11\uff12", False)],
        ids=lambda value: ascii(value)[1:25] if isinstance(value, str) else None)
    def test_number_spellings(self, cell, columnar, tmp_path, monkeypatch):
        path = tmp_path / "cell.csv"
        path.write_bytes(f"subject,time,y\na,0.5,{cell}\na,0.25,1\n".encode("utf-8"))
        default, loop = _ingest_both(path, monkeypatch, columnar)
        _assert_same_bits(default, loop)
        assert default.responses[1].tobytes() == np.float64(float(cell.strip('"'))).tobytes()

    @pytest.mark.parametrize("text", [
        "subject,time,y\n", "subject,time,y", "subject,time,y\n\n\n", "subject,time,y\r\n\r\n",
        "subject,time,y\n  \n\t\n", "subject,time,y\n,,\n"])
    def test_no_data_rows_warn_nothing(self, text):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(EmptyDataError, match="no data rows"):
                ingest_csv(io.StringIO(text))

    def test_blank_rows_warn_nothing(self, monkeypatch):
        monkeypatch.setattr(data_module, "_parse_rows", _columnar_only)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            data = ingest_csv(io.StringIO("subject,time,y\n\na,0.1,1\n\r\n\nb,0.2,2\n\n"))
        assert data.subject_ids == ("a", "b")

    def test_stream_takes_columnar_parse(self, monkeypatch):
        monkeypatch.setattr(data_module, "_parse_rows", _columnar_only)
        data = ingest_csv(io.StringIO(
            'y,subject,time,note\r\n1.5," b ",0.2,"x,\r\ny"\r\n2.5,a,0.1,\r\n3.5,b,0.1,z\r\n'))
        assert data.subject_ids == ("b", "a")
        np.testing.assert_array_equal(data.responses, [3.5, 1.5, 2.5])

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(st.data())
    def test_generated_panels_match_row_loop(self, tmp_path_factory, data):
        text, odd = data.draw(_panels())
        path = tmp_path_factory.getbasetemp() / "generated_panel.csv"
        path.write_bytes(text.encode("utf-8"))
        default, loop = _ingest_both(path, pytest.MonkeyPatch, columnar=not odd)
        _assert_same_bits(default, loop)


def _assert_same_bits(a: LongitudinalDataset, b: LongitudinalDataset):
    _assert_same_dataset(a, b)
    for name in ("times", "responses", "covariates"):
        assert getattr(a, name).tobytes() == getattr(b, name).tobytes(), name


# subject id cores: commas, quotes, CR and LF, padding, and \x0c and \u2028,
# which csv and NumPy keep but str.splitlines would break at
_ID_TEXT = st.text(st.sampled_from(list('ab ,"\n\r\t\x0c#') + ["\u00e9", "\u00a0", "\u2028"]),
                   min_size=1, max_size=5)
_NUMBERS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.integers(-10**30, 10**30).map(str),
    st.sampled_from([".5", "5.", "-0", "1E-3", "+2", "4.9e-324", "0.1000000000000000055511151231257827"]))


def _quote(cell: str, force: bool) -> str:
    if force or any(c in cell for c in ',"\r\n'):
        return '"' + cell.replace('"', '""') + '"'
    return cell


@st.composite
def _panels(draw):
    """(file text, whether it holds a cell only float() reads) for a random panel.

    Columns come in any order, with up to two covariates and maybe an unused
    text column; ids repeat with varying padding; rows come in any order, with
    empty lines between them, CRLF or LF line ends and maybe a byte-order mark.
    """
    header = ["subject", "time", "y"] + ["x1", "x2"][:draw(st.integers(0, 2))]
    header += ["note"] if draw(st.booleans()) else []
    header = draw(st.permutations(header))
    cores = draw(st.lists(_ID_TEXT, min_size=1, max_size=4))
    rows = []
    for _ in range(draw(st.integers(1, 10))):
        pad = draw(st.sampled_from(["", " ", "\t", "  "]))
        cells = {"subject": _quote(pad + draw(st.sampled_from(cores)) + pad[:1], draw(st.booleans())),
                 "note": _quote(draw(_ID_TEXT), False)}
        for name in ("time", "y", "x1", "x2"):
            cells[name] = _quote(draw(st.sampled_from(["", " "])) + draw(_NUMBERS), draw(st.booleans()))
        rows.append([cells[name] for name in header])
    odd = draw(st.sampled_from([None] * 8 + ["1_0", "\u0661\u0662"]))
    if odd:
        row = draw(st.sampled_from(rows))
        row[draw(st.sampled_from([i for i, name in enumerate(header) if name not in ("subject", "note")]))] = odd
    lines = [",".join(header)]
    for row in draw(st.permutations(rows)):
        lines += [""] * draw(st.integers(0, 2)) + [",".join(row)]
    eol = draw(st.sampled_from(["\n", "\r\n"]))
    bom = "\ufeff" if draw(st.booleans()) else ""
    return bom + eol.join(lines) + draw(st.sampled_from(["", eol])), odd is not None


# ---------------------------------------------------------------------------
# Container validation
# ---------------------------------------------------------------------------


def _dataset(ids, counts, times, covariates=None, responses=None, time_domain=None):
    """Stacked dataset; ids may be a string of one-letter ids, responses
    default to zeros and covariates to none."""
    times = np.asarray(times, dtype=float)
    if responses is None:
        responses = np.zeros(times.size)
    if covariates is None:
        covariates = np.empty((times.size, 0))
    return LongitudinalDataset(tuple(ids), counts, times, responses, covariates, time_domain)


class TestContainers:
    def test_times_must_be_sorted(self):
        with pytest.raises(DataError, match="not sorted"):
            _dataset("a", [2], [0.3, 0.1])

    def test_unsorted_subject_is_named(self):
        with pytest.raises(DataError, match="subject 'b' times are not sorted"):
            _dataset("abc", [2, 2, 1], [0.1, 0.2, 0.5, 0.3, 0.0])

    def test_time_decrease_at_subject_boundary_accepted(self):
        data = _dataset("ab", [2, 2], [0.5, 0.9, 0.1, 0.2])
        assert data.time_domain == (0.1, 0.9)

    def test_times_far_apart_warn_nothing(self):
        """Finite times whose difference overflows are ordered by comparing
        neighbours, in the container and in the CSV reader."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert _dataset("ab", [2, 1], [-1e308, 1e308, -1e308]).time_domain == (-1e308, 1e308)
            with pytest.raises(DataError, match="subject 'a' times are not sorted"):
                _dataset("a", [2], [1e308, -1e308])
            read = ingest_csv(io.StringIO("subject,time,y\na,1e308,1\nb,-1e308,2\na,-1e308,3\n"))
        np.testing.assert_array_equal(read.times, [-1e308, 1e308, -1e308])
        np.testing.assert_array_equal(read.responses, [3.0, 1.0, 2.0])

    def test_values_must_be_finite(self):
        with pytest.raises(DataError, match="responses contains non-finite"):
            _dataset("a", [2], [0.1, 0.2], responses=[1.0, np.nan])

    @pytest.mark.parametrize("name", ["times", "responses", "covariates"])
    def test_non_finite_array_is_named(self, name):
        arrays = {"times": np.array([0.1, 0.2]), "responses": np.zeros(2),
                  "covariates": np.zeros((2, 1))}
        arrays[name].flat[1] = np.inf
        with pytest.raises(DataError, match=f"{name} contains non-finite"):
            LongitudinalDataset(("a",), [2], **arrays)

    def test_covariate_rows_must_match_times(self):
        with pytest.raises(DataError, match="covariates has 3 rows"):
            _dataset("a", [2], [0.1, 0.2], covariates=np.zeros((3, 1)))

    def test_counts_must_match_rows(self):
        with pytest.raises(DataError, match="times has 3 rows but counts sum to 4"):
            _dataset("ab", [2, 2], [0.1, 0.2, 0.3])

    def test_ids_and_counts_must_have_equal_length(self):
        with pytest.raises(DataError, match="2 subject ids but 1 counts"):
            _dataset("ab", [3], [0.1, 0.2, 0.3])

    def test_zero_count_rejected(self):
        with pytest.raises(DataError, match="subject 'b' has no observations"):
            _dataset("abc", [2, 0, 1], [0.1, 0.2, 0.3])

    def test_counts_must_be_integers(self):
        with pytest.raises(DataError, match="integer"):
            _dataset("ab", [1.0, 1.0], [0.1, 0.2])

    @pytest.mark.parametrize("name, value", [
        ("times", [[0.1, 0.2]]), ("responses", [[0.0, 0.0]]), ("covariates", [0.0, 0.0])])
    def test_array_dimensions(self, name, value):
        arrays = {"times": [0.1, 0.2], "responses": [0.0, 0.0], "covariates": np.empty((2, 0))}
        arrays[name] = value
        with pytest.raises(DataError, match=f"{name} must be a"):
            LongitudinalDataset(("a",), [2], **arrays)

    def test_arrays_are_read_only(self):
        data = _dataset("ab", [2, 1], [0.1, 0.2, 0.0], covariates=np.zeros((3, 1)))
        for arr in (data.counts, data.times, data.responses, data.covariates):
            with pytest.raises(ValueError):
                arr[0] = 9

    def test_caller_arrays_stay_writeable(self):
        """The dataset freezes copies that it owns: the caller's arrays stay
        writeable, and writing to them leaves the dataset unchanged."""
        times, responses, covariates = np.array([0.1, 0.2, 0.0]), np.ones(3), np.zeros((3, 1))
        data = _dataset("ab", [2, 1], times, covariates=covariates, responses=responses)
        for mine, theirs in ((times, data.times), (responses, data.responses),
                             (covariates, data.covariates)):
            before = theirs.copy()
            mine[0] = 9.0
            np.testing.assert_array_equal(theirs, before)

    def test_duplicate_subject_ids_rejected(self):
        with pytest.raises(DataError, match="not unique"):
            _dataset(["a", "a"], [1, 1], [0.1, 0.1])

    def test_no_subjects_rejected(self):
        with pytest.raises(EmptyDataError):
            _dataset([], np.array([], dtype=int), [])

    def test_mixed_covariate_width_rejected(self):
        with pytest.raises(DataError, match="covariates is not a numeric array"):
            _dataset("ab", [1, 1], [0.1, 0.1], covariates=[[0.0], [0.0, 1.0]])

    def test_covariates_must_be_two_dimensional(self):
        with pytest.raises(DataError, match="covariates must be a 2-D array"):
            _dataset("ab", [1, 1], [0.1, 0.1], covariates=np.zeros(2))

    def test_default_domain_is_observed_range(self):
        assert _dataset("a", [2], [0.2, 0.7]).time_domain == (0.2, 0.7)

    def test_domain_override_must_cover_observations(self):
        data = _dataset("a", [2], [0.2, 0.7], time_domain=(0.0, 1.0))
        assert data.time_domain == (0.0, 1.0)
        with pytest.raises(DataError, match="does not cover"):
            _dataset("a", [2], [0.2, 0.7], time_domain=(0.3, 1.0))

    def test_reversed_domain_rejected(self):
        with pytest.raises(DataError, match="does not cover"):
            _dataset("a", [1], [0.5], time_domain=(1.0, 0.0))

    @pytest.mark.parametrize("domain", [(np.nan, 1.0), (-np.inf, 1.0), (0.0, np.inf)])
    def test_non_finite_domain_rejected(self, domain):
        """nan compares False with every time, so only a finiteness check stops it."""
        with pytest.raises(DataError, match="finite bounds"):
            _dataset("a", [2], [0.2, 0.7], time_domain=domain)

    def test_derived_sizes(self):
        data = _dataset("abc", [2, 3, 1], np.arange(6.0), covariates=np.zeros((6, 2)))
        assert (data.n_subjects, data.n_obs, data.covariate_dim) == (3, 6, 2)
        np.testing.assert_array_equal(data.subject_index, [0, 0, 1, 1, 1, 2])


# ---------------------------------------------------------------------------
# Subject-uniform weights
# ---------------------------------------------------------------------------


def _panel(counts) -> LongitudinalDataset:
    """Dataset with the given per-subject observation counts."""
    times = np.concatenate([np.linspace(0.0, 1.0, c) for c in counts])
    return _dataset([f"s{i}" for i in range(len(counts))], counts, times)


class TestWeights:
    def test_two_subject_example(self):
        """n=2 with 2 and 3 observations: each row weight is 1/(n*n_i)."""
        w = subject_uniform_weights(_panel([2, 3]))
        np.testing.assert_allclose(w, [0.25, 0.25, 1 / 6, 1 / 6, 1 / 6])

    def test_single_subject(self):
        np.testing.assert_allclose(subject_uniform_weights(_panel([4])), 0.25)

    def test_balanced_panel(self):
        np.testing.assert_allclose(subject_uniform_weights(_panel([5] * 10)),
                                   0.02)

    def test_dataset_weights_sum_to_one(self):
        data = single_subject([0.1, 0.5, 0.9], [1.0, 2.0, 3.0])
        w = subject_uniform_weights(data)
        assert w.shape == (3,)
        np.testing.assert_allclose(w.sum(), 1.0)

    @settings(max_examples=50, deadline=None, derandomize=True, database=None)
    @given(st.lists(st.integers(min_value=1, max_value=40), min_size=1,
                    max_size=30))
    def test_mass_properties(self, counts):
        """Weights sum to one overall and to 1/n within every subject."""
        w = subject_uniform_weights(_panel(counts))
        assert w.shape == (sum(counts),)
        np.testing.assert_allclose(w.sum(), 1.0, atol=1e-12)
        offsets = np.concatenate([[0], np.cumsum(counts)])
        n = len(counts)
        for i in range(n):
            block = w[offsets[i]:offsets[i + 1]]
            np.testing.assert_allclose(block.sum(), 1.0 / n, atol=1e-12)
            assert np.all(block == block[0])
