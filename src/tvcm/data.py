"""Longitudinal dataset container and CSV ingestion.

A dataset holds n subjects, subject i contributing n_i observations
(t_ij, y_ij, x_ij) with a shared covariate dimension d.  The leading
regression column is an implicit intercept, so model code sees d+1
coefficient functions while the stored covariate matrix has d columns.
"""

from __future__ import annotations

import csv
import math
import re
from dataclasses import dataclass, field
from operator import itemgetter

import numpy as np

from .errors import CsvParseError, DataError, EmptyDataError, SchemaError

_COVARIATE_PATTERN = re.compile(r"^x([1-9][0-9]*)$")


def _as_float_array(values, name: str) -> np.ndarray:
    arr = np.asarray(values, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise DataError(f"{name} contains non-finite values")
    return arr


@dataclass(frozen=True)
class SubjectRecord:
    """Observations for one subject, sorted by time.

    covariates has shape (n_obs, d); d may be zero.
    """

    subject_id: str
    times: np.ndarray
    responses: np.ndarray
    covariates: np.ndarray

    def __post_init__(self) -> None:
        times = _as_float_array(self.times, "times")
        responses = _as_float_array(self.responses, "responses")
        covariates = np.asarray(self.covariates, dtype=float)
        if covariates.ndim != 2:
            raise DataError("covariates must be a 2-D array (n_obs, d)")
        if not np.all(np.isfinite(covariates)):
            raise DataError("covariates contain non-finite values")
        if times.ndim != 1 or responses.ndim != 1:
            raise DataError("times and responses must be 1-D")
        if times.size == 0:
            raise DataError(f"subject {self.subject_id!r} has no observations")
        if not (times.size == responses.size == covariates.shape[0]):
            raise DataError(f"subject {self.subject_id!r} has ragged observation arrays")
        if np.any(np.diff(times) < 0):
            raise DataError(f"subject {self.subject_id!r} times are not sorted")
        for attr, arr in (("times", times), ("responses", responses), ("covariates", covariates)):
            arr.setflags(write=False)
            object.__setattr__(self, attr, arr)

    @property
    def n_obs(self) -> int:
        return self.times.size


@dataclass(frozen=True)
class LongitudinalDataset:
    """Immutable collection of subjects with a declared time domain."""

    subjects: tuple[SubjectRecord, ...]
    time_domain: tuple[float, float] = field(default=None)  # type: ignore[assignment]

    def __post_init__(self) -> None:
        subjects = tuple(self.subjects)
        if not subjects:
            raise EmptyDataError("dataset has no subjects")
        ids = [s.subject_id for s in subjects]
        if len(set(ids)) != len(ids):
            raise DataError("subject identifiers are not unique")
        dims = {s.covariates.shape[1] for s in subjects}
        if len(dims) != 1:
            raise DataError(f"inconsistent covariate dimensions across subjects: {sorted(dims)}")
        t_min = min(float(s.times.min()) for s in subjects)
        t_max = max(float(s.times.max()) for s in subjects)
        domain = self.time_domain
        if domain is None:
            domain = (t_min, t_max)
        else:
            domain = (float(domain[0]), float(domain[1]))
            if domain[0] > t_min or domain[1] < t_max:
                raise DataError(
                    f"time domain {domain} does not cover observed times [{t_min}, {t_max}]"
                )
        if domain[0] > domain[1]:
            raise DataError(f"invalid time domain {domain}")
        object.__setattr__(self, "subjects", subjects)
        object.__setattr__(self, "time_domain", domain)

    @property
    def n_subjects(self) -> int:
        return len(self.subjects)

    @property
    def covariate_dim(self) -> int:
        return self.subjects[0].covariates.shape[1]

    @property
    def counts(self) -> np.ndarray:
        """Per-subject observation counts n_i."""
        return np.array([s.n_obs for s in self.subjects])

    @property
    def n_obs(self) -> int:
        """Total observation count N."""
        return int(self.counts.sum())

    @property
    def times(self) -> np.ndarray:
        return np.concatenate([s.times for s in self.subjects])

    @property
    def responses(self) -> np.ndarray:
        return np.concatenate([s.responses for s in self.subjects])

    @property
    def covariates(self) -> np.ndarray:
        return np.concatenate([s.covariates for s in self.subjects], axis=0)

    @property
    def subject_index(self) -> np.ndarray:
        """Row -> subject position map for the stacked arrays."""
        return np.repeat(np.arange(self.n_subjects), self.counts)


@dataclass(frozen=True)
class CsvSchema:
    """Column names for CSV ingestion.

    covariate_cols None means autodetect: every column named x1, x2, ...
    taken in numeric order.
    """

    subject_col: str = "subject"
    time_col: str = "time"
    response_col: str = "y"
    covariate_cols: tuple[str, ...] | None = None


def ingest_csv(
    path,
    schema: CsvSchema | None = None,
    time_domain: tuple[float, float] | None = None,
) -> LongitudinalDataset:
    """Read a long-format CSV into a LongitudinalDataset.

    Expected header: subject,time,y,x1,...,xd (names configurable through
    schema); a name may appear only once.  Rows may arrive in any order;
    observations are grouped by subject and stably sorted by time.  The time
    domain defaults to the observed min/max unless overridden.  Accepts a
    path, read as UTF-8 with or without a byte-order mark, or an open text
    stream.  Error messages count rows as file lines, header included.
    """
    if hasattr(path, "read"):
        return _parse_csv(path, getattr(path, "name", "<stream>"), schema, time_domain)
    with open(path, newline="", encoding="utf-8-sig") as fh:
        return _parse_csv(fh, str(path), schema, time_domain)


def _parse_csv(fh, label, schema, time_domain) -> LongitudinalDataset:
    schema = schema or CsvSchema()
    reader = csv.reader(fh)
    try:
        header = next(reader)
    except StopIteration:
        raise EmptyDataError(f"{label}: file is empty") from None
    header = [h.strip() for h in header]
    col_pos: dict[str, int] = {}
    for i, name in enumerate(header):
        # blank names (trailing commas) are never looked up
        if name and name in col_pos:
            raise SchemaError(f"{label}: column {name!r} appears more than once in the header")
        col_pos[name] = i
    for required in (schema.subject_col, schema.time_col, schema.response_col):
        if required not in col_pos:
            raise SchemaError(f"{label}: missing required column {required!r}")
    if schema.covariate_cols is None:
        detected = []
        for name in header:
            m = _COVARIATE_PATTERN.match(name)
            if m:
                detected.append((int(m.group(1)), name))
        covariate_cols = tuple(name for _, name in sorted(detected))
    else:
        covariate_cols = tuple(schema.covariate_cols)
        for name in covariate_cols:
            if name not in col_pos:
                raise SchemaError(f"{label}: missing covariate column {name!r}")
    needed = [schema.time_col, schema.response_col, *covariate_cols]
    sid_pos = col_pos[schema.subject_col]
    positions = [col_pos[name] for name in needed]
    rows = list(reader)
    try:
        sids, values = _parse_columns(rows, len(header), sid_pos, positions)
    except ValueError:
        # A ragged, blank, non-numeric or non-finite row: the row loop skips
        # blank rows and names the first bad one.
        return _parse_rows(rows, label, header, sid_pos, list(zip(needed, positions)), time_domain)

    first_seen: dict[str, int] = {}
    codes = np.array([first_seen.setdefault(sid, len(first_seen)) for sid in sids])
    # lexsort is stable: rows tied in time keep their file order
    order = np.lexsort((values[:, 0], codes))
    blocks = np.split(values[order], np.cumsum(np.bincount(codes))[:-1])
    subjects = tuple(
        SubjectRecord(subject_id=sid, times=block[:, 0], responses=block[:, 1], covariates=block[:, 2:])
        for sid, block in zip(first_seen, blocks)
    )
    return LongitudinalDataset(subjects=subjects, time_domain=time_domain)


def _parse_columns(rows, width, sid_pos, positions) -> tuple[list[str], np.ndarray]:
    """Subject ids and the (n_rows, len(positions)) values of the non-empty rows.

    One float pass per column.  Raises ValueError when there are no rows,
    when any row is ragged or blank, or when any needed cell is not a finite
    number.
    """
    rows = [row for row in rows if row]
    if set(map(len, rows)) != {width}:
        raise ValueError("rows are missing or ragged")
    n = len(rows)
    values = np.empty((n, len(positions)))
    for j, pos in enumerate(positions):
        values[:, j] = np.fromiter(map(float, map(itemgetter(pos), rows)), float, n)
    if not np.all(np.isfinite(values)):
        raise ValueError("non-finite value")
    return [row[sid_pos].strip() for row in rows], values


def _parse_rows(rows, label, header, sid_pos, needed, time_domain) -> LongitudinalDataset:
    """Row-at-a-time parse: the error locator behind _parse_columns and its test oracle.

    needed lists (name, position) for time, response and the covariates.
    """
    groups: dict[str, list[list[float]]] = {}
    order: list[str] = []
    # header is row 1, so data rows start at 2
    for row_number, row in enumerate(rows, start=2):
        if not row or all(cell.strip() == "" for cell in row):
            continue
        if len(row) != len(header):
            raise CsvParseError(
                f"{label}: row {row_number} has {len(row)} cells, expected {len(header)}"
            )
        sid = row[sid_pos].strip()
        values = []
        for name, pos in needed:
            cell = row[pos].strip()
            try:
                value = float(cell)
            except ValueError:
                raise CsvParseError(
                    f"{label}: non-numeric value {cell!r} in column {name!r} at row {row_number}"
                ) from None
            if not math.isfinite(value):
                raise CsvParseError(
                    f"{label}: non-finite value {cell!r} in column {name!r} at row {row_number}"
                )
            values.append(value)
        if sid not in groups:
            groups[sid] = []
            order.append(sid)
        groups[sid].append(values)
    if not groups:
        raise EmptyDataError(f"{label}: no data rows")

    subjects = []
    for sid in order:
        block = np.asarray(groups[sid], dtype=float)
        sort = np.argsort(block[:, 0], kind="stable")
        block = block[sort]
        subjects.append(
            SubjectRecord(
                subject_id=sid,
                times=block[:, 0],
                responses=block[:, 1],
                covariates=block[:, 2:],
            )
        )
    return LongitudinalDataset(subjects=tuple(subjects), time_domain=time_domain)


def write_csv(data: LongitudinalDataset, path) -> None:
    """Write a dataset in the same long format accepted by ingest_csv."""
    d = data.covariate_dim
    header = ["subject", "time", "y"] + [f"x{j}" for j in range(1, d + 1)]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for subject in data.subjects:
            for j in range(subject.n_obs):
                row = [subject.subject_id, repr(float(subject.times[j])), repr(float(subject.responses[j]))]
                row.extend(repr(float(v)) for v in subject.covariates[j])
                writer.writerow(row)


def subject_uniform_weights(data: LongitudinalDataset) -> np.ndarray:
    """Stacked weights w_i = 1 / (n * n_i), so each subject carries total mass 1/n.

    The weights satisfy sum_i n_i * w_i = 1 regardless of how unbalanced the
    observation counts are.
    """
    counts = data.counts
    return np.repeat(1.0 / (data.n_subjects * counts), counts)
