"""Longitudinal dataset container and CSV ingestion.

A dataset holds n subjects, subject i contributing n_i observations
(t_ij, y_ij, x_ij) with a shared covariate dimension d.  It stores them as
stacked rows: subject-contiguous, time-sorted within each subject, plus the
per-subject counts n_i that set the 1/(n n_i) weights.  The leading
regression column is an implicit intercept, so model code sees d+1
coefficient functions while the stored covariate matrix has d columns.

ingest_csv parses the rows after the header with one np.loadtxt call, and a
file it rejects with the csv.reader row loop, which names the first bad row.
"""

from __future__ import annotations

import csv
import math
import re
from dataclasses import dataclass, field

import numpy as np

from .errors import CsvParseError, DataError, EmptyDataError, SchemaError

_COVARIATE_PATTERN = re.compile(r"^x([1-9][0-9]*)$")


@dataclass(frozen=True)
class LongitudinalDataset:
    """Immutable stacked panel with a declared time domain.

    Rows are grouped by subject: subject i owns the counts[i] rows after
    those of subjects 0..i-1, sorted by time.  times and responses have
    shape (N,), covariates (N, d) with d possibly zero, and N = counts.sum().
    Each |y| is at most sqrt(float max)/2, about 6.7e153, so (2y)^2 is finite:
    a residual up to twice the largest response squares without overflow.
    """

    subject_ids: tuple[str, ...]
    counts: np.ndarray
    times: np.ndarray
    responses: np.ndarray
    covariates: np.ndarray
    time_domain: tuple[float, float] = field(default=None)  # type: ignore[assignment]

    def __post_init__(self) -> None:
        ids = tuple(self.subject_ids)
        if not ids:
            raise EmptyDataError("dataset has no subjects")
        if len(set(ids)) != len(ids):
            raise DataError("subject identifiers are not unique")
        counts = np.asarray(self.counts)
        if counts.ndim != 1 or counts.dtype.kind not in "iu":
            raise DataError("counts must be a 1-D integer array")
        if counts.size != len(ids):
            raise DataError(f"{len(ids)} subject ids but {counts.size} counts")
        counts = counts.astype(np.int64)
        if np.any(counts < 1):
            raise DataError(f"subject {ids[int(np.argmax(counts < 1))]!r} has no observations")
        n_rows = int(counts.sum())
        arrays = {}
        for name, ndim in (("times", 1), ("responses", 1), ("covariates", 2)):
            try:
                arr = np.array(getattr(self, name), dtype=float, order="C")
            except (TypeError, ValueError) as exc:
                raise DataError(f"{name} is not a numeric array: {exc}") from None
            if arr.ndim != ndim:
                raise DataError(f"{name} must be a {ndim}-D array")
            if not np.all(np.isfinite(arr)):
                raise DataError(f"{name} contains non-finite values")
            if arr.shape[0] != n_rows:
                raise DataError(f"{name} has {arr.shape[0]} rows but counts sum to {n_rows}")
            arrays[name] = arr
        bound, largest = math.sqrt(np.finfo(float).max) / 2, np.abs(arrays["responses"]).max()
        if largest > bound:
            raise DataError(f"responses must be at most {bound:.3g} in magnitude, got {largest:.3g}")
        times = arrays["times"]
        index = np.repeat(np.arange(len(ids)), counts)
        unsorted = np.flatnonzero((times[1:] < times[:-1]) & (index[1:] == index[:-1]))
        if unsorted.size:
            raise DataError(f"subject {ids[index[unsorted[0]]]!r} times are not sorted")
        t_min, t_max = float(times.min()), float(times.max())
        domain = self.time_domain
        if domain is None:
            domain = (t_min, t_max)
        else:
            domain = (float(domain[0]), float(domain[1]))
            if not np.isfinite(domain).all():
                raise DataError(f"time domain {domain} must have finite bounds")
            if domain[0] > t_min or domain[1] < t_max:
                raise DataError(
                    f"time domain {domain} does not cover observed times [{t_min}, {t_max}]"
                )
        arrays["counts"] = counts
        for name, arr in arrays.items():
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        object.__setattr__(self, "subject_ids", ids)
        object.__setattr__(self, "time_domain", domain)

    @property
    def n_subjects(self) -> int:
        return len(self.subject_ids)

    @property
    def covariate_dim(self) -> int:
        return self.covariates.shape[1]

    @property
    def n_obs(self) -> int:
        """Total observation count N."""
        return self.times.size

    @property
    def subject_index(self) -> np.ndarray:
        """Row -> subject position map for the stacked arrays."""
        return np.repeat(np.arange(self.n_subjects), self.counts)


def ingest_csv(path, time_domain: tuple[float, float] | None = None) -> LongitudinalDataset:
    """Read a long-format CSV into a LongitudinalDataset.

    Expected header: subject,time,y,x1,...,xd, in any column order; other
    columns are ignored and a name may appear only once.  Rows may arrive in
    any order; observations are grouped by subject and stably sorted by time.
    The time domain defaults to the observed min/max unless overridden.
    Accepts a path, read as UTF-8 with or without a byte-order mark, or an
    open text stream.  Error messages count rows as file lines, header
    included.
    """
    if hasattr(path, "read"):
        return _parse_csv(path, getattr(path, "name", "<stream>"), time_domain)
    with open(path, newline="", encoding="utf-8-sig") as fh:
        return _parse_csv(fh, str(path), time_domain)


def _parse_csv(fh, label, time_domain) -> LongitudinalDataset:
    reader = csv.reader(fh)
    try:
        header = next(reader)
    except StopIteration:
        raise EmptyDataError(f"{label}: file is empty") from None
    except csv.Error as exc:
        raise CsvParseError(f"{label}: row 1 cannot be read: {exc}") from None
    header = [h.strip() for h in header]
    col_pos: dict[str, int] = {}
    for i, name in enumerate(header):
        # blank names (trailing commas) are never looked up
        if name and name in col_pos:
            raise SchemaError(f"{label}: column {name!r} appears more than once in the header")
        col_pos[name] = i
    for required in ("subject", "time", "y"):
        if required not in col_pos:
            raise SchemaError(f"{label}: missing required column {required!r}")
    # covariates are the columns x1, x2, ... taken in numeric order
    detected = sorted((int(m.group(1)), m.group(0))
                      for m in map(_COVARIATE_PATTERN.match, header) if m)
    needed = ["time", "y", *(name for _, name in detected)]
    sid_pos = col_pos["subject"]
    positions = [col_pos[name] for name in needed]
    lines = list(fh)
    try:
        raw_ids, values = _load_columns(lines, len(header), sid_pos, positions)
    except ValueError:
        # the row loop skips blank rows and names the first bad row or cell
        rows = csv.reader(lines)
        try:
            return _parse_rows(rows, label, header, sid_pos, list(zip(needed, positions)), time_domain)
        except csv.Error as exc:
            # line_num counts the data lines read, the failing one included, after the header's
            raise CsvParseError(f"{label}: row {rows.line_num + 1} cannot be read: {exc}") from None

    # first-seen numbering: equal raw ids strip alike, so only run heads need a lookup
    heads = np.flatnonzero(np.concatenate(([True], raw_ids[1:] != raw_ids[:-1])))
    first_seen: dict[str, int] = {}
    codes = [first_seen.setdefault(sid.strip(), len(first_seen)) for sid in raw_ids[heads]]
    codes = np.repeat(codes, np.diff(heads, append=raw_ids.size))
    # rows already grouped in first-seen order and time-sorted within each subject keep
    # their order, as the stable lexsort below would leave them (ties keep file order)
    step, t = np.diff(codes), values[:, 0]
    if not np.all((step > 0) | ((step == 0) & (t[1:] >= t[:-1]))):
        values = values[np.lexsort((values[:, 0], codes))]
    return LongitudinalDataset(
        tuple(first_seen), np.bincount(codes), values[:, 0], values[:, 1], values[:, 2:], time_domain
    )


def _load_columns(lines, width, sid_pos, positions) -> tuple[np.ndarray, np.ndarray]:
    """Raw subject ids and (n_rows, len(positions)) values from one np.loadtxt call.

    Every column has a field, float where needed and str elsewhere, so a ragged
    row raises ValueError in C, as do a whitespace-only row, a needed cell that
    is not a finite number, and no rows.
    """
    if all(map(str.isspace, lines)):
        raise ValueError("no data rows")
    dtype = [(str(i), "f8" if i in positions else object) for i in range(width)]
    table = np.loadtxt(lines, dtype, delimiter=",", quotechar='"', comments=None, ndmin=1)
    values = np.column_stack([table[str(pos)] for pos in positions])
    if not np.all(np.isfinite(values)):
        raise ValueError("non-finite value")
    return table[str(sid_pos)], values


def _parse_rows(rows, label, header, sid_pos, needed, time_domain) -> LongitudinalDataset:
    """Row-at-a-time parse: the fallback that locates errors for _load_columns, and its oracle.

    needed lists (name, position) for time, response and the covariates.
    """
    groups: dict[str, list[list[float]]] = {}
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
        groups.setdefault(sid, []).append(values)
    if not groups:
        raise EmptyDataError(f"{label}: no data rows")

    blocks = [np.asarray(block, dtype=float) for block in groups.values()]
    values = np.concatenate([block[np.argsort(block[:, 0], kind="stable")] for block in blocks])
    counts = [len(block) for block in blocks]
    return LongitudinalDataset(
        tuple(groups), counts, values[:, 0], values[:, 1], values[:, 2:], time_domain
    )


def write_csv(data: LongitudinalDataset, path) -> None:
    """Write a dataset in the same long format accepted by ingest_csv."""
    d = data.covariate_dim
    header = ["subject", "time", "y"] + [f"x{j}" for j in range(1, d + 1)]
    ids = np.repeat(np.array(data.subject_ids, dtype=object), data.counts)
    columns = [data.times, data.responses, *data.covariates.T]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(zip(ids, *(map(repr, column.tolist()) for column in columns)))


def subject_uniform_weights(data: LongitudinalDataset) -> np.ndarray:
    """Stacked weights w_i = 1 / (n * n_i), so each subject carries total mass 1/n.

    The weights satisfy sum_i n_i * w_i = 1 regardless of how unbalanced the
    observation counts are.
    """
    counts = data.counts
    return np.repeat(1.0 / (data.n_subjects * counts), counts)
