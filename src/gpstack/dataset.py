"""Labeled tabular datasets: CSV loading, stratified splitting, record removal."""

from __future__ import annotations

import csv
import io
import itertools
from dataclasses import dataclass, field

import numpy as np


class DatasetError(Exception):
    """Raised for malformed input files or invalid dataset operations."""


@dataclass(frozen=True)
class LabeledDataset:
    """Numeric attribute matrix plus integer-encoded class labels.

    ``records`` has shape (n, d) float64, ``labels`` shape (n,) int64 with
    values indexing into ``classes``.  ``classes`` holds the original label
    strings sorted lexicographically, so the encoding is stable across files
    that contain the same label set.
    """

    records: np.ndarray
    labels: np.ndarray
    classes: tuple[str, ...]
    columns: tuple[str, ...] = field(default=())

    def __post_init__(self) -> None:
        if self.records.ndim != 2:
            raise DatasetError("records must be a 2-d array")
        if self.labels.shape != (self.records.shape[0],):
            raise DatasetError("labels must align with records")
        if self.records.shape[0] == 0:
            raise DatasetError("dataset has no records")
        if self.records.shape[1] == 0:
            raise DatasetError("dataset has no attributes")
        if self.columns and len(self.columns) != self.records.shape[1]:
            raise DatasetError(f"{len(self.columns)} column names for "
                               f"{self.records.shape[1]} attributes")
        if self.labels.size and (self.labels.min() < 0 or self.labels.max() >= len(self.classes)):
            raise DatasetError("label index out of range")
        self.records.setflags(write=False)
        self.labels.setflags(write=False)

    @property
    def n(self) -> int:
        return self.records.shape[0]

    @property
    def d(self) -> int:
        return self.records.shape[1]

    @property
    def num_classes(self) -> int:
        return len(self.classes)

    def class_counts(self) -> np.ndarray:
        """Per-class record counts, aligned with ``classes``."""
        return np.bincount(self.labels, minlength=self.num_classes).astype(np.int64)

    def majority_class(self) -> int:
        """Index of the most frequent class; ties go to the lower index."""
        return int(np.argmax(self.class_counts()))

    def take(self, indices: np.ndarray) -> "LabeledDataset":
        """Dataset restricted to ``indices`` (order preserved).

        Fancy indexing already copies, so the new arrays share no memory
        with this dataset's; like every dataset's, they are read-only.
        """
        idx = np.asarray(indices, dtype=np.int64)
        return LabeledDataset(self.records[idx], self.labels[idx], self.classes, self.columns)


@dataclass(frozen=True)
class SplitSpec:
    """Parameters for a stratified train/test partition."""

    train_fraction: float
    seed: int

    def __post_init__(self) -> None:
        if not 0.0 < self.train_fraction < 1.0:
            raise DatasetError("train_fraction must lie strictly between 0 and 1")
        if self.seed < 0:
            raise DatasetError(f"seed must be non-negative, got {self.seed}")


# Characters where str.splitlines() would cut a line that a csv reader keeps
# whole, plus NUL, which numpy's string arrays silently drop at a cell's end.
_UNSPLIT_CHARS = "\x00\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"

WRITE_CELLS = 2 ** 16     # cells of text write_csv builds before writing them


def load_csv(path: str, label_column: str | int | None = None) -> LabeledDataset:
    """Load a headered CSV where one column holds class labels.

    The file must be UTF-8; a leading byte order mark is dropped.
    ``label_column`` selects the label column by header name or 0-based
    position; by default the last column is used.  All other cells must parse
    as finite floats; a bad cell is reported with its row and column.

    The file is read once into one string.  A columnar numpy parse is used
    when all of these hold: the text has no ``"`` (and none of the rare
    characters that split lines differently for ``str.splitlines`` and
    ``csv``, nor NUL); ``np.loadtxt`` reads the attribute columns as float64
    and the label column as ``str`` without error; every non-blank data line
    becomes one row; the data lines hold exactly n * (fields - 1) commas, so
    no row has an extra field; and every value is finite.  Otherwise the
    per-cell loop over ``csv`` rows runs, which reads quoted fields and
    reports the exact row, column and field count of the first bad row.  Both
    paths give identical results on every input the columnar one accepts.
    """
    try:
        fh = open(path, "r", newline="", encoding="utf-8-sig")
    except OSError as exc:
        raise DatasetError(f"cannot open {path}: {exc}") from exc
    with fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise DatasetError(f"{path}: not UTF-8 text: cannot decode byte "
                               f"{exc.object[exc.start]:#04x} ({exc.reason})") from None
    # Without quotes a record is a line, so splitlines() gives csv's rows.
    lines = None
    if '"' not in text and not any(c in text for c in _UNSPLIT_CHARS):
        lines = text.splitlines()
    reader = csv.reader(io.StringIO(text, newline="") if lines is None else lines)
    try:
        header = next(reader, None)
    except csv.Error as exc:
        raise DatasetError(f"{path}: header row: {exc}") from None
    if header is None:
        raise DatasetError(f"{path}: file is empty")
    if not header:
        raise DatasetError(f"{path}: header row is empty")
    label_idx = _resolve_label_column(header, label_column, path)
    attr_idx = [i for i in range(len(header)) if i != label_idx]
    if not attr_idx:
        raise DatasetError(f"{path}: no attribute columns besides the label")

    parsed = None if lines is None else _parse_columnar(text, lines, attr_idx, label_idx)
    if parsed is None:
        parsed = _parse_rows(reader, header, attr_idx, label_idx, path)
    records, labels, classes = parsed
    columns = tuple(header[c] for c in attr_idx)
    return LabeledDataset(records, labels, classes, columns)


def _parse_columnar(text: str, lines: list[str], attr_idx: list[int], label_idx: int):
    """(records, labels, classes) parsed by numpy, or None where the result
    could differ from :func:`_parse_rows`; ``lines[0]`` is the header."""
    n = len(lines) - 1 - lines.count("")
    if n == 0:
        return None
    options = dict(delimiter=",", comments=None)
    try:
        records = np.loadtxt(filter(None, itertools.islice(lines, 1, None)),
                             dtype=np.float64, usecols=attr_idx, ndmin=2, **options)
        names = np.loadtxt(filter(None, itertools.islice(lines, 1, None)),
                           dtype=str, usecols=label_idx, ndmin=1, **options)
    except ValueError:
        return None
    # loadtxt ignores fields past the last column it uses; the comma count
    # rules out a row with an extra field.
    fields = len(attr_idx) + 1
    if (records.shape != (n, len(attr_idx)) or names.shape != (n,)
            or text.count(",") - lines[0].count(",") != n * (fields - 1)
            or not np.isfinite(records).all()):
        return None
    classes, labels = np.unique(names, return_inverse=True)
    return records, labels.astype(np.int64), tuple(str(c) for c in classes)


def _parse_rows(reader, header: list[str], attr_idx: list[int], label_idx: int, path: str):
    """(records, labels, classes) from the remaining csv rows, cell by cell."""
    rows = []
    try:
        for row in reader:
            if row:
                rows.append(row)
    except csv.Error as exc:  # e.g. a field longer than csv.field_size_limit()
        raise DatasetError(f"{path}: row {len(rows) + 1}: {exc}") from None
    if not rows:
        raise DatasetError(f"{path}: no data rows")

    n, d = len(rows), len(attr_idx)
    records = np.empty((n, d), dtype=np.float64)
    raw_labels: list[str] = []
    for r, row in enumerate(rows):
        if len(row) != len(header):
            raise DatasetError(f"{path}: row {r + 1} has {len(row)} fields, expected {len(header)}")
        for j, c in enumerate(attr_idx):
            cell = row[c]
            try:
                value = float(cell)
            except ValueError:
                raise DatasetError(
                    f"{path}: row {r + 1}, column {header[c]!r}: "
                    f"cannot parse {cell!r} as a number") from None
            if not np.isfinite(value):
                raise DatasetError(
                    f"{path}: row {r + 1}, column {header[c]!r}: non-finite value {cell!r}")
            records[r, j] = value
        raw_labels.append(row[label_idx])

    classes = tuple(sorted(set(raw_labels)))
    encoding = {name: k for k, name in enumerate(classes)}
    labels = np.array([encoding[s] for s in raw_labels], dtype=np.int64)
    return records, labels, classes


def _resolve_label_column(header: list[str], label_column, path: str) -> int:
    if label_column is None:
        return len(header) - 1
    if isinstance(label_column, int):
        if not 0 <= label_column < len(header):
            raise DatasetError(f"{path}: label column index {label_column} out of range")
        return label_column
    hits = [i for i, name in enumerate(header) if name == label_column]
    if not hits:
        raise DatasetError(f"{path}: no column named {label_column!r}")
    if len(hits) > 1:
        raise DatasetError(f"{path}: column name {label_column!r} is ambiguous")
    return hits[0]


def write_csv(data: LabeledDataset, path: str, label_column: str = "class") -> None:
    """Write the dataset back out in the format :func:`load_csv` accepts.

    The header holds the column names (``x0``, ``x1``, ... when the dataset
    has none) and ``label_column``; each row holds a record's values and its
    class name last.  A value is written as the ``repr`` of the Python number
    ``tolist`` gives for it; for a float that is the shortest text that reads
    back to the same float, so finite records reload to the same bits.
    Names are quoted as ``csv.writer`` quotes them.  Lines end in CRLF.

    The rows go out in blocks of about ``WRITE_CELLS`` cells, so memory does
    not grow with the dataset.  Within a block the text is built column by
    column: each distinct bit pattern in a column is formatted once (so
    ``-0.0`` stays apart from ``0.0``), each class name is quoted once, and
    the rows are joined in one pass.
    """
    columns = data.columns or tuple(f"x{j}" for j in range(data.d))
    names = np.array([_csv_field(c) for c in data.classes], dtype=object)
    step = max(1, WRITE_CELLS // (data.d + 1))
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerow(list(columns) + [label_column])
        for start in range(0, data.n, step):
            block = data.records[start:start + step]
            cells = []
            for column in block.T:
                bits, inverse = np.unique(column.view(f"u{column.itemsize}"), return_inverse=True)
                text = [repr(v) for v in bits.view(column.dtype).tolist()]
                cells.append(np.array(text, dtype=object)[inverse])
            cells.append(names[data.labels[start:start + step]])
            fh.write("\r\n".join(map(",".join, zip(*cells))))
            fh.write("\r\n")


def _csv_field(text: str) -> str:
    """``text`` as ``csv.writer`` writes it as one field of a longer row."""
    buf = io.StringIO()
    csv.writer(buf).writerow([text, ""])
    return buf.getvalue()[:-len(",\r\n")]


def stratified_split(data: LabeledDataset, spec: SplitSpec) -> tuple[LabeledDataset, LabeledDataset]:
    """Partition into train/test keeping per-class proportions.

    Each class contributes round(train_fraction * count) records to the train
    side, with halves rounding up.  Which records go where is decided by a
    seeded per-class shuffle; within each side the original record order is
    preserved.  Every class must have at least 2 records so both sides are hit.
    """
    counts = data.class_counts()
    if data.num_classes < 2 or np.count_nonzero(counts) < 2:
        raise DatasetError("stratified split requires at least two classes present")
    if counts.min() < 2:
        raise DatasetError("every class needs at least 2 records to stratify")

    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(spec.seed)))
    train_mask = np.zeros(data.n, dtype=bool)
    for c in range(data.num_classes):
        members = np.flatnonzero(data.labels == c)
        # round-half-up keeps 3.5 -> 4 regardless of float banker's rounding
        k = int(np.floor(spec.train_fraction * members.size + 0.5))
        k = min(max(k, 1), members.size - 1)
        chosen = rng.permutation(members.size)[:k]
        train_mask[members[chosen]] = True

    train_idx = np.flatnonzero(train_mask)
    test_idx = np.flatnonzero(~train_mask)
    return data.take(train_idx), data.take(test_idx)


def remove_records(data: LabeledDataset, indices: np.ndarray) -> LabeledDataset | None:
    """Dataset without the rows named by ``indices``; None when all rows go.

    Indices must be unique and in range, in any order and shape.  Remaining
    records keep their relative order.  Uniqueness is checked without a
    sort: the indices are unique exactly when clearing them leaves
    ``n - len(indices)`` rows.
    """
    idx = np.asarray(indices, dtype=np.int64)
    if idx.size == 0:
        return data.take(np.arange(data.n))
    if idx.min() < 0 or idx.max() >= data.n:
        raise DatasetError("removal index out of range")
    keep = np.ones(data.n, dtype=bool)
    keep[idx] = False
    kept = np.count_nonzero(keep)
    if kept != data.n - idx.size:
        raise DatasetError("removal indices must be unique")
    if not kept:
        return None
    return data.take(np.flatnonzero(keep))
