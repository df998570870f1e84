"""Labeled tabular datasets: CSV loading, stratified splitting, record removal."""

from __future__ import annotations

import csv
import io
from collections import defaultdict
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
    that contain the same label set.  ``columns`` names the attributes and
    ``label_name`` the label column, as in the header they were read from.
    """

    records: np.ndarray
    labels: np.ndarray
    classes: tuple[str, ...]
    columns: tuple[str, ...] = field(default=())
    label_name: str = "class"

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
        return LabeledDataset(self.records[idx], self.labels[idx], self.classes, self.columns,
                              self.label_name)


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


# Characters that keep a file off the columnar parse: the line breaks of
# str.splitlines() other than \r and \n, and NUL.  The line-based numpy pass
# and the csv reader are not shown to agree on them, so such a file is read by
# the per-cell loop.
_UNSPLIT_CHARS = "\x00\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"

SCAN_CHARS = 2 ** 16      # characters of text load_csv scans at a time
WRITE_CELLS = 2 ** 16     # cells of text write_csv builds before writing them


def load_csv(path: str, label_column: str | int | None = None) -> LabeledDataset:
    """Load a headered CSV where one column holds class labels.

    The file must be UTF-8; a leading byte order mark is dropped.
    ``label_column`` selects the label column by header name or 0-based
    position; by default the last column is used.  All other cells must parse
    as finite floats; a bad cell is reported with its row and column.

    The file's text is never held whole.  A first pass reads it in blocks of
    ``SCAN_CHARS`` characters and counts its commas.  When the text has no
    ``"`` (nor NUL, nor a line break other than ``\r`` and ``\n``), the
    columnar numpy parse reads the open file line by line: one
    ``np.loadtxt`` pass reads the attribute columns as float64, and the label
    column through a converter that codes each label text in first-seen
    order.  Its result is used when that pass succeeds, the data lines hold
    exactly n * (fields - 1) commas, so each non-blank line is one row with
    the header's field count, and every value is finite.  Its records are a
    read-only view of that one table, not a copy.  Otherwise the per-cell
    loop over ``csv`` rows runs, which reads quoted fields and reports the
    exact row, column and field count of the first bad row.  Both paths give
    identical results on every input the columnar one accepts.
    """
    parsed = None
    # universal newlines: \r and \r\n reach the scan and numpy as \n
    with _open_text(path, newline=None) as fh:
        try:
            header_line = fh.readline()
            commas, plain = _scan(fh, header_line)
        except UnicodeDecodeError as exc:
            raise DatasetError(f"{path}: not UTF-8 text: cannot decode byte "
                               f"{exc.object[exc.start]:#04x} ({exc.reason})") from None
        if plain:
            # Without quotes a record is a line, so the header line is csv's
            # first row.
            header, label_idx, attr_idx = _read_header(
                csv.reader(io.StringIO(header_line)), label_column, path)
            fh.seek(0)
            fh.readline()
            parsed = _parse_columnar(fh, commas, attr_idx, label_idx)
    if parsed is None:
        with _open_text(path, newline="") as fh:
            reader = csv.reader(fh)
            header, label_idx, attr_idx = _read_header(reader, label_column, path)
            parsed = _parse_rows(reader, header, attr_idx, label_idx, path)
    records, labels, classes = parsed
    columns = tuple(header[c] for c in attr_idx)
    return LabeledDataset(records, labels, classes, columns, header[label_idx])


def _open_text(path: str, newline: str | None):
    try:
        return open(path, "r", newline=newline, encoding="utf-8-sig")
    except OSError as exc:
        raise DatasetError(f"cannot open {path}: {exc}") from exc


def _scan(fh, header_line: str) -> tuple[int, bool]:
    """(commas after the header line, whether the text is free of ``"`` and
    ``_UNSPLIT_CHARS``), read from ``fh`` in blocks of ``SCAN_CHARS``."""
    commas = 0
    plain = True
    block = header_line
    while block:
        plain = plain and '"' not in block and not any(c in block for c in _UNSPLIT_CHARS)
        block = fh.read(SCAN_CHARS)
        commas += block.count(",")
    return commas, plain


def _read_header(reader, label_column, path: str) -> tuple[list[str], int, list[int]]:
    """(header, label index, attribute indices) from the first csv row."""
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
    return header, label_idx, attr_idx


def _parse_columnar(fh, commas: int, attr_idx: list[int], label_idx: int):
    """(records, labels, classes) parsed by numpy from the lines left in
    ``fh``, or None where the result could differ from :func:`_parse_rows`;
    ``commas`` counts the commas of those lines.

    One ``np.loadtxt`` pass reads the attribute columns as float64 and the
    label column, last, through a converter that hands each new label text
    the next code; the codes are then renumbered in sorted class order.
    ``records`` is a view of the table without its label column: copying it
    out would raise the parse's peak memory by a second table.
    """
    # Every row holds at least one comma, so no commas means no rows (and
    # loadtxt would warn about an empty input).
    if commas == 0:
        return None
    codes: defaultdict[str, int] = defaultdict()
    codes.default_factory = codes.__len__  # first-seen codes, all in C
    try:
        # the open file, not its path: numpy would pick a decompressor by the
        # path's suffix
        table = np.loadtxt(fh, dtype=np.float64, usecols=attr_idx + [label_idx],
                           converters={label_idx: codes.__getitem__},
                           ndmin=2, delimiter=",", comments=None)
    except ValueError:
        return None
    records = table[:, :-1]
    # A row loadtxt returns has at least fields - 1 commas, since usecols
    # spans every field, and the only lines it skips are empty.  So the
    # comma count rules out a row with an extra field.
    n, fields = table.shape
    if (commas != n * (fields - 1)
            # NaN propagates through min and max: no (n, d) mask is needed
            or not np.isfinite([records.min(), records.max()]).all()):
        return None
    names = list(codes)
    order = sorted(range(len(names)), key=names.__getitem__)
    rank = np.empty(len(names), dtype=np.int64)
    rank[order] = np.arange(len(names))
    labels = rank[table[:, -1].astype(np.int64)]
    return records, labels, tuple(names[i] for i in order)


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


def write_csv(data: LabeledDataset, path: str) -> None:
    """Write the dataset back out in the format :func:`load_csv` accepts.

    The header holds the column names (``x0``, ``x1``, ... when the dataset
    has none) and ``label_name``; each row holds a record's values and its
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
        csv.writer(fh).writerow(list(columns) + [data.label_name])
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
