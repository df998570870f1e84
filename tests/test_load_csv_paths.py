"""Differential test of ``load_csv``'s columnar path against the per-cell loop.

``reference_load_csv`` is the loader as it was before the columnar path
existed: csv rows parsed cell by cell, except that it now drops a leading
UTF-8 byte order mark, as ``load_csv`` does.  For every input, ``load_csv`` must
return bitwise-identical records, labels, classes and columns, or raise a
DatasetError with the same text.
"""

import csv
import os
import tempfile

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import gpstack.dataset as dataset
from gpstack.dataset import DatasetError, LabeledDataset, _resolve_label_column, load_csv


def reference_load_csv(path, label_column=None):
    try:
        fh = open(path, "r", newline="", encoding="utf-8-sig")
    except OSError as exc:
        raise DatasetError(f"cannot open {path}: {exc}") from exc
    with fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DatasetError(f"{path}: file is empty") from None
        rows = [row for row in reader if row]

    if not header:
        raise DatasetError(f"{path}: header row is empty")
    label_idx = _resolve_label_column(header, label_column, path)
    attr_idx = [i for i in range(len(header)) if i != label_idx]
    if not attr_idx:
        raise DatasetError(f"{path}: no attribute columns besides the label")
    if not rows:
        raise DatasetError(f"{path}: no data rows")

    n, d = len(rows), len(attr_idx)
    records = np.empty((n, d), dtype=np.float64)
    raw_labels = []
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
    columns = tuple(header[c] for c in attr_idx)
    return LabeledDataset(records, labels, classes, columns)


def outcome(loader, path, label_column):
    try:
        data = loader(path, label_column)
    except DatasetError as exc:
        return ("error", str(exc))
    return ("ok", data.records.shape, data.records.tobytes(), data.labels.tolist(),
            data.classes, data.columns)


def write_text(path, text):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)


def assert_same(path, label_column=None):
    expected = outcome(reference_load_csv, path, label_column)
    assert outcome(load_csv, path, label_column) == expected
    return expected


@pytest.fixture()
def columnar_spy(monkeypatch):
    """Records, per load, whether the columnar path produced the result."""
    taken = []
    real = dataset._parse_columnar

    def spy(*args):
        out = real(*args)
        taken.append(out is not None)
        return out

    monkeypatch.setattr(dataset, "_parse_columnar", spy)
    return taken


# (name, file text, label column, whether the columnar path gives the result)
HAND_PICKED = [
    ("extra trailing field", "a,b,class\n1,2,x\n3,4,y,\n", None, False),
    ("extra field mid file", "a,b,class\n1,2,x,7\n3,4,y\n", None, False),
    ("missing field", "a,b,class\n1,2,x\n3,y\n", None, False),
    ("whitespace-only line", "a,class\n1,x\n   \n2,y\n", None, False),
    ("tab-only line", "a,class\n1,x\n\t\n2,y\n", None, False),
    ("blank lines", "a,class\n\n1,x\n\n\n2,y\n\n", None, True),
    ("no final newline", "a,class\n1,x\n2,y", None, True),
    ("crlf endings", "a,class\r\n1,x\r\n2,y\r\n", None, True),
    ("cr-only endings", "a,class\r1,x\r2,y\r", None, True),
    ("mixed endings", "a,class\r\n1,x\r2,y\n\r\n3,x\n", None, True),
    ("form feed in a number", "a,class\n\x0c1,x\n2,y\n", None, False),
    ("form feed in a label", "a,class\n1,x\x0cz\n2,y\n", None, False),
    ("vertical tab", "a,class\n1\x0b,x\n2,y\n", None, False),
    ("unicode line separator", "a,class\n1,x\u2028\n2,y\n", None, False),
    ("NUL in a label", "a,class\n1,x\x00\n2,y\n", None, False),
    ("underscore digits", "a,class\n1_0,x\n2,y\n", None, False),
    ("padded number", "a,class\n 1.5 ,x\n\t2,y\n", None, True),
    ("nan", "a,class\nnan,x\n2,y\n", None, False),
    ("inf", "a,class\n1,x\ninf,y\n", None, False),
    ("-Infinity", "a,b,class\n1,-Infinity,x\n2,3,y\n", None, False),
    ("overflow", "a,class\n1e999,x\n2,y\n", None, False),
    ("empty cell", "a,b,class\n1,,x\n2,3,y\n", None, False),
    ("word cell", "a,b,class\n1,abc,x\n2,3,y\n", None, False),
    ("quoted label with comma", 'a,class\n1,"x,y"\n2,z\n', None, False),
    ("quoted label with doubled quote", 'a,class\n1,"say ""hi"""\n2,z\n', None, False),
    ("quoted number", 'a,class\n"1.5",x\n2,z\n', None, False),
    ("label in the middle by name", "a,class,b\n1,x,2\n3,y,4\n", "class", True),
    ("label in the middle by index", "a,class,b\n1,x,2\n3,y,4\n", 1, True),
    ("label first", "class,a,b\nx,1,2\ny,3,4\n", 0, True),
    ("label index out of range", "a,class\n1,x\n", 5, False),
    ("label name missing", "a,class\n1,x\n", "nope", False),
    ("BOM in header", "\ufeffa,b,class\n1,2,x\n3,4,y\n", None, True),
    ("BOM header, label by name", "\ufeffclass,a\nx,1\ny,2\n", "class", True),
    ("BOM header, label by index", "\ufeffclass,a\nx,1\ny,2\n", 0, True),
    ("one row", "a,b,class\n1.25,-3,x\n", None, True),
    ("one row, one attribute", "a,class\n7,x", None, True),
    ("padded labels", "a,class\n1, x\n2,x \n3,\tx\n4,x\n", None, True),
    ("empty label", "a,class\n1,\n2,y\n", None, True),
    ("unicode labels", "a,class\n1,jaé\n2,中\n3, \n", None, True),
    ("header only", "a,class\n", None, False),
    ("header and blank lines", "a,class\n\n\n", None, False),
    ("empty file", "", None, False),
    ("blank header line", "\na,class\n1,x\n", None, False),
    ("label only", "class\nx\n", None, False),
    ("hash is not a comment", "a,class\n1,#x\n2,y\n", None, True),
    ("signs and exponents", "a,class\n+1.5,x\n-.5e-3,y\n5.,x\n-0,y\n", None, True),
    ("extreme magnitudes", "a,class\n5e-324,x\n1.7976931348623157e308,y\n"
                           "-2.2250738585072014e-308,x\n", None, True),
]


@pytest.mark.parametrize("name,text,label_column,columnar",
                         HAND_PICKED, ids=[c[0] for c in HAND_PICKED])
def test_hand_picked(name, text, label_column, columnar, tmp_path, columnar_spy):
    path = str(tmp_path / "case.csv")
    write_text(path, text)
    assert_same(path, label_column)
    assert any(columnar_spy) == columnar


def random_cell(rng):
    kind = rng.integers(5)
    if kind == 0:
        return repr(float(rng.normal(0.0, 10.0 ** rng.integers(-300, 300))))
    if kind == 1:  # any finite bit pattern, subnormals included
        value = np.inf
        while not np.isfinite(value):
            value = float(np.frombuffer(rng.bytes(8), dtype=np.float64)[0])
        return repr(value)
    if kind == 2:
        return f"{rng.normal():.{rng.integers(0, 18)}f}"
    if kind == 3:
        return f"{rng.normal() * 1e6:.{rng.integers(1, 17)}e}"
    return str(int(rng.integers(-10 ** 6, 10 ** 6)))


@pytest.mark.parametrize("seed", range(20))
def test_seeded_random_files(seed, tmp_path, columnar_spy):
    """Clean random files take the columnar path and match bit for bit."""
    rng = np.random.default_rng(seed)
    fields = int(rng.integers(2, 7))
    label_idx = int(rng.integers(fields))
    n = int(rng.integers(1, 60))
    names = [f"c{j}" for j in range(fields)]
    newline = ["\n", "\r\n", "\r"][seed % 3]
    lines = [",".join(names)]
    for _ in range(n):
        row = [random_cell(rng) for _ in range(fields)]
        row[label_idx] = ["a", "b", "long label", "é"][int(rng.integers(4))]
        lines.append(",".join(row))
    path = str(tmp_path / "random.csv")
    write_text(path, newline.join(lines) + newline * int(rng.integers(2)))
    result = assert_same(path, label_idx if seed % 2 else names[label_idx])
    assert result[0] == "ok"
    assert columnar_spy == [True]


CELLS = st.sampled_from([
    "1", "-2.5", " 1.5 ", "1_0", "nan", "inf", "-Infinity", "1e999", "", "abc",
    "0.1", "-0", "5e-324", "\x0c3", "x", "y", "y ", '"q"', '"a,b"', '"d""q"',
    "é", "#", "1,2",
]) | st.floats(allow_nan=False, allow_infinity=False).map(repr)


@st.composite
def csv_texts(draw):
    fields = draw(st.integers(1, 4))
    header = [draw(st.sampled_from(["a", "b", "class", "\ufeffa", " c"]))
              for _ in range(fields)]
    header[-1] = draw(st.sampled_from([header[-1], "class"]))
    rows = draw(st.lists(
        st.one_of(st.lists(CELLS, min_size=fields, max_size=fields),
                  st.lists(CELLS, min_size=0, max_size=fields + 1),
                  st.sampled_from([[""], ["   "]])),
        max_size=6))
    newline = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    lines = [",".join(header)] + [",".join(r) for r in rows]
    text = newline.join(lines) + draw(st.sampled_from(["", newline]))
    label = draw(st.sampled_from([None, "class", 0, fields - 1]))
    return text, label


@pytest.fixture(scope="module")
def scratch_file():
    with tempfile.TemporaryDirectory() as work:
        yield os.path.join(work, "drawn.csv")


@settings(max_examples=300, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(csv_texts())
def test_drawn_files(scratch_file, case):
    text, label = case
    write_text(scratch_file, text)
    assert_same(scratch_file, label)
