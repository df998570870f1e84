"""Differential test of ``write_csv`` against the row-by-row writer.

``reference_write_csv`` is the writer as it was before it built its text
column by column in blocks: one ``csv.writer.writerow`` per record, with
``repr`` of each value.  For every dataset, ``write_csv`` must write the
same bytes.
``load_csv`` must read a file of finite values back to the same records,
row labels and column names, and reject a file holding a non-finite one.
"""

import csv
import dataclasses

import numpy as np
import pytest

from gpstack import dataset
from gpstack.dataset import DatasetError, LabeledDataset, load_csv, write_csv


def reference_write_csv(data, path):
    columns = data.columns or tuple(f"x{j}" for j in range(data.d))
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(list(columns) + [data.label_name])
        for i in range(data.n):
            row = [repr(v) for v in data.records[i].tolist()]
            row.append(data.classes[data.labels[i]])
            writer.writerow(row)


# Both zeros, the non-finite values, the extremes, the smallest subnormal,
# the points where repr switches between fixed and exponent notation, and a
# value whose repr needs all 17 digits.
SPECIAL = np.array([0.0, -0.0, np.nan, np.inf, -np.inf, 1e308, -1e308, 5e-324,
                    -5e-324, 1e16, 9999999999999998.0, 1e-5, 0.0001, 1 / 3, -2.5, 1.0])
# Names that csv quotes (comma, quote, CR, LF) and names it leaves bare but a
# careless writer might change (leading space, empty, non-ASCII).
AWKWARD_NAMES = ["a,b", 'say "hi"', "line\nbreak", "cr\rhere", "\r\n", " lead",
                 "", "ünïcødé", "plain", '"', ","]


def random_case(seed):
    """A seeded dataset mixing SPECIAL values, normals and awkward names."""
    rng = np.random.default_rng(seed)
    n, d = int(rng.integers(1, 40)), int(rng.integers(1, 5))
    pool = np.concatenate([SPECIAL, rng.normal(size=8)])
    records = rng.choice(pool, size=(n, d))
    k = int(rng.integers(1, 5))
    classes = tuple(rng.choice(AWKWARD_NAMES, size=k, replace=False).tolist())
    labels = rng.integers(0, k, size=n)
    columns = tuple(rng.choice(AWKWARD_NAMES, size=d).tolist()) if rng.random() < 0.5 else ()
    return LabeledDataset(records, labels, classes, columns)


def hand_cases():
    zeros = np.array([[0.0], [-0.0], [0.0], [-0.0]])
    yield "both zeros", LabeledDataset(zeros, np.array([0, 1, 1, 0]), ("a", "b"))
    yield "special column", LabeledDataset(SPECIAL[:, None], np.arange(SPECIAL.size) % 2,
                                           ("neg", "pos"), ("value",))
    yield "special grid", LabeledDataset(
        np.stack([SPECIAL, SPECIAL[::-1], np.roll(SPECIAL, 3)], axis=1),
        np.zeros(SPECIAL.size, dtype=np.int64), ("only",))
    yield "n = 1", LabeledDataset(np.array([[-0.0, 1e-5, 1e16]]), np.array([0]), ("x",))
    yield "d = 1", LabeledDataset(np.array([[1 / 3], [2.0], [1 / 3]]), np.array([1, 0, 1]),
                                  ("no", "yes"))
    yield "quoted names", LabeledDataset(
        np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]]), np.array([0, 1, 2]),
        ('say "hi"', "a,b", "two\r\nlines"), ("col,1", ' "quoted"'))
    yield "bare awkward names", LabeledDataset(
        np.array([[1.0], [2.0], [3.0]]), np.array([0, 1, 2]), ("", " lead", "ünï"), ("",))
    rng = np.random.default_rng(7)
    yield "5000 x 3 distinct normals", LabeledDataset(
        rng.normal(size=(5000, 3)), rng.integers(0, 2, size=5000), ("neg", "pos"))


CASES = list(hand_cases()) + [(f"seed {s}", random_case(s)) for s in range(40)]


def write_both(data, tmp_path):
    ours, theirs = tmp_path / "ours.csv", tmp_path / "reference.csv"
    write_csv(data, str(ours))
    reference_write_csv(data, str(theirs))
    return ours, theirs


@pytest.mark.parametrize("name,data", CASES, ids=[name for name, _ in CASES])
def test_same_bytes_as_row_writer(name, data, tmp_path):
    ours, theirs = write_both(data, tmp_path)
    assert ours.read_bytes() == theirs.read_bytes()


@pytest.mark.parametrize("label_column", ["class", "the,label", 'a "b"', ""])
def test_same_bytes_for_any_label_header(label_column, tmp_path):
    data = dataclasses.replace(CASES[-1][1], label_name=label_column)
    ours, theirs = write_both(data, tmp_path)
    assert ours.read_bytes() == theirs.read_bytes()


def test_reload_keeps_the_label_column_name(tmp_path):
    src, again = tmp_path / "v.csv", tmp_path / "v2.csv"
    src.write_text("a,verdict\n1.5,yes\n-2.0,no\n", encoding="utf-8")
    write_csv(load_csv(str(src)), str(again))
    assert again.read_bytes().startswith(b"a,verdict\r\n")
    back = load_csv(str(again), "verdict")
    assert back.columns == ("a",) and back.label_name == "verdict"
    assert back.records.tolist() == [[1.5], [-2.0]]
    assert [back.classes[k] for k in back.labels] == ["yes", "no"]


@pytest.mark.parametrize("name,data", CASES, ids=[name for name, _ in CASES])
def test_reloads_to_same_arrays(name, data, tmp_path):
    path = tmp_path / "out.csv"
    write_csv(data, str(path))
    if not np.isfinite(data.records).all():
        with pytest.raises(DatasetError, match="non-finite"):
            load_csv(str(path))
        # The finite rows alone must still come back exactly.
        finite = np.flatnonzero(np.isfinite(data.records).all(axis=1))
        if not finite.size:
            return
        data = data.take(finite)
        write_csv(data, str(path))
    back = load_csv(str(path))
    assert back.records.tobytes() == data.records.tobytes()
    assert [back.classes[k] for k in back.labels] == [data.classes[k] for k in data.labels]
    assert back.columns == (data.columns or tuple(f"x{j}" for j in range(data.d)))


def test_line_ends_are_crlf(tmp_path):
    data = LabeledDataset(np.array([[1.0], [-0.0]]), np.array([0, 1]), ("a", "b"))
    path = tmp_path / "out.csv"
    write_csv(data, str(path))
    assert path.read_bytes() == b"x0,class\r\n1.0,a\r\n-0.0,b\r\n"


@pytest.mark.parametrize("records", [
    np.array([[1, -2], [3, 1], [1, -2]]),
    np.array([[0.1, -0.0], [0.0, 1e-5], [0.1, 3.0]], dtype=np.float32),
    np.array([[True, False], [False, False], [True, True]]),
], ids=["int64", "float32", "bool"])
def test_same_bytes_for_other_dtypes(records, tmp_path):
    # Values are formatted from the bits at the records' own width, so other
    # dtypes are written as the row writer writes them, not as float64.
    data = LabeledDataset(records, np.array([0, 1, 0]), ("a", "b"))
    ours, theirs = write_both(data, tmp_path)
    assert ours.read_bytes() == theirs.read_bytes()


@pytest.mark.parametrize("cells", [1, 5, 64])
def test_same_bytes_across_blocks(cells, tmp_path, monkeypatch):
    # Blocks of one row up to several rows, with the last block partial.
    monkeypatch.setattr(dataset, "WRITE_CELLS", cells)
    for name, data in CASES[:8]:
        ours, theirs = write_both(data, tmp_path)
        assert ours.read_bytes() == theirs.read_bytes(), name
