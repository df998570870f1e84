"""Dataset loading, stratified splitting, and record removal."""

import numpy as np
import pytest

from gpstack.dataset import (DatasetError, LabeledDataset, SplitSpec, load_csv,
                             remove_records, stratified_split, write_csv)

from helpers import random_dataset


def write_lines(path, lines):
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


class TestLoadCsv:
    def test_basic_load(self, tmp_path):
        p = tmp_path / "toy.csv"
        write_lines(p, ["a,b,class", "1.0,2.0,yes", "3.5,-1.0,no", "0.0,0.25,yes"])
        data = load_csv(str(p))
        assert data.n == 3 and data.d == 2
        assert data.classes == ("no", "yes")
        assert data.columns == ("a", "b")
        np.testing.assert_array_equal(data.labels, [1, 0, 1])
        np.testing.assert_allclose(data.records, [[1.0, 2.0], [3.5, -1.0], [0.0, 0.25]])

    def test_label_column_by_name_and_index(self, tmp_path):
        p = tmp_path / "mid.csv"
        write_lines(p, ["a,class,b", "1,x,2", "3,y,4"])
        by_name = load_csv(str(p), "class")
        by_index = load_csv(str(p), 1)
        assert by_name.classes == by_index.classes == ("x", "y")
        np.testing.assert_allclose(by_name.records, [[1, 2], [3, 4]])
        np.testing.assert_allclose(by_index.records, by_name.records)

    def test_default_label_is_last_column(self, tmp_path):
        p = tmp_path / "last.csv"
        write_lines(p, ["a,b,tag", "1,2,u", "3,4,v"])
        assert load_csv(str(p)).classes == ("u", "v")

    def test_single_class_file_loads(self, tmp_path):
        p = tmp_path / "one.csv"
        write_lines(p, ["a,class", "1,only", "2,only"])
        data = load_csv(str(p))
        assert data.classes == ("only",)
        assert data.num_classes == 1

    def test_bad_cell_names_row_and_column(self, tmp_path):
        p = tmp_path / "bad.csv"
        write_lines(p, ["a,b,class", "1,2,x", "1,abc,y"])
        with pytest.raises(DatasetError) as err:
            load_csv(str(p))
        assert "row 2" in str(err.value)
        assert "'b'" in str(err.value)

    def test_non_finite_cell_rejected(self, tmp_path):
        p = tmp_path / "inf.csv"
        write_lines(p, ["a,class", "inf,x", "1,y"])
        with pytest.raises(DatasetError, match="non-finite"):
            load_csv(str(p))

    def test_missing_file(self, tmp_path):
        with pytest.raises(DatasetError, match="cannot open"):
            load_csv(str(tmp_path / "nope.csv"))

    def test_missing_label_column(self, tmp_path):
        p = tmp_path / "c.csv"
        write_lines(p, ["a,b", "1,2"])
        with pytest.raises(DatasetError, match="no column named"):
            load_csv(str(p), "class")

    def test_duplicate_label_column_name(self, tmp_path):
        p = tmp_path / "dup.csv"
        write_lines(p, ["a,a,b", "1,2,x"])
        with pytest.raises(DatasetError, match="ambiguous"):
            load_csv(str(p), "a")

    def test_empty_and_header_only_files(self, tmp_path):
        empty = tmp_path / "empty.csv"
        empty.write_text("", encoding="utf-8")
        with pytest.raises(DatasetError, match="empty"):
            load_csv(str(empty))
        header_only = tmp_path / "h.csv"
        write_lines(header_only, ["a,b,class"])
        with pytest.raises(DatasetError, match="no data rows"):
            load_csv(str(header_only))

    def test_ragged_row_rejected(self, tmp_path):
        p = tmp_path / "ragged.csv"
        write_lines(p, ["a,b,class", "1,2,x", "1,2"])
        with pytest.raises(DatasetError, match="row 2"):
            load_csv(str(p))

    def test_round_trip_through_write_csv(self, tmp_path):
        data = random_dataset(np.random.default_rng(3), n=25, d=3)
        p = tmp_path / "rt.csv"
        write_csv(data, str(p))
        back = load_csv(str(p))
        np.testing.assert_array_equal(back.records, data.records)
        np.testing.assert_array_equal(back.labels, data.labels)
        assert back.classes == data.classes


class TestStratifiedSplit:
    def make(self, counts):
        per_class = [np.full(c, i, dtype=np.float64) for i, c in enumerate(counts)]
        x = np.concatenate(per_class)
        labels = np.concatenate([np.full(c, i, dtype=np.int64)
                                 for i, c in enumerate(counts)])
        names = tuple(f"c{i}" for i in range(len(counts)))
        return LabeledDataset(x[:, None] + np.arange(x.size)[:, None] * 0.01,
                              labels, names)

    def test_balanced_ten(self):
        data = self.make([5, 5])
        train, test = stratified_split(data, SplitSpec(0.7, seed=0))
        assert train.n == 8 and test.n == 2
        assert train.class_counts().tolist() == [4, 4]
        assert test.class_counts().tolist() == [1, 1]

    def test_seventy_thirty_of_hundred(self):
        data = self.make([70, 30])
        train, test = stratified_split(data, SplitSpec(0.7, seed=1))
        assert train.n == 70 and test.n == 30
        assert train.class_counts().tolist() == [49, 21]

    def test_round_half_up(self):
        # 0.7 * 5 = 3.5 rounds up to 4
        data = self.make([5, 10])
        train, _ = stratified_split(data, SplitSpec(0.7, seed=2))
        assert train.class_counts().tolist() == [4, 7]

    def test_negative_seed_rejected(self):
        with pytest.raises(DatasetError, match="seed must be non-negative, got -1"):
            SplitSpec(0.7, seed=-1)

    def test_same_seed_same_split(self):
        data = self.make([20, 15])
        a_train, a_test = stratified_split(data, SplitSpec(0.6, seed=9))
        b_train, b_test = stratified_split(data, SplitSpec(0.6, seed=9))
        np.testing.assert_array_equal(a_train.records, b_train.records)
        np.testing.assert_array_equal(a_test.records, b_test.records)

    def test_different_seed_differs(self):
        data = self.make([40, 40])
        a, _ = stratified_split(data, SplitSpec(0.5, seed=1))
        b, _ = stratified_split(data, SplitSpec(0.5, seed=2))
        assert not np.array_equal(a.records, b.records)

    def test_order_preserved_within_sides(self):
        data = self.make([30, 30])
        train, test = stratified_split(data, SplitSpec(0.5, seed=4))
        # records were built with strictly increasing values per class
        for side in (train, test):
            for c in range(2):
                vals = side.records[side.labels == c, 0]
                assert np.all(np.diff(vals) > 0)

    def test_single_class_rejected(self):
        data = self.make([10])
        with pytest.raises(DatasetError, match="two classes"):
            stratified_split(data, SplitSpec(0.7, seed=0))

    def test_tiny_class_rejected(self):
        data = self.make([10, 1])
        with pytest.raises(DatasetError, match="at least 2"):
            stratified_split(data, SplitSpec(0.7, seed=0))

    def test_both_sides_hit_every_class(self):
        rng = np.random.default_rng(12)
        for _ in range(50):
            counts = [int(rng.integers(2, 30)), int(rng.integers(2, 30))]
            frac = float(rng.uniform(0.1, 0.9))
            data = self.make(counts)
            train, test = stratified_split(data, SplitSpec(frac, int(rng.integers(1000))))
            assert np.all(train.class_counts() >= 1)
            assert np.all(test.class_counts() >= 1)
            assert train.n + test.n == data.n

    def test_bad_fraction_rejected(self):
        with pytest.raises(DatasetError):
            SplitSpec(0.0, seed=0)
        with pytest.raises(DatasetError):
            SplitSpec(1.0, seed=0)


class TestRemoveRecords:
    def test_remove_some(self):
        data = random_dataset(np.random.default_rng(0), n=10, d=2)
        out = remove_records(data, np.array([0, 3, 9]))
        assert out.n == 7
        np.testing.assert_array_equal(out.records[0], data.records[1])
        np.testing.assert_array_equal(out.labels, np.delete(data.labels, [0, 3, 9]))

    def test_remove_none(self):
        data = random_dataset(np.random.default_rng(1), n=8, d=1)
        out = remove_records(data, np.array([], dtype=np.int64))
        assert out.n == data.n
        np.testing.assert_array_equal(out.records, data.records)

    def test_remove_all_returns_none(self):
        data = random_dataset(np.random.default_rng(2), n=5, d=1)
        assert remove_records(data, np.arange(5)) is None

    def test_out_of_range_rejected(self):
        data = random_dataset(np.random.default_rng(3), n=5, d=1)
        with pytest.raises(DatasetError):
            remove_records(data, np.array([5]))
        with pytest.raises(DatasetError):
            remove_records(data, np.array([-1]))

    def test_duplicate_indices_rejected(self):
        data = random_dataset(np.random.default_rng(4), n=5, d=1)
        with pytest.raises(DatasetError):
            remove_records(data, np.array([1, 1]))

    @pytest.mark.parametrize("indices", [[1, 1], [0, 0, 3], list(range(5)) * 2,
                                         [[0, 2], [2, 4]]],
                             ids=["pair", "leading-pair", "every-index-twice", "2-d"])
    def test_duplicates_rejected_without_sorting(self, indices):
        data = random_dataset(np.random.default_rng(4), n=5, d=1)
        with pytest.raises(DatasetError, match="unique"):
            remove_records(data, np.array(indices))

    def test_unsorted_and_2d_indices_accepted(self):
        data = random_dataset(np.random.default_rng(4), n=6, d=1)
        for indices in ([4, 0, 2], [[4, 0], [2, 5]]):
            out = remove_records(data, np.array(indices))
            keep = np.setdiff1d(np.arange(6), np.ravel(indices))
            np.testing.assert_array_equal(out.labels, data.labels[keep])
            np.testing.assert_array_equal(out.records, data.records[keep])

    def test_composition(self):
        # removing A then B equals removing A union B in one shot
        data = random_dataset(np.random.default_rng(5), n=20, d=2)
        step1 = remove_records(data, np.array([2, 5, 7]))
        step2 = remove_records(step1, np.array([0, 4]))
        combined = remove_records(data, np.array([2, 5, 7, 0, 6]))
        np.testing.assert_array_equal(step2.records, combined.records)
        np.testing.assert_array_equal(step2.labels, combined.labels)


class TestLabeledDataset:
    def test_arrays_are_read_only(self):
        data = random_dataset(np.random.default_rng(6), n=5, d=2)
        with pytest.raises(ValueError):
            data.records[0, 0] = 99.0
        with pytest.raises(ValueError):
            data.labels[0] = 1

    @pytest.mark.parametrize("indices", [[3, 0, 3], list(range(5))], ids=["repeat", "all"])
    def test_take_copies_once_into_read_only_arrays(self, indices):
        data = random_dataset(np.random.default_rng(6), n=5, d=2)
        out = data.take(np.array(indices))
        for new, old in ((out.records, data.records), (out.labels, data.labels)):
            assert not np.shares_memory(new, old)
            assert not new.flags.writeable
        np.testing.assert_array_equal(out.records, data.records[indices])
        np.testing.assert_array_equal(out.labels, data.labels[indices])

    def test_majority_tie_goes_to_lower_index(self):
        data = LabeledDataset(np.zeros((4, 1)), np.array([0, 0, 1, 1]), ("a", "b"))
        assert data.majority_class() == 0

    def test_empty_rejected(self):
        with pytest.raises(DatasetError):
            LabeledDataset(np.zeros((0, 2)), np.zeros(0, dtype=np.int64), ("a",))

    def test_no_attributes_rejected(self):
        # Each row would be the class name alone, a file load_csv rejects.
        with pytest.raises(DatasetError, match="no attributes"):
            LabeledDataset(np.zeros((3, 0)), np.array([0, 1, 0]), ("", "b"))

    @pytest.mark.parametrize("columns", [("p",), ("p", "q", "r", "s")])
    def test_column_names_must_match_attributes(self, columns):
        # ("p",) on 3 attributes would write header "p,class" over 4-field rows.
        with pytest.raises(DatasetError, match=f"{len(columns)} column names for 3 attributes"):
            LabeledDataset(np.zeros((2, 3)), np.array([0, 1]), ("a", "b"), columns)

    def test_no_column_names_or_one_per_attribute_accepted(self):
        for columns in ((), ("p", "q", "r")):
            data = LabeledDataset(np.zeros((2, 3)), np.array([0, 1]), ("a", "b"), columns)
            assert data.columns == columns
