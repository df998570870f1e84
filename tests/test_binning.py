"""Histogram fitting, bin purity, fitness scoring, nearest-bin lookup."""

import numpy as np
import pytest

from gpstack.binning import (FitnessConfig, IntervalGeometry, bin_table, fit_histogram,
                             gini_fitness, key_reps, locate_bins, nearest_pure_bin)
from gpstack.dataset import LabeledDataset
from gpstack.programs import parse_tree

from helpers import one_bin_histogram, random_dataset

IDENT = parse_tree("(attr 0)")


def one_col(values, labels, classes=("a", "b")):
    x = np.asarray(values, dtype=np.float64)[:, None]
    return LabeledDataset(x, np.asarray(labels, dtype=np.int64), classes)


class TestFixedGeometry:
    def test_three_values_two_bins(self):
        data = one_col([0.1, 0.2, 0.9], [0, 0, 1])
        hist = fit_histogram(IDENT, data, FitnessConfig(num_bin=2))
        assert hist.geometry.mode == "fixed"
        assert hist.geometry.lo == 0.1 and hist.geometry.hi == 0.9
        assert hist.keys.tolist() == [0, 1]
        assert hist.counts.tolist() == [[2, 0], [0, 1]]

    def test_max_value_lands_in_top_bin(self):
        data = one_col([0.0, 1.0], [0, 1])
        hist = fit_histogram(IDENT, data, FitnessConfig(num_bin=4))
        assert hist.keys[hist.record_inverse].tolist() == [0, 3]

    def test_degenerate_range_single_bin(self):
        data = one_col([2.5, 2.5, 2.5], [0, 0, 1])
        hist = fit_histogram(IDENT, data, FitnessConfig(num_bin=8))
        assert hist.keys.tolist() == [0]
        assert hist.counts.tolist() == [[2, 1]]

    def test_unseen_values_clamp_to_edge_bins(self):
        geom = IntervalGeometry("fixed", 0.0, 1.0, 4)
        keys = locate_bins(geom, np.array([-5.0, 0.0, 0.999, 7.0]))
        assert keys.tolist() == [0, 0, 3, 3]

    def test_reps_are_bin_centers(self):
        geom = IntervalGeometry("fixed", 0.0, 1.0, 4)
        np.testing.assert_allclose(key_reps(geom, np.arange(4)),
                                   [0.125, 0.375, 0.625, 0.875])

    def test_every_record_in_exactly_one_bin(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            data = random_dataset(rng)
            nb = int(rng.integers(1, 9))
            hist = fit_histogram(IDENT, data, FitnessConfig(num_bin=nb))
            assert hist.counts.sum() == data.n
            assert hist.record_inverse.shape == (data.n,)
            assert np.all(hist.record_inverse >= 0)
            assert np.all(hist.record_inverse < hist.keys.size)


class TestFloat32Geometry:
    def test_distinct_rounded_values(self):
        data = one_col([1.0, 1.0, 2.5], [0, 0, 1])
        hist = fit_histogram(IDENT, data, FitnessConfig(float_resolution=True))
        assert hist.geometry.mode == "float32"
        assert hist.keys.size == 2
        assert hist.counts.tolist() == [[2, 0], [0, 1]]
        np.testing.assert_array_equal(hist.reps, [1.0, 2.5])

    def test_keys_are_bit_patterns(self):
        data = one_col([1.0, -1.0], [0, 1])
        hist = fit_histogram(IDENT, data, FitnessConfig(float_resolution=True))
        expected = np.array([-1.0, 1.0], dtype=np.float32).view(np.uint32)
        assert hist.keys.tolist() == expected.astype(np.int64).tolist()

    def test_negative_zero_merges_with_zero(self):
        data = one_col([0.0, -0.0, 1.0], [0, 0, 1])
        hist = fit_histogram(IDENT, data, FitnessConfig(float_resolution=True))
        assert hist.keys.size == 2
        assert hist.counts.tolist() == [[2, 0], [0, 1]]

    def test_values_beyond_float32_merge(self):
        # adjacent float64 values that collapse to one float32 value share a bin
        base = np.float64(np.float32(1.0))
        eps = 1e-12
        data = one_col([base, base + eps], [0, 1])
        hist = fit_histogram(IDENT, data, FitnessConfig(float_resolution=True))
        assert hist.keys.size == 1

    def test_reps_sorted_by_value(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            data = random_dataset(rng)
            hist = fit_histogram(IDENT, data, FitnessConfig(float_resolution=True))
            assert np.all(np.diff(hist.reps) > 0)
            assert hist.counts.sum() == data.n


def purity(counts, beta):
    """Oracle of the purity rule: a bin is pure when its majority class holds
    at least a ``beta`` fraction of its records."""
    total = sum(counts)
    if total == 0:
        return "empty"
    return "pure" if max(counts) / total >= beta else "ambiguous"


def table_purity(counts, beta):
    """How :func:`bin_table` reads one occupied bin with these class counts."""
    pure, ambiguous = bin_table(one_bin_histogram(counts), beta)
    assert len(pure) + len(ambiguous) == 1
    return "pure" if pure else "ambiguous"


class TestClassifyBin:
    def test_pure_at_ninety_nine(self):
        assert purity((99, 1), 0.99) == table_purity((99, 1), 0.99) == "pure"

    def test_fifty_fifty_is_ambiguous(self):
        assert purity((1, 1), 0.99) == table_purity((1, 1), 0.99) == "ambiguous"

    def test_empty(self):
        assert purity((0, 0), 0.5) == "empty"
        # histograms store occupied bins only, so bin_table never sees one
        rng = np.random.default_rng(4)
        for _ in range(20):
            hist = fit_histogram(IDENT, random_dataset(rng), FitnessConfig(num_bin=8))
            assert np.all(hist.counts.sum(axis=1) > 0)

    def test_exact_threshold_is_pure(self):
        assert purity((3, 1), 0.75) == table_purity((3, 1), 0.75) == "pure"
        assert purity((1, 1), 0.5) == table_purity((1, 1), 0.5) == "pure"

    def test_monotone_in_beta(self):
        rng = np.random.default_rng(2)
        for _ in range(300):
            counts = tuple(int(v) for v in rng.integers(0, 20, size=2))
            b1, b2 = sorted(rng.uniform(0.01, 1.0, size=2))
            if sum(counts) == 0:
                assert purity(counts, b1) == purity(counts, b2) == "empty"
                continue
            if table_purity(counts, b2) == "pure":
                assert table_purity(counts, b1) == "pure"

    def test_bin_table_agrees_with_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            data = random_dataset(rng)
            beta = float(rng.uniform(0.4, 1.0))
            hist = fit_histogram(IDENT, data, FitnessConfig(num_bin=4))
            pure, ambiguous = bin_table(hist, beta)
            pure_keys = {b.key for b in pure}
            assert pure_keys.isdisjoint(b.key for b in ambiguous)
            for i in range(hist.keys.size):
                expected = purity(tuple(hist.counts[i].tolist()), beta)
                assert (int(hist.keys[i]) in pure_keys) == (expected == "pure")


class TestBinTable:
    def test_majority_tie_takes_lower_class(self):
        data = one_col([0.0, 0.0], [0, 1])
        hist = fit_histogram(IDENT, data, FitnessConfig(num_bin=2))
        pure, ambiguous = bin_table(hist, 0.5)
        assert len(pure) == 1 and pure[0].label == 0
        assert pure[0].total == 2 and pure[0].y_star == 1
        assert ambiguous == ()

    def test_partition_of_occupied_bins(self):
        rng = np.random.default_rng(4)
        for _ in range(30):
            data = random_dataset(rng)
            hist = fit_histogram(IDENT, data, FitnessConfig(num_bin=4))
            pure, ambiguous = bin_table(hist, float(rng.uniform(0.5, 1.0)))
            assert len(pure) + len(ambiguous) == hist.keys.size
            keys = sorted([b.key for b in pure] + [b.key for b in ambiguous])
            assert keys == sorted(hist.keys.tolist())


class TestGiniFitness:
    def test_perfect_split_of_two_and_two(self):
        data = one_col([0.0, 0.0, 1.0, 1.0], [0, 0, 1, 1])
        hist = fit_histogram(IDENT, data, FitnessConfig(num_bin=2))
        assert gini_fitness(hist, data.class_counts(), alpha=0.0) == pytest.approx(1.0)

    def test_single_bin_of_two_and_two(self):
        data = one_col([3.0, 3.0, 3.0, 3.0], [0, 0, 1, 1])
        hist = fit_histogram(IDENT, data, FitnessConfig(num_bin=2))
        assert gini_fitness(hist, data.class_counts(), alpha=0.0) == pytest.approx(0.25)

    def test_mixed_bins_hand_value(self):
        # bin {a:2, b:1} and bin {b:1}: 2/9 + 1/18 + 1/2 = 7/9
        data = one_col([0.0, 0.0, 0.0, 1.0], [0, 0, 1, 1])
        hist = fit_histogram(IDENT, data, FitnessConfig(num_bin=2))
        assert gini_fitness(hist, data.class_counts(), alpha=0.0) == pytest.approx(7 / 9, abs=1e-15)

    def test_usage_bonus(self):
        data = one_col([0.0, 0.0, 1.0, 1.0], [0, 0, 1, 1])
        hist = fit_histogram(IDENT, data, FitnessConfig(num_bin=2))
        with_bonus = gini_fitness(hist, data.class_counts(), alpha=0.4)
        # both bins used, capacity 2 < n=4, so the bonus is alpha * 2/2
        assert with_bonus == pytest.approx(1.0 + 0.4)

    def test_usage_bonus_capped_by_records(self):
        data = one_col([0.0, 1.0], [0, 1])
        hist = fit_histogram(IDENT, data, FitnessConfig(num_bin=8))
        # two singleton bins score 1/1 each; bonus uses min(capacity=8, n=2)
        val = gini_fitness(hist, data.class_counts(), alpha=1.0)
        assert val == pytest.approx(2.0 + 1.0 * 2 / 2)

    def test_all_singletons_score_num_classes(self):
        rng = np.random.default_rng(5)
        vals = rng.permutation(np.arange(20)).astype(np.float64)
        labels = rng.integers(0, 2, size=20)
        labels[:2] = [0, 1]
        data = one_col(vals, labels)
        hist = fit_histogram(IDENT, data, FitnessConfig(float_resolution=True))
        assert hist.keys.size == 20
        assert gini_fitness(hist, data.class_counts(), alpha=0.0) == pytest.approx(2.0)

    def test_perfect_split_maximizes_over_small_enumerations(self):
        # among all 2-bin histograms of two balanced classes of two, the
        # perfect assignment scores highest
        from itertools import product
        best = None
        for assign in product([0, 1], repeat=4):
            labels = [0, 0, 1, 1]
            counts = np.zeros((2, 2), dtype=np.int64)
            for b, lab in zip(assign, labels):
                counts[b, lab] += 1
            occupied = counts[counts.sum(axis=1) > 0]
            g = 0.0
            for row in occupied:
                total = row.sum()
                for c, cnt in enumerate(row):
                    if cnt:
                        g += (cnt / (total * 2)) ** 2 * 2
            best = max(best or 0.0, g)
        data = one_col([0.0, 0.0, 1.0, 1.0], [0, 0, 1, 1])
        hist = fit_histogram(IDENT, data, FitnessConfig(num_bin=2))
        assert gini_fitness(hist, data.class_counts(), alpha=0.0) == pytest.approx(best)

    def test_wrong_class_counts_rejected(self):
        data = one_col([0.0, 1.0], [0, 1])
        hist = fit_histogram(IDENT, data, FitnessConfig(num_bin=2))
        with pytest.raises(ValueError):
            gini_fitness(hist, np.array([2, 0]), alpha=0.0)
        with pytest.raises(ValueError):
            gini_fitness(hist, np.array([1, 1, 1]), alpha=0.0)


class TestNearestPureBin:
    def make_bins(self, reps):
        from gpstack.binning import PureBin
        return tuple(PureBin(i, r, i % 2, 10, 10) for i, r in enumerate(reps))

    def test_closest_wins(self):
        bins = self.make_bins([1.0, 4.0])
        assert nearest_pure_bin(bins, 1.4).rep == 1.0
        assert nearest_pure_bin(bins, 3.9).rep == 4.0

    def test_tie_takes_lower_rep(self):
        bins = self.make_bins([1.0, 4.0])
        assert nearest_pure_bin(bins, 2.5).rep == 1.0

    def test_outside_range(self):
        bins = self.make_bins([1.0, 4.0])
        assert nearest_pure_bin(bins, -100.0).rep == 1.0
        assert nearest_pure_bin(bins, 100.0).rep == 4.0

    def test_empty_table(self):
        assert nearest_pure_bin((), 1.0) is None

    def test_exhaustive_against_linear_scan(self):
        rng = np.random.default_rng(6)
        for _ in range(100):
            reps = np.unique(rng.normal(0, 5, size=rng.integers(1, 10)))
            bins = self.make_bins(reps.tolist())
            q = float(rng.normal(0, 6))
            got = nearest_pure_bin(bins, q)
            dists = np.abs(reps - q)
            assert np.abs(got.rep - q) == dists.min()
            # tie rule: no bin with equal distance and smaller rep
            assert not any(d == np.abs(got.rep - q) and b.rep < got.rep
                           for d, b in zip(dists, bins))


class TestGeometryValidation:
    def test_bad_mode(self):
        with pytest.raises(ValueError):
            IntervalGeometry("log", 0.0, 1.0, 2)

    def test_bad_fitness_config(self):
        with pytest.raises(ValueError):
            FitnessConfig(beta=0.0)
        with pytest.raises(ValueError):
            FitnessConfig(beta=1.5)
        with pytest.raises(ValueError):
            FitnessConfig(alpha=-0.1)
        for alpha in (float("nan"), float("inf"), float("-inf")):
            with pytest.raises(ValueError, match=f"alpha must be finite and non-negative, "
                                                 f"got {alpha}"):
                FitnessConfig(alpha=alpha)
        with pytest.raises(ValueError):
            FitnessConfig(num_bin=0)
