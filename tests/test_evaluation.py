"""Stack deployment: routing, fallback, accuracy accounting, usage report."""

import numpy as np
import pytest

from gpstack.binning import AmbiguousBin, IntervalGeometry, PureBin
from gpstack.dataset import DatasetError, LabeledDataset
from gpstack.evaluation import (_labels_by_name, evaluate, predict_record,
                                stack_usage_report)
from gpstack.programs import parse_tree
from gpstack.training import (ChampionEntry, EnsembleStack, TrainerConfig,
                              TrainingLog, train)

from helpers import random_dataset, separable_dataset


def one_col(values, labels, classes=("a", "b")):
    x = np.asarray(values, dtype=np.float64)[:, None]
    return LabeledDataset(x, np.asarray(labels, dtype=np.int64), classes)


def manual_stack(entries, majority=1, n_attributes=1):
    """Stack with the log training writes: each level's residual falls by
    the records its pure bins claimed, down to none."""
    sizes = [sum(e.records_claimed for e in entries)]
    for e in entries:
        sizes.append(sizes[-1] - e.records_claimed)
    return EnsembleStack(tuple(entries), ("a", "b"), n_attributes, majority,
                         TrainerConfig(), TrainingLog(residual_sizes=sizes))


def fixed_entry(pure, ambiguous=(), lo=0.0, hi=10.0, num_bin=2, boost_epoch=1):
    return ChampionEntry(parse_tree("(attr 0)"), 1.0,
                         IntervalGeometry("fixed", lo, hi, num_bin),
                         tuple(pure), tuple(ambiguous), 0.99, boost_epoch,
                         sum(b.total for b in pure))


def f32(x):
    return float(np.float32(x))


def float_entry(pure, ambiguous=(), boost_epoch=1):
    return ChampionEntry(parse_tree("(attr 0)"), 1.0,
                         IntervalGeometry("float32", 0.0, 10.0, 2 ** 32),
                         tuple(pure), tuple(ambiguous), 0.6, boost_epoch,
                         sum(b.total for b in pure))


class TestFixedModeRouting:
    def test_pure_hit_answers(self):
        stack = manual_stack([fixed_entry([PureBin(0, 2.5, 0, 5, 5)])])
        trace = predict_record(stack, np.array([1.0]))
        assert (trace.prediction, trace.level, trace.fallback) == (0, 1, False)

    def test_non_pure_bin_falls_through_to_next_level(self):
        level1 = fixed_entry([PureBin(0, 2.5, 0, 5, 5)], [AmbiguousBin(1, 7.5)])
        level2 = fixed_entry([PureBin(1, 7.5, 1, 4, 4)], boost_epoch=2)
        stack = manual_stack([level1, level2])
        trace = predict_record(stack, np.array([8.0]))
        assert (trace.prediction, trace.level, trace.fallback) == (1, 2, False)

    def test_all_decline_uses_majority_fallback(self):
        stack = manual_stack([fixed_entry([PureBin(0, 2.5, 0, 5, 5)])], majority=1)
        trace = predict_record(stack, np.array([8.0]))
        assert (trace.prediction, trace.level, trace.fallback) == (1, 0, True)

    def test_out_of_range_values_clamp_into_edge_bins(self):
        stack = manual_stack([fixed_entry([PureBin(0, 2.5, 0, 5, 5),
                                           PureBin(1, 7.5, 1, 5, 5)])])
        assert predict_record(stack, np.array([-99.0])).prediction == 0
        assert predict_record(stack, np.array([99.0])).prediction == 1


class TestFloat32Routing:
    def test_exact_pure_hit_answers(self):
        stack = manual_stack([float_entry([PureBin(0, f32(1.5), 0, 9, 9)])])
        trace = predict_record(stack, np.array([1.5]))
        assert (trace.prediction, trace.level, trace.fallback) == (0, 1, False)

    def test_exact_ambiguous_hit_falls_through(self):
        level1 = float_entry([PureBin(0, f32(1.5), 0, 9, 9)],
                             [AmbiguousBin(1, f32(2.5))])
        stack = manual_stack([level1], majority=1)
        trace = predict_record(stack, np.array([2.5]))
        assert (trace.prediction, trace.level, trace.fallback) == (1, 0, True)

    def test_unseen_value_resolves_to_nearest_pure(self):
        level1 = float_entry([PureBin(0, f32(1.5), 0, 9, 9),
                              PureBin(1, f32(6.0), 1, 9, 9)],
                             [AmbiguousBin(2, f32(2.5))])
        stack = manual_stack([level1])
        assert predict_record(stack, np.array([2.4])).prediction == 0
        assert predict_record(stack, np.array([5.0])).prediction == 1
        # ambiguous bins do not attract unseen values
        assert predict_record(stack, np.array([2.6])).prediction == 0

    def test_nearest_tie_takes_lower_rep(self):
        level1 = float_entry([PureBin(0, f32(1.0), 0, 9, 9),
                              PureBin(1, f32(3.0), 1, 9, 9)])
        stack = manual_stack([level1])
        assert predict_record(stack, np.array([2.0])).prediction == 0

    def test_negative_zero_output_matches_zero_bin(self):
        tree = parse_tree("(mul (attr 0) (const -1.0))")
        entry = ChampionEntry(tree, 1.0, IntervalGeometry("float32", 0.0, 1.0, 2 ** 32),
                              (PureBin(0, 0.0, 1, 9, 9),), (), 0.6, 1)
        stack = manual_stack([entry])
        assert predict_record(stack, np.array([0.0])).prediction == 1


class TestEvaluate:
    def test_counts_and_accuracy(self):
        stack = manual_stack([fixed_entry([PureBin(0, 2.5, 0, 5, 5)])], majority=1)
        data = one_col([1.0, 1.5, 8.0, 9.0], [0, 1, 1, 0])
        rep = evaluate(stack, data)
        # level 1 answers the two low records as class a: one right, one wrong
        # the two high records fall back to majority b: one right, one wrong
        assert rep.correct == 1 and rep.error == 1 and rep.fallback == 2
        assert rep.accuracy_strict == 0.25
        assert rep.accuracy_with_fallback == 0.5
        assert rep.per_level_counts == [2]
        assert rep.n == 4 and rep.fallback_correct == 1

    def test_identity_correct_error_fallback(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            data = random_dataset(rng, n=30)
            stack = train(data, TrainerConfig(max_boost_epoch=8, max_gp_epoch=4,
                                              new_pop_size=10, gap=3, beta=0.9,
                                              seed=int(rng.integers(100))))
            rep = evaluate(stack, data)
            assert rep.correct + rep.error + rep.fallback == data.n
            assert sum(rep.per_level_counts) + rep.fallback == data.n

    def test_matches_predict_record(self):
        rng = np.random.default_rng(1)
        for float_mode in (False, True):
            for s in range(5):
                data = random_dataset(rng, n=40, d=2)
                cfg = TrainerConfig(max_boost_epoch=10, max_gp_epoch=4,
                                    new_pop_size=10, gap=3,
                                    beta=0.6 if float_mode else 0.9,
                                    alpha=0.4 if float_mode else 0.0,
                                    float_resolution=float_mode, seed=s)
                stack = train(data, cfg)
                probe = random_dataset(rng, n=60, d=2)
                rep = evaluate(stack, probe)
                levels = np.zeros(probe.n, dtype=int)
                correct = 0
                for i in range(probe.n):
                    tr = predict_record(stack, probe.records[i])
                    levels[i] = tr.level
                    if not tr.fallback and tr.prediction == probe.labels[i]:
                        correct += 1
                assert correct == rep.correct
                for lv in range(1, stack.depth + 1):
                    assert int((levels == lv).sum()) == rep.per_level_counts[lv - 1]

    def test_on_training_data_separable(self):
        data = separable_dataset(n_per_class=20, seed=3)
        stack = train(data, TrainerConfig(max_boost_epoch=20, seed=0))
        rep = evaluate(stack, data)
        assert rep.accuracy_strict == 1.0
        assert rep.fallback == 0
        assert rep.per_level_counts[0] == data.n

    def test_attribute_count_checked(self):
        stack = manual_stack([fixed_entry([PureBin(0, 2.5, 0, 5, 5)])])
        wrong = LabeledDataset(np.zeros((3, 4)), np.array([0, 0, 1]), ("a", "b"))
        with pytest.raises(ValueError, match="attributes"):
            evaluate(stack, wrong)

    def test_empty_stack_all_fallback(self):
        data = separable_dataset(seed=5)
        stack = train(data, TrainerConfig(max_boost_epoch=0))
        rep = evaluate(stack, data)
        assert rep.fallback == data.n
        assert rep.accuracy_strict == 0.0
        assert rep.accuracy_with_fallback == 0.5
        assert rep.per_level_counts == []


class TestLabelsByName:
    """Eval labels are matched to the stack's classes by name, not by the
    eval file's own encoding."""

    def stack(self):
        # level 1 answers low values as "a"; everything else falls back to "b"
        return manual_stack([fixed_entry([PureBin(0, 2.5, 0, 5, 5)])], majority=1)

    def test_subset_of_classes(self):
        only_b = one_col([8.0, 9.0], [0, 0], classes=("b",))
        rep = evaluate(self.stack(), only_b)
        assert rep.accuracy_with_fallback == 1.0
        assert rep.fallback == 2 and rep.fallback_correct == 2

    def test_different_order_of_the_same_names(self):
        data = one_col([1.0, 8.0], [0, 1], classes=("a", "b"))
        swapped = one_col([1.0, 8.0], [1, 0], classes=("b", "a"))
        assert evaluate(self.stack(), swapped).to_dict() | {"seconds": 0} == \
            evaluate(self.stack(), data).to_dict() | {"seconds": 0}

    def test_unknown_label_names_rejected(self):
        data = one_col([1.0, 8.0, 9.0], [0, 1, 2], classes=("a", "maybe", "zz"))
        with pytest.raises(DatasetError, match="'maybe', 'zz'"):
            evaluate(self.stack(), data)

    def test_unused_unknown_class_is_ignored(self):
        data = one_col([1.0, 8.0], [0, 1], classes=("a", "b", "never"))
        assert evaluate(self.stack(), data).accuracy_with_fallback == 1.0

    def test_equal_classes_use_labels_as_they_are(self):
        data = one_col([1.0, 8.0], [0, 1])
        assert _labels_by_name(data, ("a", "b")) is data.labels


class TestStackDepth:
    def build(self):
        level1 = fixed_entry([PureBin(0, 2.5, 0, 5, 5)], [AmbiguousBin(1, 7.5)])
        level2 = fixed_entry([PureBin(1, 7.5, 1, 4, 4)], boost_epoch=2)
        return manual_stack([level1, level2], majority=0)

    def test_truncation_stops_early(self):
        stack = self.build()
        full = predict_record(stack, np.array([8.0]))
        cut = predict_record(stack, np.array([8.0]), stack_depth=1)
        assert full.level == 2
        assert cut.fallback and cut.prediction == 0

    def test_truncation_does_not_change_early_levels(self):
        stack = self.build()
        data = one_col([1.0, 2.0, 8.0, 9.0], [0, 0, 1, 1])
        full = evaluate(stack, data)
        cut = evaluate(stack, data, stack_depth=1)
        assert cut.per_level_counts == full.per_level_counts[:1]
        assert cut.per_level_nodes == full.per_level_nodes[:1]

    @pytest.mark.parametrize("depth", [0, 3, -1])
    def test_out_of_range_depth_rejected(self, depth):
        with pytest.raises(ValueError, match="stack_depth"):
            evaluate(self.build(), one_col([1.0], [0]), stack_depth=depth)
        with pytest.raises(ValueError, match="stack_depth"):
            predict_record(self.build(), np.array([1.0]), stack_depth=depth)


class TestUsageReport:
    def test_shares(self):
        stack = self.two_level()
        data = one_col([1.0, 1.5, 8.0, 20.0], [0, 0, 1, 1])
        rep = evaluate(stack, data)
        usage = stack_usage_report(rep)
        assert usage.total == 4
        total_share = sum(u.share for u in usage.levels) + usage.fallback_share
        assert total_share == pytest.approx(1.0, abs=1e-12)
        assert usage.levels[0].cumulative_share <= usage.levels[-1].cumulative_share

    def two_level(self):
        level1 = fixed_entry([PureBin(0, 2.5, 0, 5, 5)], [AmbiguousBin(1, 7.5)],
                             lo=0.0, hi=10.0)
        level2 = fixed_entry([PureBin(0, 6.0, 1, 4, 4)], lo=4.0, hi=8.0,
                             boost_epoch=2)
        return manual_stack([level1, level2], majority=0)

    def test_nodes_echoed(self):
        data = separable_dataset(seed=6)
        stack = train(data, TrainerConfig(max_boost_epoch=5, seed=1))
        usage = stack_usage_report(evaluate(stack, data))
        assert [u.nodes for u in usage.levels] == stack.per_level_nodes()
