"""Model text format: round-trips, byte stability, corrupt inputs."""

import glob
import os

import numpy as np
import pytest

from gpstack.binning import IntervalGeometry, PureBin, key_reps
from gpstack.dataset import LabeledDataset
from gpstack.model import MAGIC, ModelFormatError, dumps, load_model, loads, save_model
from gpstack.programs import parse_tree
from gpstack.training import ChampionEntry, EnsembleStack, TrainerConfig, TrainingLog, train

from golden_cases import GOLDEN_DIR
from helpers import random_dataset, separable_dataset


def trained_stack(seed=0, float_resolution=False, data=None):
    if data is None:
        data = random_dataset(np.random.default_rng(seed), n=40, d=3)
    cfg = TrainerConfig(max_boost_epoch=10, max_gp_epoch=5, new_pop_size=12,
                        gap=4, beta=0.9 if not float_resolution else 0.6,
                        alpha=0.4 if float_resolution else 0.0,
                        float_resolution=float_resolution, seed=seed)
    return train(data, cfg)


class TestRoundTrip:
    def test_text_round_trip_is_byte_exact(self):
        for seed in range(5):
            stack = trained_stack(seed)
            text = dumps(stack)
            assert dumps(loads(text)) == text

    def test_float_resolution_round_trip(self):
        for seed in range(3):
            stack = trained_stack(seed, float_resolution=True)
            text = dumps(stack)
            assert dumps(loads(text)) == text

    def test_file_round_trip(self, tmp_path):
        stack = trained_stack(1)
        p = tmp_path / "m.model"
        save_model(stack, str(p))
        again = tmp_path / "again.model"
        save_model(load_model(str(p)), str(again))
        assert p.read_bytes() == again.read_bytes()

    def test_loaded_stack_equals_original(self):
        stack = trained_stack(2)
        back = loads(dumps(stack))
        assert back.classes == stack.classes
        assert back.n_attributes == stack.n_attributes
        assert back.majority_class == stack.majority_class
        assert back.log.residual_sizes == stack.log.residual_sizes
        assert back.log.stalled == stack.log.stalled
        assert len(back.entries) == len(stack.entries)
        for a, b in zip(back.entries, stack.entries):
            assert a.tree == b.tree
            assert a.fitness == b.fitness
            assert a.geometry == b.geometry
            assert a.pure_bins == b.pure_bins
            assert a.ambiguous_bins == b.ambiguous_bins
            assert a.records_claimed == b.records_claimed

    def test_timings_and_workers_not_persisted(self):
        import dataclasses
        stack = trained_stack(3)
        stack.log.seconds = 123.0
        stack = dataclasses.replace(stack, config=dataclasses.replace(stack.config, workers=8))
        back = loads(dumps(stack))
        assert back.log.seconds == 0.0
        assert back.log.epoch_seconds == []
        assert back.config.workers == 1

    def test_class_names_with_spaces(self):
        data = LabeledDataset(np.array([[-3.0], [-3.1], [3.0], [3.2]]),
                              np.array([0, 0, 1, 1]),
                              ("benign traffic", "bot net"))
        stack = train(data, TrainerConfig(max_boost_epoch=5, seed=0))
        back = loads(dumps(stack))
        assert back.classes == ("benign traffic", "bot net")

    @pytest.mark.parametrize("path", sorted(glob.glob(os.path.join(GOLDEN_DIR, "*.model"))),
                             ids=os.path.basename)
    def test_golden_model_saves_back_byte_for_byte(self, path):
        with open(path, encoding="utf-8", newline="") as fh:
            text = fh.read()
        assert dumps(loads(text)) == text

    def test_stalled_stack_round_trip(self):
        # four separable records, then two identical ones with different labels:
        # the run claims the four and stalls on the pair
        data = LabeledDataset(np.array([[0.0]] * 4 + [[5.0]] * 2),
                              np.array([0, 0, 0, 0, 0, 1]), ("a", "b"))
        stack = train(data, TrainerConfig(max_boost_epoch=5, max_gp_epoch=3, new_pop_size=6,
                                          gap=2))
        assert stack.log.stalled and stack.depth >= 1
        assert stack.log.residual_sizes[-1] == 2
        text = dumps(stack)
        assert dumps(loads(text)) == text

    def test_empty_stack_round_trip(self):
        data = separable_dataset(seed=4)
        stack = train(data, TrainerConfig(max_boost_epoch=0))
        assert dumps(loads(dumps(stack))) == dumps(stack)


class TestCorruptInput:
    def test_bad_header(self):
        with pytest.raises(ModelFormatError, match="line 1"):
            loads("not a model\n")

    def test_truncated(self):
        stack = trained_stack(0)
        text = dumps(stack)
        lines = text.splitlines()
        clipped = "\n".join(lines[: len(lines) // 2]) + "\n"
        with pytest.raises(ModelFormatError):
            loads(clipped)

    def test_error_names_offending_line(self):
        stack = trained_stack(0)
        lines = dumps(stack).splitlines()
        lines[1] = "attributes banana"
        with pytest.raises(ModelFormatError, match="line 2"):
            loads("\n".join(lines) + "\n")

    def test_trailing_garbage(self):
        text = dumps(trained_stack(0)) + "extra\n"
        with pytest.raises(ModelFormatError, match="trailing"):
            loads(text)

    def test_bad_tree_text(self):
        lines = dumps(trained_stack(0)).splitlines()
        idx = next(i for i, l in enumerate(lines) if l.startswith("tree "))
        lines[idx] = "tree (frob 1)"
        with pytest.raises(ModelFormatError, match=f"line {idx + 1}"):
            loads("\n".join(lines) + "\n")

    def test_bad_mode(self):
        lines = dumps(trained_stack(0)).splitlines()
        lines[2] = "mode float16"
        with pytest.raises(ModelFormatError, match="mode"):
            loads("\n".join(lines) + "\n")

    def test_label_out_of_range(self):
        lines = dumps(trained_stack(0)).splitlines()
        idx = next(i for i, l in enumerate(lines) if l.startswith("pure "))
        parts = lines[idx].split(" ")
        parts[3] = "9"
        lines[idx] = " ".join(parts)
        with pytest.raises(ModelFormatError, match="label out of range"):
            loads("\n".join(lines) + "\n")

    def test_attribute_beyond_header_rejected(self):
        lines = dumps(trained_stack(0)).splitlines()
        idx = next(i for i, l in enumerate(lines) if l.startswith("tree "))
        lines[idx] = "tree (add (attr 1) (attr 3))"  # the stack has 3 attributes
        with pytest.raises(ModelFormatError, match=f"line {idx + 1}: .*attribute 3"):
            loads("\n".join(lines) + "\n")

    def test_negative_attribute_rejected(self):
        lines = dumps(trained_stack(0)).splitlines()
        idx = next(i for i, l in enumerate(lines) if l.startswith("tree "))
        lines[idx] = "tree (attr -1)"
        with pytest.raises(ModelFormatError, match="attribute -1"):
            loads("\n".join(lines) + "\n")

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e999"])
    def test_non_finite_constant_rejected(self, value):
        lines = dumps(trained_stack(0)).splitlines()
        idx = next(i for i, l in enumerate(lines) if l.startswith("tree "))
        lines[idx] = f"tree (add (attr 0) (const {value}))"
        with pytest.raises(ModelFormatError, match=f"line {idx + 1}: bad program: .*not finite"):
            loads("\n".join(lines) + "\n")

    def test_geometry_mode_must_match_model_mode(self):
        lines = dumps(trained_stack(0)).splitlines()
        idx = next(i for i, l in enumerate(lines) if l.startswith("geometry fixed"))
        lines[idx] = "geometry float32 0.0 1.0 4294967296"
        with pytest.raises(ModelFormatError, match=f"line {idx + 1}: geometry mode"):
            loads("\n".join(lines) + "\n")

    @pytest.mark.parametrize("kind", ["pure", "ambig"])
    def test_fixed_rep_must_match_key(self, kind):
        lines = dumps(trained_stack(0)).splitlines()
        idx = next(i for i, l in enumerate(lines) if l.startswith(f"{kind} "))
        parts = lines[idx].split(" ")
        parts[2] = repr(float(np.nextafter(float(parts[2]), np.inf)))
        lines[idx] = " ".join(parts)
        with pytest.raises(ModelFormatError, match=f"line {idx + 1}: bin rep .* disagrees"):
            loads("\n".join(lines) + "\n")

    def test_fixed_key_beyond_int64_rejected(self):
        lines = dumps(trained_stack(0)).splitlines()
        idx = next(i for i, l in enumerate(lines) if l.startswith("pure "))
        parts = lines[idx].split(" ")
        parts[1] = str(2 ** 70)
        lines[idx] = " ".join(parts)
        with pytest.raises(ModelFormatError, match=f"line {idx + 1}: bin key .* out of range"):
            loads("\n".join(lines) + "\n")

    @pytest.mark.parametrize("key", [-1, 2, -2 ** 63])
    def test_fixed_key_outside_num_bin_rejected(self, key):
        lines = dumps(trained_stack(0)).splitlines()
        idx = next(i for i, l in enumerate(lines) if l.startswith("pure "))
        geometry = next(l for l in reversed(lines[:idx]) if l.startswith("geometry ")).split(" ")
        geom = IntervalGeometry("fixed", float(geometry[2]), float(geometry[3]), int(geometry[4]))
        assert geom.num_bin == 2
        parts = lines[idx].split(" ")
        parts[1], parts[2] = str(key), repr(float(key_reps(geom, key)))  # a rep that agrees
        lines[idx] = " ".join(parts)
        with pytest.raises(ModelFormatError,
                           match=rf"line {idx + 1}: bin key {key} out of range \[0, 2\)"):
            loads("\n".join(lines) + "\n")

    @staticmethod
    def bin_lines(text, kind):
        """Lines of the first entry with at least two ``kind`` bins, and the
        index of its first such line."""
        lines = text.splitlines()
        for i, line in enumerate(lines):
            if line.startswith(f"{kind} ") and lines[i + 1].startswith(f"{kind} "):
                return lines, i
        raise AssertionError(f"no entry with two {kind} bins")

    @pytest.mark.parametrize("kind,float_resolution", [
        ("pure", False), ("pure", True), ("ambig", True)])
    def test_unsorted_bins_rejected(self, kind, float_resolution):
        text = dumps(trained_stack(0, float_resolution=float_resolution,
                                   data=random_dataset(np.random.default_rng(7), n=200, d=3)))
        lines, i = self.bin_lines(text, kind)
        lines[i], lines[i + 1] = lines[i + 1], lines[i]
        with pytest.raises(ModelFormatError, match="not in strictly ascending"):
            loads("\n".join(lines) + "\n")

    @pytest.mark.parametrize("kind", ["pure", "ambig"])
    def test_duplicated_bins_rejected(self, kind):
        text = dumps(trained_stack(0, float_resolution=True,
                                   data=random_dataset(np.random.default_rng(7), n=200, d=3)))
        lines, i = self.bin_lines(text, kind)
        lines[i + 1] = lines[i]
        with pytest.raises(ModelFormatError, match="not in strictly ascending"):
            loads("\n".join(lines) + "\n")

    @staticmethod
    def replace_line(prefix, new, after=0):
        """A model's lines with the first line from ``after`` on that starts
        with ``prefix`` replaced by ``new``, and that line's number."""
        lines = dumps(trained_stack(0)).splitlines()
        idx = next(i for i, l in enumerate(lines) if i >= after and l.startswith(prefix))
        lines[idx] = new
        return "\n".join(lines) + "\n", idx + 1

    # each parses to a value whose canonical text differs from the input
    @pytest.mark.parametrize("prefix,new", [
        ("tree ", "tree (attr 0_1)"),
        ("tree ", "tree (attr +1)"),
        ("tree ", "tree (attr \u0661)"),
        ("tree ", "tree (add (attr 0) (const 1_0.5))"),
        ("attributes ", "attributes +3"),
        ("attributes ", "attributes 03"),
        ("seed ", "seed 0_0"),
        ("beta ", "beta 9e-1"),
    ])
    def test_text_saving_would_not_write_rejected(self, prefix, new):
        text, number = self.replace_line(prefix, new)
        with pytest.raises(ModelFormatError,
                           match=f"line {number}: .* is not as saving writes it"):
            loads(text)

    @pytest.mark.parametrize("new,message", [
        ("beta -1.0", r"beta must lie in \(0, 1\]"),
        ("beta 0.0", r"beta must lie in \(0, 1\]"),
        ("fitness inf", "fitness must be finite"),
        ("fitness nan", "fitness must be finite"),
    ])
    def test_entry_value_out_of_range_rejected(self, new, message):
        lines = dumps(trained_stack(0)).splitlines()
        text, number = self.replace_line(new.split(" ")[0] + " ", new,
                                         after=lines.index("entry 1"))
        with pytest.raises(ModelFormatError, match=f"line {number}: {message}"):
            loads(text)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ModelFormatError, match="cannot read"):
            load_model(str(tmp_path / "absent.model"))

    def test_header_is_versioned(self):
        assert dumps(trained_stack(0)).startswith(MAGIC + "\n")


def golden_model(name):
    with open(os.path.join(GOLDEN_DIR, name), encoding="utf-8", newline="") as fh:
        return fh.read()


def with_line(text, number, new):
    """``text`` with its 1-based line ``number`` replaced by ``new``."""
    lines = text.split("\n")
    lines[number - 1] = new
    return "\n".join(lines)


class TestStacksTrainingCannotWrite:
    """Text that saves back unchanged but that no training run writes.

    Edits of ``fixed_seed0.model``: 8 entries, ``max_boost_epoch 8``,
    ``residual_sizes`` on line 16; entry 1's ``boost_epoch``, ``fitness`` and
    ``records_claimed 4`` on lines 20-22 and its one pure bin (4 of 4) on
    line 27; entry 2 starts on line 31, entry 8's ``records_claimed 1`` is
    line 106.
    """

    @pytest.mark.parametrize("number,new,at,message", [
        (21, "fitness 0.0", 21, r"fitness must exceed 0\.0"),
        (21, "fitness -0.5", 21, r"fitness must exceed 0\.0"),
        (33, "fitness 0.021641968807983553", 33, "fitness must exceed 0.021641968807983553"),
        (33, "fitness 0.02", 33, "fitness must exceed"),
        (23, "beta 0.9", 23, "beta 0.9 differs from the header's 0.99"),
        (20, "boost_epoch 0", 20, r"boost_epoch must lie in \(0, 8\]"),
        (32, "boost_epoch 1", 32, r"boost_epoch must lie in \(1, 8\]"),
        (104, "boost_epoch 9", 104, r"boost_epoch must lie in \(7, 8\]"),
        (27, "pure 1 12.136480963810582 1 4 5", 27, "0 < y_star <= total"),
        (27, "pure 1 12.136480963810582 1 4 0", 27, "0 < y_star <= total"),
        (27, "pure 1 12.136480963810582 1 0 0", 27, "0 < y_star <= total"),
        (27, "pure 1 12.136480963810582 1 5 4", 27, "4/5 is below beta 0.99"),
        (27, "pure 1 12.136480963810582 1 5 5", 22,
         "records_claimed 4 is not the sum of the pure bins' totals, 5"),
        (16, "residual_sizes 140 136 135 132 130 126 125 120", 16,
         "residual_sizes holds 8 values, 8 entries need 9"),
        (16, "residual_sizes 140 136 135 132 130 126 125 120 119 119", 16,
         "residual_sizes holds 10 values"),
        (16, "residual_sizes 141 136 135 132 130 126 125 120 119", 22,
         "records_claimed 4 disagrees with residual_sizes, which fall by 5 here"),
        (16, "residual_sizes 140 136 135 132 130 126 125 120 118", 106,
         "records_claimed 1 disagrees with residual_sizes, which fall by 2 here"),
        (16, "residual_sizes 140 136 135 132 130 126 125 120 -1", 16,
         "residual_sizes must be non-negative"),
    ])
    def test_fixed_model_edit_rejected(self, number, new, at, message):
        text = with_line(golden_model("fixed_seed0.model"), number, new)
        with pytest.raises(ModelFormatError, match=f"^line {at}: .*{message}"):
            loads(text)

    def test_negative_seed_rejected(self):
        # line 11 is the header's seed
        text = with_line(golden_model("fixed_seed0.model"), 11, "seed -1")
        with pytest.raises(ModelFormatError, match="seed must be non-negative, got -1"):
            loads(text)

    def test_consistent_claim_edit_loads(self):
        # the records_claimed identity holds for other numbers too: one more
        # record in entry 1's pure bin and in the first residual
        text = golden_model("fixed_seed0.model")
        text = with_line(text, 16, "residual_sizes 141 136 135 132 130 126 125 120 119")
        text = with_line(text, 22, "records_claimed 5")
        text = with_line(text, 27, "pure 1 12.136480963810582 1 5 5")
        assert dumps(loads(text)) == text

    # rounded_float32_seed0.model: first pure bin on line 27, first
    # ambiguous bin on line 73
    @pytest.mark.parametrize("number,new", [
        (27, "pure 3227097499 -3.4000000953674316 0 1 1"),  # key one bit off
        (27, "pure 3227097498 -3.4 0 1 1"),  # rep not a float32 value
        (27, "pure -1067869798 -3.4000000953674316 0 1 1"),  # the bits as int32
        (73, "ambig 3201092814 -0.4000000059604645"),
        (73, "ambig 3201092813 -0.4000000059604646"),
    ])
    def test_float32_key_must_be_the_bits_of_its_rep(self, number, new):
        text = with_line(golden_model("rounded_float32_seed0.model"), number, new)
        with pytest.raises(ModelFormatError,
                           match=f"^line {number}: bin key .* are not one float32 value"):
            loads(text)

    @pytest.mark.parametrize("rep", ["0.0", "-0.0"])
    def test_negative_zero_bits_rejected(self, rep):
        # -0.0 is binned as +0.0, so its bit pattern is never a stored key
        entry = ChampionEntry(parse_tree("(attr 0)"), 1.0,
                              IntervalGeometry("float32", 0.0, 1.0, 2 ** 32),
                              (PureBin(0, 0.0, 0, 2, 2), PureBin(1065353216, 1.0, 1, 2, 2)),
                              (), 0.6, 1, 4)
        stack = EnsembleStack((entry,), ("a", "b"), 1, 0,
                              TrainerConfig(float_resolution=True, beta=0.6),
                              TrainingLog(residual_sizes=[4, 0]))
        text = dumps(stack)
        assert dumps(loads(text)) == text
        number = text.split("\n").index("pure 0 0.0 0 2 2") + 1
        with pytest.raises(ModelFormatError, match=f"^line {number}: bin key 2147483648"):
            loads(with_line(text, number, f"pure 2147483648 {rep} 0 2 2"))


# tokens a mutant may put in place of one token of a model file
MUTANT_TOKENS = ["0", "1", "-1", "2", "3", "8", "10", "+1", "0_1", "01", "1.0", "0.5", "-0.0",
                 "0.0", "1e-320", "1e999", "-1e999", "nan", "inf", "99999999999999999999",
                 "-99999999999999999999", "4294967296", "2147483648", "", "x", "(", ")",
                 "end", "pure", "ambig", "entry", "(attr", "(const", "\u0661"]


def one_token_mutant(text, rng):
    """``text`` with one space-separated token of one line replaced,
    nudged, deleted, duplicated or swapped with a token from elsewhere."""
    lines = text.split("\n")[:-1]
    i = int(rng.integers(len(lines)))
    tokens = lines[i].split(" ")
    j = int(rng.integers(len(tokens)))
    op = int(rng.integers(5))
    if op == 0:
        tokens[j] = MUTANT_TOKENS[int(rng.integers(len(MUTANT_TOKENS)))]
    elif op == 1:  # nudge a number
        try:
            value = int(tokens[j])
            tokens[j] = str(value + int(rng.choice([-1, 1])))
        except ValueError:
            try:
                value = float(tokens[j])
                tokens[j] = repr(float(np.nextafter(value, rng.choice([-np.inf, np.inf]))))
            except ValueError:
                tokens[j] += "0"
    elif op == 2:
        del tokens[j]
    elif op == 3:
        tokens.insert(j, tokens[j])
    else:
        other = lines[int(rng.integers(len(lines)))].split(" ")
        tokens[j] = other[int(rng.integers(len(other)))]
    lines[i] = " ".join(tokens)
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("path", sorted(glob.glob(os.path.join(GOLDEN_DIR, "*.model"))),
                         ids=os.path.basename)
def test_one_token_mutants_are_rejected_or_saved_back_unchanged(path):
    text = golden_model(os.path.basename(path))
    rng = np.random.default_rng([2026, len(text)])
    loaded = rejected = 0
    for _ in range(300):
        mutant = one_token_mutant(text, rng)
        try:
            stack = loads(mutant)
        except ModelFormatError:
            rejected += 1
            continue
        assert dumps(stack) == mutant
        loaded += mutant != text
    assert rejected > 150 and loaded > 0
