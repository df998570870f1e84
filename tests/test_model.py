"""Model text format: round-trips, byte stability, corrupt inputs."""

import glob
import os

import numpy as np
import pytest

from gpstack.binning import IntervalGeometry, key_reps
from gpstack.dataset import LabeledDataset
from gpstack.model import MAGIC, ModelFormatError, dumps, load_model, loads, save_model
from gpstack.training import TrainerConfig, train

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
