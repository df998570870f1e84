"""Command line flows, exercised through main() with temp files."""

import dataclasses
import json
import re

import numpy as np
import pytest

import gpstack.cli as cli
from gpstack.cli import main, read_config_file
from gpstack.dataset import load_csv, write_csv
from gpstack.model import load_model, save_model

from helpers import random_dataset, separable_dataset


@pytest.fixture()
def toy_csv(tmp_path):
    data = separable_dataset(n_per_class=30, d=2, seed=0)
    path = tmp_path / "toy.csv"
    write_csv(data, str(path))
    return str(path)


@pytest.fixture()
def noisy_csv(tmp_path):
    data = random_dataset(np.random.default_rng(1), n=80, d=3)
    path = tmp_path / "noisy.csv"
    write_csv(data, str(path))
    return str(path)


def read_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def strip_seconds(obj):
    """Drop wall-clock fields and path echoes so reports can be compared."""
    if isinstance(obj, dict):
        return {k: strip_seconds(v) for k, v in obj.items()
                if "seconds" not in k and k != "model_path"}
    if isinstance(obj, list):
        return [strip_seconds(v) for v in obj]
    return obj


class TestTrainCommand:
    def test_basic_train_and_model(self, toy_csv, tmp_path, capsys):
        model = tmp_path / "m.model"
        out = tmp_path / "report.json"
        rc = main(["train", "--data", toy_csv, "--seed", "3",
                   "--model", str(model), "--out", str(out)])
        assert rc == 0
        assert model.exists()
        stack = load_model(str(model))
        assert stack.depth >= 1
        report = read_json(str(out))
        assert report["command"] == "train"
        assert len(report["trials"]) == 1
        assert report["trials"][0]["test"]["accuracy_with_fallback"] == 1.0
        text = capsys.readouterr().out
        assert "test acc" in text

    def test_trials_write_separate_models(self, toy_csv, tmp_path):
        model = tmp_path / "m.model"
        rc = main(["train", "--data", toy_csv, "--trials", "3",
                   "--seed", "5", "--model", str(model)])
        assert rc == 0
        for t in range(3):
            assert (tmp_path / f"m_trial{t}.model").exists()
        seeds = [load_model(str(tmp_path / f"m_trial{t}.model")).config.seed
                 for t in range(3)]
        assert seeds == [5, 6, 7]

    def test_deterministic_reruns(self, noisy_csv, tmp_path):
        args = ["train", "--data", noisy_csv, "--seed", "2", "--beta", "0.9",
                "--boost-epochs", "10", "--gp-epochs", "4", "--pop-size", "10",
                "--gap", "3"]
        m1, r1 = tmp_path / "a.model", tmp_path / "a.json"
        m2, r2 = tmp_path / "b.model", tmp_path / "b.json"
        assert main(args + ["--model", str(m1), "--out", str(r1)]) == 0
        assert main(args + ["--model", str(m2), "--out", str(r2)]) == 0
        assert m1.read_bytes() == m2.read_bytes()
        assert strip_seconds(read_json(str(r1))) == strip_seconds(read_json(str(r2)))

    @pytest.mark.parametrize("model,trials,written", [
        ("m.model", 2, ["m_trial0.model", "m_trial1.model"]),
        ("runs.v1/stack", 2, ["runs.v1/stack_trial0", "runs.v1/stack_trial1"]),
        ("stack", 2, ["stack_trial0", "stack_trial1"]),
        ("runs.v1/stack", 1, ["runs.v1/stack"]),
    ])
    def test_trial_model_paths(self, model, trials, written, toy_csv, tmp_path):
        work = tmp_path / "work"
        (work / "runs.v1").mkdir(parents=True)
        assert main(["train", "--data", toy_csv, "--trials", str(trials),
                     "--boost-epochs", "3", "--model", str(work / model)]) == 0
        files = sorted(p.relative_to(work).as_posix() for p in work.rglob("*") if p.is_file())
        assert files == written

    def test_ignored_flags_of_the_benchmark_change_nothing(self, noisy_csv, tmp_path):
        # perfbench/run.py passes "--parallel 1 --workers 1"
        base = ["train", "--data", noisy_csv, "--trials", "2", "--seed", "1",
                "--beta", "0.9", "--boost-epochs", "8", "--gp-epochs", "3",
                "--pop-size", "8", "--gap", "3"]
        outputs = []
        for name, extra in (("plain", []), ("flags", ["--parallel", "1", "--workers", "1"])):
            model, out = tmp_path / f"{name}.model", tmp_path / f"{name}.json"
            assert main(base + extra + ["--model", str(model), "--out", str(out)]) == 0
            models = [(tmp_path / f"{name}_trial{t}.model").read_bytes() for t in range(2)]
            outputs.append((models, strip_seconds(read_json(str(out)))))
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("flag,value", [("--workers", "2"), ("--workers", "0"),
                                            ("--parallel", "2")])
    def test_removed_concurrency_values_are_usage_errors(self, flag, value, toy_csv, capsys):
        with pytest.raises(SystemExit) as err:
            main(["train", "--data", toy_csv, flag, value])
        assert err.value.code == 2
        assert f"argument {flag}: invalid choice" in capsys.readouterr().err

    def test_workers_config_key_rejected(self, toy_csv, tmp_path, capsys):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("workers = 2\n", encoding="utf-8")
        rc = main(["train", "--data", toy_csv, "--config", str(cfg_file)])
        assert rc == 1
        assert "unknown configuration key 'workers'" in capsys.readouterr().err

    def test_preset_selects_parameters(self, toy_csv, tmp_path):
        model = tmp_path / "m.model"
        rc = main(["train", "--data", toy_csv, "--preset", "large-fast",
                   "--model", str(model)])
        assert rc == 0
        cfg = load_model(str(model)).config
        assert cfg.float_resolution and cfg.beta == 0.6 and cfg.max_boost_epoch == 10

    def test_flag_overrides_preset(self, toy_csv, tmp_path):
        model = tmp_path / "m.model"
        rc = main(["train", "--data", toy_csv, "--preset", "large-fast",
                   "--beta", "0.7", "--model", str(model)])
        assert rc == 0
        assert load_model(str(model)).config.beta == 0.7

    def test_config_file_between_preset_and_flags(self, toy_csv, tmp_path):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("beta = 0.8\ngap = 5  # narrow pool\n", encoding="utf-8")
        model = tmp_path / "m.model"
        rc = main(["train", "--data", toy_csv, "--preset", "small-fast",
                   "--config", str(cfg_file), "--gap", "7", "--model", str(model)])
        assert rc == 0
        cfg = load_model(str(model)).config
        assert cfg.beta == 0.8    # config file beats preset
        assert cfg.gap == 7       # flag beats config file

    def test_unknown_preset_exits_with_usage_error(self, toy_csv):
        with pytest.raises(SystemExit) as err:
            main(["train", "--data", toy_csv, "--preset", "huge"])
        assert err.value.code == 2

    def test_missing_data_file_fails_cleanly(self, tmp_path, capsys):
        rc = main(["train", "--data", str(tmp_path / "gone.csv")])
        assert rc == 1
        assert "error:" in capsys.readouterr().err

    def test_label_col_flag(self, tmp_path):
        data = dataclasses.replace(separable_dataset(n_per_class=10, seed=2),
                                   label_name="verdict")
        path = tmp_path / "mid.csv"
        write_csv(data, str(path))
        rc = main(["train", "--data", str(path), "--label-col", "verdict",
                   "--boost-epochs", "5"])
        assert rc == 0


class TestNegativeSeed:
    @pytest.mark.parametrize("command", ["train", "split"])
    def test_rejected_before_the_csv_is_parsed(self, command, toy_csv, tmp_path, capsys,
                                               monkeypatch):
        def never(*args, **kwargs):
            raise AssertionError("the CSV was parsed")

        monkeypatch.setattr(cli, "load_csv", never)
        rc = main([command, "--data", toy_csv, "--seed", "-1",
                   "--out", str(tmp_path / "out")])
        assert rc == 1
        err = capsys.readouterr().err.splitlines()
        assert err == ["error: --seed must be non-negative, got -1"]


def never(*args, **kwargs):
    raise AssertionError("called before the flags were checked")


class TestFlagsCheckedBeforeTheParse:
    @pytest.mark.parametrize("frac", ["1.5", "0", "-0.2", "1", "nan"])
    @pytest.mark.parametrize("command", ["train", "split"])
    def test_train_frac(self, command, frac, toy_csv, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli, "load_csv", never)
        rc = main([command, "--data", toy_csv, "--train-frac", frac,
                   "--out", str(tmp_path / "out")])
        assert rc == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: --train-frac must lie")

    @pytest.mark.parametrize("command", ["train", "split"])
    def test_train_frac_before_a_missing_file(self, command, tmp_path, capsys):
        rc = main([command, "--data", str(tmp_path / "absent.csv"), "--train-frac", "1.5",
                   "--out", str(tmp_path / "out")])
        assert rc == 1
        assert "--train-frac" in capsys.readouterr().err

    def test_stack_depth(self, toy_csv, tmp_path, capsys, monkeypatch):
        model = tmp_path / "m.model"
        assert main(["train", "--data", toy_csv, "--model", str(model)]) == 0
        depth = load_model(str(model)).depth
        capsys.readouterr()
        monkeypatch.setattr(cli, "load_csv", never)
        for bad in (0, -1, depth + 1):
            rc = main(["evaluate", "--data", toy_csv, "--model", str(model),
                       "--stack-depth", str(bad)])
            assert rc == 1
            err = capsys.readouterr().err.splitlines()
            assert err == [f"error: --stack-depth must lie in [1, {depth}], got {bad}"]


class TestMissingOutputDirectory:
    @pytest.mark.parametrize("argv", [
        ["train", "--data", "{csv}", "--model", "{missing}/m.model"],
        ["train", "--data", "{csv}", "--trials", "2", "--model", "{missing}/m.model"],
        ["train", "--data", "{csv}", "--out", "{missing}/report.json"],
        ["split", "--data", "{csv}", "--out", "{missing}/part"],
        ["evaluate", "--data", "{csv}", "--model", "{csv}", "--out", "{missing}/eval.json"],
        ["inspect", "--model", "{csv}", "--out", "{missing}/inspect.json"],
    ])
    def test_fails_before_any_parse_or_training(self, argv, toy_csv, tmp_path, capsys,
                                                monkeypatch):
        for name in ("load_csv", "load_model", "train"):
            monkeypatch.setattr(cli, name, never)
        missing = tmp_path / "no" / "such"
        argv = [a.format(csv=toy_csv, missing=missing) for a in argv]
        assert main(argv) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: cannot write {missing}/")
        assert err[0].endswith(f"no directory {missing}")
        assert not (tmp_path / "no").exists()

    def test_a_file_is_no_directory(self, toy_csv, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli, "train", never)
        rc = main(["train", "--data", toy_csv, "--model", f"{toy_csv}/m.model"])
        assert rc == 1
        assert f"no directory {toy_csv}" in capsys.readouterr().err

    def test_bare_file_names_write_to_the_working_directory(self, toy_csv, tmp_path,
                                                            monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["train", "--data", toy_csv, "--model", "m.model",
                     "--out", "r.json"]) == 0
        assert main(["split", "--data", toy_csv, "--out", "part"]) == 0
        assert main(["evaluate", "--data", toy_csv, "--model", "m.model",
                     "--out", "e.json"]) == 0
        assert main(["inspect", "--model", "m.model", "--out", "i.json"]) == 0
        assert {p.name for p in tmp_path.iterdir()} >= {
            "m.model", "r.json", "part_train.csv", "part_test.csv", "e.json", "i.json"}


class TestParseOnce:
    def test_train_parses_its_csv_once(self, noisy_csv, monkeypatch):
        calls = []
        real = cli.load_csv

        def counting(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(cli, "load_csv", counting)
        rc = main(["train", "--data", noisy_csv, "--trials", "3", "--boost-epochs", "3",
                   "--gp-epochs", "2", "--pop-size", "6", "--gap", "2"])
        assert rc == 0
        assert len(calls) == 1


class TestEvaluateCommand:
    def test_evaluate_saved_model(self, toy_csv, tmp_path, capsys):
        model = tmp_path / "m.model"
        assert main(["train", "--data", toy_csv, "--model", str(model)]) == 0
        out = tmp_path / "eval.json"
        rc = main(["evaluate", "--data", toy_csv, "--model", str(model),
                   "--out", str(out)])
        assert rc == 0
        report = read_json(str(out))["report"]
        assert report["accuracy_with_fallback"] == 1.0
        assert set(report) >= {"accuracy_strict", "accuracy_with_fallback",
                               "correct", "error", "fallback",
                               "per_level_counts", "per_level_nodes", "seconds"}
        assert "accuracy" in capsys.readouterr().out

    def test_stack_depth_flag(self, noisy_csv, tmp_path):
        model = tmp_path / "m.model"
        assert main(["train", "--data", noisy_csv, "--seed", "4", "--beta", "0.9",
                     "--boost-epochs", "12", "--gp-epochs", "4",
                     "--pop-size", "10", "--gap", "3", "--model", str(model)]) == 0
        depth = load_model(str(model)).depth
        assert depth >= 1
        rc = main(["evaluate", "--data", noisy_csv, "--model", str(model),
                   "--stack-depth", "1"])
        assert rc == 0
        rc = main(["evaluate", "--data", noisy_csv, "--model", str(model),
                   "--stack-depth", str(depth + 1)])
        assert rc == 1

    def test_schema_mismatch_fails(self, toy_csv, tmp_path, capsys):
        model = tmp_path / "m.model"
        assert main(["train", "--data", toy_csv, "--model", str(model)]) == 0
        other = tmp_path / "wide.csv"
        write_csv(random_dataset(np.random.default_rng(0), n=10, d=5), str(other))
        rc = main(["evaluate", "--data", str(other), "--model", str(model)])
        assert rc == 1
        assert "attributes" in capsys.readouterr().err


    def test_labels_scored_by_class_name(self, tmp_path, capsys):
        data = separable_dataset(n_per_class=30, seed=0)
        all_csv, pos_csv = tmp_path / "all.csv", tmp_path / "pos.csv"
        write_csv(data, str(all_csv))
        # a CSV of only "pos" rows encodes "pos" as 0, the model as 1
        write_csv(data.take(np.flatnonzero(data.labels == 1)), str(pos_csv))
        model = tmp_path / "m.model"
        assert main(["train", "--data", str(all_csv), "--model", str(model)]) == 0
        for csv_path in (all_csv, pos_csv):
            capsys.readouterr()
            assert main(["evaluate", "--data", str(csv_path), "--model", str(model)]) == 0
            assert "accuracy (with fallback) 1.0000" in capsys.readouterr().out

    def test_unknown_label_fails_cleanly(self, toy_csv, tmp_path, capsys):
        model = tmp_path / "m.model"
        assert main(["train", "--data", toy_csv, "--model", str(model)]) == 0
        other = tmp_path / "other.csv"
        with open(toy_csv, encoding="utf-8") as fh:
            other.write_text(fh.read().replace(",pos", ",maybe"), encoding="utf-8")
        rc = main(["evaluate", "--data", str(other), "--model", str(model)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "'maybe'" in err

    def test_model_reading_a_missing_attribute_fails_cleanly(self, toy_csv, tmp_path, capsys):
        model = tmp_path / "m.model"
        assert main(["train", "--data", toy_csv, "--model", str(model)]) == 0
        bad = tmp_path / "bad.model"
        bad.write_text(re.sub(r"\(attr \d+\)", "(attr 7)", model.read_text(encoding="utf-8")),
                       encoding="utf-8")
        rc = main(["evaluate", "--data", toy_csv, "--model", str(bad)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "attribute 7" in err


class TestInspectCommand:
    def test_inspect_prints_structure(self, toy_csv, tmp_path, capsys):
        model = tmp_path / "m.model"
        assert main(["train", "--data", toy_csv, "--model", str(model)]) == 0
        out = tmp_path / "inspect.json"
        rc = main(["inspect", "--model", str(model), "--out", str(out)])
        assert rc == 0
        text = capsys.readouterr().out
        assert "levels" in text and "level 1:" in text
        payload = read_json(str(out))
        assert payload["levels"] == load_model(str(model)).depth
        assert payload["entries"][0]["records_claimed"] > 0

    def test_inspect_deep_program(self, toy_csv, tmp_path, capsys):
        model = tmp_path / "m.model"
        assert main(["train", "--data", toy_csv, "--model", str(model)]) == 0
        deep = "(add " * 5000 + "(attr 0)" + " (const 0.5))" * 5000
        lines = model.read_text(encoding="utf-8").splitlines()
        idx = next(i for i, l in enumerate(lines) if l.startswith("tree "))
        lines[idx] = "tree " + deep
        text = "\n".join(lines) + "\n"
        model.write_text(text, encoding="utf-8")
        assert main(["inspect", "--model", str(model)]) == 0
        assert deep in capsys.readouterr().out
        again = tmp_path / "again.model"
        save_model(load_model(str(model)), str(again))
        assert again.read_text(encoding="utf-8") == text

    def test_inspect_corrupt_model(self, tmp_path, capsys):
        bad = tmp_path / "bad.model"
        bad.write_text("junk\n", encoding="utf-8")
        rc = main(["inspect", "--model", str(bad)])
        assert rc == 1
        assert "line 1" in capsys.readouterr().err


class TestSplitCommand:
    def test_split_writes_partitions(self, tmp_path, capsys):
        data = random_dataset(np.random.default_rng(2), n=50, d=2)
        src = tmp_path / "all.csv"
        write_csv(data, str(src))
        rc = main(["split", "--data", str(src), "--train-frac", "0.7",
                   "--seed", "9", "--out", str(tmp_path / "part")])
        assert rc == 0
        train_part = load_csv(str(tmp_path / "part_train.csv"))
        test_part = load_csv(str(tmp_path / "part_test.csv"))
        assert train_part.n + test_part.n == data.n
        assert set(train_part.classes) == set(data.classes)
        out = capsys.readouterr().out
        assert "train" in out and "test" in out

    def test_oversized_quoted_cell_fails_cleanly(self, tmp_path, capsys):
        src = tmp_path / "huge.csv"
        rows = [f"{i},{'x' if i % 2 else 'y'}" for i in range(6)]
        rows[3] = '3,"' + "z" * 200_000 + '"'
        src.write_text("a,class\n" + "\n".join(rows) + "\n", encoding="utf-8")
        rc = main(["split", "--data", str(src), "--out", str(tmp_path / "part")])
        assert rc == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
        assert str(src) in err[0] and "row 4" in err[0] and "field larger" in err[0]

    def test_bom_header_label_by_name(self, tmp_path, capsys):
        src = tmp_path / "bom.csv"
        rows = [f"{'x' if i % 2 else 'y'},{i}" for i in range(8)]
        src.write_text("\ufeffclass,a\n" + "\n".join(rows) + "\n", encoding="utf-8")
        rc = main(["split", "--data", str(src), "--label-col", "class",
                   "--out", str(tmp_path / "part")])
        assert rc == 0
        part = load_csv(str(tmp_path / "part_train.csv"), "class")
        assert part.columns == ("a",) and part.classes == ("x", "y")

    def test_non_utf8_file_names_the_path(self, tmp_path, capsys):
        src = tmp_path / "latin1.csv"
        src.write_bytes("a,class\n1,caf\u00e9\n2,x\n".encode("latin-1"))
        rc = main(["split", "--data", str(src), "--out", str(tmp_path / "part")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {src}: not UTF-8 text") and "0xe9" in err

    @staticmethod
    def split_headers(tmp_path, header, label_col):
        """The parts' header lines after ``split --label-col label_col`` of a
        file with ``header``, whose first column holds the labels."""
        src = tmp_path / "src.csv"
        rows = [f"{'x' if i % 2 else 'y'},{i},{-i}" for i in range(8)]
        src.write_text(header + "\n" + "\n".join(rows) + "\n", encoding="utf-8")
        rc = main(["split", "--data", str(src), "--label-col", label_col,
                   "--out", str(tmp_path / "part")])
        assert rc == 0
        return [(tmp_path / f"part_{side}.csv").read_text(encoding="utf-8").splitlines()[0]
                for side in ("train", "test")]

    def test_label_by_index_keeps_its_header_name(self, tmp_path, capsys):
        assert self.split_headers(tmp_path, "kind,a,b", "0") == ["a,b,kind"] * 2
        part = load_csv(str(tmp_path / "part_train.csv"), "kind")
        assert part.columns == ("a", "b") and part.classes == ("x", "y")

    def test_label_by_name_keeps_its_header_name(self, tmp_path, capsys):
        assert self.split_headers(tmp_path, "kind,a,b", "kind") == ["a,b,kind"] * 2

    def test_label_by_index_next_to_a_column_named_class(self, tmp_path, capsys):
        # writing the label as "class" would give the parts two "class" columns
        assert self.split_headers(tmp_path, "label,class,b", "0") == ["class,b,label"] * 2
        out = str(tmp_path / "again")
        assert main(["split", "--data", str(tmp_path / "part_train.csv"),
                     "--label-col", "label", "--out", out]) == 0
        part = load_csv(f"{out}_train.csv", "label")
        assert part.columns == ("class", "b") and part.classes == ("x", "y")

    def test_split_deterministic(self, tmp_path):
        data = random_dataset(np.random.default_rng(3), n=40, d=2)
        src = tmp_path / "all.csv"
        write_csv(data, str(src))
        for name in ("x", "y"):
            main(["split", "--data", str(src), "--seed", "4",
                  "--out", str(tmp_path / name)])
        assert (tmp_path / "x_train.csv").read_bytes() == \
               (tmp_path / "y_train.csv").read_bytes()


class TestConfigFile:
    def test_read_config_file(self, tmp_path):
        p = tmp_path / "c.cfg"
        p.write_text("# comment\nbeta=0.75\nfloat_resolution = true\n"
                     "new_pop_size = 40\n\n", encoding="utf-8")
        assert read_config_file(str(p)) == {
            "beta": 0.75, "float_resolution": True, "new_pop_size": 40}

    def test_unknown_key_rejected(self, tmp_path):
        p = tmp_path / "c.cfg"
        p.write_text("turbo = 9\n", encoding="utf-8")
        with pytest.raises(ValueError, match="unknown configuration key"):
            read_config_file(str(p))

    def test_bad_line_rejected(self, tmp_path):
        p = tmp_path / "c.cfg"
        p.write_text("beta 0.5\n", encoding="utf-8")
        with pytest.raises(ValueError, match="key=value"):
            read_config_file(str(p))
