"""The golden byte contract: which runs are pinned and how they are replayed.

``tests/golden/`` holds fixed input CSVs, and for every case below the
model file ``gpstack train`` writes from the case's train CSV and the
``gpstack evaluate`` report of that model on its holdout CSV, without
wall-clock fields.  ``numpy_version.txt`` names the numpy the files were
made with.  The CSVs are inputs and are never regenerated;
``scripts/regen_golden.py`` rewrites everything else.

``train.csv``/``holdout.csv`` are a small hand-made set.
``uci_train.csv``/``uci_holdout.csv`` are the ``gpstack split --seed 0``
parts of one UCI-sized 500 x 30 set drawn with the benchmark's recipe
(``perfbench/gen.py``, ``uci_sized(500, 30, [0, 0])``); its case trains a
stack of up to 10 levels, as the benchmark's uci workload does.
``rounded_train.csv``/``rounded_holdout.csv`` are the ``gpstack split
--seed 0`` parts of a 600-record set drawn with ``np.random.default_rng(4)``:
270 ``pos`` and 330 ``neg`` labels, shuffled; attributes 0 and 1 normal with
mean +0.4 and -0.4 times the class sign and unit spread, rounded to one
decimal (so ``-0.0`` occurs); attributes 2 and 3 integers 0-3 of noise.
Its float32 stacks are both 4 levels deep, and their holdout answers
include exact pure-bin hits, ambiguous pass-downs and nearest-pure answers
below level 1.
"""

from __future__ import annotations

import contextlib
import io
import json
import os

import numpy as np

GOLDEN_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")
NUMPY_VERSION_FILE = os.path.join(GOLDEN_DIR, "numpy_version.txt")

SMALL = ("train.csv", "holdout.csv")
UCI = ("uci_train.csv", "uci_holdout.csv")
ROUNDED = ("rounded_train.csv", "rounded_holdout.csv")

# case name -> ((train CSV, holdout CSV), train flags besides --data/--model)
CASES = {
    "fixed_seed0": (SMALL, ("--preset", "small-fast", "--boost-epochs", "8", "--seed", "0")),
    "fixed_seed1": (SMALL, ("--preset", "small-fast", "--boost-epochs", "8", "--seed", "1")),
    "float32_seed0": (SMALL, ("--preset", "large-fast", "--seed", "0")),
    "float32_seed1": (SMALL, ("--preset", "large-fast", "--seed", "1")),
    "uci_fixed_seed0": (UCI, ("--preset", "small-fast", "--boost-epochs", "10", "--seed", "0")),
    "rounded_float32_seed0": (ROUNDED, ("--preset", "large-fast", "--seed", "0")),
    "rounded_float32_seed1": (ROUNDED, ("--preset", "large-fast", "--seed", "1")),
}


def golden_files(name: str) -> tuple[str, str]:
    """File names of one case's model and evaluate report."""
    return f"{name}.model", f"{name}.evaluate.json"


def replay(name: str, workdir: str) -> dict[str, str]:
    """Train and evaluate one case through ``gpstack.cli.main``.

    Returns the text of each golden file of the case, keyed by file name.
    """
    from gpstack.cli import main

    (train_csv, holdout_csv), flags = CASES[name]
    model_path = os.path.join(workdir, f"{name}.model")
    eval_path = os.path.join(workdir, f"{name}.evaluate.json")
    with contextlib.redirect_stdout(io.StringIO()):
        if main(["train", "--data", os.path.join(GOLDEN_DIR, train_csv),
                 "--model", model_path, *flags]) != 0:
            raise RuntimeError(f"{name}: gpstack train failed")
        if main(["evaluate", "--data", os.path.join(GOLDEN_DIR, holdout_csv), "--model", model_path,
                 "--out", eval_path]) != 0:
            raise RuntimeError(f"{name}: gpstack evaluate failed")
    with open(model_path, encoding="utf-8", newline="") as fh:
        model_text = fh.read()
    with open(eval_path, encoding="utf-8") as fh:
        report = json.load(fh)["report"]
    del report["seconds"]
    model_file, report_file = golden_files(name)
    return {model_file: model_text,
            report_file: json.dumps(report, indent=2, sort_keys=True) + "\n"}


def numpy_version() -> str:
    return np.__version__
