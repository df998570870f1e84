"""The golden byte contract: which runs are pinned and how they are replayed.

``tests/golden/`` holds two fixed input CSVs (``train.csv`` and
``holdout.csv``), and for every case below the model file ``gpstack train``
writes from ``train.csv`` and the ``gpstack evaluate`` report of that model
on ``holdout.csv``, without wall-clock fields.  ``numpy_version.txt`` names
the numpy the files were made with.  The CSVs are inputs and are never
regenerated; ``scripts/regen_golden.py`` rewrites everything else.
"""

from __future__ import annotations

import contextlib
import io
import json
import os

import numpy as np

GOLDEN_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")
TRAIN_CSV = os.path.join(GOLDEN_DIR, "train.csv")
HOLDOUT_CSV = os.path.join(GOLDEN_DIR, "holdout.csv")
NUMPY_VERSION_FILE = os.path.join(GOLDEN_DIR, "numpy_version.txt")

# case name -> train flags besides --data/--model
CASES = {
    "fixed_seed0": ("--preset", "small-fast", "--boost-epochs", "8", "--seed", "0"),
    "fixed_seed1": ("--preset", "small-fast", "--boost-epochs", "8", "--seed", "1"),
    "float32_seed0": ("--preset", "large-fast", "--seed", "0"),
    "float32_seed1": ("--preset", "large-fast", "--seed", "1"),
}


def golden_files(name: str) -> tuple[str, str]:
    """File names of one case's model and evaluate report."""
    return f"{name}.model", f"{name}.evaluate.json"


def replay(name: str, workdir: str) -> dict[str, str]:
    """Train and evaluate one case through ``gpstack.cli.main``.

    Returns the text of each golden file of the case, keyed by file name.
    """
    from gpstack.cli import main

    model_path = os.path.join(workdir, f"{name}.model")
    eval_path = os.path.join(workdir, f"{name}.evaluate.json")
    with contextlib.redirect_stdout(io.StringIO()):
        if main(["train", "--data", TRAIN_CSV, "--model", model_path, *CASES[name]]) != 0:
            raise RuntimeError(f"{name}: gpstack train failed")
        if main(["evaluate", "--data", HOLDOUT_CSV, "--model", model_path,
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
