"""One benchmark run: split -> train -> evaluate through the gpstack CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The run generates its input CSVs from ``--seed``.  For each CSV it calls
``gpstack.cli.main`` in this process for ``split``, ``train`` on the train
part (saving every trial model) and ``evaluate`` of the trial-0 model on the
test part, and checks the outputs.  The last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  Every command and every check counts as one attempted
operation.

Everything the run writes lives in ``.perfbench_work/`` at the checkout root
and is removed when the run ends.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass

import numpy as np

import gen

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
PROBE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "setup_probe.py")


@dataclass(frozen=True)
class Workload:
    make: object          # (seed, index) -> generator output, see gen.py
    datasets: int         # independent CSVs per run; their times add up
    train_flags: tuple


WORKLOADS = {
    "surrogate-800k-float32": Workload(
        lambda seed, i: gen.surrogate(800_000, [seed, i]), 1,
        ("--preset", "large-fast", "--trials", "3")),
    # Training time on one UCI-sized set swings with the set and the seeds
    # drawn; capped at 10 levels and summed over many sets it is steady.
    "uci-500x30-fixed": Workload(
        lambda seed, i: gen.uci_sized(500, 30, [seed, i]), 32,
        ("--preset", "small-fast", "--trials", "10", "--boost-epochs", "10")),
}

END_TO_END_UNITS = {
    "setup_s": "s",
    "split_s": "s",
    "train_s": "s",
    "evaluate_s": "s",
    "predict_records_per_s": "records/s",
    "test_accuracy": "ratio",
    "peak_rss_mb": "MB",
}

REPEAT_BUDGET_S = 2.0   # a workload's short calls repeat until they add up to this
REPEATS = 3             # and each runs this many times at least
SAMPLE_RECORDS = 64     # test records per workload compared between predict_record and evaluate


class Ledger:
    """Counts attempted and failed operations and keeps failure messages."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)


def run_cli(ledger: Ledger, argv: list[str]) -> float:
    """Run one gpstack command in this process; returns its wall time."""
    from gpstack.cli import main
    out = io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
        rc = main(argv)
    seconds = time.perf_counter() - t0
    ledger.check(rc == 0, f"gpstack {argv[0]} exited {rc}: {out.getvalue()[-500:]}")
    return seconds


def median_of_repeats(call, budget: float, at_least: int = 1) -> float:
    """Median duration of ``call(k)`` for k = 0, 1, ..., repeated until the
    calls add up to ``budget`` seconds (and at least ``at_least`` times)."""
    times: list[float] = []
    while len(times) < at_least or sum(times) < budget:
        times.append(call(len(times)))
    return statistics.median(times)


def setup_seconds(csv_path: str) -> float:
    """Median time from ``import gpstack`` to the CSV parsed, each in a
    fresh interpreter."""
    def probe(_repeat: int) -> float:
        done = subprocess.run([sys.executable, PROBE, SRC, csv_path],
                              capture_output=True, text=True, check=True, timeout=170)
        return float(done.stdout.strip().splitlines()[-1])
    return median_of_repeats(probe, REPEAT_BUDGET_S, REPEATS)


class Pipeline:
    """Files and command lines of split -> train -> evaluate on one CSV.

    Repeated commands write fresh files: rewriting a file that was just
    written can wait for its writeback (ext4 flushes a truncated file on
    close), which would time the disk instead of gpstack.
    """

    def __init__(self, work: str, cli_seed: int, train_flags) -> None:
        self.work = work
        self.source = os.path.join(work, "source.csv")
        self.train_csv = os.path.join(work, "part0_train.csv")
        self.test_csv = os.path.join(work, "part0_test.csv")
        self.train_out = os.path.join(work, "train.json")
        self.eval_out = os.path.join(work, "evaluate0.json")
        self.seed = str(cli_seed)
        self.train_argv = ["train", "--data", self.train_csv, *train_flags, "--seed", self.seed,
                           "--parallel", "1", "--workers", "1",
                           "--model", os.path.join(work, "stack.model"),
                           "--out", self.train_out]

    def split_argv(self, repeat: int) -> list[str]:
        return ["split", "--data", self.source, "--seed", self.seed,
                "--out", os.path.join(self.work, f"part{repeat}")]

    def evaluate_argv(self, repeat: int) -> list[str]:
        return ["evaluate", "--model", self.model_files()[0], "--data", self.test_csv,
                "--out", os.path.join(self.work, f"evaluate{repeat}.json")]

    def report(self) -> dict:
        with open(self.train_out, encoding="utf-8") as fh:
            return json.load(fh)

    def model_files(self) -> list[str]:
        return [t["model_path"] for t in self.report()["trials"]]


def check_outputs(ledger: Ledger, pipe: Pipeline, samples: int, rng):
    """Checks one pipeline's outputs; returns its loaded trial models and
    test set."""
    from gpstack import LabeledDataset, evaluate, load_csv, load_model, predict_record
    from gpstack.model import dumps

    stacks = []
    for path in pipe.model_files():
        with open(path, "rb") as fh:
            saved = fh.read()
        stacks.append(load_model(path))
        ledger.check(dumps(stacks[-1]).encode("utf-8") == saved,
                     f"{path}: save -> load -> save changed the bytes")

    test = load_csv(pipe.test_csv)
    with open(pipe.eval_out, encoding="utf-8") as fh:
        cli_accuracy = json.load(fh)["report"]["accuracy_with_fallback"]
    ledger.check(cli_accuracy == evaluate(stacks[0], test).accuracy_with_fallback,
                 f"{pipe.work}: CLI evaluate accuracy differs from in-process evaluate")

    for i in np.sort(rng.choice(test.n, size=min(samples, test.n), replace=False)):
        trace = predict_record(stacks[0], test.records[i])
        # labelled with predict_record's answer, the record scores 1 iff evaluate agrees
        one = LabeledDataset(test.records[i:i + 1].copy(), np.array([trace.prediction]),
                             test.classes)
        batch = evaluate(stacks[0], one)
        ledger.check(batch.accuracy_with_fallback == 1.0
                     and (batch.fallback == 1) == trace.fallback,
                     f"{pipe.work}: predict_record disagrees with evaluate on test record {i}")
    return stacks, test


def predict_throughput(models: list, seconds: float) -> float:
    """Records per second of in-memory ``evaluate``.  One round runs each
    test part through every trial model trained for it, so that no single
    model's depth decides the rate; the median round over ``seconds`` counts."""
    from gpstack import evaluate
    records = sum(len(stacks) * test.n for stacks, test in models)
    rates: list[float] = []
    end = time.perf_counter() + seconds
    while len(rates) < 3 or time.perf_counter() < end:
        t0 = time.perf_counter()
        for stacks, test in models:
            for stack in stacks:
                evaluate(stack, test)
        rates.append(records / (time.perf_counter() - t0))
    return statistics.median(rates)


def run(name: str, seed: int, seconds: float, traced: bool,
        work: str) -> tuple[Ledger, dict, dict, str]:
    """Returns the ledger, the metrics, the per-name span totals (empty
    when untraced) and the sha256 of the first trial-0 model file."""
    workload = WORKLOADS[name]
    pipes, shares = [], []
    for i in range(workload.datasets):
        # trial t trains with seed + t, so every set gets its own range
        pipe = Pipeline(os.path.join(work, f"set{i}"), 1000 * (workload.datasets * seed + i),
                        workload.train_flags)
        os.makedirs(pipe.work)
        columns, X, labels, class_names = workload.make(seed, i)
        gen.write_csv(pipe.source, columns, X, labels, class_names)
        shares.append(max(labels.mean(), 1.0 - labels.mean()))
        pipes.append(pipe)
        del X, labels
    ledger = Ledger()
    budget = REPEAT_BUDGET_S / len(pipes)

    if traced:
        from layers import install, per_layer_metrics
        from spans import Tracer
        tracer = Tracer()
        train_spans, train_s = [], 0.0

        def traced_cli(argv: list[str]) -> float:
            """Runs a command under a ``cli.<command>`` span; a command's
            spans are contiguous, so its own summary is a slice."""
            first = tracer.begin(f"cli.{argv[0]}")
            seconds = run_cli(ledger, argv)
            tracer.finish(first)
            if argv[0] == "train":
                train_spans.append(tracer.summary(first, len(tracer.start)))
            return seconds

        install(tracer)
        try:
            for pipe in pipes:
                traced_cli(pipe.split_argv(0))
                train_s += traced_cli(pipe.train_argv)
                traced_cli(pipe.evaluate_argv(0))
        finally:
            tracer.restore()
        all_spans = tracer.summary()
    else:
        all_spans = {}
        metrics = {"setup_s": setup_seconds(pipes[0].source), "split_s": 0.0,
                   "train_s": 0.0, "evaluate_s": 0.0}
        for pipe in pipes:
            metrics["split_s"] += median_of_repeats(
                lambda k: run_cli(ledger, pipe.split_argv(k)), budget, REPEATS)
            metrics["train_s"] += run_cli(ledger, pipe.train_argv)
            metrics["evaluate_s"] += median_of_repeats(
                lambda k: run_cli(ledger, pipe.evaluate_argv(k)), budget, REPEATS)

    rng = np.random.default_rng(seed)
    samples = max(4, SAMPLE_RECORDS // len(pipes))
    models = [check_outputs(ledger, pipe, samples, rng) for pipe in pipes]
    aggregates = [pipe.report()["aggregate"] for pipe in pipes]
    test_accuracy = statistics.fmean(a["test_accuracy_mean"] for a in aggregates)
    ledger.check(test_accuracy > statistics.fmean(shares),
                 f"test accuracy {test_accuracy:.4f} not above the majority-class share "
                 f"{statistics.fmean(shares):.4f}")
    if traced:
        metrics = per_layer_metrics(all_spans, train_spans, {
            "trace.train_s": train_s,
            "model.bytes": sum(os.path.getsize(p) for pipe in pipes for p in pipe.model_files()),
            "model.nodes": statistics.fmean(a["total_nodes_mean"] for a in aggregates),
        })
    else:
        metrics["predict_records_per_s"] = predict_throughput(models, seconds)
        metrics["test_accuracy"] = test_accuracy
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(pipes[0].model_files()[0], "rb") as fh:
        sha = hashlib.sha256(fh.read()).hexdigest()
    return ledger, metrics, all_spans, sha


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="how long predict_records_per_s is measured")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "gpstack", "cli.py")):
        print(f"error: gpstack sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    work_root = os.path.join(ROOT, ".perfbench_work")
    work = os.path.join(work_root, f"{args.workload}-{args.seed}-{args.trace}-{os.getpid()}")
    try:
        ledger, metrics, spans, sha = run(args.workload, args.seed, args.seconds,
                                          bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(work_root)

    for name, span in sorted(spans.items()):
        print(f"span {name:36s} calls {span['calls']:9d} total_s {span['total_s']:10.4f} "
              f"self_s {span['self_s']:10.4f} rows {span['rows']}")
    units = END_TO_END_UNITS
    if args.trace:
        from layers import PER_LAYER_UNITS as units
    for name, unit in units.items():
        print(f"{name:40s} {metrics[name]:.6g} {unit}")
    for what in ledger.failures:
        print(f"FAILED: {what}")
    failed = len(ledger.failures)
    print(f"model_sha256 {sha}")
    print(f"failed_frac {failed / ledger.attempted:.6g} ({failed} of {ledger.attempted})")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": ledger.attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
