"""Which gpstack calls the traced run wraps, and the per-layer metrics.

Every wrapper sits at the module attribute its caller looks up (see
``spans``).  gpstack calls these functions with positional arguments, which
is what the row-count observers read.
"""

from __future__ import annotations

import gpstack.binning as binning
import gpstack.cli as cli
import gpstack.evaluation as evaluation
import gpstack.model as model
import gpstack.programs as programs
import gpstack.training as training

from spans import Tracer


class GenerationWatch:
    """Counts programs a generation scores that the previous generation
    already scored on the same residual (the carried-over survivors)."""

    def __init__(self) -> None:
        self._data = None
        self._seen: set[int] = set()
        self._keep = None  # keeps the seen trees alive, so their ids stay unique

    def observe(self, args, kwargs, result) -> int:
        pop, data = args[0], args[1]
        rescored = sum(id(t) in self._seen for t in pop) if data is self._data else 0
        self._data, self._keep = data, result
        self._seen = {id(s.tree) for s in result.ranked}
        return rescored


def _records_rows(args, kwargs, out) -> int:
    return int(args[1].shape[0])


def _level_rows(args, kwargs, report) -> int:
    """Rows entering each stack level, summed over levels."""
    entering, total = report.n, 0
    for answered in report.per_level_counts:
        total += entering
        entering -= answered
    return total


def install(tracer: Tracer) -> None:
    for mod in (binning, training, evaluation):
        tracer.wrap(mod, "eval_batch", "programs.eval_batch", _records_rows)
    tracer.wrap(cli, "load_csv", "dataset.load_csv", lambda a, k, out: out.n)
    tracer.wrap(cli, "write_csv", "dataset.write_csv")
    tracer.wrap(cli, "stratified_split", "dataset.stratified_split")
    tracer.wrap(training, "remove_records", "dataset.remove_records")
    for name in ("init_stump", "grow_clone", "mutate_params"):
        tracer.wrap(training, name, "programs.breed")
    tracer.wrap(programs.RngStream, "generator", "programs.rng")
    tracer.wrap(training, "fit_histogram", "binning.fit_histogram")
    tracer.wrap(training, "gini_fitness", "binning.gini_fitness")
    tracer.wrap(training, "bin_table", "binning.bin_table")
    tracer.wrap(cli, "train", "training.train", lambda a, k, stack: int(stack.log.stalled))
    tracer.wrap(training, "evolve_generation", "training.evolve_generation",
                GenerationWatch().observe)
    tracer.wrap(training, "find_champion", "training.find_champion")
    tracer.wrap(training, "extract_residual", "training.extract_residual",
                lambda a, k, out: a[1].n)
    tracer.wrap(cli, "evaluate", "evaluation.evaluate", _level_rows)
    for mod in (cli, model):
        tracer.wrap(mod, "dumps", "model.dumps")
        tracer.wrap(mod, "loads", "model.loads")


PER_LAYER_UNITS = {
    "dataset.load_csv.calls": "count",
    "dataset.load_csv.self_s": "s",
    "dataset.load_csv.rows_per_s": "rows/s",
    "dataset.write_csv.self_s": "s",
    "dataset.stratified_split.self_s": "s",
    "dataset.remove_records.self_s": "s",
    "programs.eval_batch.calls": "count",
    "programs.eval_batch.rows": "count",
    "programs.eval_batch.self_s": "s",
    "programs.breed.calls": "count",
    "programs.breed.self_s": "s",
    "programs.rng.calls": "count",
    "programs.rng.self_s": "s",
    "binning.fit_histogram.calls": "count",
    "binning.fit_histogram.self_s": "s",
    "binning.gini_fitness.self_s": "s",
    "binning.bin_table.self_s": "s",
    "training.train.self_s": "s",
    "training.evolve_generation.calls": "count",
    "training.evolve_generation.self_s": "s",
    "training.generations_per_level": "ratio",
    "training.programs_scored": "count",
    "training.levels": "count",
    "training.stalled_trials": "count",
    "training.rescored_share": "ratio",
    "training.champion_yield": "ratio",
    "training.find_champion.self_s": "s",
    "training.extract_residual.self_s": "s",
    "training.extract_residual.replay_rows": "count",
    "evaluation.evaluate.calls": "count",
    "evaluation.evaluate.self_s": "s",
    "evaluation.evaluate.level_rows": "count",
    "model.dumps.self_s": "s",
    "model.loads.self_s": "s",
    "model.bytes": "bytes",
    "model.nodes": "count",
    "cli.split.self_s": "s",
    "cli.train.self_s": "s",
    "cli.evaluate.self_s": "s",
    "cli.train.load_csv.calls": "count",  # per train command
    "trace.train_s": "s",
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer_metrics(spans: dict, train_spans: list[dict], measured: dict) -> dict[str, float]:
    """Per-layer values from the span summary of every command (``spans``)
    and the summaries of each ``train`` command alone (``train_spans``),
    plus the values the run ``measured`` itself."""

    def get(name: str, key: str):
        return spans.get(name, {}).get(key, 0)

    scored = get("binning.fit_histogram", "calls")
    levels = get("training.extract_residual", "calls")
    values = {
        "dataset.load_csv.rows_per_s": _ratio(get("dataset.load_csv", "rows"),
                                              get("dataset.load_csv", "self_s")),
        "programs.eval_batch.rows": get("programs.eval_batch", "rows"),
        "training.generations_per_level": _ratio(get("training.evolve_generation", "calls"),
                                                 levels),
        "training.programs_scored": scored,
        "training.levels": levels,
        "training.stalled_trials": get("training.train", "rows"),
        "training.rescored_share": _ratio(get("training.evolve_generation", "rows"), scored),
        "training.champion_yield": _ratio(levels, scored),
        "training.extract_residual.replay_rows": get("training.extract_residual", "rows"),
        "evaluation.evaluate.level_rows": get("evaluation.evaluate", "rows"),
        "cli.train.load_csv.calls": _ratio(
            sum(t.get("dataset.load_csv", {}).get("calls", 0) for t in train_spans),
            len(train_spans)),
        **measured,
    }
    for name in PER_LAYER_UNITS:
        if name in values:
            continue
        layer, _, key = name.rpartition(".")
        values[name] = get(layer, key)
    return values
