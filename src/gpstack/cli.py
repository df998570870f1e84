"""Command line interface.

Subcommands:

* ``train``     fit one or more stacks on a CSV, report train/test accuracy
* ``evaluate``  run a saved model over a CSV and report accuracy
* ``inspect``   print a saved model's structure
* ``split``     write the stratified train/test partition of a CSV
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys

import numpy as np

from .dataset import DatasetError, SplitSpec, load_csv, stratified_split, write_csv
from .evaluation import EvalReport, evaluate, stack_usage_report
from .model import ModelFormatError, dumps, load_model, loads
from .programs import format_tree
from .training import PRESETS, TrainerConfig, train

_FIELD_TYPES = {f.name: f.type for f in dataclasses.fields(TrainerConfig)}

_OVERRIDE_FLAGS = {
    "boost_epochs": "max_boost_epoch",
    "gp_epochs": "max_gp_epoch",
    "pop_size": "new_pop_size",
    "gap": "gap",
    "num_bin": "num_bin",
    "float_resolution": "float_resolution",
    "beta": "beta",
    "alpha": "alpha",
}


def _parse_label_col(text: str | None):
    if text is None:
        return None
    try:
        return int(text)
    except ValueError:
        return text


def _coerce_field(name: str, raw: str):
    if name not in _FIELD_TYPES:
        raise ValueError(f"unknown configuration key {name!r}")
    kind = _FIELD_TYPES[name]
    if kind in ("bool", bool):
        low = raw.strip().lower()
        if low in ("1", "true", "yes", "on"):
            return True
        if low in ("0", "false", "no", "off"):
            return False
        raise ValueError(f"cannot parse {raw!r} as a boolean for {name}")
    if kind in ("float", float):
        return float(raw)
    return int(raw)


def read_config_file(path: str) -> dict:
    """Parse ``key = value`` lines into TrainerConfig overrides.

    Blank lines and ``#`` comments are ignored.
    """
    overrides: dict = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}: line {lineno}: expected key=value")
            key, _, raw = line.partition("=")
            key = key.strip()
            try:
                overrides[key] = _coerce_field(key, raw.strip())
            except ValueError as exc:
                raise ValueError(f"{path}: line {lineno}: {exc}") from exc
    return overrides


def build_config(args) -> TrainerConfig:
    """Combine preset, config file, and explicit flags (later wins)."""
    params = dict(PRESETS[args.preset]) if args.preset else {}
    if args.config:
        params.update(read_config_file(args.config))
    for flag, field in _OVERRIDE_FLAGS.items():
        value = getattr(args, flag, None)
        if value is not None:
            params[field] = value
    if args.seed is not None:
        params["seed"] = args.seed
    return TrainerConfig(**params)


def _trial_model_path(base: str | None, trial: int, trials: int) -> str | None:
    if base is None or trials == 1:
        return base
    stem, suffix = os.path.splitext(base)
    return f"{stem}_trial{trial}{suffix}"


def _run_trial(data, cfg: TrainerConfig, train_frac: float, path: str | None) -> dict:
    """Train and score one trial on the parsed dataset, and save its model
    to ``path`` unless that is None."""
    train_part, test_part = stratified_split(data, SplitSpec(train_frac, cfg.seed))
    stack = train(train_part, cfg)
    result = {
        "seed": cfg.seed,
        "depth": stack.depth,
        "total_nodes": stack.total_nodes,
        "stalled": stack.log.stalled,
        "train_seconds": stack.log.seconds,
        "train": evaluate(stack, train_part).to_dict(),
        "test": evaluate(stack, test_part).to_dict(),
    }
    if path:
        text = dumps(stack)
        loads(text)  # no file is written that would not load back
        _write_text(text, path)
        result["model_path"] = path
    return result


def _mean_std(values: list[float]) -> tuple[float, float]:
    arr = np.asarray(values, dtype=np.float64)
    std = float(arr.std(ddof=1)) if arr.size > 1 else 0.0
    return float(arr.mean()), std


def _check_split_flags(args) -> None:
    # before the CSV is parsed, and in the flags' own names
    if args.seed is not None and args.seed < 0:
        raise ValueError(f"--seed must be non-negative, got {args.seed}")
    if not 0.0 < args.train_frac < 1.0:
        raise ValueError(f"--train-frac must lie strictly between 0 and 1, "
                         f"got {args.train_frac}")


def _check_out_dirs(*paths: str | None) -> None:
    """Fail before any parse or training when a path the command will write
    lies in a directory that does not exist."""
    for path in filter(None, paths):
        parent = os.path.dirname(path) or "."
        if not os.path.isdir(parent):
            raise ValueError(f"cannot write {path}: no directory {parent}")


def cmd_train(args) -> int:
    _check_split_flags(args)
    _check_out_dirs(args.model, args.out)
    cfg = build_config(args)
    if args.trials < 1:
        raise ValueError("--trials must be at least 1")
    data = load_csv(args.data, _parse_label_col(args.label_col))
    results = [_run_trial(data, dataclasses.replace(cfg, seed=cfg.seed + t), args.train_frac,
                          _trial_model_path(args.model, t, args.trials))
               for t in range(args.trials)]

    print(f"{'trial':>5} {'seed':>6} {'depth':>5} {'nodes':>6} "
          f"{'train_acc':>9} {'test_acc':>9} {'strict':>7} {'stalled':>7}")
    for t, res in enumerate(results):
        print(f"{t:>5} {res['seed']:>6} {res['depth']:>5} {res['total_nodes']:>6} "
              f"{res['train']['accuracy_with_fallback']:>9.4f} "
              f"{res['test']['accuracy_with_fallback']:>9.4f} "
              f"{res['test']['accuracy_strict']:>7.4f} "
              f"{'yes' if res['stalled'] else 'no':>7}")

    agg = {}
    for key, pick in [
        ("test_accuracy", lambda r: r["test"]["accuracy_with_fallback"]),
        ("test_accuracy_strict", lambda r: r["test"]["accuracy_strict"]),
        ("train_accuracy", lambda r: r["train"]["accuracy_with_fallback"]),
        ("depth", lambda r: float(r["depth"])),
        ("total_nodes", lambda r: float(r["total_nodes"])),
        ("train_seconds", lambda r: r["train_seconds"]),
    ]:
        mean, std = _mean_std([pick(r) for r in results])
        agg[f"{key}_mean"] = mean
        agg[f"{key}_std"] = std
    print(f"trials {len(results)}: "
          f"test acc {agg['test_accuracy_mean']:.4f} +- {agg['test_accuracy_std']:.4f}, "
          f"train acc {agg['train_accuracy_mean']:.4f} +- {agg['train_accuracy_std']:.4f}, "
          f"depth {agg['depth_mean']:.2f}, nodes {agg['total_nodes_mean']:.1f}")

    if args.out:
        report = {
            "command": "train",
            "data": args.data,
            "preset": args.preset,
            "train_fraction": args.train_frac,
            "config": dataclasses.asdict(cfg),
            "trials": results,
            "aggregate": agg,
        }
        _write_json(report, args.out)
    return 0


def _print_eval_report(report: EvalReport) -> None:
    print(f"records                  {report.n}")
    print(f"accuracy (strict)        {report.accuracy_strict:.4f}")
    print(f"accuracy (with fallback) {report.accuracy_with_fallback:.4f}")
    print(f"correct {report.correct}, error {report.error}, fallback {report.fallback}")
    usage = stack_usage_report(report)
    for u in usage.levels:
        print(f"  level {u.level}: answered {u.answered} ({u.share:6.2%}), "
              f"cumulative {u.cumulative_share:6.2%}, nodes {u.nodes}")
    if usage.fallback:
        print(f"  fallback: {usage.fallback} ({usage.fallback_share:6.2%})")
    print(f"seconds {report.seconds:.3f}")


def cmd_evaluate(args) -> int:
    _check_out_dirs(args.out)
    stack = load_model(args.model)
    if args.stack_depth is not None and not 1 <= args.stack_depth <= stack.depth:
        raise ValueError(f"--stack-depth must lie in [1, {stack.depth}], "
                         f"got {args.stack_depth}")
    data = load_csv(args.data, _parse_label_col(args.label_col))
    report = evaluate(stack, data, args.stack_depth)
    _print_eval_report(report)
    if args.out:
        payload = report.to_dict()
        payload["usage"] = stack_usage_report(report).to_dict()
        _write_json({"command": "evaluate", "model": args.model,
                     "data": args.data, "stack_depth": args.stack_depth,
                     "report": payload}, args.out)
    return 0


def cmd_inspect(args) -> int:
    _check_out_dirs(args.out)
    stack = load_model(args.model)
    cfg = stack.config
    print(f"classes      {', '.join(stack.classes)}")
    print(f"attributes   {stack.n_attributes}")
    print(f"mode         {'float32' if cfg.float_resolution else 'fixed'}")
    print(f"beta {cfg.beta}, alpha {cfg.alpha}, pop {cfg.new_pop_size}, gap {cfg.gap}")
    print(f"levels       {stack.depth}")
    print(f"total nodes  {stack.total_nodes}")
    print(f"stalled      {'yes' if stack.log.stalled else 'no'}")
    print(f"residuals    {' '.join(str(v) for v in stack.log.residual_sizes)}")
    for i, e in enumerate(stack.entries, start=1):
        print(f"level {i}: boost_epoch {e.boost_epoch}, fitness {e.fitness:.6f}, "
              f"claimed {e.records_claimed}, nodes {e.tree.node_count}, "
              f"pure {len(e.pure_bins)}, ambiguous {len(e.ambiguous_bins)}")
        print(f"  {format_tree(e.tree)}")
    if args.out:
        payload = {
            "command": "inspect",
            "model": args.model,
            "classes": list(stack.classes),
            "attributes": stack.n_attributes,
            "levels": stack.depth,
            "total_nodes": stack.total_nodes,
            "stalled": stack.log.stalled,
            "residual_sizes": list(stack.log.residual_sizes),
            "entries": [
                {"boost_epoch": e.boost_epoch, "fitness": e.fitness,
                 "records_claimed": e.records_claimed,
                 "nodes": e.tree.node_count,
                 "pure_bins": len(e.pure_bins),
                 "ambiguous_bins": len(e.ambiguous_bins)}
                for e in stack.entries
            ],
        }
        _write_json(payload, args.out)
    return 0


def cmd_split(args) -> int:
    _check_split_flags(args)
    train_path = f"{args.out}_train.csv"
    test_path = f"{args.out}_test.csv"
    _check_out_dirs(train_path, test_path)
    data = load_csv(args.data, _parse_label_col(args.label_col))
    train_part, test_part = stratified_split(data, SplitSpec(args.train_frac, args.seed))
    write_csv(train_part, train_path)
    write_csv(test_part, test_path)
    print(f"train {train_part.n} records -> {train_path}")
    print(f"test  {test_part.n} records -> {test_path}")
    return 0


def _write_text(text: str, path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def _write_json(payload: dict, path: str) -> None:
    _write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", path)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="gpstack",
                                     description="Boosted stacks of genetic programs")
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="train stacks on a CSV")
    p_train.add_argument("--data", required=True, help="training CSV path")
    p_train.add_argument("--label-col", default=None,
                         help="label column name or index (default: last column)")
    p_train.add_argument("--preset", choices=sorted(PRESETS), default=None)
    p_train.add_argument("--config", default=None, help="key=value override file")
    p_train.add_argument("--seed", type=int, default=None,
                         help="first trial's seed (default: the config file's seed, else 0)")
    p_train.add_argument("--trials", type=int, default=1,
                         help="independent runs; trial t uses seed+t")
    p_train.add_argument("--train-frac", type=float, default=0.7)
    p_train.add_argument("--model", default=None, help="where to save the trained model")
    p_train.add_argument("--out", default=None, help="where to save the JSON report")
    p_train.add_argument("--parallel", type=int, choices=(1,), default=1,
                         help="accepted and ignored: trials run one after another")
    p_train.add_argument("--boost-epochs", type=int, default=None, dest="boost_epochs")
    p_train.add_argument("--gp-epochs", type=int, default=None, dest="gp_epochs")
    p_train.add_argument("--pop-size", type=int, default=None, dest="pop_size")
    p_train.add_argument("--gap", type=int, default=None)
    p_train.add_argument("--num-bin", type=int, default=None, dest="num_bin")
    p_train.add_argument("--float-resolution", action="store_const", const=True,
                         default=None, dest="float_resolution")
    p_train.add_argument("--beta", type=float, default=None)
    p_train.add_argument("--alpha", type=float, default=None)
    p_train.add_argument("--workers", type=int, choices=(1,), default=1,
                         help="accepted and ignored: training runs in one thread")
    p_train.set_defaults(func=cmd_train)

    p_eval = sub.add_parser("evaluate", help="score a saved model on a CSV")
    p_eval.add_argument("--data", required=True)
    p_eval.add_argument("--label-col", default=None)
    p_eval.add_argument("--model", required=True)
    p_eval.add_argument("--stack-depth", type=int, default=None, dest="stack_depth",
                        help="use only the first k levels")
    p_eval.add_argument("--out", default=None)
    p_eval.set_defaults(func=cmd_evaluate)

    p_inspect = sub.add_parser("inspect", help="print a saved model")
    p_inspect.add_argument("--model", required=True)
    p_inspect.add_argument("--out", default=None)
    p_inspect.set_defaults(func=cmd_inspect)

    p_split = sub.add_parser("split", help="write a stratified train/test split")
    p_split.add_argument("--data", required=True)
    p_split.add_argument("--label-col", default=None)
    p_split.add_argument("--train-frac", type=float, default=0.7)
    p_split.add_argument("--seed", type=int, default=0)
    p_split.add_argument("--out", required=True, help="output path prefix")
    p_split.set_defaults(func=cmd_split)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (DatasetError, ModelFormatError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
