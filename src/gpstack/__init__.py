"""Boosted ensemble stacks of genetic programs for classification.

Train with :func:`train`, persist with :func:`save_model` /
:func:`load_model`, and deploy with :func:`evaluate` or
:func:`predict_record`.  The command line lives in :mod:`gpstack.cli`.
"""

from .binning import (AmbiguousBin, BinHistogram, FitnessConfig, IntervalGeometry,
                      LevelLookup, PureBin, bin_table, fit_histogram, gini_fitness,
                      locate_bins, nearest_pure_bin)
from .dataset import (DatasetError, LabeledDataset, SplitSpec, load_csv,
                      remove_records, stratified_split, write_csv)
from .evaluation import (EvalReport, PredictionTrace, UsageReport, evaluate,
                         predict_record, stack_usage_report)
from .model import ModelFormatError, load_model, save_model
from .programs import (Attribute, Constant, Operator, ProgramTree, RngStream,
                       eval_batch, eval_record, format_tree, grow_clone,
                       init_stump, mutate_params, parse_tree)
from .training import (ChampionEntry, EnsembleStack, GenerationResult, PRESETS,
                       ScoredTree, TrainerConfig, TrainingLog, evolve_generation,
                       extract_residual, find_champion, preset, train)

__version__ = "0.1.0"

__all__ = [
    "AmbiguousBin", "Attribute", "BinHistogram", "ChampionEntry", "Constant",
    "DatasetError", "EnsembleStack", "EvalReport", "FitnessConfig",
    "GenerationResult", "IntervalGeometry", "LabeledDataset", "LevelLookup",
    "ModelFormatError", "Operator", "PRESETS", "PredictionTrace", "ProgramTree",
    "PureBin", "RngStream", "ScoredTree", "SplitSpec", "TrainerConfig",
    "TrainingLog", "UsageReport", "bin_table", "eval_batch",
    "eval_record", "evaluate", "evolve_generation", "extract_residual",
    "find_champion", "fit_histogram", "format_tree", "gini_fitness",
    "grow_clone", "init_stump", "load_csv", "load_model", "locate_bins",
    "mutate_params", "nearest_pure_bin", "parse_tree", "predict_record",
    "preset", "remove_records", "save_model", "stack_usage_report",
    "stratified_split", "train", "write_csv",
]
