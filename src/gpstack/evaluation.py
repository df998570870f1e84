"""Deploying a trained stack on records and measuring accuracy.

Records enter at the first stack level.  Each level runs its program and
looks the output up in the bin tables frozen at training time.  Fixed-mode
levels answer when the record lands in a pure bin and otherwise pass it
down.  Float32-resolution levels answer on an exact pure-bin hit, pass the
record down on an exact ambiguous-bin hit, and otherwise (an output never
seen at training time) answer with the nearest pure bin by representative
value.  A record no level answers is predicted as the training majority
class; that fallback is counted separately from the stack's own answers.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .binning import locate_bins, match_positions, nearest_positions, nearest_pure_bin
from .dataset import DatasetError, LabeledDataset
from .programs import eval_batch, eval_record
from .training import EnsembleStack, pure_bin_hits


@dataclass(frozen=True)
class PredictionTrace:
    """Where one record was answered: level is 1-based, 0 for fallback."""

    prediction: int
    level: int
    fallback: bool


@dataclass(frozen=True)
class EvalReport:
    """Outcome counts of running a dataset through a stack.

    ``correct``/``error`` count records the stack itself answered;
    ``fallback`` counts records no level answered, ``fallback_correct``
    those of them whose label is the majority class.  Strict accuracy scores
    only stack answers against the full dataset, while
    ``accuracy_with_fallback`` also credits correct majority-class
    fallbacks.  ``per_level_counts[i]`` is how many records level i+1
    answered.
    """

    accuracy_strict: float
    accuracy_with_fallback: float
    correct: int
    error: int
    fallback: int
    fallback_correct: int
    per_level_counts: list[int]
    per_level_nodes: list[int]
    seconds: float

    @property
    def n(self) -> int:
        return self.correct + self.error + self.fallback

    def to_dict(self) -> dict:
        return {
            "accuracy_strict": self.accuracy_strict,
            "accuracy_with_fallback": self.accuracy_with_fallback,
            "correct": self.correct,
            "error": self.error,
            "fallback": self.fallback,
            "per_level_counts": list(self.per_level_counts),
            "per_level_nodes": list(self.per_level_nodes),
            "seconds": self.seconds,
        }


def _resolve_depth(stack: EnsembleStack, stack_depth: int | None) -> int:
    if stack_depth is None:
        return len(stack.entries)
    if not 1 <= stack_depth <= len(stack.entries):
        raise ValueError(f"stack_depth must lie in [1, {len(stack.entries)}]")
    return stack_depth


def _float32_values(y: np.ndarray) -> np.ndarray:
    v = y.astype(np.float32)
    v[v == 0] = np.float32(0.0)
    return v.astype(np.float64)


def _labels_by_name(data: LabeledDataset, classes: tuple[str, ...]) -> np.ndarray:
    """``data.labels`` encoded as positions in ``classes``, matched by name.

    Raises DatasetError naming any label of ``data`` absent from ``classes``.
    """
    if data.classes == classes:
        return data.labels
    index = {name: k for k, name in enumerate(classes)}
    present = np.bincount(data.labels, minlength=data.num_classes) > 0
    unknown = [name for name, seen in zip(data.classes, present)
               if seen and name not in index]
    if unknown:
        raise DatasetError("labels the model never saw: "
                           + ", ".join(repr(name) for name in unknown))
    recode = np.array([index.get(name, -1) for name in data.classes], dtype=np.int64)
    return recode[data.labels]


def predict_record(stack: EnsembleStack, record: np.ndarray,
                   stack_depth: int | None = None) -> PredictionTrace:
    """Route a single record through the stack, scalar reference path."""
    depth = _resolve_depth(stack, stack_depth)
    record = np.asarray(record, dtype=np.float64)
    if record.shape != (stack.n_attributes,):
        raise ValueError(f"record must have {stack.n_attributes} attributes")
    for level, entry in enumerate(stack.entries[:depth], start=1):
        y = eval_record(entry.tree, record)
        if entry.geometry.mode == "fixed":
            key = int(locate_bins(entry.geometry, np.array([y]))[0])
            for b in entry.pure_bins:
                if b.key == key:
                    return PredictionTrace(b.label, level, False)
        else:
            v = float(_float32_values(np.array([y]))[0])
            for b in entry.pure_bins:
                if b.rep == v:
                    return PredictionTrace(b.label, level, False)
            if any(b.rep == v for b in entry.ambiguous_bins):
                continue
            nearest = nearest_pure_bin(entry.pure_bins, v)
            if nearest is not None:
                return PredictionTrace(nearest.label, level, False)
    return PredictionTrace(stack.majority_class, 0, True)


def evaluate(stack: EnsembleStack, data: LabeledDataset,
             stack_depth: int | None = None) -> EvalReport:
    """Run every record through the stack and score the answers.

    Vectorized: each level is evaluated once over all records still
    unanswered.  Results match :func:`predict_record` record for record.
    Labels are compared by class name, so ``data`` may encode its classes
    differently from the stack; a label the stack never saw raises
    DatasetError.
    """
    t0 = time.perf_counter()
    depth = _resolve_depth(stack, stack_depth)
    if data.d != stack.n_attributes:
        raise ValueError(f"dataset has {data.d} attributes, stack expects "
                         f"{stack.n_attributes}")
    truth = _labels_by_name(data, stack.classes)
    entries = stack.entries[:depth]
    n = data.n
    pred = np.full(n, -1, dtype=np.int64)
    level_of = np.zeros(n, dtype=np.int64)
    remaining = np.arange(n)
    per_level_counts: list[int] = []

    for level, entry in enumerate(entries, start=1):
        if remaining.size == 0:
            per_level_counts.append(0)
            continue
        y = eval_batch(entry.tree, data.records[remaining])
        hit, labels = pure_bin_hits(entry.geometry, entry.pure_bins, y)
        if entry.geometry.mode == "float32" and entry.pure_bins:
            v = _float32_values(y)
            amb_reps = np.array([b.rep for b in entry.ambiguous_bins], dtype=np.float64)
            amb_hit, _ = match_positions(amb_reps, v)
            unseen = ~hit & ~amb_hit
            if unseen.any():
                reps = np.array([b.rep for b in entry.pure_bins], dtype=np.float64)
                pure_labels = np.array([b.label for b in entry.pure_bins], dtype=np.int64)
                nearest = nearest_positions(reps, v[unseen])
                labels = labels.copy()
                labels[unseen] = pure_labels[nearest]
                hit = hit | unseen
        answered = remaining[hit]
        pred[answered] = labels[hit]
        level_of[answered] = level
        per_level_counts.append(int(hit.sum()))
        remaining = remaining[~hit]

    pred[remaining] = stack.majority_class
    correct_mask = pred == truth
    answered_mask = level_of > 0
    correct = int(np.count_nonzero(correct_mask & answered_mask))
    error = int(np.count_nonzero(~correct_mask & answered_mask))
    fallback = int(remaining.size)
    fallback_correct = int(np.count_nonzero(correct_mask[remaining]))
    return EvalReport(
        accuracy_strict=correct / n,
        accuracy_with_fallback=(correct + fallback_correct) / n,
        correct=correct,
        error=error,
        fallback=fallback,
        fallback_correct=fallback_correct,
        per_level_counts=per_level_counts,
        per_level_nodes=[e.tree.node_count for e in entries],
        seconds=time.perf_counter() - t0,
    )


@dataclass(frozen=True)
class UsageLevel:
    level: int
    answered: int
    share: float
    cumulative_share: float
    nodes: int


@dataclass(frozen=True)
class UsageReport:
    """How the answering load spreads over stack levels.

    Shares are fractions of all records evaluated, so level shares plus the
    fallback share sum to 1.
    """

    levels: tuple[UsageLevel, ...]
    fallback: int
    fallback_share: float
    total: int

    def to_dict(self) -> dict:
        return {
            "levels": [
                {"level": u.level, "answered": u.answered, "share": u.share,
                 "cumulative_share": u.cumulative_share, "nodes": u.nodes}
                for u in self.levels
            ],
            "fallback": self.fallback,
            "fallback_share": self.fallback_share,
            "total": self.total,
        }


def stack_usage_report(report: EvalReport) -> UsageReport:
    """Per-level answer shares of an evaluation."""
    n = report.n
    levels = []
    cum = 0
    for i, (count, nodes) in enumerate(zip(report.per_level_counts,
                                           report.per_level_nodes), start=1):
        cum += count
        levels.append(UsageLevel(i, count, count / n, cum / n, nodes))
    return UsageReport(tuple(levels), report.fallback, report.fallback / n, n)
