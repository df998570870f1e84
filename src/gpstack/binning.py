"""Histogram binning of program outputs, bin purity, and fitness scoring.

A trained program maps every record to a real number.  Those numbers are
dropped into a histogram, and each occupied bin is judged by how class-pure
it is.  Two geometries exist:

* ``fixed``: the output range [min, max] seen at fit time is divided into
  ``num_bin`` equal intervals; bin keys are the interval indices.
* ``float32``: outputs are rounded to single precision and every distinct
  rounded value is its own bin; bin keys are the float32 bit patterns.
  Capacity is 2**32 but only occupied bins are stored.

Histograms store occupied bins only, in ascending order of representative
value.  Empty bins are implicit.

Every value-to-bin decision lives here: :func:`float32_values` is the one
-0.0 normalisation, :func:`float32_bins` the one float32 dedupe that
histograms and lookups share, :func:`fixed_keys` the one fixed-mode key
computation, :func:`float32_counts` the float32 bin counts that scoring
reads, and :class:`LevelLookup` the one per-level answer rule of a deployed
stack.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset import LabeledDataset
from .programs import ProgramTree, eval_batch

FLOAT32_CAPACITY = 2 ** 32


@dataclass(frozen=True)
class IntervalGeometry:
    """Where bins live on the output axis.

    ``lo``/``hi`` are the output extremes observed at fit time.  For fixed
    mode they define the interval edges; for float32 mode they are
    informational only.
    """

    mode: str
    lo: float
    hi: float
    num_bin: int

    def __post_init__(self) -> None:
        if self.mode not in ("fixed", "float32"):
            raise ValueError(f"unknown binning mode {self.mode!r}")
        if self.mode == "fixed" and self.num_bin < 1:
            raise ValueError("fixed mode needs at least one bin")

    @property
    def capacity(self) -> int:
        return self.num_bin if self.mode == "fixed" else FLOAT32_CAPACITY

    @property
    def width(self) -> float:
        if self.mode != "fixed":
            raise ValueError("width is defined for fixed mode only")
        return (self.hi - self.lo) / self.num_bin


@dataclass(frozen=True)
class FitnessConfig:
    """Binning geometry plus the scoring knobs used while evolving."""

    beta: float = 0.99
    alpha: float = 0.0
    num_bin: int = 2
    float_resolution: bool = False

    def __post_init__(self) -> None:
        if not 0.0 < self.beta <= 1.0:
            raise ValueError("beta must lie in (0, 1]")
        if self.alpha < 0.0:
            raise ValueError("alpha must be non-negative")
        if self.num_bin < 1:
            raise ValueError("num_bin must be at least 1")


@dataclass(frozen=True)
class PureBin:
    key: int
    rep: float
    label: int
    total: int
    y_star: int


@dataclass(frozen=True)
class AmbiguousBin:
    key: int
    rep: float


@dataclass(frozen=True)
class BinHistogram:
    """Occupied bins of one program over one dataset.

    ``keys``, ``reps`` and ``counts`` are aligned and ordered by ascending
    representative value.  ``record_inverse[i]`` is the position of record
    i's bin within those arrays, so per-record bin membership is O(1).
    """

    geometry: IntervalGeometry
    keys: np.ndarray
    reps: np.ndarray
    counts: np.ndarray
    record_inverse: np.ndarray
    n_records: int
    num_classes: int


def float32_values(values: np.ndarray) -> np.ndarray:
    """Outputs rounded to single precision, with -0.0 normalized to +0.0.

    Outputs beyond the float32 range round to +-inf, which is a bin like any
    other."""
    with np.errstate(over="ignore"):
        v = np.asarray(values, dtype=np.float64).astype(np.float32)
    v[v == 0] = np.float32(0.0)
    return v


def float32_bins(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct :func:`float32_values` of ``values`` in ascending order,
    and each output's position among them: the float32 bins of
    :func:`fit_histogram` and the distinct outputs :class:`LevelLookup`
    answers."""
    return np.unique(float32_values(values), return_inverse=True)


def float32_counts(values: np.ndarray, labels: np.ndarray, num_classes: int) -> np.ndarray:
    """Class counts of the float32 bins of ``values``, as a (bins, classes)
    int64 array in ascending value order: the ``counts`` of the float32
    histogram :func:`fit_histogram` builds, from one sort and no inverse.

    Each output's :func:`float32_values` bits become an int32 key that orders
    as the value does (negative values have their magnitude bits flipped),
    packed with the record's label as key * classes + label; one sort of the
    packed keys and their run lengths give every occupied (bin, class) cell.
    """
    bits = float32_values(values).view(np.int32)
    packed = (bits ^ ((bits >> 31) & 0x7FFFFFFF)).astype(np.int64)
    packed *= num_classes
    packed += labels
    packed.sort()
    starts = np.flatnonzero(np.concatenate(([True], packed[1:] != packed[:-1])))
    runs = np.diff(starts, append=packed.size)
    keys, cell_labels = np.divmod(packed[starts], num_classes)
    bins = np.cumsum(np.concatenate(([True], keys[1:] != keys[:-1]))) - 1
    counts = np.zeros((bins[-1] + 1, num_classes), dtype=np.int64)
    counts[bins, cell_labels] = runs
    return counts


def fixed_keys(outputs: np.ndarray, lo: np.ndarray, hi: np.ndarray,
               num_bin: int) -> np.ndarray:
    """Fixed-mode bin keys of a (rows, n) float64 output matrix, as int64.

    Row r is binned into ``num_bin`` equal intervals of [lo[r], hi[r]];
    values outside the range clamp into the edge bins, and a row with
    hi <= lo keys everything 0.  ``outputs`` is overwritten.  Where float64
    cannot hold a row's interval width, because hi - lo overflows or the
    width underflows to 0, the row is keyed from halved values or from its
    share of hi - lo instead, so every key of a finite output lies in
    [0, num_bin).
    """
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        span = hi - lo
        width = span / num_bin
        redo = []
        if np.count_nonzero((width > 0) & (width < np.inf)) < width.size:
            wide, thin = np.isinf(span), (span > 0) & (width == 0)
            if wide.any():
                halves = outputs[wide] / 2 - (lo[wide] / 2)[:, None]
                redo.append((wide, halves / ((hi[wide] / 2 - lo[wide] / 2) / num_bin)[:, None]))
            if thin.any():
                redo.append((thin, (outputs[thin] - lo[thin, None]) / span[thin, None] * num_bin))
            redo.append((hi <= lo, 0.0))
        outputs -= lo[:, None]
        outputs /= width[:, None]
        for rows, scaled in redo:
            outputs[rows] = scaled
    np.floor(outputs, out=outputs)
    np.maximum(outputs, 0, out=outputs)  # np.clip, minus its Python overhead
    np.minimum(outputs, num_bin - 1, out=outputs)
    return outputs.astype(np.int64)


def locate_bins(geom: IntervalGeometry, values: np.ndarray) -> np.ndarray:
    """Bin key for each output value under ``geom``, as int64.

    Fixed mode keys by :func:`fixed_keys`, so keys are always valid even for
    outputs never seen at fit time.  Float32 mode returns the bit pattern of
    the single-precision value, with -0.0 normalized to +0.0.
    """
    values = np.asarray(values, dtype=np.float64)
    if geom.mode == "fixed":
        return fixed_keys(values.reshape(1, -1).copy(), np.array([geom.lo]),
                          np.array([geom.hi]), geom.num_bin).reshape(values.shape)
    return float32_values(values).view(np.uint32).astype(np.int64)


def key_reps(geom: IntervalGeometry, keys: np.ndarray) -> np.ndarray:
    """Representative output value of each bin key.

    Fixed-mode bins are represented by their interval midpoint, float32 bins
    by the rounded value itself.  Where float64 cannot hold the interval
    width, the midpoint takes the route :func:`fixed_keys` keys by: halved
    values when hi - lo overflows, a share of hi - lo when the width
    underflows to 0.
    """
    keys = np.asarray(keys, dtype=np.int64)
    if geom.mode == "fixed":
        lo, hi, num_bin = geom.lo, geom.hi, geom.num_bin
        if hi <= lo:
            return np.full(keys.shape, lo, dtype=np.float64)
        width = geom.width
        if width == np.inf:
            return 2 * (lo / 2 + (keys + 0.5) * ((hi / 2 - lo / 2) / num_bin))
        if width == 0:
            return lo + (keys + 0.5) / num_bin * (hi - lo)
        return lo + (keys + 0.5) * width
    return keys.astype(np.uint32).view(np.float32).astype(np.float64)


def fit_histogram(tree: ProgramTree, data: LabeledDataset, cfg: FitnessConfig) -> BinHistogram:
    """Run ``tree`` over every record and histogram the outputs.

    The geometry is anchored to this dataset: fixed mode spans the observed
    [min, max] of the outputs, float32 mode records it for reference.  The
    returned geometry is what must be reused to bin unseen records later.
    """
    y = eval_batch(tree, data.records)
    lo, hi = float(y.min()), float(y.max())
    if cfg.float_resolution:
        geom = IntervalGeometry("float32", lo, hi, FLOAT32_CAPACITY)
        vals, inverse = float32_bins(y)
        reps = vals.astype(np.float64)
        keys = vals.view(np.uint32).astype(np.int64)
    else:
        geom = IntervalGeometry("fixed", lo, hi, cfg.num_bin)
        keys_all = locate_bins(geom, y)
        keys, inverse = np.unique(keys_all, return_inverse=True)
        reps = key_reps(geom, keys)
    C = data.num_classes
    counts = np.bincount(inverse.astype(np.int64) * C + data.labels,
                         minlength=keys.size * C).reshape(keys.size, C)
    return BinHistogram(geom, keys, reps, counts,
                        inverse.astype(np.int32), data.n, C)


def bin_table(hist: BinHistogram, beta: float) -> tuple[tuple[PureBin, ...], tuple[AmbiguousBin, ...]]:
    """Split occupied bins into the pure and ambiguous tables, rep order.

    A bin is pure when its majority class holds at least a ``beta`` fraction
    of its records; majority ties go to the lower class."""
    totals = hist.counts.sum(axis=1)
    y_star = hist.counts.max(axis=1)
    labels = hist.counts.argmax(axis=1)
    pure = y_star / totals >= beta
    pure_bins = tuple(
        PureBin(int(hist.keys[i]), float(hist.reps[i]), int(labels[i]),
                int(totals[i]), int(y_star[i]))
        for i in np.flatnonzero(pure))
    ambiguous = tuple(
        AmbiguousBin(int(hist.keys[i]), float(hist.reps[i]))
        for i in np.flatnonzero(~pure))
    return pure_bins, ambiguous


def gini_fitness(hist: BinHistogram, class_counts: np.ndarray, alpha: float) -> float:
    """Purity-weighted fitness of a histogram, by :func:`gini_scores` with
    ``max_bins`` its capacity capped at its record count."""
    inst = np.asarray(class_counts, dtype=np.float64)
    if inst.shape != (hist.num_classes,):
        raise ValueError("class_counts must align with the histogram's classes")
    if hist.counts[:, ~(inst > 0)].any():
        raise ValueError("histogram contains records of a class with zero count")
    max_bins = min(hist.geometry.capacity, hist.n_records)
    return float(gini_scores(hist.counts[None], inst, alpha, max_bins)[0])


def gini_scores(counts: np.ndarray, class_counts: np.ndarray, alpha: float,
                max_bins: int) -> np.ndarray:
    """Fitness of each of P histograms given as a (P, bins, classes) count
    array; higher is fitter.

    Each occupied bin i contributes, for each class c present in the data,

        (count(i, c) / (total(i) * n_c))**2 * n_c

    where n_c is the dataset-wide size of class c.  A perfectly separating
    histogram scores 1.0 for two balanced classes; lumping everything into
    one bin scores lower.  On top of that, a usage bonus of

        alpha * occupied_bins / max_bins

    rewards programs that spread records over more bins.  The terms are
    summed in bin order, empty bins adding 0.
    """
    inst = np.asarray(class_counts, dtype=np.float64)
    active = inst > 0
    totals = counts.sum(axis=2).astype(np.float64)
    occupied = totals > 0
    frac = counts[:, :, active] / (np.where(occupied, totals, 1.0)[:, :, None] * inst[active])
    gini = (frac * frac * inst[active]).reshape(len(counts), -1).sum(axis=1)
    return gini + alpha * (occupied.sum(axis=1) / max_bins)


def nearest_pure_bin(pure_bins, query: float):
    """The pure bin whose representative is closest to ``query``.

    ``pure_bins`` must be ordered by ascending representative.  Exact
    distance ties go to the lower representative.  Returns None when the
    table is empty.
    """
    if not pure_bins:
        return None
    reps = np.array([b.rep for b in pure_bins], dtype=np.float64)
    return pure_bins[int(nearest_positions(reps, np.array([query]))[0])]


def nearest_positions(sorted_reps: np.ndarray, queries: np.ndarray) -> np.ndarray:
    """Index of the nearest value in ``sorted_reps`` for each query.

    Ties go to the smaller value.  Vectorized companion of
    :func:`nearest_pure_bin`.
    """
    pos = np.searchsorted(sorted_reps, queries)
    left = np.clip(pos - 1, 0, sorted_reps.size - 1)
    right = np.clip(pos, 0, sorted_reps.size - 1)
    take_left = np.abs(queries - sorted_reps[left]) <= np.abs(sorted_reps[right] - queries)
    return np.where(take_left, left, right)


def match_positions(sorted_vals: np.ndarray, queries: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Exact membership of ``queries`` in a sorted array.

    Returns (found mask, position of the match where found).
    """
    pos = np.minimum(np.searchsorted(sorted_vals, queries), sorted_vals.size - 1)
    found = sorted_vals[pos] == queries if sorted_vals.size \
        else np.zeros(queries.shape, dtype=bool)
    return found, pos


@dataclass(frozen=True)
class LevelLookup:
    """One stack level's answer rule, compiled from its frozen bin tables.

    ``pure`` and ``ambiguous`` hold the values the rule searches, ascending:
    bin keys in fixed mode, representatives in float32 mode.  ``labels``
    is aligned with ``pure``.
    """

    geometry: IntervalGeometry
    pure: np.ndarray
    labels: np.ndarray
    ambiguous: np.ndarray

    @classmethod
    def compile(cls, geometry: IntervalGeometry, pure_bins, ambiguous_bins) -> LevelLookup:
        """Lookup of a level whose bins are in ascending search value."""
        fixed = geometry.mode == "fixed"

        def search(bins):
            return np.array([b.key if fixed else b.rep for b in bins],
                            dtype=np.int64 if fixed else np.float64)
        return cls(geometry, search(pure_bins),
                   np.array([b.label for b in pure_bins], dtype=np.int64),
                   search(ambiguous_bins))

    def answer(self, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Which program outputs this level answers, and with which label.

        An output in a pure bin is answered with that bin's label.  In fixed
        mode every other output passes down.  In float32 mode an output in
        an ambiguous bin passes down, and an output in no stored bin (never
        seen at fit time) is answered by the nearest pure bin, ties to the
        lower representative; the rule runs once per distinct float32
        output (:func:`float32_bins`) and its answers are spread back to
        every output.  Returns (answered mask, label per output, valid where
        answered).
        """
        if not self.pure.size:
            return np.zeros(y.shape, dtype=bool), np.zeros(y.shape, dtype=np.int64)
        if self.geometry.mode == "fixed":
            answered, pos = match_positions(self.pure, locate_bins(self.geometry, y))
        else:
            vals, inverse = float32_bins(y)
            queries = vals.astype(np.float64)
            answered, pos = match_positions(self.pure, queries)
            unseen = ~answered & ~match_positions(self.ambiguous, queries)[0]
            pos[unseen] = nearest_positions(self.pure, queries[unseen])
            answered |= unseen
            return answered[inverse], self.labels[pos][inverse]
        return answered, self.labels[pos]
