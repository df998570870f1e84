"""Shared data generators for the test suite."""

from __future__ import annotations

import numpy as np

from gpstack.binning import BinHistogram, IntervalGeometry
from gpstack.dataset import LabeledDataset


def random_dataset(rng: np.random.Generator, n: int | None = None,
                   d: int | None = None, gridded: bool = True) -> LabeledDataset:
    """Small random two-class dataset with mild class signal.

    Attribute 0 carries signal (class-shifted); the rest are noise.  With
    ``gridded`` the values are rounded so repeated values (and therefore
    non-singleton float32 bins) actually occur.
    """
    n = n if n is not None else int(rng.integers(6, 51))
    d = d if d is not None else int(rng.integers(1, 5))
    labels = rng.integers(0, 2, size=n).astype(np.int64)
    while len(np.unique(labels)) < 2:
        labels = rng.integers(0, 2, size=n).astype(np.int64)
    X = rng.normal(0.0, 1.0, size=(n, d))
    X[:, 0] += np.where(labels == 1, 1.5, -1.5)
    if gridded:
        X = np.round(X, 1)
    return LabeledDataset(X, labels, ("neg", "pos"))


def separable_dataset(n_per_class: int = 20, d: int = 2,
                      seed: int = 0) -> LabeledDataset:
    """Cleanly separable two-class dataset: attribute 0 splits the classes."""
    rng = np.random.default_rng(seed)
    X = rng.normal(0.0, 0.3, size=(2 * n_per_class, d))
    X[:n_per_class, 0] -= 3.0
    X[n_per_class:, 0] += 3.0
    labels = np.array([0] * n_per_class + [1] * n_per_class, dtype=np.int64)
    return LabeledDataset(X, labels, ("neg", "pos"))


def large_surrogate(n: int = 800_000, seed: int = 2024) -> LabeledDataset:
    """Synthetic 8-attribute, 2-class dataset with learnable structure.

    Built to resemble large discretized tabular data: the strong attributes
    take hundreds of distinct rounded values, the noise attributes only a
    handful, and classes are imbalanced 55/45.
    """
    rng = np.random.default_rng(seed)
    labels = (rng.random(n) < 0.45).astype(np.int64)
    sign = np.where(labels == 1, 1.0, -1.0)
    x0 = np.round(rng.normal(1.2 * sign, 0.5), 2)
    x1 = np.round(rng.normal(-0.8 * sign, 0.8), 2)
    probs = np.where(labels[:, None] == 1,
                     np.array([[0.2, 0.3, 0.5]]), np.array([[0.5, 0.3, 0.2]]))
    x2 = (rng.random(n)[:, None] > probs.cumsum(axis=1)).sum(axis=1).astype(np.float64)
    noise = rng.integers(0, 4, size=(n, 5)).astype(np.float64)
    X = np.column_stack([x0, x1, x2, noise])
    return LabeledDataset(X, labels, ("normal", "event"))


def one_bin_histogram(counts) -> BinHistogram:
    """A histogram holding one occupied bin with these per-class counts."""
    n = sum(counts)
    return BinHistogram(IntervalGeometry("fixed", 0.0, 1.0, 1), np.array([0]),
                        np.array([0.5]), np.array([counts]), np.zeros(n, dtype=np.int32),
                        n, len(counts))
