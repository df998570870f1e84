"""Seeded input generators owned by the benchmark.

They copy the recipes the benchmark needs instead of importing test helpers,
so that a change to the test suite cannot shift the benchmark's inputs.
Every generator returns ``(columns, X, labels, class_names)`` and depends on
nothing but its arguments.
"""

from __future__ import annotations

import numpy as np


def surrogate(n: int, seed):
    """8-attribute, 2-class surrogate of large discretized tabular data.

    Same recipe as the test suite's ``large_surrogate``: two strong
    attributes with hundreds of distinct rounded values, one three-valued
    attribute, five four-valued noise attributes, classes 55/45.
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
    return [f"x{j}" for j in range(8)], X, labels, ("normal", "event")


UCI_SHIFTS = (1.0, 0.8, 0.6, 0.5, 0.4, 0.3)
UCI_SHIFT_SCALE = 1.5


def uci_sized(n: int, d: int, seed):
    """UCI-sized two-class set: Bernoulli(0.4) labels, N(0, 1) attributes.

    The first six attributes are shifted by +-1.5 * (1, .8, .6, .5, .4, .3)
    by class; the rest are noise.  Values are rounded to 0.01.
    """
    rng = np.random.default_rng(seed)
    labels = (rng.random(n) < 0.4).astype(np.int64)
    X = rng.normal(0.0, 1.0, size=(n, d))
    sign = np.where(labels == 1, 1.0, -1.0)
    shifts = UCI_SHIFT_SCALE * np.array(UCI_SHIFTS[:d])
    X[:, :shifts.size] += sign[:, None] * shifts[None, :]
    X = np.round(X, 2)
    return [f"a{j}" for j in range(d)], X, labels, ("neg", "pos")


def write_csv(path: str, columns, X: np.ndarray, labels: np.ndarray, class_names) -> None:
    """Headered CSV, label last.  Cells are written with two decimals, which
    round-trips every value the generators produce exactly."""
    names = np.asarray(class_names, dtype=object)[labels]
    row = ",".join(["%.2f"] * X.shape[1]) + ",%s\n"
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(list(columns) + ["class"]) + "\n")
        for chunk in range(0, X.shape[0], 65536):
            rows = zip(*X[chunk:chunk + 65536].T.tolist(), names[chunk:chunk + 65536])
            fh.write("".join(row % r for r in rows))
