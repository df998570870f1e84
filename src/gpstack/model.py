"""Saving and loading trained stacks as versioned text.

The format is line oriented and fully deterministic: every float is written
with ``repr`` (shortest exact round-trip), so saving, loading, and saving
again reproduces the file byte for byte.  Wall-clock timings are therefore
deliberately not stored; a loaded stack reports zero seconds.
"""

from __future__ import annotations

import math

import numpy as np

from .binning import (FLOAT32_CAPACITY, AmbiguousBin, IntervalGeometry, PureBin, key_reps,
                      locate_bins)
from .programs import TreeFormatError, format_tree, parse_tree
from .training import ChampionEntry, EnsembleStack, TrainerConfig, TrainingLog

MAGIC = "gpstack-model v1"


class ModelFormatError(Exception):
    """Raised when a model file cannot be parsed or is inconsistent."""


def dumps(stack: EnsembleStack) -> str:
    """Serialize a stack to the versioned text format."""
    for name in stack.classes:
        if "\n" in name or "\r" in name:
            raise ModelFormatError("class names must not contain line breaks")
    cfg = stack.config
    lines = [
        MAGIC,
        f"attributes {stack.n_attributes}",
        f"mode {'float32' if cfg.float_resolution else 'fixed'}",
        f"num_bin {cfg.num_bin}",
        f"beta {cfg.beta!r}",
        f"alpha {cfg.alpha!r}",
        f"max_boost_epoch {cfg.max_boost_epoch}",
        f"max_gp_epoch {cfg.max_gp_epoch}",
        f"new_pop_size {cfg.new_pop_size}",
        f"gap {cfg.gap}",
        f"seed {cfg.seed}",
        f"classes {len(stack.classes)}",
    ]
    for i, name in enumerate(stack.classes):
        lines.append(f"class {i} {name}")
    lines.append(f"majority_class {stack.majority_class}")
    lines.append("residual_sizes " + " ".join(str(v) for v in stack.log.residual_sizes))
    lines.append(f"stalled {1 if stack.log.stalled else 0}")
    lines.append(f"entries {len(stack.entries)}")
    for k, e in enumerate(stack.entries, start=1):
        g = e.geometry
        lines.append(f"entry {k}")
        lines.append(f"boost_epoch {e.boost_epoch}")
        lines.append(f"fitness {e.fitness!r}")
        lines.append(f"records_claimed {e.records_claimed}")
        lines.append(f"beta {e.beta!r}")
        lines.append(f"geometry {g.mode} {g.lo!r} {g.hi!r} {g.num_bin}")
        lines.append(f"tree {format_tree(e.tree)}")
        lines.append(f"pure_bins {len(e.pure_bins)}")
        for b in e.pure_bins:
            lines.append(f"pure {b.key} {b.rep!r} {b.label} {b.total} {b.y_star}")
        lines.append(f"ambiguous_bins {len(e.ambiguous_bins)}")
        for b in e.ambiguous_bins:
            lines.append(f"ambig {b.key} {b.rep!r}")
        lines.append("end")
    lines.append("end")
    return "\n".join(lines) + "\n"


class _Cursor:
    """Line reader that reports 1-based line numbers in errors."""

    def __init__(self, text: str):
        self.lines = text.split("\n")
        if self.lines and self.lines[-1] == "":
            self.lines.pop()
        self.pos = 0

    def next(self) -> str:
        if self.pos >= len(self.lines):
            raise ModelFormatError(f"line {self.pos + 1}: unexpected end of file")
        line = self.lines[self.pos]
        self.pos += 1
        return line

    def fail(self, message: str, line: int | None = None):
        raise ModelFormatError(f"line {self.pos if line is None else line}: {message}")

    def expect(self, keyword: str) -> list[str]:
        line = self.next()
        parts = line.split(" ")
        if parts[0] != keyword:
            self.fail(f"expected {keyword!r}, found {parts[0]!r}")
        return parts[1:]

    def scalar(self, keyword: str, parse, what: str):
        parts = self.expect(keyword)
        if len(parts) != 1:
            self.fail(f"{keyword} takes exactly one value")
        try:
            return parse(parts[0])
        except ValueError:
            self.fail(f"cannot parse {parts[0]!r} as {what}")


def loads(text: str) -> EnsembleStack:
    """Parse the text format back into a stack.

    Besides syntax, every entry is checked against the header: its geometry
    mode must equal ``mode``, its program may read only attributes below
    ``attributes``, and its pure and ambiguous bins must each be strictly
    ascending in the value the lookups search: the key in fixed mode, the
    rep in float32 mode.  A fixed-mode bin's key must lie in
    ``[0, num_bin)`` and its rep must be exactly the one its key and the
    entry's geometry give; a float32-mode bin's key must be the bits of its
    rep, and its rep a float32 value.  An entry's ``beta`` must lie in
    (0, 1] and its ``fitness`` must be finite.  Its geometry's ``lo`` and
    ``hi`` must be finite with ``lo <= hi``, and a float32 geometry's
    ``num_bin`` must be ``FLOAT32_CAPACITY``.

    The stack must also be one training can write.  Every entry's ``beta``
    is the header's.  Entries' ``fitness`` rises strictly from 0 (each
    champion beats the last), and their ``boost_epoch`` rises strictly from
    1 up to at most ``max_boost_epoch``.
    A pure bin holds ``0 < y_star <= total`` with ``y_star / total >= beta``.
    An entry claims exactly its pure bins' records, so ``records_claimed``
    is the sum of their ``total``s, and ``residual_sizes`` holds one
    non-negative size more than there are entries, falling by each entry's
    ``records_claimed``.  Last, the text must be what :func:`dumps`
    writes for the stack it holds, line for line, so number spellings the
    writer never emits (``+1``, ``1_0``, ``007``, non-ASCII digits) are
    rejected rather than silently rewritten on the next save.
    Errors name the offending line.
    """
    cur = _Cursor(text)
    first = cur.next()
    if first != MAGIC:
        cur.fail(f"bad header {first!r}, expected {MAGIC!r}")

    n_attributes = cur.scalar("attributes", int, "an integer")
    mode = cur.scalar("mode", str, "a mode")
    if mode not in ("fixed", "float32"):
        cur.fail(f"unknown mode {mode!r}")
    num_bin = cur.scalar("num_bin", int, "an integer")
    beta = cur.scalar("beta", float, "a float")
    alpha = cur.scalar("alpha", float, "a float")
    max_boost = cur.scalar("max_boost_epoch", int, "an integer")
    max_gp = cur.scalar("max_gp_epoch", int, "an integer")
    pop_size = cur.scalar("new_pop_size", int, "an integer")
    gap = cur.scalar("gap", int, "an integer")
    seed = cur.scalar("seed", int, "an integer")

    n_classes = cur.scalar("classes", int, "an integer")
    classes: list[str] = []
    for i in range(n_classes):
        line = cur.next()
        head = f"class {i} "
        if not line.startswith(head):
            cur.fail(f"expected {head.strip()!r} line")
        classes.append(line[len(head):])
    majority = cur.scalar("majority_class", int, "an integer")
    if not 0 <= majority < n_classes:
        cur.fail("majority_class out of range")

    parts = cur.expect("residual_sizes")
    sizes_line = cur.pos
    try:
        residual_sizes = [int(p) for p in parts if p != ""]
    except ValueError:
        cur.fail("residual_sizes must be integers")
    if any(v < 0 for v in residual_sizes):
        cur.fail("residual_sizes must be non-negative")
    stalled = cur.scalar("stalled", int, "an integer")
    if stalled not in (0, 1):
        cur.fail("stalled must be 0 or 1")

    try:
        config = TrainerConfig(max_boost_epoch=max_boost, max_gp_epoch=max_gp,
                               new_pop_size=pop_size, gap=gap, num_bin=num_bin,
                               float_resolution=(mode == "float32"), beta=beta,
                               alpha=alpha, seed=seed)
    except ValueError as exc:
        cur.fail(f"invalid configuration: {exc}")

    n_entries = cur.scalar("entries", int, "an integer")
    if len(residual_sizes) != n_entries + 1:
        cur.fail(f"residual_sizes holds {len(residual_sizes)} values, "
                 f"{n_entries} entries need {n_entries + 1}", sizes_line)
    entries: list[ChampionEntry] = []
    for k in range(1, n_entries + 1):
        idx = cur.scalar("entry", int, "an integer")
        if idx != k:
            cur.fail(f"expected entry {k}, found {idx}")
        entries.append(_parse_entry(cur, n_classes, n_attributes, mode, config,
                                    entries[-1] if entries else None,
                                    residual_sizes[k - 1] - residual_sizes[k]))
    tail = cur.next()
    if tail != "end":
        cur.fail(f"expected final 'end', found {tail!r}")
    if cur.pos != len(cur.lines):
        raise ModelFormatError(f"line {cur.pos + 1}: trailing content after model")

    log = TrainingLog(residual_sizes=residual_sizes, stalled=bool(stalled))
    stack = EnsembleStack(tuple(entries), tuple(classes), n_attributes,
                          majority, config, log)
    for i, (line, canonical) in enumerate(zip(cur.lines, dumps(stack).split("\n")), start=1):
        if line != canonical:
            raise ModelFormatError(f"line {i}: {line!r} is not as saving writes it: {canonical!r}")
    return stack


def _parse_entry(cur: _Cursor, n_classes: int, n_attributes: int, mode: str,
                 config: TrainerConfig, prev: ChampionEntry | None,
                 residual_step: int) -> ChampionEntry:
    """One entry, checked against the header and the entry before it;
    ``residual_step`` is how much ``residual_sizes`` falls at this entry."""
    boost_epoch = cur.scalar("boost_epoch", int, "an integer")
    last_epoch = prev.boost_epoch if prev else 0
    if not last_epoch < boost_epoch <= config.max_boost_epoch:
        cur.fail(f"boost_epoch must lie in ({last_epoch}, {config.max_boost_epoch}]")
    fitness = cur.scalar("fitness", float, "a float")
    if not math.isfinite(fitness):
        cur.fail("fitness must be finite")
    bar = prev.fitness if prev else 0.0
    if not fitness > bar:
        cur.fail(f"fitness must exceed {bar!r}, the fitness bar training sets here")
    claimed = cur.scalar("records_claimed", int, "an integer")
    claimed_line = cur.pos
    if claimed != residual_step:
        cur.fail(f"records_claimed {claimed} disagrees with residual_sizes, "
                 f"which fall by {residual_step} here")
    beta = cur.scalar("beta", float, "a float")
    if not 0.0 < beta <= 1.0:
        cur.fail("beta must lie in (0, 1]")
    if beta != config.beta:
        cur.fail(f"beta {beta!r} differs from the header's {config.beta!r}, "
                 "which training gives every entry")

    parts = cur.expect("geometry")
    if len(parts) != 4:
        cur.fail("geometry takes mode, lo, hi, num_bin")
    try:
        geometry = IntervalGeometry(parts[0], float(parts[1]), float(parts[2]), int(parts[3]))
    except ValueError as exc:
        cur.fail(f"bad geometry: {exc}")
    if geometry.mode != mode:
        cur.fail(f"geometry mode {geometry.mode!r} disagrees with model mode {mode!r}")
    # training writes its outputs' finite extremes, and FLOAT32_CAPACITY as float32 num_bin
    if not (math.isfinite(geometry.lo) and math.isfinite(geometry.hi)):
        cur.fail("geometry lo and hi must be finite")
    if geometry.lo > geometry.hi:
        cur.fail(f"geometry lo {geometry.lo!r} exceeds hi {geometry.hi!r}")
    if mode == "float32" and geometry.num_bin != FLOAT32_CAPACITY:
        cur.fail(f"float32 geometry num_bin must be {FLOAT32_CAPACITY}, got {geometry.num_bin}")

    line = cur.next()
    if not line.startswith("tree "):
        cur.fail("expected 'tree' line")
    try:
        tree = parse_tree(line[len("tree "):])
    except TreeFormatError as exc:
        cur.fail(f"bad program: {exc}")
    for head, arg in tree.code:
        if head == "attr" and not 0 <= arg < n_attributes:
            cur.fail(f"program reads attribute {arg}, model has {n_attributes} attributes")

    n_pure = cur.scalar("pure_bins", int, "an integer")
    first_pure = cur.pos + 1
    pure: list[PureBin] = []
    for _ in range(n_pure):
        parts = cur.expect("pure")
        if len(parts) != 5:
            cur.fail("pure takes key, rep, label, total, y_star")
        try:
            b = PureBin(int(parts[0]), float(parts[1]), int(parts[2]),
                        int(parts[3]), int(parts[4]))
        except ValueError:
            cur.fail("cannot parse pure bin fields")
        if not 0 <= b.label < n_classes:
            cur.fail("pure bin label out of range")
        if not 0 < b.y_star <= b.total:
            cur.fail("pure bin needs 0 < y_star <= total")
        if b.y_star / b.total < beta:
            cur.fail(f"pure bin's majority share {b.y_star}/{b.total} is below beta {beta!r}")
        if mode == "fixed":
            _check_fixed_rep(cur, geometry, b)
        pure.append(b)
    _check_ascending(cur, "pure", pure, mode)
    if mode == "float32":
        _check_float32_keys(cur, geometry, pure, first_pure)
    totals = sum(b.total for b in pure)
    if totals != claimed:
        cur.fail(f"records_claimed {claimed} is not the sum of the pure bins' totals, "
                 f"{totals}", claimed_line)
    n_ambig = cur.scalar("ambiguous_bins", int, "an integer")
    first_ambig = cur.pos + 1
    ambiguous: list[AmbiguousBin] = []
    for _ in range(n_ambig):
        parts = cur.expect("ambig")
        if len(parts) != 2:
            cur.fail("ambig takes key and rep")
        try:
            b = AmbiguousBin(int(parts[0]), float(parts[1]))
        except ValueError:
            cur.fail("cannot parse ambiguous bin fields")
        if mode == "fixed":
            _check_fixed_rep(cur, geometry, b)
        ambiguous.append(b)
    _check_ascending(cur, "ambiguous", ambiguous, mode)
    if mode == "float32":
        _check_float32_keys(cur, geometry, ambiguous, first_ambig)
    if cur.next() != "end":
        cur.fail("expected 'end' after entry")
    return ChampionEntry(tree, fitness, geometry, tuple(pure), tuple(ambiguous),
                         beta, boost_epoch, claimed)


def _check_fixed_rep(cur: _Cursor, geometry: IntervalGeometry, b) -> None:
    if not 0 <= b.key < geometry.num_bin:
        cur.fail(f"bin key {b.key} out of range [0, {geometry.num_bin})")
    try:
        rep = float(key_reps(geometry, b.key))
    except OverflowError:
        cur.fail(f"bin key {b.key} out of range")
    if rep != b.rep:
        cur.fail(f"bin rep {b.rep!r} disagrees with key {b.key}, which gives {rep!r}")


def _check_float32_keys(cur: _Cursor, geometry: IntervalGeometry, bins: list,
                        first_line: int) -> None:
    # one vectorised pass, as float32 bin tables can be large
    reps = np.array([b.rep for b in bins], dtype=np.float64)
    bits = locate_bins(geometry, reps)
    bad = key_reps(geometry, bits) != reps
    bad |= np.array([b.key != k for b, k in zip(bins, bits.tolist())], dtype=bool)
    if bad.any():
        i = int(np.argmax(bad))
        cur.fail(f"bin key {bins[i].key} and rep {bins[i].rep!r} are not one float32 value, "
                 f"whose bits would be {int(bits[i])}", first_line + i)


def _check_ascending(cur: _Cursor, kind: str, bins: list, mode: str) -> None:
    # lookups search fixed-mode keys and float32-mode reps
    order = [b.key if mode == "fixed" else b.rep for b in bins]
    if not all(a < b for a, b in zip(order, order[1:])):
        what = "keys" if mode == "fixed" else "reps"
        cur.fail(f"{kind} bins are not in strictly ascending {what}")


def save_model(stack: EnsembleStack, path: str) -> None:
    """Write the stack to ``path`` (UTF-8, LF line endings)."""
    text = dumps(stack)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def load_model(path: str) -> EnsembleStack:
    """Read a stack previously written by :func:`save_model`."""
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            text = fh.read()
    except OSError as exc:
        raise ModelFormatError(f"cannot read {path}: {exc}") from exc
    return loads(text)
