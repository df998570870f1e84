"""Programs: arithmetic expressions over record attributes.

A program is an immutable binary expression whose leaves read an attribute
or hold a constant and whose internal nodes apply one of four protected
arithmetic operators.  It is stored as one flat tuple of nodes in preorder,
each node the pair its text form writes: ``("attr", index)``,
``("const", value)`` or ``(op, None)``.  Programs map a record to a single
real number; that number is what downstream histogram binning consumes.

The protected arithmetic is written once and shared by both evaluators:
:func:`eval_batch` runs one program over every record, and
:func:`eval_population` runs many programs at once as one node matrix,
evaluated by (height, operator) group, with the same output bits.
"""

from __future__ import annotations

import bisect
import itertools
import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

OPS: tuple[str, ...] = ("add", "sub", "mul", "pdiv")

DIV_GUARD = 1e-9          # |denominator| below this makes pdiv return 1.0
FINITE_CLAMP = 1e12       # overflow/inf replacement magnitude, sign kept
ATTRIBUTE_PROB = 0.9      # chance a fresh terminal reads an attribute
CONST_RANGE = 1.0         # fresh constants drawn uniform from [-1, 1]
MUTATION_RATE = 0.1       # per-node parameter mutation probability
MUTATION_SIGMA = 0.1      # stddev of Gaussian nudges applied to constants

_OP_SET = frozenset(OPS)
_UFUNCS = {"add": np.add, "sub": np.subtract, "mul": np.multiply}


@dataclass(frozen=True)
class RngStream:
    """Reproducible random source addressed by a root seed plus a path.

    Child streams extend the path, so every site in a run gets an
    independent generator that depends only on its address, never on how
    much randomness other sites consumed.  Training draws boost epoch
    ``b``'s initial stumps from the generator at ``(b, 0)`` and breeds its
    generation ``j`` from the one at ``(b, j)``.

    The generator at an address is numpy's
    ``default_rng(SeedSequence(seed, spawn_key=path))``.
    """

    seed: int
    path: tuple[int, ...] = ()

    def child(self, *ids: int) -> "RngStream":
        return RngStream(self.seed, self.path + tuple(map(int, ids)))

    def generator(self) -> np.random.Generator:
        """A fresh, independent generator for this address.  Raises
        ``ValueError`` for a negative seed or path entry, as numpy does."""
        return np.random.default_rng(np.random.SeedSequence(self.seed, spawn_key=self.path))


@dataclass(frozen=True)
class ProgramTree:
    """A program as its preorder node list.

    ``code`` holds every node once, each operator before its left subtree
    and that before its right subtree.  A node is ``("attr", index)``,
    ``("const", value)`` or ``(op, None)`` with ``op`` in :data:`OPS`, so
    the heads are the tokens of :func:`format_tree`.
    """

    code: tuple[tuple[str, int | float | None], ...]

    @property
    def node_count(self) -> int:
        return len(self.code)


def _operate(op: str, a: np.ndarray, b: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``a op b`` elementwise into ``out``: the protected arithmetic every
    evaluator runs, where pdiv yields 1.0 wherever |b| < ``DIV_GUARD``."""
    if op != "pdiv":
        return _UFUNCS[op](a, b, out=out)
    out.fill(1.0)
    return np.divide(a, b, out=out, where=np.abs(b) >= DIV_GUARD)


def _clamp(r: np.ndarray) -> np.ndarray:
    """``r`` with every non-finite value replaced in place: NaN by 0.0 and
    +-inf by +-``FINITE_CLAMP``."""
    if not np.isfinite(r).all():
        np.nan_to_num(r, copy=False, nan=0.0, posinf=FINITE_CLAMP, neginf=-FINITE_CLAMP)
    return r


def eval_batch(tree: ProgramTree, records: np.ndarray) -> np.ndarray:
    """Evaluate the program on every row of an (n, d) matrix at once.

    Protected semantics: pdiv yields 1.0 where |denominator| < 1e-9, and any
    non-finite intermediate is replaced by +-1e12 with its sign kept (NaN by
    0), so the output is always finite.  Finite values are never clipped.
    """
    records = np.asarray(records, dtype=np.float64)
    n = records.shape[0]
    stack: list[np.ndarray] = []
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        # right to left, an operator finds its left operand on top of the stack
        for head, arg in reversed(tree.code):
            if head == "attr":
                stack.append(records[:, arg])
            elif head == "const":
                stack.append(np.full(n, arg, dtype=np.float64))
            else:
                a = stack.pop()
                stack.append(_clamp(_operate(head, a, stack.pop(), np.empty(n))))
    out = stack[0]
    return out if out.base is None else out.copy()


def eval_population(trees: Sequence[ProgramTree], records: np.ndarray) -> np.ndarray:
    """Every program on every row of an (n, d) matrix, as a (P, n) array
    whose row p equals ``eval_batch(trees[p], records)`` bit for bit.

    All nodes of all programs are rows of one (nodes, n) matrix: attribute
    reads, then constants, then operators grouped by (height, operator),
    lower heights first, where an operator's height is 1 + its taller
    operand's.  Every operand of a group sits at a lower height, so each
    group is one gather per operand and one call of the protected
    arithmetic.  Finiteness is checked once, over the whole matrix; only
    when some value is not finite are the groups run again, each clamped as
    :func:`eval_batch` clamps, which is exact because every intermediate is
    a row of the matrix.
    """
    records = np.asarray(records, dtype=np.float64)
    attr_at: list[int] = []
    attrs: list[int] = []
    const_at: list[int] = []
    consts: list[float] = []
    # (height, operator) -> its nodes, each followed by its left and right operand
    groups: dict[tuple[int, str], list[int]] = {}
    roots: list[int] = []
    base = 0
    for tree in trees:
        roots.append(base)
        at = base = base + tree.node_count
        pending: list[tuple[int, int]] = []  # (node, height) of operands not yet consumed
        # right to left, an operator finds its left operand on top of the stack
        for head, arg in reversed(tree.code):
            at -= 1
            if head in _OP_SET:
                left, h_left = pending.pop()
                right, h_right = pending.pop()
                height = (h_left if h_left > h_right else h_right) + 1
                group = groups.get((height, head))
                if group is None:
                    groups[height, head] = [at, left, right]
                else:
                    group += (at, left, right)
                pending.append((at, height))
                continue
            if head == "attr":
                attr_at.append(at)
                attrs.append(arg)
            else:
                const_at.append(at)
                consts.append(arg)
            pending.append((at, 0))

    keys = sorted(groups)
    n_attr = len(attr_at)
    leaves = n_attr + len(const_at)
    ops = np.array([v for key in keys for v in groups[key]], dtype=np.int64).reshape(-1, 3)
    row = np.empty(base, dtype=np.int64)  # each node's row of the matrix
    row[attr_at] = np.arange(n_attr)
    row[const_at] = np.arange(n_attr, leaves)
    row[ops[:, 0]] = np.arange(leaves, base)
    lefts, rights = row[ops[:, 1]], row[ops[:, 2]]
    spans = []
    stop = leaves
    for key in keys:
        start, stop = stop, stop + len(groups[key]) // 3
        spans.append((key[1], start, stop,
                      lefts[start - leaves:stop - leaves], rights[start - leaves:stop - leaves]))

    values = np.empty((base, records.shape[0]))
    values[:n_attr] = records[:, attrs].T
    values[n_attr:leaves] = np.array(consts, dtype=np.float64)[:, None]
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for clamp in (False, True):
            for op, start, stop, left, right in spans:
                out = _operate(op, values.take(left, axis=0), values.take(right, axis=0),
                               values[start:stop])
                if clamp:
                    _clamp(out)
            if clamp or np.isfinite(values).all():
                break
    return values[row[roots]]


def eval_record(tree: ProgramTree, record: np.ndarray) -> float:
    """Evaluate the program on a single record."""
    row = np.asarray(record, dtype=np.float64).reshape(1, -1)
    return float(eval_batch(tree, row)[0])


def _random_terminals(n: int, d: int, rng: np.random.Generator) -> list[tuple[str, int | float]]:
    """``n`` fresh terminals from three array draws of ``n`` each: kinds
    (a uniform below 0.9 reads an attribute), attribute indices uniform in
    ``[0, d)``, and constants uniform in [-1, 1].  Terminal ``i`` takes the
    ``i``-th attribute or the ``i``-th constant, whichever its kind says."""
    reads = (rng.random(n) < ATTRIBUTE_PROB).tolist()
    attrs = rng.integers(d, size=n).tolist()
    consts = rng.uniform(-CONST_RANGE, CONST_RANGE, n).tolist()
    return [("attr", a) if r else ("const", c) for r, a, c in zip(reads, attrs, consts)]


def init_stump(n: int, d: int, rng: np.random.Generator) -> tuple[ProgramTree, ...]:
    """``n`` fresh single-node programs, each an attribute read with
    probability 0.9, else a uniform constant in [-1, 1]."""
    if d < 1:
        raise ValueError("need at least one attribute")
    return tuple(ProgramTree((t,)) for t in _random_terminals(n, d, rng))


def grow_clone(parents: Sequence[ProgramTree], d: int,
               rng: np.random.Generator) -> tuple[ProgramTree, ...]:
    """One offspring per parent: a copy with one leaf grown into an
    operator node.

    A uniformly chosen leaf (preorder order) becomes the left child of a new
    operator with a uniformly chosen op; the right child is a fresh random
    terminal.  The draws are arrays over the parents in order: one
    ``integers`` call with each parent's leaf count as its high, the
    operators, then the terminals (kinds, attributes, constants).  Parents
    are untouched, and each offspring has its parent's node count + 2.
    """
    found: dict[int, list[int]] = {}  # leaf positions, once per distinct parent
    leaves = []
    for parent in parents:
        if id(parent) not in found:
            found[id(parent)] = [i for i, (head, _) in enumerate(parent.code)
                                 if head not in _OP_SET]
        leaves.append(found[id(parent)])
    picks = rng.integers([len(ls) for ls in leaves]).tolist()
    ops = rng.integers(len(OPS), size=len(parents)).tolist()
    terminals = _random_terminals(len(parents), d, rng)
    offspring = []
    for parent, ls, pick, op, terminal in zip(parents, leaves, picks, ops, terminals):
        code, at = parent.code, ls[pick]
        offspring.append(ProgramTree(code[:at] + ((OPS[op], None), code[at], terminal)
                                     + code[at + 1:]))
    return tuple(offspring)


def mutate_params(trees: Sequence[ProgramTree], d: int, rng: np.random.Generator,
                  rate: float = MUTATION_RATE,
                  sigma: float = MUTATION_SIGMA) -> tuple[ProgramTree, ...]:
    """Per-node parameter mutation of every tree; structure and node counts
    never change.

    One mask draws a uniform per node over the trees' nodes taken end to
    end, each tree in preorder; a node below ``rate`` is hit.  The hit nodes
    then draw their replacements in node order, as three arrays: attribute
    indices resampled uniformly for the hit attributes, Gaussian(0, sigma)
    nudges for the hit constants, and operators resampled uniformly for the
    hit operators.  A tree with no hit node is returned itself.
    """
    ends = list(itertools.accumulate(len(t.code) for t in trees))
    located = []  # (tree, node) of each hit, in node order
    for hit in np.flatnonzero(rng.random(ends[-1] if ends else 0) < rate).tolist():
        t = bisect.bisect_right(ends, hit)
        located.append((t, hit - ends[t] + len(trees[t].code)))
    heads = [trees[t].code[i][0] for t, i in located]
    n_attr, n_const = heads.count("attr"), heads.count("const")
    attrs = iter(rng.integers(d, size=n_attr).tolist())
    nudges = iter(rng.normal(0.0, sigma, n_const).tolist())
    ops = iter(rng.integers(len(OPS), size=len(heads) - n_attr - n_const).tolist())
    codes: dict[int, list] = {}
    for (t, i), head in zip(located, heads):
        code = codes.setdefault(t, list(trees[t].code))
        if head == "attr":
            code[i] = ("attr", next(attrs))
        elif head == "const":
            code[i] = ("const", code[i][1] + next(nudges))
        else:
            code[i] = (OPS[next(ops)], None)
    return tuple(ProgramTree(tuple(codes[t])) if t in codes else tree
                 for t, tree in enumerate(trees))


def format_tree(tree: ProgramTree) -> str:
    """Prefix text form, e.g. ``(add (attr 0) (const 0.25))``.

    Constants are written with ``repr`` so parsing the text reproduces the
    program bit for bit.
    """
    parts: list[str] = []
    pending: list[int] = []  # children still to write, per open operator
    for head, arg in tree.code:
        if head in OPS:
            parts.append(f"({head} ")
            pending.append(2)
            continue
        parts.append(f"({head} {arg!r})")
        while pending and pending[-1] == 1:  # a right child: its operator is done
            pending.pop()
            parts.append(")")
        if pending:  # a left child: the right one follows
            pending[-1] = 1
            parts.append(" ")
    return "".join(parts)


class TreeFormatError(ValueError):
    """Raised when program text cannot be parsed."""


def parse_tree(text: str) -> ProgramTree:
    """Inverse of :func:`format_tree`.

    Constants must be finite: training never makes another, and a
    non-finite constant would reach the output unclamped.
    """
    tokens = text.replace("(", " ( ").replace(")", " ) ").split()
    code: list[tuple[str, int | float | None]] = []
    pending: list[int] = []  # children still to read, per open operator
    pos = 0
    try:
        while True:
            if pos >= len(tokens):
                raise TreeFormatError("unexpected end of program text")
            if tokens[pos] != "(":
                raise TreeFormatError(f"expected '(' at token {pos}")
            head = tokens[pos + 1]
            if head in OPS:
                code.append((head, None))
                pending.append(2)
                pos += 2
                continue
            if head == "attr":
                arg: int | float = int(tokens[pos + 2])
            elif head == "const":
                arg = float(tokens[pos + 2])
                if not math.isfinite(arg):
                    raise TreeFormatError(f"constant {tokens[pos + 2]!r} is not finite")
            else:
                raise TreeFormatError(f"unknown node kind {head!r}")
            code.append((head, arg))
            pos += 3
            closing = 1  # the leaf's own ')' and one per operator it completes
            while pending and pending[-1] == 1:
                pending.pop()
                closing += 1
            if tokens[pos:pos + closing] != [")"] * closing:
                raise TreeFormatError(f"expected {closing} ')' at token {pos}")
            pos += closing
            if not pending:
                break
            pending[-1] = 1
    except (ValueError, IndexError) as exc:
        if isinstance(exc, TreeFormatError):
            raise
        raise TreeFormatError(f"bad program text: {exc}") from exc
    if pos != len(tokens):
        raise TreeFormatError("trailing tokens after program")
    return ProgramTree(tuple(code))
