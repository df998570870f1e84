"""Programs: arithmetic expressions over record attributes.

A program is an immutable binary expression whose leaves read an attribute
or hold a constant and whose internal nodes apply one of four protected
arithmetic operators.  It is stored as one flat tuple of nodes in preorder,
each node the pair its text form writes: ``("attr", index)``,
``("const", value)`` or ``(op, None)``.  Programs map a record to a single
real number; that number is what downstream histogram binning consumes.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

OPS: tuple[str, ...] = ("add", "sub", "mul", "pdiv")

DIV_GUARD = 1e-9          # |denominator| below this makes pdiv return 1.0
FINITE_CLAMP = 1e12       # overflow/inf replacement magnitude, sign kept
ATTRIBUTE_PROB = 0.9      # chance a fresh terminal reads an attribute
CONST_RANGE = 1.0         # fresh constants drawn uniform from [-1, 1]
MUTATION_RATE = 0.1       # per-node parameter mutation probability
MUTATION_SIGMA = 0.1      # stddev of Gaussian nudges applied to constants


@dataclass(frozen=True)
class RngStream:
    """Reproducible random source addressed by a root seed plus a path.

    Child streams extend the path, so every site in a run (population slot,
    generation, boost epoch) gets an independent generator that depends only
    on its address, never on how much randomness other sites consumed.

    The stream at an address is numpy's ``PCG64(SeedSequence(seed,
    spawn_key=path))``.  :meth:`generator` computes the SeedSequence hash
    itself: the pool after ``seed`` and all of ``path`` but its last entry is
    cached, so the siblings of one parent (a generation's offspring slots,
    an epoch's initial stumps) each mix in only their own last entry.
    """

    seed: int
    path: tuple[int, ...] = ()

    def child(self, *ids: int) -> "RngStream":
        return RngStream(self.seed, self.path + tuple(map(int, ids)))

    def generator(self) -> np.random.Generator:
        """A fresh, independent generator whose state equals
        ``PCG64(SeedSequence(seed, spawn_key=path))``'s.  Raises
        ``ValueError`` for a negative seed or path entry, as numpy does."""
        pool, _ = _absorb(*_pool(self.seed, self.path[:-1]), self.path[-1:])
        return np.random.Generator(np.random.PCG64(_words_seed()(_pcg64_words(pool))))


# numpy's SeedSequence hash (numpy/random/bit_generator.pyx) on 32-bit words,
# pool size 4; NEP 19 keeps SeedSequence and PCG64 seeding stable.
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715


def _words(n: int) -> list[int]:
    """``n`` as the 32-bit words SeedSequence reads, least significant first."""
    if n < 0:
        raise ValueError(f"expected non-negative integer, got {n}")
    words = [n & _MASK32]
    while n := n >> 32:
        words.append(n & _MASK32)
    return words


def _mix_in(pool: list[int], h: int, word: int, skip: int = -1) -> int:
    """Hash ``word`` into every pool word but ``skip``; returns the next hash
    constant."""
    for dst in range(4):
        if dst != skip:
            v = (word ^ h) * (h := h * _MULT_A & _MASK32) & _MASK32
            v = (_MIX_L * pool[dst] - _MIX_R * (v ^ v >> 16)) & _MASK32
            pool[dst] = v ^ v >> 16
    return h


def _absorb(pool: tuple[int, ...], h: int, ids) -> tuple[tuple[int, ...], int]:
    """The pool and hash constant after mixing in the words of ``ids``."""
    pool = list(pool)
    for i in ids:
        for word in _words(i):
            h = _mix_in(pool, h, word)
    return tuple(pool), h


@functools.lru_cache(maxsize=64)
def _pool(seed: int, path: tuple[int, ...]) -> tuple[tuple[int, ...], int]:
    """SeedSequence's pool and hash constant after ``seed`` and ``path``."""
    if path:
        return _absorb(*_pool(seed, path[:-1]), path[-1:])
    words = _words(seed)
    words += [0] * (4 - len(words))  # numpy pads a short seed with zero words
    pool, h = [], _INIT_A
    for word in words[:4]:
        v = (word ^ h) * (h := h * _MULT_A & _MASK32) & _MASK32
        pool.append(v ^ v >> 16)
    for src in range(4):
        h = _mix_in(pool, h, pool[src], skip=src)
    return _absorb(tuple(pool), h, words[4:])


def _output_hash() -> tuple[tuple[int, int, int], ...]:
    # generate_state's hash constant restarts at INIT_B, so each of its 8
    # output words takes a fixed (pool index, xor, multiplier)
    steps, h = [], _INIT_B
    for i in range(8):
        steps.append((i % 4, h, h := h * _MULT_B & _MASK32))
    return tuple(steps)


_OUTPUT_HASH = _output_hash()


def _pcg64_words(pool: tuple[int, ...]) -> np.ndarray:
    """What ``SeedSequence.generate_state(4, np.uint64)`` returns for a pool:
    the four words PCG64 seeds itself from."""
    out = [(pool[j] ^ x) * m & _MASK32 for j, x, m in _OUTPUT_HASH]
    out = [v ^ v >> 16 for v in out]
    return np.array([out[i] | out[i + 1] << 32 for i in (0, 2, 4, 6)], dtype=np.uint64)


@functools.cache
def _words_seed() -> type:
    """numpy's ``ISeedSequence`` for seeding words computed in advance.  Made
    on first use, so that importing gpstack does not import numpy.random."""

    class WordsSeed(np.random.bit_generator.ISeedSequence):
        def __init__(self, words: np.ndarray) -> None:
            self.words = words

        def generate_state(self, n_words: int, dtype=np.uint32) -> np.ndarray:
            return self.words

    return WordsSeed


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


def eval_batch(tree: ProgramTree, records: np.ndarray) -> np.ndarray:
    """Evaluate the program on every row of an (n, d) matrix at once.

    Protected semantics: pdiv yields 1.0 where |denominator| < 1e-9, and any
    non-finite intermediate is replaced by +-1e12 with its sign kept, so the
    output is always finite.  Finite values are never clipped.
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
                b = stack.pop()
                if head == "add":
                    r = a + b
                elif head == "sub":
                    r = a - b
                elif head == "mul":
                    r = a * b
                else:
                    safe = np.abs(b) >= DIV_GUARD
                    r = np.divide(a, b, out=np.ones(n, dtype=np.float64), where=safe)
                if not np.isfinite(r).all():
                    r = np.nan_to_num(r, copy=False, nan=0.0,
                                      posinf=FINITE_CLAMP, neginf=-FINITE_CLAMP)
                stack.append(r)
    out = stack[0]
    return out if out.base is None else out.copy()


def eval_record(tree: ProgramTree, record: np.ndarray) -> float:
    """Evaluate the program on a single record."""
    row = np.asarray(record, dtype=np.float64).reshape(1, -1)
    return float(eval_batch(tree, row)[0])


def _random_terminal(d: int, rng: np.random.Generator) -> tuple[str, int | float]:
    if rng.random() < ATTRIBUTE_PROB:
        return ("attr", int(rng.integers(d)))
    return ("const", float(rng.uniform(-CONST_RANGE, CONST_RANGE)))


def init_stump(d: int, rng: np.random.Generator) -> ProgramTree:
    """Fresh single-node program: attribute read with probability 0.9, else a
    uniform constant in [-1, 1]."""
    if d < 1:
        raise ValueError("need at least one attribute")
    return ProgramTree((_random_terminal(d, rng),))


def grow_clone(parent: ProgramTree, d: int, rng: np.random.Generator) -> ProgramTree:
    """Copy of ``parent`` with one leaf grown into an operator node.

    A uniformly chosen leaf (preorder order) becomes the left child of a new
    operator with a uniformly chosen op; the right child is a fresh random
    terminal.  The parent is untouched.  Node count always grows by exactly 2.
    """
    code = parent.code
    leaves = [i for i, (head, _) in enumerate(code) if head not in OPS]
    at = leaves[int(rng.integers(len(leaves)))]
    op = OPS[int(rng.integers(len(OPS)))]
    grown = ((op, None), code[at], _random_terminal(d, rng))
    return ProgramTree(code[:at] + grown + code[at + 1:])


def mutate_params(tree: ProgramTree, d: int, rng: np.random.Generator,
                  rate: float = MUTATION_RATE, sigma: float = MUTATION_SIGMA) -> ProgramTree:
    """Per-node parameter mutation; structure and node count never change.

    Nodes are visited in preorder.  Each independently mutates with
    probability ``rate``: constants get a Gaussian(0, sigma) nudge, attribute
    indices are resampled uniformly, operators are resampled uniformly.  One
    uniform draw per node decides the hit; a hit draws once more.  When no
    node is hit, ``tree`` itself is returned.
    """
    code = None
    for i, (head, arg) in enumerate(tree.code):
        if rng.random() >= rate:
            continue
        if code is None:
            code = list(tree.code)
        if head == "attr":
            code[i] = ("attr", int(rng.integers(d)))
        elif head == "const":
            code[i] = ("const", arg + float(rng.normal(0.0, sigma)))
        else:
            code[i] = (OPS[int(rng.integers(len(OPS)))], None)
    return tree if code is None else ProgramTree(tuple(code))


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
