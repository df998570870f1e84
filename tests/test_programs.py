"""Program construction, evaluation, variation, and text format."""

from dataclasses import dataclass
from typing import Union

import numpy as np
import pytest

from gpstack.programs import (ATTRIBUTE_PROB, CONST_RANGE, DIV_GUARD, FINITE_CLAMP, OPS,
                              ProgramTree, RngStream, TreeFormatError, eval_batch,
                              eval_population, eval_record, format_tree, grow_clone,
                              init_stump, mutate_params, parse_tree)


def tree_of(text):
    return parse_tree(text)


def depth(tree):
    """Nodes on the longest root-to-leaf path, read right to left from the
    preorder code as ``eval_batch`` reads it."""
    stack = []
    for head, _ in reversed(tree.code):
        stack.append(1 + max(stack.pop(), stack.pop()) if head in OPS else 1)
    return stack[0]


def random_tree(rng, d=3, grows=3):
    (t,) = init_stump(1, d, rng)
    for _ in range(int(rng.integers(0, grows + 1))):
        (t,) = grow_clone([t], d, rng)
    return mutate_params([t], d, rng)[0]


class TestEval:
    def test_add(self):
        t = tree_of("(add (attr 0) (const 0.25))")
        assert eval_record(t, np.array([1.0])) == 1.25

    def test_sub_mul(self):
        t = tree_of("(sub (mul (attr 0) (attr 1)) (const 1.0))")
        assert eval_record(t, np.array([3.0, 2.0])) == 5.0

    def test_pdiv_normal(self):
        t = tree_of("(pdiv (attr 0) (attr 1))")
        assert eval_record(t, np.array([3.0, 2.0])) == 1.5

    def test_pdiv_guard(self):
        t = tree_of("(pdiv (attr 0) (attr 1))")
        assert eval_record(t, np.array([3.0, 0.0])) == 1.0
        assert eval_record(t, np.array([3.0, 9.99e-10])) == 1.0
        # the guard boundary itself still divides
        assert eval_record(t, np.array([3.0, 1e-9])) == 3.0e9

    def test_overflow_clamped_with_sign(self):
        up = tree_of("(mul (const 1e300) (const 1e300))")
        down = tree_of("(mul (const -1e300) (const 1e300))")
        assert eval_record(up, np.array([0.0])) == 1e12
        assert eval_record(down, np.array([0.0])) == -1e12

    def test_finite_values_not_clipped(self):
        t = tree_of("(mul (const 1e100) (const 1e100))")
        assert eval_record(t, np.array([0.0])) == 1e200

    def test_output_always_finite(self):
        rng = np.random.default_rng(7)
        X = rng.normal(0, 1e8, size=(50, 3))
        for _ in range(100):
            t = random_tree(rng, d=3, grows=5)
            out = eval_batch(t, X)
            assert np.isfinite(out).all()

    def test_batch_matches_scalar(self):
        rng = np.random.default_rng(8)
        X = rng.normal(0, 5, size=(40, 4))
        for _ in range(60):
            t = random_tree(rng, d=4, grows=4)
            batch = eval_batch(t, X)
            scalar = np.array([eval_record(t, X[i]) for i in range(X.shape[0])])
            np.testing.assert_array_equal(batch, scalar)

    def test_eval_is_pure(self):
        rng = np.random.default_rng(9)
        t = random_tree(rng, d=2, grows=4)
        X = rng.normal(size=(10, 2))
        np.testing.assert_array_equal(eval_batch(t, X), eval_batch(t, X))

    def test_stump_eval_does_not_alias_input(self):
        t = tree_of("(attr 0)")
        X = np.array([[1.0], [2.0]])
        out = eval_batch(t, X)
        out[0] = 99.0
        assert X[0, 0] == 1.0


# values that stress the protected arithmetic: float64's extremes and
# subnormals, signed zeros, and divisors on either side of DIV_GUARD
SPECIAL_VALUES = [1e308, -1e308, 5e-324, -5e-324, 0.0, -0.0, DIV_GUARD, -DIV_GUARD,
                  float(np.nextafter(DIV_GUARD, 0.0)), float(np.nextafter(DIV_GUARD, 1.0)),
                  -float(np.nextafter(DIV_GUARD, 0.0)), 1e154, -1e154, 1e-200, 1.0, -2.5]


def random_program(rng, d, height):
    """A random program of at most ``height`` operator levels, its leaves
    reading any of ``d`` attributes or holding a SPECIAL_VALUES constant."""
    if height == 0 or rng.random() < 0.2:
        if rng.random() < 0.6:
            return [("attr", int(rng.integers(d)))]
        return [("const", float(rng.choice(SPECIAL_VALUES)))]
    left = random_program(rng, d, height - 1)
    right = random_program(rng, d, int(rng.integers(0, height)))
    if rng.random() < 0.5:
        left, right = right, left
    return [(OPS[int(rng.integers(len(OPS)))], None)] + left + right


def stacked(trees, X):
    return np.stack([eval_batch(t, X) for t in trees]).reshape(len(trees), X.shape[0])


class TestEvalPopulation:
    """``eval_population`` must give every program's ``eval_batch`` output
    bit for bit: the same protected arithmetic, the same clamping."""

    def assert_same(self, trees, X):
        out = eval_population(trees, X)
        assert out.dtype == np.float64 and out.shape == (len(trees), X.shape[0])
        assert out.tobytes() == stacked(trees, X).tobytes()

    @pytest.mark.parametrize("seed", range(12))
    def test_random_populations_on_extreme_records(self, seed):
        rng = np.random.default_rng(500 + seed)
        d = int(rng.integers(1, 5))
        X = rng.choice(SPECIAL_VALUES, size=(int(rng.integers(1, 40)), d))
        plain = rng.random(X.shape) < 0.3
        X[plain] = rng.normal(0.0, 3.0, int(plain.sum()))
        for _ in range(8):
            size = int(rng.choice([1, 2, 5, 20]))
            trees = [ProgramTree(tuple(random_program(rng, d, int(rng.integers(0, 11)))))
                     for _ in range(size)]
            self.assert_same(trees, X)

    def test_tall_programs(self):
        rng = np.random.default_rng(30)
        X = rng.choice(SPECIAL_VALUES, size=(25, 3))
        trees = []
        while len(trees) < 10:
            code = random_program(rng, 3, 12)
            if depth(ProgramTree(tuple(code))) > 8:
                trees.append(ProgramTree(tuple(code)))
        self.assert_same(trees, X)
        self.assert_same(trees[:1], X)

    def test_stumps_only(self):
        X = np.array([[1.5, -0.0], [5e-324, 1e308]])
        trees = [tree_of(t) for t in ("(attr 1)", "(const -0.0)", "(attr 0)", "(attr 1)")]
        self.assert_same(trees, X)
        out = eval_population(trees, X)
        out[:] = 7.0
        assert X.tolist() == [[1.5, -0.0], [5e-324, 1e308]]  # no alias of the records

    def test_overflow_and_inf_minus_inf(self):
        big = "(mul (attr 0) (const 1e300))"  # overflows, clamped to +-1e12
        trees = [tree_of(f"(sub {big} {big})"), tree_of(big),
                 tree_of(f"(pdiv (attr 1) (sub {big} {big}))"),
                 tree_of("(add (mul (attr 0) (attr 0)) (mul (attr 1) (const -1e308)))"),
                 tree_of("(pdiv (const 1.0) (attr 1))")]
        X = np.array([[1e10, 1e-300], [-1e10, 1e308], [0.0, 9.99e-10], [1.0, 2.0]])
        self.assert_same(trees, X)
        assert eval_population(trees[:2], X)[:, 0].tolist() == [0.0, FINITE_CLAMP]

    def test_non_contiguous_records(self):
        rng = np.random.default_rng(31)
        full = rng.choice(SPECIAL_VALUES, size=(6, 20))
        X = full.T[::2]  # a strided view, (10, 6)
        trees = [ProgramTree(tuple(random_program(rng, 6, 5))) for _ in range(15)]
        self.assert_same(trees, X)
        assert eval_population(trees, X).tobytes() == \
            eval_population(trees, np.ascontiguousarray(X)).tobytes()

    def test_empty_population_and_no_records(self):
        assert eval_population([], np.zeros((3, 2))).shape == (0, 3)
        trees = [tree_of("(add (attr 0) (const 1.0))"), tree_of("(attr 1)")]
        assert eval_population(trees, np.zeros((0, 2))).shape == (2, 0)


class TestInitStump:
    def test_single_attribute_goes_to_index_zero(self):
        rng = np.random.default_rng(0)  # first kind draw takes the attribute branch
        (t,) = init_stump(1, 1, rng)
        assert t.code == (("attr", 0),)
        assert t.node_count == 1 and depth(t) == 1

    def test_constant_branch_in_range(self):
        rng = np.random.default_rng(0)
        seen_const = False
        for t in init_stump(500, 3, rng):
            (head, arg), = t.code
            if head == "const":
                seen_const = True
                assert -1.0 <= arg <= 1.0
            else:
                assert head == "attr" and 0 <= arg < 3
        assert seen_const

    def test_attribute_rate_about_ninety_percent(self):
        rng = np.random.default_rng(1)
        hits = sum(t.code[0][0] == "attr" for t in init_stump(4000, 4, rng))
        assert 0.87 < hits / 4000 < 0.93

    def test_stream_determinism(self):
        s = RngStream(42).child(3, 1)
        a = init_stump(8, 5, s.generator())
        b = init_stump(8, 5, s.generator())
        assert [t.code for t in a] == [t.code for t in b]

    def test_zero_attributes_rejected(self):
        with pytest.raises(ValueError):
            init_stump(1, 0, np.random.default_rng(0))


def numpy_generator(seed, path):
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed, spawn_key=path)))


class TestStreamsMatchNumpy:
    """``RngStream.generator`` is numpy's own generator at the address."""

    def test_child_paths_match_numpy(self):
        stream = RngStream(5).child(np.int64(3), 7).child(0)
        assert stream.path == (3, 7, 0) and all(type(i) is int for i in stream.path)
        assert (stream.generator().bit_generator.state
                == numpy_generator(5, (3, 7, 0)).bit_generator.state)

    @pytest.mark.parametrize("seed,path", [(0, (1, -1)), (0, (-1,)), (-1, ())])
    def test_negative_word_rejected(self, seed, path):
        with pytest.raises(ValueError, match="non-negative"):
            RngStream(seed, path).generator()

    def test_each_generator_is_fresh(self):
        stream = RngStream(9).child(4, 2)
        a, b = stream.generator(), stream.generator()
        assert a is not b and a.bit_generator is not b.bit_generator
        before = b.bit_generator.state
        a.random(10)
        assert b.bit_generator.state == before != a.bit_generator.state


class TestGrowClone:
    def test_adds_exactly_two_nodes(self):
        rng = np.random.default_rng(2)
        pop = init_stump(5, 3, rng)
        for _ in range(10):
            bigger = grow_clone(pop, 3, rng)
            assert [b.node_count for b in bigger] == [t.node_count + 2 for t in pop]
            pop = bigger

    def test_parent_untouched(self):
        rng = np.random.default_rng(3)
        t = tree_of("(add (attr 0) (const 0.5))")
        before = format_tree(t)
        grow_clone([t, t], 2, rng)
        assert format_tree(t) == before

    def test_displaced_leaf_becomes_left_child(self):
        rng = np.random.default_rng(4)
        t = tree_of("(attr 1)")
        (child,) = grow_clone([t], 2, rng)
        assert child.code[0][0] in OPS
        assert child.code[1] == ("attr", 1)
        assert depth(child) == 2

    def test_same_stream_same_offspring(self):
        t = tree_of("(add (attr 0) (attr 1))")
        s = RngStream(7).child(1)
        a = grow_clone([t] * 3, 2, s.generator())
        b = grow_clone([t] * 3, 2, s.generator())
        assert list(map(format_tree, a)) == list(map(format_tree, b))

    def test_depth_grows_by_at_most_one(self):
        rng = np.random.default_rng(5)
        trees = [random_tree(rng, d=3, grows=4) for _ in range(50)]
        for t, child in zip(trees, grow_clone(trees, 3, rng)):
            assert depth(t) <= depth(child) <= depth(t) + 1

    def test_every_leaf_reachable(self):
        # growing (add (attr 0) (attr 1)) must eventually touch both leaves
        t = tree_of("(add (attr 0) (attr 1))")
        rng = np.random.default_rng(6)
        seen = set()
        for child in grow_clone([t] * 100, 2, rng):
            seen.add("left" if child.code[1][0] in OPS else "right")
        assert seen == {"left", "right"}


class TestMutateParams:
    def test_zero_rate_is_identity(self):
        rng = np.random.default_rng(0)
        trees = [random_tree(rng, d=3, grows=3) for _ in range(5)]
        same = mutate_params(trees, 3, rng, rate=0.0)
        assert all(m is t for m, t in zip(same, trees))

    def test_structure_preserved(self):
        rng = np.random.default_rng(1)
        trees = [random_tree(rng, d=4, grows=4) for _ in range(50)]
        for t, m in zip(trees, mutate_params(trees, 4, rng, rate=1.0)):
            assert m.node_count == t.node_count
            assert depth(m) == depth(t)
            assert [h in OPS for h, _ in m.code] == [h in OPS for h, _ in t.code]

    def test_constant_gets_gaussian_nudge(self):
        t = tree_of("(const 0.5)")
        s = RngStream(11).child(0)
        (m,) = mutate_params([t], 1, s.generator(), rate=1.0, sigma=0.1)
        g = s.generator()
        g.random(1)  # the mask
        g.integers(1, size=0)  # no attribute is hit
        expected = 0.5 + float(g.normal(0.0, 0.1, 1)[0])
        assert m.code == (("const", expected),)

    def test_attribute_resampled_in_range(self):
        t = tree_of("(attr 0)")
        rng = np.random.default_rng(2)
        seen = {m.code[0][1] for m in mutate_params([t] * 200, 5, rng, rate=1.0)}
        assert seen == {0, 1, 2, 3, 4}

    def test_operator_resampled(self):
        t = tree_of("(add (attr 0) (attr 0))")
        rng = np.random.default_rng(3)
        ops = {m.code[0][0] for m in mutate_params([t] * 200, 1, rng, rate=1.0)}
        assert ops == {"add", "sub", "mul", "pdiv"}

    def test_same_stream_same_result(self):
        t = tree_of("(add (const 0.1) (attr 0))")
        s = RngStream(9).child(2)
        a = mutate_params([t] * 5, 3, s.generator())
        b = mutate_params([t] * 5, 3, s.generator())
        assert list(map(format_tree, a)) == list(map(format_tree, b))


class TestTextFormat:
    def test_examples(self):
        assert format_tree(tree_of("(attr 0)")) == "(attr 0)"
        assert format_tree(tree_of("(const 0.25)")) == "(const 0.25)"
        t = tree_of("(add (attr 0) (const 0.25))")
        assert format_tree(t) == "(add (attr 0) (const 0.25))"

    def test_round_trip_is_exact(self):
        rng = np.random.default_rng(4)
        for _ in range(200):
            t = random_tree(rng, d=4, grows=5)
            back = parse_tree(format_tree(t))
            assert back.code == t.code
            assert format_tree(back) == format_tree(t)

    def test_round_trip_preserves_eval(self):
        rng = np.random.default_rng(5)
        X = rng.normal(size=(20, 3))
        for _ in range(50):
            t = random_tree(rng, d=3, grows=5)
            back = parse_tree(format_tree(t))
            np.testing.assert_array_equal(eval_batch(t, X), eval_batch(back, X))

    @pytest.mark.parametrize("bad", [
        "", "(", "(attr)", "(attr 0", "(frob 1)", "(add (attr 0))",
        "(attr 0) extra", "(const x)", "add (attr 0) (attr 1)",
        "(const nan)", "(const inf)", "(add (attr 0) (const -inf))",
        "(add (attr 0) (add (attr 1)) (attr 2))", "(add (attr 0) (attr 1)))",
    ])
    def test_bad_text_rejected(self, bad):
        with pytest.raises(TreeFormatError):
            parse_tree(bad)


class TestTreeMetrics:
    def test_counts(self):
        assert tree_of("(attr 0)").node_count == 1
        assert tree_of("(add (attr 0) (const 1.0))").node_count == 3
        t = tree_of("(add (mul (attr 0) (attr 1)) (const 1.0))")
        assert t.node_count == 5 and depth(t) == 3

    def test_manual_code_matches_text(self):
        t = ProgramTree((("add", None), ("attr", 0), ("mul", None), ("const", 2.0), ("attr", 1)))
        assert t.node_count == 5
        assert depth(t) == 3
        assert format_tree(t) == "(add (attr 0) (mul (const 2.0) (attr 1)))"
        assert parse_tree(format_tree(t)) == t


# The node-tree programs the preorder code replaced, kept as the reference
# that every draw and float operation is checked against.

@dataclass(frozen=True)
class Attribute:
    index: int


@dataclass(frozen=True)
class Constant:
    value: float


@dataclass(frozen=True)
class Operator:
    op: str
    left: "Node"
    right: "Node"


Node = Union[Attribute, Constant, Operator]


def ref_terminals(n, d, rng):
    reads = rng.random(n) < ATTRIBUTE_PROB
    attrs = rng.integers(d, size=n)
    consts = rng.uniform(-CONST_RANGE, CONST_RANGE, n)
    return [Attribute(int(a)) if r else Constant(float(c)) for r, a, c in zip(reads, attrs, consts)]


def ref_leaves(node):
    if isinstance(node, Operator):
        return ref_leaves(node.left) + ref_leaves(node.right)
    return [node]


def _replace_leaf(node, target, replacement, counter):
    if isinstance(node, Operator):
        left = _replace_leaf(node.left, target, replacement, counter)
        if left is not node.left:
            return Operator(node.op, left, node.right)
        right = _replace_leaf(node.right, target, replacement, counter)
        if right is not node.right:
            return Operator(node.op, node.left, right)
        return node
    if counter[0] == target:
        counter[0] += 1
        return replacement
    counter[0] += 1
    return node


def ref_grow(roots, d, rng):
    leaves = [ref_leaves(root) for root in roots]
    targets = rng.integers([len(ls) for ls in leaves])
    ops = rng.integers(len(OPS), size=len(roots))
    terminals = ref_terminals(len(roots), d, rng)
    return [_replace_leaf(root, int(t), Operator(OPS[int(op)], ls[int(t)], terminal), [0])
            for root, ls, t, op, terminal in zip(roots, leaves, targets, ops, terminals)]


def ref_preorder(node):
    yield node
    if isinstance(node, Operator):
        yield from ref_preorder(node.left)
        yield from ref_preorder(node.right)


def ref_mutate(roots, d, rng, rate, sigma):
    """One mask over every root's nodes, preorder, root after root; then the
    hit attributes', constants' and operators' new values, each in that order."""
    nodes = [node for root in roots for node in ref_preorder(root)]
    hits = (rng.random(len(nodes)) < rate).tolist()
    kinds = [type(node) for node, hit in zip(nodes, hits) if hit]
    attrs = iter(rng.integers(d, size=kinds.count(Attribute)).tolist())
    nudges = iter(rng.normal(0.0, sigma, kinds.count(Constant)).tolist())
    ops = iter(rng.integers(len(OPS), size=kinds.count(Operator)).tolist())
    hit = iter(hits)

    def rebuild(node):
        if not next(hit):
            if isinstance(node, Operator):
                return Operator(node.op, rebuild(node.left), rebuild(node.right))
            return node
        if isinstance(node, Operator):
            op = OPS[next(ops)]  # before its subtrees, in preorder
            return Operator(op, rebuild(node.left), rebuild(node.right))
        if isinstance(node, Attribute):
            return Attribute(next(attrs))
        return Constant(node.value + next(nudges))

    return [rebuild(root) for root in roots]


def ref_text(node):
    if isinstance(node, Operator):
        return f"({node.op} {ref_text(node.left)} {ref_text(node.right)})"
    if isinstance(node, Attribute):
        return f"(attr {node.index})"
    return f"(const {node.value!r})"


def ref_measure(node):
    if isinstance(node, Operator):
        lc, ld = ref_measure(node.left)
        rc, rd = ref_measure(node.right)
        return lc + rc + 1, 1 + max(ld, rd)
    return 1, 1


def _compile(node):
    if isinstance(node, Operator):
        return _compile(node.left) + _compile(node.right) + [("op", node.op)]
    if isinstance(node, Attribute):
        return [("attr", node.index)]
    return [("const", node.value)]


def ref_eval(root, records):
    """The postorder evaluation the preorder code replaced."""
    n = records.shape[0]
    stack = []
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for kind, arg in _compile(root):
            if kind == "attr":
                stack.append(records[:, arg].copy())
            elif kind == "const":
                stack.append(np.full(n, arg, dtype=np.float64))
            else:
                b = stack.pop()
                a = stack.pop()
                if arg == "add":
                    r = a + b
                elif arg == "sub":
                    r = a - b
                elif arg == "mul":
                    r = a * b
                else:
                    safe = np.abs(b) >= DIV_GUARD
                    r = np.divide(a, b, out=np.ones(n, dtype=np.float64), where=safe)
                if not np.isfinite(r).all():
                    r = np.nan_to_num(r, copy=False, nan=0.0,
                                      posinf=FINITE_CLAMP, neginf=-FINITE_CLAMP)
                stack.append(r)
    return stack[0]


def probe_records(rng, d):
    """Rows with signed zeros, values that overflow or divide by almost
    nothing, and ordinary values."""
    pool = np.array([0.0, -0.0, 1.0, -1.0, 1e-10, -1e-10, 1e155, -1e155, 1e300, -1e300])
    X = rng.choice(pool, size=(30, d))
    X[::3] = rng.normal(size=(10, d))
    return X


def bits(values):
    return np.asarray(values, dtype=np.float64).view(np.uint64)


class TestAgainstNodeTree:
    """``init_stump``, ``grow_clone`` and ``mutate_params`` draw, build and
    evaluate exactly what node trees given the same array draws do."""

    @pytest.mark.parametrize("rate", [0.0, 0.5, 1.0])
    def test_same_programs_draws_and_outputs(self, rate):
        for stream in range(150):
            d, n = 1 + stream % 7, 1 + stream % 4
            rng, ref_rng = (RngStream(stream, (int(rate * 10),)).generator() for _ in "ab")
            trees = init_stump(n, d, rng)
            roots = ref_terminals(n, d, ref_rng)
            for step in range(13):
                where = f"stream {stream} step {step}"
                assert [format_tree(t) for t in trees] == [ref_text(r) for r in roots], where
                assert ([(t.node_count, depth(t)) for t in trees]
                        == [ref_measure(r) for r in roots]), where
                assert rng.bit_generator.state == ref_rng.bit_generator.state, where
                trees = mutate_params(grow_clone(trees, d, rng), d, rng, rate=rate)
                roots = ref_mutate(ref_grow(roots, d, ref_rng), d, ref_rng, rate, 0.1)
            X = probe_records(rng, d)
            for tree, root in zip(trees, roots):
                np.testing.assert_array_equal(bits(eval_batch(tree, X)),
                                              bits(ref_eval(root, X)))

    def test_signed_zero_and_clamped_outputs_keep_their_bits(self):
        X = np.array([[0.0, 1e300], [-0.0, -1e300], [2.0, 1e-10]])
        a0, a1 = Attribute(0), Attribute(1)
        for root in [a0, Operator("mul", a0, Constant(-1.0)), Operator("sub", a0, Constant(0.0)),
                     Operator("mul", a1, a1), Operator("pdiv", a0, a1),
                     Operator("add", Operator("mul", a1, Constant(10.0)), a0)]:
            tree = parse_tree(ref_text(root))
            np.testing.assert_array_equal(bits(eval_batch(tree, X)), bits(ref_eval(root, X)))
