"""Program construction, evaluation, variation, and text format."""

from dataclasses import dataclass
from typing import Union

import numpy as np
import pytest

from gpstack.programs import (ATTRIBUTE_PROB, CONST_RANGE, DIV_GUARD, FINITE_CLAMP, OPS,
                              ProgramTree, RngStream, TreeFormatError, eval_batch,
                              eval_record, format_tree, grow_clone, init_stump,
                              mutate_params, parse_tree)


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
    t = init_stump(d, rng)
    for _ in range(int(rng.integers(0, grows + 1))):
        t = grow_clone(t, d, rng)
    return mutate_params(t, d, rng)


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


class TestInitStump:
    def test_single_attribute_goes_to_index_zero(self):
        rng = np.random.default_rng(0)  # first draw takes the attribute branch
        t = init_stump(1, rng)
        assert t.code == (("attr", 0),)
        assert t.node_count == 1 and depth(t) == 1

    def test_constant_branch_in_range(self):
        rng = np.random.default_rng(0)
        seen_const = False
        for _ in range(500):
            (head, arg), = init_stump(3, rng).code
            if head == "const":
                seen_const = True
                assert -1.0 <= arg <= 1.0
            else:
                assert head == "attr" and 0 <= arg < 3
        assert seen_const

    def test_attribute_rate_about_ninety_percent(self):
        rng = np.random.default_rng(1)
        hits = sum(init_stump(4, rng).code[0][0] == "attr" for _ in range(4000))
        assert 0.87 < hits / 4000 < 0.93

    def test_stream_determinism(self):
        s = RngStream(42).child(3, 1)
        a = init_stump(5, s.generator())
        b = init_stump(5, s.generator())
        assert a.code == b.code

    def test_zero_attributes_rejected(self):
        with pytest.raises(ValueError):
            init_stump(0, np.random.default_rng(0))


def random_int(rng, max_bits):
    """A non-negative integer of 0 to ``max_bits`` bits, 0 included."""
    bits = int(rng.integers(0, max_bits + 1))
    return int.from_bytes(rng.bytes(24), "little") >> (192 - bits)


def numpy_generator(seed, path):
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed, spawn_key=path)))


class TestStreamsMatchNumpy:
    """``RngStream.generator`` hashes the address itself; numpy's
    SeedSequence is the reference it must equal."""

    def test_random_addresses(self):
        rng = np.random.default_rng(2024)
        addresses = [(random_int(rng, 160),
                      tuple(random_int(rng, 40) for _ in range(int(rng.integers(0, 5)))))
                     for _ in range(3000)]
        seeds = [seed for seed, _ in addresses]
        entries = [i for _, path in addresses for i in path]
        # the sample covers every case the hash treats apart
        assert min(seeds) < 2 ** 32 <= max(seeds) and max(seeds) >= 2 ** 128
        assert 0 in entries and max(entries) >= 2 ** 32
        assert {len(path) for _, path in addresses} == {0, 1, 2, 3, 4}
        for seed, path in addresses:
            ours, ref = RngStream(seed, path).generator(), numpy_generator(seed, path)
            assert ours.bit_generator.state == ref.bit_generator.state, (seed, path)
            assert ours.random(3).tolist() == ref.random(3).tolist()
            assert (ours.integers(0, 2 ** 63, 3).tolist()
                    == ref.integers(0, 2 ** 63, 3).tolist())

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
        t = init_stump(3, rng)
        for _ in range(10):
            bigger = grow_clone(t, 3, rng)
            assert bigger.node_count == t.node_count + 2
            t = bigger

    def test_parent_untouched(self):
        rng = np.random.default_rng(3)
        t = tree_of("(add (attr 0) (const 0.5))")
        before = format_tree(t)
        grow_clone(t, 2, rng)
        assert format_tree(t) == before

    def test_displaced_leaf_becomes_left_child(self):
        rng = np.random.default_rng(4)
        t = tree_of("(attr 1)")
        child = grow_clone(t, 2, rng)
        assert child.code[0][0] in OPS
        assert child.code[1] == ("attr", 1)
        assert depth(child) == 2

    def test_same_stream_same_offspring(self):
        t = tree_of("(add (attr 0) (attr 1))")
        s = RngStream(7).child(1)
        a = grow_clone(t, 2, s.generator())
        b = grow_clone(t, 2, s.generator())
        assert format_tree(a) == format_tree(b)

    def test_depth_grows_by_at_most_one(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            t = random_tree(rng, d=3, grows=4)
            child = grow_clone(t, 3, rng)
            assert depth(t) <= depth(child) <= depth(t) + 1

    def test_every_leaf_reachable(self):
        # growing (add (attr 0) (attr 1)) must eventually touch both leaves
        t = tree_of("(add (attr 0) (attr 1))")
        rng = np.random.default_rng(6)
        seen = set()
        for _ in range(100):
            child = grow_clone(t, 2, rng)
            seen.add("left" if child.code[1][0] in OPS else "right")
        assert seen == {"left", "right"}


class TestMutateParams:
    def test_zero_rate_is_identity(self):
        rng = np.random.default_rng(0)
        t = random_tree(rng, d=3, grows=3)
        same = mutate_params(t, 3, rng, rate=0.0)
        assert same is t

    def test_structure_preserved(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            t = random_tree(rng, d=4, grows=4)
            m = mutate_params(t, 4, rng, rate=1.0)
            assert m.node_count == t.node_count
            assert depth(m) == depth(t)
            assert [h in OPS for h, _ in m.code] == [h in OPS for h, _ in t.code]

    def test_constant_gets_gaussian_nudge(self):
        t = tree_of("(const 0.5)")
        s = RngStream(11).child(0)
        m = mutate_params(t, 1, s.generator(), rate=1.0, sigma=0.1)
        g = s.generator()
        g.random()  # the hit decision
        expected = 0.5 + g.normal(0.0, 0.1)
        assert m.code == (("const", expected),)

    def test_attribute_resampled_in_range(self):
        t = tree_of("(attr 0)")
        rng = np.random.default_rng(2)
        seen = {mutate_params(t, 5, rng, rate=1.0).code[0][1] for _ in range(200)}
        assert seen == {0, 1, 2, 3, 4}

    def test_operator_resampled(self):
        t = tree_of("(add (attr 0) (attr 0))")
        rng = np.random.default_rng(3)
        ops = {mutate_params(t, 1, rng, rate=1.0).code[0][0] for _ in range(200)}
        assert ops == {"add", "sub", "mul", "pdiv"}

    def test_same_stream_same_result(self):
        t = tree_of("(add (const 0.1) (attr 0))")
        s = RngStream(9).child(2)
        a = mutate_params(t, 3, s.generator())
        b = mutate_params(t, 3, s.generator())
        assert format_tree(a) == format_tree(b)


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


def ref_terminal(d, rng):
    if rng.random() < ATTRIBUTE_PROB:
        return Attribute(int(rng.integers(d)))
    return Constant(float(rng.uniform(-CONST_RANGE, CONST_RANGE)))


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


def ref_grow(root, d, rng):
    leaves = ref_leaves(root)
    target = int(rng.integers(len(leaves)))
    op = OPS[int(rng.integers(len(OPS)))]
    replacement = Operator(op, leaves[target], ref_terminal(d, rng))
    return _replace_leaf(root, target, replacement, [0])


def _mutate_node(node, d, rng, rate, sigma):
    hit = rng.random() < rate
    if isinstance(node, Operator):
        op = OPS[int(rng.integers(len(OPS)))] if hit else node.op
        left = _mutate_node(node.left, d, rng, rate, sigma)
        right = _mutate_node(node.right, d, rng, rate, sigma)
        if op == node.op and left is node.left and right is node.right:
            return node
        return Operator(op, left, right)
    if not hit:
        return node
    if isinstance(node, Attribute):
        return Attribute(int(rng.integers(d)))
    return Constant(node.value + float(rng.normal(0.0, sigma)))


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
    evaluate exactly what the node-tree implementation did."""

    @pytest.mark.parametrize("rate", [0.0, 0.5, 1.0])
    def test_same_programs_draws_and_outputs(self, rate):
        for stream in range(150):
            d = 1 + stream % 7
            rng, ref_rng = (RngStream(stream, (int(rate * 10),)).generator() for _ in "ab")
            tree = init_stump(d, rng)
            root = ref_terminal(d, ref_rng)
            for step in range(13):
                where = f"stream {stream} step {step}"
                assert format_tree(tree) == ref_text(root), where
                assert (tree.node_count, depth(tree)) == ref_measure(root), where
                assert rng.bit_generator.state == ref_rng.bit_generator.state, where
                tree = mutate_params(grow_clone(tree, d, rng), d, rng, rate=rate)
                root = _mutate_node(ref_grow(root, d, ref_rng), d, ref_rng, rate, 0.1)
            X = probe_records(rng, d)
            np.testing.assert_array_equal(bits(eval_batch(tree, X)), bits(ref_eval(root, X)))

    def test_signed_zero_and_clamped_outputs_keep_their_bits(self):
        X = np.array([[0.0, 1e300], [-0.0, -1e300], [2.0, 1e-10]])
        a0, a1 = Attribute(0), Attribute(1)
        for root in [a0, Operator("mul", a0, Constant(-1.0)), Operator("sub", a0, Constant(0.0)),
                     Operator("mul", a1, a1), Operator("pdiv", a0, a1),
                     Operator("add", Operator("mul", a1, Constant(10.0)), a0)]:
            tree = parse_tree(ref_text(root))
            np.testing.assert_array_equal(bits(eval_batch(tree, X)), bits(ref_eval(root, X)))
