"""Batched fixed-mode scoring and the per-epoch score table, checked
against the per-program path and against scoring every generation afresh.

``score_population`` scores a fixed-mode population in batches when a bin
table has fewer than 8 cells; every fitness must equal ``gini_fitness`` of
``fit_histogram`` bit for bit.  Float32 scoring counts bins from one sort
(``float32_counts``); those counts, and so every fitness, must equal the
histogram's bit for bit.  On every path a score's ``has_pure`` must say
what ``bin_table`` of that histogram says.  Within a boost epoch each
program is scored once on its residual, and sharing that table must not
change what training writes.
"""

import numpy as np
import pytest

import gpstack.training as training
from gpstack.binning import (FitnessConfig, bin_table, fit_histogram, float32_counts,
                             gini_fitness)
from gpstack.dataset import LabeledDataset
from gpstack.model import dumps
from gpstack.programs import (FINITE_CLAMP, RngStream, eval_batch, format_tree, grow_clone,
                              init_stump, mutate_params, parse_tree)
from gpstack.training import TrainerConfig, evolve_generation, score_population, train

from helpers import random_dataset

# outputs clamped to +-1e12 wherever attribute 0 is not 0, and 0 where it is
CLAMPED = "(mul (mul (attr 0) (const 1e200)) (const 1e200))"
SPECIAL = ["(const 0.5)", "(sub (attr 0) (attr 0))", CLAMPED, f"(sub (const 0) {CLAMPED})",
           f"(add {CLAMPED} (attr 1))", "(pdiv (attr 0) (const 0.0))"]


def random_population(rng, d, size):
    pop = [parse_tree(t.replace("attr 1", f"attr {min(1, d - 1)}")) for t in SPECIAL]
    while len(pop) < size:
        (tree,) = init_stump(1, d, rng)
        for _ in range(int(rng.integers(0, 6))):
            (tree,) = mutate_params(grow_clone([tree], d, rng), d, rng)
        pop.append(tree)
    return pop


def reference(pop, data, fitcfg):
    counts = data.class_counts()
    return [gini_fitness(fit_histogram(t, data, fitcfg), counts, fitcfg.alpha) for t in pop]


def has_pure(pop, data, fitcfg):
    return [bool(bin_table(fit_histogram(t, data, fitcfg), fitcfg.beta)[0]) for t in pop]


def bits(values):
    return [float(v).hex() for v in values]


def three_classes_one_missing(rng, n):
    labels = rng.choice([0, 2], size=n).astype(np.int64)
    labels[:2] = [0, 2]
    X = np.round(rng.normal(0.0, 1.0, size=(n, 3)), 1)
    X[:, 0] += labels
    return LabeledDataset(X, labels, ("a", "b", "c"))


def datasets(seed):
    rng = np.random.default_rng(seed)
    yield random_dataset(rng, n=int(rng.integers(2, 80)), d=int(rng.integers(1, 5)))
    yield random_dataset(rng, n=int(rng.integers(2, 80)), d=3, gridded=False)
    yield three_classes_one_missing(rng, int(rng.integers(3, 60)))
    # a constant attribute: every program reading only it has hi == lo
    one = random_dataset(rng, n=30, d=2)
    X = one.records.copy()
    X[:, 1] = 0.25
    yield LabeledDataset(X, one.labels, one.classes)
    # fewer records than bins caps the usage bonus's denominator
    yield LabeledDataset(np.array([[0.5, 1.0], [0.75, -1.0]]), np.array([0, 1]), ("a", "b"))


@pytest.fixture()
def histogram_calls(monkeypatch):
    calls = []
    real = training.fit_histogram

    def counting(*args):
        calls.append(args[0])
        return real(*args)

    monkeypatch.setattr(training, "fit_histogram", counting)
    return calls


def count_scored(monkeypatch, calls):
    """Appends to ``calls`` each program that training runs to score it, by
    ``eval_batch`` or ``eval_population``; histogram builds run programs in
    ``binning`` and are not counted."""
    one, many = training.eval_batch, training.eval_population

    def counting_one(tree, records):
        calls.append(tree)
        return one(tree, records)

    def counting_many(trees, records):
        calls.extend(trees)
        return many(trees, records)

    monkeypatch.setattr(training, "eval_batch", counting_one)
    monkeypatch.setattr(training, "eval_population", counting_many)


@pytest.fixture()
def scored_calls(monkeypatch):
    calls = []
    count_scored(monkeypatch, calls)
    return calls


@pytest.mark.parametrize("seed", range(12))
def test_batched_fitness_is_bit_identical(seed, histogram_calls):
    rng = np.random.default_rng(1000 + seed)
    checked = 0
    for data in datasets(seed):
        pop = random_population(rng, data.d, 40)
        for num_bin in range(1, 8):
            if num_bin * data.num_classes >= 8:
                continue
            for alpha in (0.0, 0.4):
                fitcfg = FitnessConfig(beta=0.9, alpha=alpha, num_bin=num_bin)
                del histogram_calls[:]
                scored = score_population(pop, data, fitcfg)
                assert histogram_calls == []  # fitness came from the batch
                assert bits(s.fitness for s in scored) == bits(reference(pop, data, fitcfg))
                assert [s.has_pure for s in scored] == has_pure(pop, data, fitcfg)
                assert [s.tree for s in scored] == pop
                checked += len(pop)
    assert checked >= 40 * 12


@pytest.mark.parametrize("num_bin,num_classes", [(4, 2), (3, 3), (8, 2)])
def test_large_tables_take_the_per_program_path(num_bin, num_classes, histogram_calls):
    rng = np.random.default_rng(num_bin)
    data = (random_dataset(rng, n=50, d=3) if num_classes == 2
            else three_classes_one_missing(rng, 50))
    pop = random_population(rng, data.d, 20)
    fitcfg = FitnessConfig(beta=0.7, num_bin=num_bin)
    scored = score_population(pop, data, fitcfg)
    assert histogram_calls == pop
    assert bits(s.fitness for s in scored) == bits(reference(pop, data, fitcfg))
    assert [s.has_pure for s in scored] == has_pure(pop, data, fitcfg)


@pytest.mark.parametrize("float_resolution,num_bin", [(False, 2), (False, 4), (True, 2)])
@pytest.mark.parametrize("beta", [0.5, 0.75, 0.8, 1.0])
def test_has_pure_is_exact_at_a_share_of_beta(beta, float_resolution, num_bin):
    """Bins whose majority share is exactly 3/4, 4/5, 1/2 or 1, on the
    batched (2 bins), per-program fixed (4 bins) and float32 paths: a bin at
    exactly ``beta`` is pure, so each path must read ``y_star / total >= beta``
    as ``bin_table`` does."""
    # (attr 0) puts 4 records at -1 (3 of class a), 5 at 1 (4 of class b)
    # and 2 at 2 (one each); 2 fixed bins hold 3 of 4 and 5 of 7; (attr 1)
    # puts all 11 in one bin of 6 to 5
    X = np.array([[-1.0, 0.0]] * 4 + [[1.0, 0.0]] * 5 + [[2.0, 0.0]] * 2)
    labels = np.array([0, 0, 0, 1, 1, 1, 1, 1, 0, 0, 1])
    data = LabeledDataset(X, labels, ("a", "b"))
    pop = [parse_tree("(attr 0)"), parse_tree("(attr 1)"), parse_tree("(sub (attr 0) (attr 0))")]
    fitcfg = FitnessConfig(beta=beta, num_bin=num_bin, float_resolution=float_resolution)
    expected = has_pure(pop, data, fitcfg)
    assert [s.has_pure for s in score_population(pop, data, fitcfg)] == expected
    assert expected == [beta <= (0.75 if num_bin == 2 and not float_resolution else 0.8),
                        beta <= 6 / 11, beta <= 6 / 11]


def test_scores_keep_no_histogram(histogram_calls):
    rng = np.random.default_rng(5)
    data = random_dataset(rng, n=60, d=3)
    pop = random_population(rng, data.d, 25)
    fitcfg = FitnessConfig(num_bin=3)
    scored = score_population(pop, data, fitcfg)
    assert histogram_calls == []
    assert all(s._fields == ("tree", "fitness", "has_pure") for s in scored)
    assert [s.has_pure for s in scored] == has_pure(pop, data, fitcfg)


def test_chunks_give_the_same_fitness(monkeypatch):
    rng = np.random.default_rng(6)
    data = random_dataset(rng, n=40, d=3)
    pop = random_population(rng, data.d, 30)
    fitcfg = FitnessConfig(num_bin=2)
    whole = score_population(pop, data, fitcfg)
    monkeypatch.setattr(training, "BATCH_CELLS", 7 * data.n)  # chunks of 7 programs
    chunked = score_population(pop, data, fitcfg)
    monkeypatch.setattr(training, "BATCH_CELLS", 1)  # one program at a time
    single = score_population(pop, data, fitcfg)
    assert bits(s.fitness for s in whole) == bits(s.fitness for s in chunked) \
        == bits(s.fitness for s in single)
    assert whole == chunked == single


@pytest.mark.parametrize("cap_nodes", [0, 1, 2, 3, 5, 8, 13, 40])
def test_no_batch_holds_more_cells_than_the_cap(cap_nodes, monkeypatch):
    """Each batch's node matrix holds at most ``BATCH_CELLS`` values, and a
    batch is cut only where the next program would not fit; a program larger
    than the cap by itself is evaluated alone by ``eval_batch``."""
    rng = np.random.default_rng(60 + cap_nodes)
    data = random_dataset(rng, n=30, d=3)
    pop = random_population(rng, data.d, 30)
    fitcfg = FitnessConfig(num_bin=2)
    whole = score_population(pop, data, fitcfg)
    calls, alone = [], []
    population, batch = training.eval_population, training.eval_batch
    monkeypatch.setattr(training, "eval_population",
                        lambda trees, records: calls.append(list(trees))
                        or population(trees, records))
    monkeypatch.setattr(training, "eval_batch",
                        lambda tree, records: calls.append([tree]) or alone.append(tree)
                        or batch(tree, records))
    cap = cap_nodes * data.n + data.n - 1  # room for cap_nodes nodes, not one more
    monkeypatch.setattr(training, "BATCH_CELLS", cap)
    assert score_population(pop, data, fitcfg) == whole
    assert [t for trees in calls for t in trees] == pop
    cells = [sum(t.node_count for t in trees) * data.n for trees in calls]
    assert all((c > cap) == (trees[0] in alone) for c, trees in zip(cells, calls))
    assert all(c + trees[0].node_count * data.n > cap for c, trees in zip(cells, calls[1:]))
    if cap_nodes >= 13:
        assert len(calls) < len(pop)


# ranges float64 cannot split: the keys still lie in [0, num_bin), so the
# batch scores them like any other row and nothing falls back or warns
@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("classes", [("a", "b"), ("a", "b", "c")])
@pytest.mark.parametrize("column", [
    [1e308, -1e308, 0.0, 1.0],        # hi - lo overflows to inf
    [0.0, 5e-324, 0.0, 5e-324],       # (hi - lo) / 2 underflows to 0
])
def test_ranges_float64_cannot_split_fall_back(column, classes, histogram_calls):
    labels = np.array([0, 1, len(classes) - 1, 0], dtype=np.int64)
    X = np.column_stack([column, [1.0, 2.0, 3.0, 4.0]])
    data = LabeledDataset(X, labels, classes)
    pop = [parse_tree("(attr 0)"), parse_tree("(attr 1)")]
    fitcfg = FitnessConfig(num_bin=2)
    scored = score_population(pop, data, fitcfg)
    assert histogram_calls == []
    assert bits(s.fitness for s in scored) == bits(reference(pop, data, fitcfg))
    keys = fit_histogram(pop[0], data, fitcfg).keys
    assert keys.tolist() == [0, 1]


def test_empty_population():
    data = random_dataset(np.random.default_rng(7), n=20, d=2)
    assert score_population([], data, FitnessConfig()) == []


def run_epoch(data, cfg, shared, generations=6):
    """Ranked fitnesses and bred populations of one boost epoch, scored
    with one table for the epoch or a fresh table each generation."""
    epoch = RngStream(cfg.seed).child(1)
    pop = init_stump(cfg.new_pop_size, data.d, epoch.child(0).generator())
    scores, trace = {}, []
    for j in range(1, generations + 1):
        result = evolve_generation(pop, data, cfg, epoch.child(j), scores if shared else None)
        trace.append((bits(s.fitness for s in result.ranked),
                      [format_tree(t) for t in result.next_pop]))
        pop = result.next_pop
    return trace, scores


@pytest.mark.parametrize("float_resolution", [False, True])
@pytest.mark.parametrize("seed", range(4))
def test_carry_over_matches_rescoring(seed, float_resolution, scored_calls):
    data = random_dataset(np.random.default_rng(seed), n=60, d=3)
    cfg = TrainerConfig(new_pop_size=12, gap=4, beta=0.9, seed=seed,
                        float_resolution=float_resolution,
                        alpha=0.4 if float_resolution else 0.0)
    rescored, _ = run_epoch(data, cfg, shared=False)
    del scored_calls[:]
    carried, scores = run_epoch(data, cfg, shared=True)
    assert carried == rescored
    # each distinct program once, in the order first met
    assert [t.code for t in scored_calls] == list(scores)


def test_carried_survivors_are_not_scored_again(monkeypatch):
    data = random_dataset(np.random.default_rng(8), n=40, d=3)
    cfg = TrainerConfig(new_pop_size=10, gap=3)
    stream = RngStream(0).child(1)
    evaluated = []
    count_scored(monkeypatch, evaluated)
    scores = {}
    first = evolve_generation(tuple(parse_tree(f"(attr {i % 3})") for i in range(10)),
                              data, cfg, stream.child(1), scores)
    assert [t.code for t in evaluated] == [parse_tree(f"(attr {i})").code for i in range(3)]
    kept = dict(scores)
    del evaluated[:]
    second = evolve_generation(first.next_pop, data, cfg, stream.child(2), scores)
    assert [t.code for t in evaluated] == list(dict.fromkeys(
        t.code for t in first.next_pop if t.code not in kept))
    assert all(any(s is kept[c.tree.code] for s in second.ranked) for c in first.ranked[:3])


@pytest.mark.parametrize("float_resolution", [False, True])
@pytest.mark.parametrize("seed", range(3))
def test_training_bytes_equal_a_fresh_table_per_generation(seed, float_resolution,
                                                           monkeypatch):
    data = random_dataset(np.random.default_rng(40 + seed), n=70, d=3)
    cfg = TrainerConfig(max_boost_epoch=12, max_gp_epoch=8, new_pop_size=14, gap=5,
                        beta=0.9, seed=seed, float_resolution=float_resolution,
                        alpha=0.4 if float_resolution else 0.0)
    shared = dumps(train(data, cfg))
    real = training.evolve_generation
    monkeypatch.setattr(training, "evolve_generation",
                        lambda pop, data, cfg, stream, scores: real(pop, data, cfg, stream))
    assert dumps(train(data, cfg)) == shared


def coarse_noise(seed):
    """Labels independent of four-valued attributes: float32 bins stay mixed."""
    rng = np.random.default_rng(seed)
    return LabeledDataset(rng.integers(0, 4, size=(80, 2)).astype(np.float64),
                          rng.integers(0, 2, size=80), ("a", "b"))


@pytest.mark.parametrize("float_resolution", [False, True])
def test_no_program_is_scored_twice_on_one_residual(float_resolution, monkeypatch):
    """Within an epoch each residual is one dataset object; the calls made
    while scoring are keyed by it, so a repeat means a program was scored
    twice on one residual.  The champion search's histogram reads and the
    residual's replay run outside scoring and are not counted."""
    data = (coarse_noise(11) if float_resolution
            else random_dataset(np.random.default_rng(11), n=80, d=2))
    cfg = TrainerConfig(max_boost_epoch=8, max_gp_epoch=6, new_pop_size=12, gap=4,
                        beta=0.8 if float_resolution else 0.9,
                        float_resolution=float_resolution,
                        alpha=0.4 if float_resolution else 0.0)
    calls, pops, alive, scoring = [], [], [], [False]

    def watch(name, fn):
        def wrapped(tree, where, *rest):
            if scoring[0]:
                alive.append(where)  # keeps ids unique for the whole run
                calls.append((name, id(where), tree.code))
            return fn(tree, where, *rest)
        return wrapped

    def watch_population(fn):
        def wrapped(trees, records):
            if scoring[0]:
                alive.append(records)
                calls.extend(("eval_batch", id(records), t.code) for t in trees)
            return fn(trees, records)
        return wrapped

    def scoring_only(fn):
        def wrapped(*args):
            scoring[0] = True
            try:
                return fn(*args)
            finally:
                scoring[0] = False
        return wrapped

    real_generation = training.evolve_generation
    monkeypatch.setattr(training, "evolve_generation",
                        lambda pop, *rest: pops.append(pop) or real_generation(pop, *rest))
    monkeypatch.setattr(training, "score_population", scoring_only(training.score_population))
    # fit_histogram gets the residual, eval_batch and eval_population its
    # records array; both evaluators count as one, so a program scored by
    # each on one residual is a repeat too
    monkeypatch.setattr(training, "fit_histogram", watch("fit_histogram", training.fit_histogram))
    monkeypatch.setattr(training, "eval_batch", watch("eval_batch", training.eval_batch))
    monkeypatch.setattr(training, "eval_population",
                        watch_population(training.eval_population))
    stack = train(data, cfg)
    assert stack.depth >= 2 and len(pops) > stack.depth + 1  # some epoch breeds
    first = [t.code for t in pops[0]]
    assert len(set(first)) < len(first)  # the first population repeats stumps
    assert calls and len(set(calls)) == len(calls)


@pytest.mark.parametrize("seed", range(3))
def test_training_bytes_equal_the_per_program_path(seed, monkeypatch):
    data = random_dataset(np.random.default_rng(20 + seed), n=70, d=4)
    cfg = TrainerConfig(max_boost_epoch=12, max_gp_epoch=8, new_pop_size=14, gap=5,
                        beta=0.9, seed=seed)
    batched = dumps(train(data, cfg))
    monkeypatch.setattr(training, "_score_batched", lambda pop, data, fitcfg, counts: [
        training._score_one(t, data, fitcfg, counts) for t in pop])
    assert dumps(train(data, cfg)) == batched


def labelled(rng, X, num_classes, missing=None):
    """``X`` with random labels over ``num_classes`` classes, every class but
    ``missing`` present."""
    present = [c for c in range(num_classes) if c != missing]
    labels = rng.choice(present, size=len(X)).astype(np.int64)
    labels[:len(present)] = present
    return LabeledDataset(X, labels, tuple("abcde"[:num_classes]))


def assert_float32_scores_match(pop, data, alpha, histogram_calls):
    fitcfg = FitnessConfig(beta=0.6, alpha=alpha, float_resolution=True)
    del histogram_calls[:]
    scored = score_population(pop, data, fitcfg)
    assert histogram_calls == []  # no histogram was built to score
    assert bits(s.fitness for s in scored) == bits(reference(pop, data, fitcfg))
    assert [s.has_pure for s in scored] == has_pure(pop, data, fitcfg)
    for tree in pop:
        counts = float32_counts(eval_batch(tree, data.records), data.labels, data.num_classes)
        expected = fit_histogram(tree, data, fitcfg).counts
        assert counts.dtype == expected.dtype and np.array_equal(counts, expected)


@pytest.mark.parametrize("num_classes", [2, 3, 5])
@pytest.mark.parametrize("seed", range(4))
def test_float32_scores_equal_histogram_fitness(seed, num_classes, histogram_calls):
    """Random programs over gridded attributes, a zero attribute that
    ``(mul ... (const -1))`` turns into -0.0, and outputs clamped at
    +-FINITE_CLAMP; the odd seeds' residual lacks a class."""
    rng = np.random.default_rng(300 + seed)
    n = int(rng.integers(2 * num_classes, 90))
    X = np.round(rng.normal(0.0, 1.0, size=(n, 3)), int(rng.integers(0, 3)))
    X[rng.random(n) < 0.3, 0] = 0.0
    data = labelled(rng, X, num_classes, missing=1 if seed % 2 else None)
    pop = random_population(rng, data.d, 40)
    pop += [parse_tree("(mul (attr 0) (const -1))"), parse_tree(f"(sub (const 0) {CLAMPED})")]
    for alpha in (0.0, 0.4):
        assert_float32_scores_match(pop, data, alpha, histogram_calls)


F32 = np.finfo(np.float32)
EXTREMES = [
    FINITE_CLAMP, -FINITE_CLAMP, 0.0, -0.0, 1.0, 1.0 + 2.0 ** -40, 1.0 - 2.0 ** -40,
    0.1, float(np.float32(0.1)), -0.1, float(F32.smallest_subnormal),
    -float(F32.smallest_subnormal), 3 * float(F32.smallest_subnormal),
    -3 * float(F32.smallest_subnormal), 1e-40, -1e-40, -1.0,
    float(np.nextafter(np.float32(-1.0), np.float32(0.0))),
    1e-46, -1e-46, float(F32.tiny), float(F32.max), -float(F32.max), 1e39, -1e39,
    np.inf, -np.inf, 1e300, -1e300,
]


@pytest.mark.parametrize("num_classes", [2, 3, 5])
@pytest.mark.parametrize("seed", range(3))
def test_float32_scores_on_extreme_outputs(seed, num_classes, histogram_calls):
    """-0.0 shares +0.0's bin, float64 values that round to one float32
    share a bin, float32 subnormals keep their own, and outputs beyond the
    float32 range fall into the +-inf bins."""
    rng = np.random.default_rng(400 + seed)
    column = rng.choice(EXTREMES, size=120)
    column[:len(EXTREMES)] = EXTREMES
    X = np.column_stack([column, rng.permutation(column)])
    data = labelled(rng, X, num_classes, missing=num_classes - 1 if seed == 2 else None)
    pop = [parse_tree("(attr 0)"), parse_tree("(attr 1)")]
    for alpha in (0.0, 0.4):
        assert_float32_scores_match(pop, data, alpha, histogram_calls)
    reps = fit_histogram(pop[0], data, FitnessConfig(float_resolution=True)).reps
    assert reps[0] == -np.inf and reps[-1] == np.inf and 0.0 in reps
    assert np.count_nonzero(reps == 1.0) == 1 and np.float32(1e-40) in reps
