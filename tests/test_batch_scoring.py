"""Batched fixed-mode scoring and survivor carry-over, checked against the
per-program path.

``score_population`` scores a fixed-mode population in batches when a bin
table has fewer than 8 cells; every fitness must equal ``gini_fitness`` of
``fit_histogram`` bit for bit, and the histogram a batched score builds on
first read must equal the one ``fit_histogram`` returns.
"""

import numpy as np
import pytest

import gpstack.training as training
from gpstack.binning import BinHistogram, FitnessConfig, fit_histogram, gini_fitness
from gpstack.dataset import LabeledDataset
from gpstack.model import dumps
from gpstack.programs import (RngStream, format_tree, grow_clone, init_stump, mutate_params,
                              parse_tree)
from gpstack.training import TrainerConfig, evolve_generation, score_population, train

from helpers import random_dataset

# outputs clamped to +-1e12 wherever attribute 0 is not 0, and 0 where it is
CLAMPED = "(mul (mul (attr 0) (const 1e200)) (const 1e200))"
SPECIAL = ["(const 0.5)", "(sub (attr 0) (attr 0))", CLAMPED, f"(sub (const 0) {CLAMPED})",
           f"(add {CLAMPED} (attr 1))", "(pdiv (attr 0) (const 0.0))"]


def random_population(rng, d, size):
    pop = [parse_tree(t.replace("attr 1", f"attr {min(1, d - 1)}")) for t in SPECIAL]
    while len(pop) < size:
        tree = init_stump(d, rng)
        for _ in range(int(rng.integers(0, 6))):
            tree = mutate_params(grow_clone(tree, d, rng), d, rng)
        pop.append(tree)
    return pop


def reference(pop, data, fitcfg):
    counts = data.class_counts()
    return [gini_fitness(fit_histogram(t, data, fitcfg), counts, fitcfg.alpha) for t in pop]


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
                assert [s.tree for s in scored] == pop
                checked += len(pop)
    assert checked >= 40 * 12


@pytest.mark.parametrize("num_bin,num_classes", [(4, 2), (3, 3), (8, 2)])
def test_large_tables_take_the_per_program_path(num_bin, num_classes, histogram_calls):
    rng = np.random.default_rng(num_bin)
    data = (random_dataset(rng, n=50, d=3) if num_classes == 2
            else three_classes_one_missing(rng, 50))
    pop = random_population(rng, data.d, 20)
    fitcfg = FitnessConfig(num_bin=num_bin)
    scored = score_population(pop, data, fitcfg)
    assert histogram_calls == pop
    assert all(isinstance(s._histogram, BinHistogram) for s in scored)
    assert bits(s.fitness for s in scored) == bits(reference(pop, data, fitcfg))


def test_lazy_histogram_equals_fit_histogram(histogram_calls):
    rng = np.random.default_rng(5)
    data = random_dataset(rng, n=60, d=3)
    pop = random_population(rng, data.d, 25)
    fitcfg = FitnessConfig(num_bin=3)
    scored = score_population(pop, data, fitcfg)
    assert histogram_calls == []
    for s in scored:
        lazy, direct = s.histogram, fit_histogram(s.tree, data, fitcfg)
        assert s.histogram is lazy  # built once, then kept
        assert lazy.geometry == direct.geometry
        for name in ("keys", "reps", "counts", "record_inverse"):
            assert np.array_equal(getattr(lazy, name), getattr(direct, name))
    assert histogram_calls == pop


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


def run_epoch(data, cfg, carry, generations=6):
    """Ranked fitnesses and bred populations of one boost epoch."""
    epoch = RngStream(cfg.seed).child(1)
    pop = tuple(init_stump(data.d, epoch.child(0, i).generator())
                for i in range(cfg.new_pop_size))
    carried, trace = (), []
    for j in range(1, generations + 1):
        result = evolve_generation(pop, data, cfg, epoch.child(j), carried=carried)
        trace.append((bits(s.fitness for s in result.ranked),
                      [format_tree(t) for t in result.next_pop]))
        pop = result.next_pop
        carried = result.ranked[:cfg.gap] if carry else ()
    return trace


@pytest.mark.parametrize("float_resolution", [False, True])
@pytest.mark.parametrize("seed", range(4))
def test_carry_over_matches_rescoring(seed, float_resolution, histogram_calls):
    data = random_dataset(np.random.default_rng(seed), n=60, d=3)
    cfg = TrainerConfig(new_pop_size=12, gap=4, beta=0.9, seed=seed,
                        float_resolution=float_resolution,
                        alpha=0.4 if float_resolution else 0.0)
    rescored = run_epoch(data, cfg, carry=False)
    del histogram_calls[:]
    carried = run_epoch(data, cfg, carry=True)
    assert carried == rescored
    if float_resolution:  # first generation scores all, later ones only offspring
        assert len(histogram_calls) == 12 + 5 * (12 - 4)


def test_carried_survivors_are_not_scored_again(monkeypatch):
    data = random_dataset(np.random.default_rng(8), n=40, d=3)
    cfg = TrainerConfig(new_pop_size=10, gap=3)
    stream = RngStream(0).child(1)
    first = evolve_generation(tuple(parse_tree(f"(attr {i % 3})") for i in range(10)),
                              data, cfg, stream.child(1))
    evaluated = []
    real = training.eval_batch
    monkeypatch.setattr(training, "eval_batch",
                        lambda tree, records: evaluated.append(tree) or real(tree, records))
    second = evolve_generation(first.next_pop, data, cfg, stream.child(2),
                               carried=first.ranked[:3])
    assert evaluated == list(first.next_pop[3:])
    assert all(any(s is c for s in second.ranked) for c in first.ranked[:3])


def test_carried_must_lead_the_population():
    data = random_dataset(np.random.default_rng(9), n=30, d=2)
    cfg = TrainerConfig(new_pop_size=6, gap=2)
    pop = tuple(parse_tree(f"(attr {i % 2})") for i in range(6))
    result = evolve_generation(pop, data, cfg, RngStream(0).child(1, 1))
    with pytest.raises(ValueError, match="leading programs"):
        evolve_generation(result.next_pop[::-1], data, cfg, RngStream(0).child(1, 2),
                          carried=result.ranked[:2])


@pytest.mark.parametrize("seed", range(3))
def test_training_bytes_equal_the_per_program_path(seed, monkeypatch):
    data = random_dataset(np.random.default_rng(20 + seed), n=70, d=4)
    cfg = TrainerConfig(max_boost_epoch=12, max_gp_epoch=8, new_pop_size=14, gap=5,
                        beta=0.9, seed=seed)
    batched = dumps(train(data, cfg))
    monkeypatch.setattr(training, "_score_batched", lambda pop, data, fitcfg, counts: [
        training._score_one(t, data, fitcfg, counts) for t in pop])
    assert dumps(train(data, cfg)) == batched
