"""The one value-to-bin route, checked against independent references.

``float32_values``, ``fixed_keys`` and ``LevelLookup`` in ``gpstack.binning``
are the only places program outputs become bins.  Over random stacks that
reach float64's extremes, record by record:

* ``evaluate`` answers as the scalar reference ``predict_record`` does;
* ``extract_residual`` claims exactly the records the champion's histogram
  put in pure bins (``record_inverse``), and these are exactly the records
  its deployed lookup answers on the residual;
* every fixed-mode key lies in ``[0, num_bin)`` and the model file loads.
"""

import dataclasses

import numpy as np
import pytest

from gpstack.binning import (FitnessConfig, IntervalGeometry, bin_table, fit_histogram,
                             fixed_keys, float32_values, key_reps, locate_bins)
from gpstack.dataset import LabeledDataset
from gpstack.evaluation import evaluate, predict_record
from gpstack.model import dumps, loads
from gpstack.programs import eval_batch, grow_clone, init_stump, mutate_params, parse_tree
from gpstack.training import (ChampionEntry, EnsembleStack, TrainerConfig, TrainingLog,
                              extract_residual, preset, train)

pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

TINY = 5e-324
HUGE = np.finfo(np.float64).max

# attribute 1 spans +-1e308, attribute 2 is 0 or the smallest subnormal,
# attribute 3 lies beyond the float32 range
SPECIAL = [
    "(attr 0)", "(attr 1)", "(attr 2)", "(attr 3)",
    "(mul (attr 0) (const -1.0))",                    # -0.0 where attribute 0 is 0.0
    "(mul (mul (attr 0) (const 1e200)) (const 1e200))",  # clamped to +-1e12
    "(mul (attr 1) (const 10.0))",                    # clamped to +-1e12 where it overflows
    "(add (attr 2) (attr 2))",
    "(sub (attr 3) (attr 0))",
]


def extreme_dataset(rng, n):
    """Two classes; attribute 0 is class-shifted and rounded to one decimal,
    the others reach float64's extremes and follow the class too."""
    labels = rng.integers(0, 2, size=n).astype(np.int64)
    labels[:2] = [0, 1]
    sign = np.where(labels == 1, 1.0, -1.0)
    X = np.column_stack([
        np.round(rng.normal(0.6 * sign, 1.0), 1),
        sign * 1e308 * rng.random(n),
        np.where((labels == 1) ^ (rng.random(n) < 0.15), TINY, 0.0),
        sign * 10.0 ** rng.uniform(30.0, 45.0, size=n),
    ])
    return LabeledDataset(X, labels, ("neg", "pos"))


def random_programs(rng, d):
    """Every special program once, in random order, then random ones."""
    for i in rng.permutation(len(SPECIAL)):
        yield parse_tree(SPECIAL[i])
    while True:
        tree = init_stump(d, rng)
        for _ in range(int(rng.integers(0, 4))):
            tree = mutate_params(grow_clone(tree, d, rng), d, rng)
        yield tree


def pure_members(hist, pure):
    """Records the histogram put in one of the ``pure`` bins."""
    pure_pos = np.isin(hist.keys, [b.key for b in pure])
    return np.flatnonzero(pure_pos[hist.record_inverse])


def random_stack(rng, data, float_resolution, num_bin):
    """Stack built as training builds one, from random programs, with the
    log training would write; checks that each extracted residual is the
    champion's pure-bin membership and exactly what its deployed lookup
    answers on that residual."""
    entries, residual, log = [], data, TrainingLog(residual_sizes=[data.n])
    programs = random_programs(rng, data.d)
    beta = float(rng.uniform(0.7, 1.0))
    while residual is not None and len(entries) < 8:
        tree = next(programs)
        fitcfg = FitnessConfig(beta=beta, num_bin=num_bin, float_resolution=float_resolution)
        hist = fit_histogram(tree, residual, fitcfg)
        pure, ambiguous = bin_table(hist, beta)
        if not pure:
            continue
        k = len(entries) + 1
        entry = ChampionEntry(tree, float(k), hist.geometry, pure, ambiguous, beta, k)
        expected = pure_members(hist, pure)
        answered, _ = entry.lookup.answer(eval_batch(tree, residual.records))
        residual, claimed = extract_residual(entry, residual, hist)
        assert claimed.tolist() == expected.tolist()
        assert np.flatnonzero(answered).tolist() == claimed.tolist()
        entries.append(entry)
        log.residual_sizes.append(0 if residual is None else residual.n)
    cfg = TrainerConfig(num_bin=num_bin, float_resolution=float_resolution, beta=beta)
    return EnsembleStack(tuple(entries), data.classes, data.d, data.majority_class(), cfg, log)


def assert_evaluate_matches_predict_record(stack, data):
    for i in range(data.n):
        trace = predict_record(stack, data.records[i])
        # labelled with predict_record's answer, the record scores 1 iff evaluate agrees
        one = LabeledDataset(data.records[i:i + 1].copy(), np.array([trace.prediction]),
                             data.classes)
        report = evaluate(stack, one)
        assert report.accuracy_with_fallback == 1.0, i
        assert report.fallback == int(trace.fallback), i
        if not trace.fallback:
            assert report.per_level_counts[trace.level - 1] == 1, i


def fixed_mode_keys(stack):
    return [b.key for e in stack.entries for b in e.pure_bins + e.ambiguous_bins]


@pytest.mark.parametrize("float_resolution", [False, True])
@pytest.mark.parametrize("seed", range(8))
def test_routes_agree_on_random_extreme_stacks(seed, float_resolution):
    rng = np.random.default_rng([seed, float_resolution])
    data = extreme_dataset(rng, int(rng.integers(30, 80)))
    num_bin = int(rng.integers(2, 6))
    stack = random_stack(rng, data, float_resolution, num_bin)
    assert stack.depth >= 1
    if not float_resolution:
        assert all(0 <= k < e.geometry.num_bin for e in stack.entries
                   for k in (b.key for b in e.pure_bins + e.ambiguous_bins))
    text = dumps(stack)
    loaded = loads(text)
    assert dumps(loaded) == text
    probe = extreme_dataset(rng, 40)  # outputs never seen at fit time
    for s in (stack, loaded):
        assert_evaluate_matches_predict_record(s, data)
        assert_evaluate_matches_predict_record(s, probe)


def test_beyond_float32_outputs_share_inf_bins():
    data = LabeledDataset(np.array([[1e39], [2e39], [-1e39], [0.5]]), np.array([1, 1, 0, 0]),
                          ("neg", "pos"))
    hist = fit_histogram(parse_tree("(attr 0)"), data, FitnessConfig(float_resolution=True))
    assert hist.reps.tolist() == [-np.inf, 0.5, np.inf]
    assert hist.counts.tolist() == [[1, 0], [1, 0], [0, 2]]


def test_float32_values_is_the_one_negative_zero_rule():
    v = float32_values(np.array([-0.0, 0.0, -1e-50, 1e-50, 1.0]))
    assert v.dtype == np.float32
    assert [np.signbit(x) for x in v] == [False] * 5
    keys = locate_bins(IntervalGeometry("float32", 0.0, 1.0, 2 ** 32), np.array([-0.0, 0.0]))
    assert keys.tolist() == [0, 0]


def today_keys(rows, lo, hi, nb):
    """The fixed-mode key arithmetic for rows float64 can split."""
    idx = np.floor((rows - lo[:, None]) / ((hi - lo) / nb)[:, None])
    return np.clip(idx, 0, nb - 1).astype(np.int64)


@pytest.mark.parametrize("seed", range(8))
def test_fixed_keys_in_range_and_ordered_for_every_finite_output(seed):
    rng = np.random.default_rng(seed)
    pool = np.array([0.0, -0.0, TINY, -TINY, 2 * TINY, 1e-310, 1.0, -1.0, 1e12, -1e12,
                     1e308, -1e308, HUGE, -HUGE])
    rows = rng.choice(pool, size=(30, 7)) * rng.choice([1.0, 0.5, 0.3], size=(30, 7))
    rows[::3] = rng.normal(size=(10, 7))
    rows[1::5] = rows[1::5, :1]  # hi == lo
    lo, hi = rows.min(axis=1), rows.max(axis=1)
    for nb in (1, 2, 3, 7):
        keys = fixed_keys(rows.copy(), lo, hi, nb)
        assert keys.min() >= 0 and keys.max() < nb
        assert np.all(keys[np.arange(30), rows.argmin(axis=1)] == 0)
        for r in range(30):  # keys never decrease as outputs grow
            assert np.all(np.diff(keys[r][np.argsort(rows[r], kind="stable")]) >= 0)
        with np.errstate(over="ignore"):
            width = (hi - lo) / nb
        split = (width > 0) & np.isfinite(width)
        assert np.array_equal(keys[split], today_keys(rows[split], lo[split], hi[split], nb))
        assert np.all(keys[hi <= lo] == 0)
        # one geometry at a time gives the same keys
        for r in range(30):
            geom = IntervalGeometry("fixed", float(lo[r]), float(hi[r]), nb)
            assert np.array_equal(locate_bins(geom, rows[r]), keys[r])


@pytest.mark.parametrize("lo,hi,outputs", [
    (-1e308, 1e308, [-HUGE, -1e308, -1.0, 0.0, 1e308, HUGE]),
    (0.0, TINY, [-1e300, -1.0, 0.0, TINY, 1e300]),
])
def test_unseen_outputs_of_unsplittable_ranges_clamp(lo, hi, outputs):  # ascending outputs
    keys = locate_bins(IntervalGeometry("fixed", lo, hi, 2), np.array(outputs))
    assert keys.min() >= 0 and keys.max() <= 1
    assert keys.tolist() == sorted(keys.tolist())


@pytest.mark.parametrize("lo,hi", [(-1e308, 1e308), (-HUGE, HUGE), (0.0, TINY)])
def test_reps_of_unsplittable_ranges_ascend_inside_the_range(lo, hi):
    reps = key_reps(IntervalGeometry("fixed", float(lo), float(hi), 2), np.arange(2))
    assert np.isfinite(reps).all() and lo <= reps[0] < reps[1] <= hi


@pytest.mark.parametrize("seed", range(5))
def test_training_on_a_range_float64_cannot_split(seed):
    rng = np.random.default_rng(0)
    labels = rng.integers(0, 2, size=200).astype(np.int64)
    X = rng.normal(size=(200, 3))
    X[:, 0] = np.where(labels == 1, 1.0, -1.0) * 1e308 * rng.random(200)
    data = LabeledDataset(X, labels, ("neg", "pos"))
    stack = train(data, preset("small-fast", seed=seed))
    keys = fixed_mode_keys(stack)
    assert keys and all(0 <= k < 2 for k in keys)
    for e in stack.entries:
        reps = np.array([b.rep for b in e.pure_bins + e.ambiguous_bins])
        assert np.isfinite(reps).all()
        assert np.all((e.geometry.lo <= reps) & (reps <= e.geometry.hi))
    text = dumps(stack)
    assert dumps(loads(text)) == text
    assert evaluate(stack, data).accuracy_strict >= 0.99


def test_lookup_is_compiled_once_and_not_model_state():
    data = extreme_dataset(np.random.default_rng(3), 30)
    stack = random_stack(np.random.default_rng(4), data, False, 2)
    entry = stack.entries[0]
    assert entry.lookup is entry.lookup
    assert "lookup" not in {f.name for f in dataclasses.fields(ChampionEntry)}
    assert loads(dumps(stack)).entries[0] == entry
