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

import gpstack.evaluation as evaluation
from gpstack.binning import (AmbiguousBin, FitnessConfig, IntervalGeometry, LevelLookup,
                             PureBin, bin_table, fit_histogram, fixed_keys, float32_values,
                             key_reps, locate_bins, nearest_pure_bin)
from gpstack.dataset import LabeledDataset, load_csv, write_csv
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


# float32 levels answer once per distinct output; the references below apply
# the rule output by output, as predict_record does

F32_TINY = float(np.finfo(np.float32).smallest_subnormal)


def float32_level(pure, ambiguous=()):
    """Float32 lookup of a level with ``pure`` (rep, label) pairs and
    ``ambiguous`` reps, each given as values float32 holds exactly."""
    def key(rep):
        return int(np.float32(rep).view(np.uint32))
    pure_bins = tuple(PureBin(key(r), float(r), label, 1, 1) for r, label in sorted(pure))
    ambiguous_bins = tuple(AmbiguousBin(key(r), float(r)) for r in sorted(ambiguous))
    return pure_bins, ambiguous_bins, LevelLookup.compile(
        IntervalGeometry("float32", -1.0, 1.0, 2 ** 32), pure_bins, ambiguous_bins)


def scalar_answer(pure_bins, ambiguous_bins, y):
    """Answered mask and labels (-1 where passed down), one output at a time."""
    answered, labels = [], []
    for out in y:
        v = float(float32_values(np.array([out]))[0])
        hit = next((b for b in pure_bins if b.rep == v), None)
        if hit is None and not any(b.rep == v for b in ambiguous_bins):
            hit = nearest_pure_bin(pure_bins, v)
        answered.append(hit is not None)
        labels.append(-1 if hit is None else hit.label)
    return np.array(answered, dtype=bool), np.array(labels, dtype=np.int64)


def assert_answers_like_scalar(level, y):
    pure_bins, ambiguous_bins, lookup = level
    y = np.asarray(y, dtype=np.float64)
    answered, labels = lookup.answer(y)
    want_answered, want_labels = scalar_answer(pure_bins, ambiguous_bins, y)
    assert answered.shape == labels.shape == y.shape
    assert answered.tolist() == want_answered.tolist()
    assert labels[answered].tolist() == want_labels[want_answered].tolist()
    return np.where(answered, labels, -1)


@pytest.mark.parametrize("seed", range(6))
def test_float32_answers_repeated_outputs(seed):
    rng = np.random.default_rng(seed)
    reps = np.unique(np.round(rng.normal(size=12), 1).astype(np.float32)).astype(float)
    kinds = rng.integers(0, 3, size=reps.size)  # 0 pure, 1 ambiguous, 2 never seen
    level = float32_level([(r, int(rng.integers(0, 3))) for r in reps[kinds == 0]],
                          reps[kinds == 1])
    pool = np.concatenate([reps, rng.normal(size=4)])
    y = rng.choice(pool, size=3000)
    out = assert_answers_like_scalar(level, y)
    # repeated outputs share their answer
    for v in np.unique(y):
        assert np.unique(out[y == v]).size == 1


@pytest.mark.parametrize("seed", range(6))
def test_float32_answers_distinct_outputs(seed):
    rng = np.random.default_rng([seed, 1])
    reps = np.unique(rng.normal(size=40).astype(np.float32)).astype(float)
    pure = [(r, int(rng.integers(0, 2))) for r in reps[::2]]
    level = float32_level(pure, reps[1::4])
    y = np.concatenate([rng.normal(scale=2.0, size=400), reps])
    assert np.unique(float32_values(y)).size == y.size
    assert_answers_like_scalar(level, rng.permutation(y))


def test_float32_answers_no_outputs():
    _, _, lookup = float32_level([(0.5, 1)], [1.5])
    answered, labels = lookup.answer(np.array([], dtype=np.float64))
    assert answered.shape == labels.shape == (0,)
    assert answered.dtype == bool


def test_float32_answers_signed_zero_extremes_and_subnormals():
    level = float32_level([(0.0, 1), (-np.inf, 0), (F32_TINY, 2), (3 * F32_TINY, 0),
                           (1.0, 1)], [np.inf, 2 * F32_TINY])
    y = [-0.0, 0.0, 5e-324, -5e-324, -1e-50,    # all the +0.0 bin
         1e39, np.inf, HUGE,                    # +inf: ambiguous
         -1e39, -np.inf, -HUGE,                 # -inf: pure
         F32_TINY, 2 * F32_TINY, 3 * F32_TINY, 4 * F32_TINY, -F32_TINY,
         1e38, -1e38, 3e38]
    out = assert_answers_like_scalar(level, y)
    assert out.tolist() == [1, 1, 1, 1, 1,
                            -1, -1, -1,
                            0, 0, 0,
                            2, -1, 0, 0, 1,
                            1, 1, 1]  # -inf is farther from -1e38 than 0.0 is


def test_float32_halfway_outputs_go_to_the_lower_rep():
    level = float32_level([(-2.0, 0), (-1.0, 1), (1.0, 2), (2.0, 3)])
    out = assert_answers_like_scalar(level, [-1.5, 1.5, 0.0, -1.5, 1.5])
    assert out.tolist() == [0, 2, 1, 0, 2]


def test_float32_ambiguous_bins_only_between_pure_ones():
    level = float32_level([(0.0, 1), (3.0, 0)], [1.0, 2.0])
    y = [1.0, 2.0, 1.4, 1.5, 1.6, 2.5, -7.0, 9.0, 1.0, 2.0]
    out = assert_answers_like_scalar(level, y)
    assert out.tolist() == [-1, -1, 1, 1, 0, 0, 1, 0, -1, -1]


@pytest.mark.parametrize("seed", range(4))
def test_fit_histogram_float32_bins_match_a_scalar_dedupe(seed):
    rng = np.random.default_rng([seed, 2])
    data = extreme_dataset(rng, 60)
    for text in SPECIAL + ["(add (attr 0) (const 0.25))"]:
        tree = parse_tree(text)
        hist = fit_histogram(tree, data, FitnessConfig(float_resolution=True))
        values = [float(float32_values(np.array([v]))[0])
                  for v in eval_batch(tree, data.records)]
        distinct = sorted(set(values))
        assert hist.reps.tolist() == distinct
        assert hist.keys.tolist() == [int(np.float32(v).view(np.uint32)) for v in distinct]
        assert hist.record_inverse.tolist() == [distinct.index(v) for v in values]
        assert hist.record_inverse.dtype == np.int32


def test_evaluate_reads_a_csv_view_like_a_contiguous_copy(tmp_path, monkeypatch):
    rng = np.random.default_rng(7)
    data = extreme_dataset(rng, 80)
    stack = random_stack(rng, data, True, 2)
    assert stack.depth >= 2
    write_csv(data, str(tmp_path / "d.csv"))
    view = load_csv(str(tmp_path / "d.csv"))
    assert not view.records.flags.c_contiguous and not view.records.flags.writeable
    copy = dataclasses.replace(view, records=np.ascontiguousarray(view.records))
    assert copy.records.flags.c_contiguous

    seen = []
    real = evaluation.eval_batch

    def spy(tree, records):
        seen.append(records)
        return real(tree, records)

    monkeypatch.setattr(evaluation, "eval_batch", spy)
    reports = []
    for d in (view, copy):
        seen.clear()
        report = evaluate(stack, d).to_dict()
        assert seen[0] is d.records  # level 1 reads the records in place
        assert all(r.shape[0] < d.n for r in seen[1:])
        reports.append({k: v for k, v in report.items() if k != "seconds"})
    assert reports[0] == reports[1]
    assert reports[0] == {k: v for k, v in evaluate(stack, data).to_dict().items()
                          if k != "seconds"}
