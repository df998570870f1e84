"""Boosted training of program stacks.

Training runs in boost epochs.  Each epoch evolves a fresh population of
programs against the current residual dataset, picks the first
sufficiently fit program whose histogram has at least one pure bin (the
champion), pushes it onto the stack, and removes every record that landed
in one of its pure bins.  Those records are read from the histogram the
champion search built on the residual; on that data they are exactly the
records its compiled lookup (``ChampionEntry.lookup``, the one answer rule
deployment uses) answers.  The next epoch only ever sees the leftovers,
so later programs specialize on what earlier ones could not separate.

The fitness bar ratchets: a champion must score strictly above the best
champion fitness seen so far in the run.  An epoch that produces no
champion stalls the run and training stops with whatever stack exists.

Every draw comes from an :class:`RngStream` addressed by the run's seed and
a path: boost epoch ``b`` draws all its initial stumps from the generator
at ``(b, 0)`` and breeds generation ``j`` from the one at ``(b, j)``.  Each
generator's draws are arrays taken in a fixed order.  Stumps: terminal
kinds, attributes, constants.  A generation: parents, leaf positions,
operators, terminal kinds, attributes and constants, then one mutation
mask over the offspring's nodes end to end and the hit nodes' new
attributes, constant nudges and operators (see :func:`_breed`).  A
generation is bred whole, and only when another generation follows it; one
left unbred moves no other draw.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from .binning import (FLOAT32_CAPACITY, AmbiguousBin, BinHistogram, FitnessConfig,
                      IntervalGeometry, LevelLookup, PureBin, bin_table, fit_histogram,
                      fixed_keys, float32_counts, gini_fitness, gini_scores, pure_mask)
from .dataset import LabeledDataset, remove_records
from .programs import (ProgramTree, RngStream, eval_batch, eval_population, grow_clone,
                       init_stump, mutate_params)


@dataclass(frozen=True)
class TrainerConfig:
    """All knobs of a training run."""

    max_boost_epoch: int = 1000
    max_gp_epoch: int = 30
    new_pop_size: int = 30
    gap: int = 10
    num_bin: int = 2
    float_resolution: bool = False
    beta: float = 0.99
    alpha: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.max_boost_epoch < 0:
            raise ValueError("max_boost_epoch must be non-negative")
        if self.max_gp_epoch < 1:
            raise ValueError("max_gp_epoch must be at least 1")
        if self.new_pop_size < 1:
            raise ValueError("new_pop_size must be at least 1")
        if not 1 <= self.gap <= self.new_pop_size:
            raise ValueError("gap must lie between 1 and new_pop_size")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")
        self.fitness_config()  # validates beta/alpha/num_bin

    def fitness_config(self) -> FitnessConfig:
        return FitnessConfig(self.beta, self.alpha, self.num_bin, self.float_resolution)


PRESETS: dict[str, dict] = {
    "small-fast": dict(max_boost_epoch=1000, max_gp_epoch=30, new_pop_size=30,
                       gap=10, num_bin=2, float_resolution=False, beta=0.99, alpha=0.0),
    "small-slow": dict(max_boost_epoch=1000, max_gp_epoch=30, new_pop_size=1000,
                       gap=300, num_bin=2, float_resolution=False, beta=0.99, alpha=0.0),
    "large-fast": dict(max_boost_epoch=10, max_gp_epoch=3, new_pop_size=30,
                       gap=10, num_bin=2, float_resolution=True, beta=0.6, alpha=0.4),
    "large-slow": dict(max_boost_epoch=10, max_gp_epoch=6, new_pop_size=30,
                       gap=10, num_bin=2, float_resolution=True, beta=0.75, alpha=0.4),
}


def preset(name: str, **overrides) -> TrainerConfig:
    """Named parameter bundle, optionally overridden field by field."""
    if name not in PRESETS:
        raise ValueError(f"unknown preset {name!r}; choose from {sorted(PRESETS)}")
    params = dict(PRESETS[name])
    params.update(overrides)
    return TrainerConfig(**params)


@dataclass
class ChampionEntry:
    """One stack level: a program plus the frozen bin tables it answers with.

    ``records_claimed`` is filled in when the residual is extracted.
    ``lookup`` is compiled from the bin tables on first use and never
    serialized.
    """

    tree: ProgramTree
    fitness: float
    geometry: IntervalGeometry
    pure_bins: tuple[PureBin, ...]
    ambiguous_bins: tuple[AmbiguousBin, ...]
    beta: float
    boost_epoch: int
    records_claimed: int = 0

    @functools.cached_property
    def lookup(self) -> LevelLookup:
        return LevelLookup.compile(self.geometry, self.pure_bins, self.ambiguous_bins)


class ScoredTree(NamedTuple):
    """A program, its fitness on one dataset, and whether its histogram
    there has a pure bin (by :func:`pure_mask`, read from the counts that
    scored it).  No histogram is kept: :func:`find_champion` builds one for
    the champion alone."""

    tree: ProgramTree
    fitness: float
    has_pure: bool


@dataclass(frozen=True)
class GenerationResult:
    """Scored ranking of the incoming population, and ``breed``, which makes
    the population bred from it on the first read of ``next_pop``; training
    reads it only when another generation follows."""

    ranked: tuple[ScoredTree, ...]
    breed: Callable[[], tuple[ProgramTree, ...]] = field(repr=False, compare=False)

    @functools.cached_property
    def next_pop(self) -> tuple[ProgramTree, ...]:
        return self.breed()


@dataclass
class TrainingLog:
    residual_sizes: list[int] = field(default_factory=list)
    epoch_seconds: list[float] = field(default_factory=list)
    stalled: bool = False
    seconds: float = 0.0


@dataclass
class EnsembleStack:
    """An ordered stack of champion programs plus run metadata."""

    entries: tuple[ChampionEntry, ...]
    classes: tuple[str, ...]
    n_attributes: int
    majority_class: int
    config: TrainerConfig
    log: TrainingLog

    @property
    def depth(self) -> int:
        return len(self.entries)

    @property
    def total_nodes(self) -> int:
        return sum(e.tree.node_count for e in self.entries)

    def per_level_nodes(self) -> list[int]:
        return [e.tree.node_count for e in self.entries]


# Most values (nodes x records) one scoring batch evaluates at once.
BATCH_CELLS = 2 ** 21


def _score_one(tree: ProgramTree, data: LabeledDataset, fitcfg: FitnessConfig,
               class_counts: np.ndarray) -> ScoredTree:
    if not fitcfg.float_resolution:
        hist = fit_histogram(tree, data, fitcfg)
        counts, fitness = hist.counts, gini_fitness(hist, class_counts, fitcfg.alpha)
    else:
        counts = float32_counts(eval_batch(tree, data.records), data.labels, data.num_classes)
        fitness = float(gini_scores(counts[None], class_counts, fitcfg.alpha,
                                    min(FLOAT32_CAPACITY, data.n))[0])
    return ScoredTree(tree, fitness, bool(pure_mask(counts, fitcfg.beta).any()))


def score_population(pop, data: LabeledDataset, fitcfg: FitnessConfig) -> list[ScoredTree]:
    """Fitness of every program, and whether it has a pure bin,
    index-aligned with ``pop``.

    In fixed mode with fewer than 8 cells per bin table (``num_bin`` x
    classes) the population is scored in batches: :func:`eval_population`
    evaluates each batch at once, and :func:`gini_scores` and
    :func:`pure_mask` read counts keyed by :func:`fixed_keys`.  numpy sums
    fewer than 8 terms in order, so every fitness equals the per-program
    :func:`gini_fitness` bit for bit.  Otherwise each program is scored on
    its own: in float32 mode from :func:`float32_counts`, which equal the
    counts of :func:`fit_histogram`, so no histogram is built; in fixed mode
    by :func:`fit_histogram` and :func:`gini_fitness`.  No score keeps a
    histogram.
    """
    counts = data.class_counts()
    if not fitcfg.float_resolution and fitcfg.num_bin * data.num_classes < 8:
        return _score_batched(pop, data, fitcfg, counts)
    return [_score_one(t, data, fitcfg, counts) for t in pop]


def _batches(pop, max_nodes: int):
    """``pop`` cut in order into runs of at most ``max_nodes`` nodes; a
    program larger than that is a run of its own."""
    batch: list[ProgramTree] = []
    nodes = 0
    for tree in pop:
        size = len(tree.code)
        if batch and nodes + size > max_nodes:
            yield batch
            batch, nodes = [], 0
        batch.append(tree)
        nodes += size
    if batch:
        yield batch


def _score_batched(pop, data: LabeledDataset, fitcfg: FitnessConfig,
                   class_counts: np.ndarray) -> list[ScoredTree]:
    scored: list[ScoredTree] = []
    nb, C = fitcfg.num_bin, data.num_classes
    max_nodes = BATCH_CELLS // data.n
    for chunk in _batches(pop, max_nodes):
        P = len(chunk)
        if chunk[0].node_count > max_nodes:  # too large for a node matrix
            outputs = eval_batch(chunk[0], data.records)[None]
        else:
            outputs = eval_population(chunk, data.records)
        cells = fixed_keys(outputs, outputs.min(axis=1), outputs.max(axis=1), nb)
        cells += (np.arange(P) * nb)[:, None]
        cells *= C
        cells += data.labels
        counts = np.bincount(cells.ravel(), minlength=P * nb * C).reshape(P, nb, C)
        fits = gini_scores(counts, class_counts, fitcfg.alpha, min(nb, data.n)).tolist()
        pure = pure_mask(counts, fitcfg.beta).any(axis=1).tolist()
        scored += map(ScoredTree, chunk, fits, pure)
    return scored


def _rank(scored: list[ScoredTree]) -> tuple[ScoredTree, ...]:
    # stable sort: equal fitness keeps the earlier population index first
    return tuple(sorted(scored, key=lambda s: s.fitness, reverse=True))


def evolve_generation(pop, data: LabeledDataset, cfg: TrainerConfig,
                      stream: RngStream, scores=None) -> GenerationResult:
    """One generation: score and rank; breeding waits for ``next_pop``.

    ``scores`` maps a program's ``code`` to its :class:`ScoredTree` on
    ``data``; only the distinct programs it lacks are scored, then added.
    :func:`train` shares one table across an epoch's generations, so each
    program is scored at most once on its residual.

    The next population is the top ``gap`` survivors followed by the
    offspring :func:`_breed` draws from ``stream``'s one generator.
    """
    scores = {} if scores is None else scores
    new = list({t.code: t for t in pop if t.code not in scores}.values())
    for s in score_population(new, data, cfg.fitness_config()):
        scores[s.tree.code] = s
    ranked = _rank([scores[t.code] for t in pop])
    survivors = tuple(s.tree for s in ranked[:cfg.gap])
    return GenerationResult(ranked, functools.partial(
        _breed, survivors, data.d, cfg.new_pop_size - cfg.gap, stream))


def _breed(survivors: tuple[ProgramTree, ...], d: int, n_offspring: int,
           stream: RngStream) -> tuple[ProgramTree, ...]:
    """The survivors followed by ``n_offspring`` offspring, all drawn from
    one generator at ``stream``'s address.

    The draws are arrays, in this order: each offspring's parent, uniform
    over the survivors; then :func:`grow_clone`'s leaf positions (one
    ``integers`` call with each parent's leaf count as its high), operators,
    terminal kinds, attributes and constants; then :func:`mutate_params`'
    mask over the grown offspring's nodes taken end to end, and the hit
    nodes' new attributes, constant nudges and operators, each in node order.
    """
    g = stream.generator()
    parents = [survivors[i] for i in g.integers(len(survivors), size=n_offspring).tolist()]
    return survivors + mutate_params(grow_clone(parents, d, g), d, g)


def find_champion(ranked, data: LabeledDataset, cfg: TrainerConfig, best_fit: float,
                  boost_epoch: int) -> tuple[ChampionEntry, BinHistogram] | None:
    """First of the top ``cfg.gap`` survivors, in rank order, fit enough to
    join the stack, with its histogram on ``data``.

    A champion must score strictly above ``best_fit`` and own at least one
    pure bin at ``cfg.beta``.  Ranking is descending, so the scan stops at
    the first survivor at or below the bar.  A survivor's score says whether
    it has a pure bin, so the one histogram built is the champion's, by
    :func:`fit_histogram` on ``data``, the dataset it was scored on.
    """
    for s in ranked[:cfg.gap]:
        if s.fitness <= best_fit:
            return None
        if s.has_pure:
            histogram = fit_histogram(s.tree, data, cfg.fitness_config())
            pure, ambiguous = bin_table(histogram, cfg.beta)
            return ChampionEntry(s.tree, s.fitness, histogram.geometry, pure, ambiguous,
                                 cfg.beta, boost_epoch), histogram
    return None


def extract_residual(champion: ChampionEntry, data: LabeledDataset,
                     histogram: BinHistogram) -> tuple[LabeledDataset | None, np.ndarray]:
    """Remove every record that falls in one of the champion's pure bins.

    ``histogram`` is the champion's histogram fitted on ``data``; its
    ``record_inverse`` names each record's bin, so the claimed records are
    read from it in one pass, with no replay of the program.  These are
    exactly the records the pure bins counted at fit time, minority members
    included, and the records the champion's lookup answers on ``data``.
    Sets ``champion.records_claimed`` and returns (residual dataset or None
    when nothing is left, claimed indices, ascending).
    """
    if histogram.n_records != data.n:
        raise ValueError(f"histogram was fitted on {histogram.n_records} records, "
                         f"the data holds {data.n}")
    pure = np.isin(histogram.keys, [b.key for b in champion.pure_bins])
    claimed = np.flatnonzero(pure[histogram.record_inverse])
    champion.records_claimed = int(claimed.size)
    return remove_records(data, claimed), claimed


def train(data: LabeledDataset, cfg: TrainerConfig) -> EnsembleStack:
    """Boost a stack of champion programs on ``data``.

    Stops when the residual is exhausted, the boost-epoch budget runs out,
    or an epoch stalls (its whole GP budget produces no champion above the
    ratcheting fitness bar).  A stalled run still returns the stack built so
    far, flagged in the log.
    """
    if np.count_nonzero(data.class_counts()) < 2:
        raise ValueError("training requires records of at least two classes")
    t_start = time.perf_counter()
    root = RngStream(cfg.seed)
    log = TrainingLog(residual_sizes=[data.n])
    entries: list[ChampionEntry] = []
    best_fit = 0.0
    residual: LabeledDataset | None = data

    for b in range(1, cfg.max_boost_epoch + 1):
        if residual is None or residual.n == 0:
            break
        t_epoch = time.perf_counter()
        epoch = root.child(b)
        pop = init_stump(cfg.new_pop_size, data.d, epoch.child(0).generator())
        found, scores = None, {}
        for j in range(1, cfg.max_gp_epoch + 1):
            result = evolve_generation(pop, residual, cfg, epoch.child(j), scores)
            found = find_champion(result.ranked, residual, cfg, best_fit, b)
            if found is not None or j == cfg.max_gp_epoch:
                break
            pop = result.next_pop  # bred only here, for the generation that follows
        log.epoch_seconds.append(time.perf_counter() - t_epoch)
        if found is None:
            log.stalled = True
            break
        champion, histogram = found
        best_fit = champion.fitness
        residual, _ = extract_residual(champion, residual, histogram)
        entries.append(champion)
        log.residual_sizes.append(0 if residual is None else residual.n)

    log.seconds = time.perf_counter() - t_start
    return EnsembleStack(tuple(entries), data.classes, data.d,
                         data.majority_class(), cfg, log)
