"""Boosted training of program stacks.

Training runs in boost epochs.  Each epoch evolves a fresh population of
programs against the current residual dataset, picks the first
sufficiently fit program whose histogram has at least one pure bin (the
champion), pushes it onto the stack, and removes every record that landed
in one of its pure bins: the records its compiled lookup
(``ChampionEntry.lookup``, the one answer rule deployment uses) answers.
The next epoch only ever sees the leftovers, so later programs specialize
on what earlier ones could not separate.

The fitness bar ratchets: a champion must score strictly above the best
champion fitness seen so far in the run.  An epoch that produces no
champion stalls the run and training stops with whatever stack exists.
"""

from __future__ import annotations

import functools
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .binning import (AmbiguousBin, BinHistogram, FitnessConfig, IntervalGeometry,
                      LevelLookup, PureBin, bin_table, fit_histogram, fixed_keys,
                      gini_fitness)
from .dataset import LabeledDataset, remove_records
from .programs import ProgramTree, RngStream, eval_batch, grow_clone, init_stump, mutate_params


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
    workers: int = 1

    def __post_init__(self) -> None:
        if self.max_boost_epoch < 0:
            raise ValueError("max_boost_epoch must be non-negative")
        if self.max_gp_epoch < 1:
            raise ValueError("max_gp_epoch must be at least 1")
        if self.new_pop_size < 1:
            raise ValueError("new_pop_size must be at least 1")
        if not 1 <= self.gap <= self.new_pop_size:
            raise ValueError("gap must lie between 1 and new_pop_size")
        if self.workers < 1:
            raise ValueError("workers must be at least 1")
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


@dataclass(frozen=True)
class ScoredTree:
    """A program, its fitness on one dataset, and its histogram there.

    The third field is the histogram itself or a zero-argument builder of
    it; a builder runs on the first read of ``histogram``, and its result is
    kept.  Batched scoring gives fitness without histograms, so only the
    programs that :func:`find_champion` examines pay for one.
    """

    tree: ProgramTree
    fitness: float
    _histogram: BinHistogram | Callable[[], BinHistogram] = field(repr=False, compare=False)

    @functools.cached_property
    def histogram(self) -> BinHistogram:
        h = self._histogram
        return h if isinstance(h, BinHistogram) else h()


@dataclass(frozen=True)
class GenerationResult:
    """Scored ranking of the incoming population and the population bred
    from it."""

    ranked: tuple[ScoredTree, ...]
    next_pop: tuple[ProgramTree, ...]


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


# Most program outputs (programs x records) one scoring batch holds at once.
BATCH_CELLS = 2 ** 21


def _score_one(tree: ProgramTree, data: LabeledDataset, fitcfg: FitnessConfig,
               class_counts: np.ndarray) -> ScoredTree:
    hist = fit_histogram(tree, data, fitcfg)
    return ScoredTree(tree, gini_fitness(hist, class_counts, fitcfg.alpha), hist)


def score_population(pop, data: LabeledDataset, fitcfg: FitnessConfig,
                     workers: int = 1) -> list[ScoredTree]:
    """Fitness of every program, index-aligned with ``pop``.

    In fixed mode with fewer than 8 cells per bin table (``num_bin`` x
    classes) the population is scored in batches, in this thread, with
    histograms built only when read; numpy sums fewer than 8 terms in order,
    so every fitness equals the per-program :func:`gini_fitness` bit for
    bit.  Otherwise each program gets :func:`fit_histogram` and
    :func:`gini_fitness`, split over ``workers`` threads; results are
    identical for any worker count.
    """
    counts = data.class_counts()
    if not fitcfg.float_resolution and fitcfg.num_bin * data.num_classes < 8:
        return _score_batched(pop, data, fitcfg, counts)
    if workers <= 1 or len(pop) < 2:
        return [_score_one(t, data, fitcfg, counts) for t in pop]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(lambda t: _score_one(t, data, fitcfg, counts), pop))


def _score_batched(pop, data: LabeledDataset, fitcfg: FitnessConfig,
                   class_counts: np.ndarray) -> list[ScoredTree]:
    scored: list[ScoredTree] = []
    step = max(1, BATCH_CELLS // data.n)
    for start in range(0, len(pop), step):
        chunk = pop[start:start + step]
        outputs = np.empty((len(chunk), data.n))
        for i, tree in enumerate(chunk):
            outputs[i] = eval_batch(tree, data.records)
        for tree, fit in zip(chunk, _fixed_fitness(outputs, data.labels, class_counts, fitcfg)):
            scored.append(ScoredTree(tree, float(fit),
                                     functools.partial(fit_histogram, tree, data, fitcfg)))
    return scored


def _fixed_fitness(outputs: np.ndarray, labels: np.ndarray, class_counts: np.ndarray,
                   fitcfg: FitnessConfig) -> np.ndarray:
    """:func:`gini_fitness` of each row's fixed-mode histogram, from a
    (programs, records) output matrix that is overwritten.

    Keys come from :func:`fixed_keys`, as in :func:`fit_histogram`, and the
    Gini terms are summed over every bin in key order, empty bins adding 0.
    """
    P, n = outputs.shape
    nb, C = fitcfg.num_bin, class_counts.size
    cells = fixed_keys(outputs, outputs.min(axis=1), outputs.max(axis=1), nb)
    cells += (np.arange(P) * nb)[:, None]
    cells *= C
    cells += labels
    counts = np.bincount(cells.ravel(), minlength=P * nb * C).reshape(P, nb, C)
    inst = class_counts.astype(np.float64)
    active = inst > 0
    totals = counts.sum(axis=2).astype(np.float64)
    occupied = totals > 0
    frac = counts[:, :, active] / (np.where(occupied, totals, 1.0)[:, :, None] * inst[active])
    gini = (frac * frac * inst[active]).reshape(P, -1).sum(axis=1)
    return gini + fitcfg.alpha * (occupied.sum(axis=1) / min(nb, n))


def _rank(scored: list[ScoredTree]) -> tuple[ScoredTree, ...]:
    # stable sort: equal fitness keeps the earlier population index first
    fits = np.array([s.fitness for s in scored])
    order = np.argsort(-fits, kind="stable")
    return tuple(scored[i] for i in order)


def evolve_generation(pop, data: LabeledDataset, cfg: TrainerConfig,
                      stream: RngStream, carried=()) -> GenerationResult:
    """One generation: score, rank, keep the top ``gap``, refill by breeding.

    ``carried`` holds the already scored leading programs of ``pop``: the
    previous generation's survivors (``ranked[:gap]``) on the same ``data``.
    Only the rest of ``pop`` is scored; the ranking sees the same programs
    in the same order either way.

    Each offspring slot k draws from its own child stream ``stream.child(k)``:
    a uniform parent from the survivor pool, one grow step, then parameter
    mutation.  The bred population is the survivors followed by offspring.
    """
    if any(s.tree is not t for s, t in zip(carried, pop)) or len(carried) > len(pop):
        raise ValueError("carried programs must be the leading programs of pop")
    scored = list(carried) + score_population(pop[len(carried):], data,
                                              cfg.fitness_config(), cfg.workers)
    ranked = _rank(scored)
    survivors = [s.tree for s in ranked[:cfg.gap]]
    offspring = []
    for k in range(cfg.new_pop_size - cfg.gap):
        g = stream.child(k).generator()
        parent = survivors[int(g.integers(len(survivors)))]
        child = grow_clone(parent, data.d, g)
        offspring.append(mutate_params(child, data.d, g))
    return GenerationResult(ranked, tuple(survivors) + tuple(offspring))


def find_champion(ranked, gap: int, best_fit: float, beta: float,
                  boost_epoch: int) -> ChampionEntry | None:
    """First survivor, in rank order, fit enough to join the stack.

    A champion must score strictly above ``best_fit`` and own at least one
    pure bin at ``beta``.  Ranking is descending, so the scan stops at the
    first survivor at or below the bar.
    """
    for s in ranked[:gap]:
        if s.fitness <= best_fit:
            return None
        pure, ambiguous = bin_table(s.histogram, beta)
        if pure:
            return ChampionEntry(s.tree, s.fitness, s.histogram.geometry,
                                 pure, ambiguous, beta, boost_epoch)
    return None


def extract_residual(champion: ChampionEntry, data: LabeledDataset
                     ) -> tuple[LabeledDataset | None, np.ndarray]:
    """Remove every record that falls in one of the champion's pure bins.

    The champion's program is replayed on ``data`` and answered by its
    lookup.  On the data it was fitted on every output lands in a stored
    bin, so the records removed are exactly the ones its pure bins counted
    at fit time, minority members included.  Sets
    ``champion.records_claimed`` and returns (residual dataset or None when
    nothing is left, claimed indices).
    """
    hit, _ = champion.lookup.answer(eval_batch(champion.tree, data.records))
    claimed = np.flatnonzero(hit)
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
        pop: tuple[ProgramTree, ...] = tuple(
            init_stump(data.d, epoch.child(0, i).generator())
            for i in range(cfg.new_pop_size))
        champion, carried = None, ()
        for j in range(1, cfg.max_gp_epoch + 1):
            result = evolve_generation(pop, residual, cfg, epoch.child(j), carried=carried)
            champion = find_champion(result.ranked, cfg.gap, best_fit, cfg.beta, b)
            if champion is not None:
                break
            pop, carried = result.next_pop, result.ranked[:cfg.gap]
        log.epoch_seconds.append(time.perf_counter() - t_epoch)
        if champion is None:
            log.stalled = True
            break
        best_fit = champion.fitness
        residual, _ = extract_residual(champion, residual)
        entries.append(champion)
        log.residual_sizes.append(0 if residual is None else residual.n)

    log.seconds = time.perf_counter() - t_start
    return EnsembleStack(tuple(entries), data.classes, data.d,
                         data.majority_class(), cfg, log)
