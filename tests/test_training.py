"""Boosted training: generations, champions, residuals, full runs."""

import dataclasses

import numpy as np
import pytest

from gpstack import training
from gpstack.binning import FitnessConfig, bin_table, fit_histogram, gini_fitness
from gpstack.dataset import LabeledDataset
from gpstack.model import dumps
from gpstack.programs import (ATTRIBUTE_PROB, MUTATION_RATE, OPS, RngStream, eval_batch,
                              format_tree, grow_clone, mutate_params, parse_tree)
from gpstack.training import (ChampionEntry, PRESETS, ScoredTree, TrainerConfig,
                              evolve_generation, extract_residual, find_champion,
                              preset, train)

from helpers import random_dataset, separable_dataset


def one_col(values, labels, classes=("a", "b")):
    x = np.asarray(values, dtype=np.float64)[:, None]
    return LabeledDataset(x, np.asarray(labels, dtype=np.int64), classes)


def scored(tree_text, data, cfg=FitnessConfig()):
    tree = parse_tree(tree_text)
    hist = fit_histogram(tree, data, cfg)
    return ScoredTree(tree, gini_fitness(hist, data.class_counts(), cfg.alpha),
                      bool(bin_table(hist, cfg.beta)[0]))


class TestTrainerConfig:
    def test_presets_exist(self):
        assert set(PRESETS) == {"small-fast", "small-slow", "large-fast", "large-slow"}
        small = preset("small-fast")
        assert (small.max_boost_epoch, small.max_gp_epoch) == (1000, 30)
        assert (small.new_pop_size, small.gap) == (30, 10)
        assert (small.beta, small.alpha, small.num_bin) == (0.99, 0.0, 2)
        assert not small.float_resolution
        slow = preset("small-slow")
        assert (slow.new_pop_size, slow.gap) == (1000, 300)
        big = preset("large-fast")
        assert (big.max_boost_epoch, big.max_gp_epoch) == (10, 3)
        assert big.float_resolution and (big.beta, big.alpha) == (0.6, 0.4)
        bigger = preset("large-slow")
        assert bigger.max_gp_epoch == 6 and bigger.beta == 0.75

    def test_preset_overrides(self):
        cfg = preset("small-fast", seed=7, gap=4)
        assert cfg.seed == 7 and cfg.gap == 4

    def test_unknown_preset(self):
        with pytest.raises(ValueError, match="unknown preset"):
            preset("enormous")

    @pytest.mark.parametrize("bad", [
        dict(max_boost_epoch=-1), dict(max_gp_epoch=0), dict(new_pop_size=0),
        dict(gap=0), dict(gap=31), dict(beta=0.0), dict(alpha=-1.0),
    ])
    def test_validation(self, bad):
        with pytest.raises(ValueError):
            TrainerConfig(**bad)

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError, match="seed must be non-negative, got -1"):
            TrainerConfig(seed=-1)

    @pytest.mark.parametrize("alpha", [float("nan"), float("inf")])
    def test_non_finite_alpha_rejected(self, alpha):
        with pytest.raises(ValueError,
                           match=f"alpha must be finite and non-negative, got {alpha}"):
            TrainerConfig(alpha=alpha)
        with pytest.raises(ValueError, match="alpha must be finite"):
            preset("small-fast", alpha=alpha)


class TestEvolveGeneration:
    def test_population_sizes(self):
        data = random_dataset(np.random.default_rng(0), n=30, d=3)
        cfg = TrainerConfig(new_pop_size=30, gap=10)
        stream = RngStream(0).child(1, 1)
        pop = [parse_tree(f"(attr {i % 3})") for i in range(30)]
        result = evolve_generation(pop, data, cfg, stream)
        assert len(result.ranked) == 30
        assert len(result.next_pop) == 30

    def test_survivors_are_top_gap_in_order(self):
        data = random_dataset(np.random.default_rng(1), n=40, d=2)
        cfg = TrainerConfig(new_pop_size=6, gap=3)
        pop = [parse_tree(t) for t in
               ["(attr 0)", "(attr 1)", "(const 0.5)",
                "(add (attr 0) (attr 1))", "(mul (attr 0) (attr 0))", "(attr 0)"]]
        result = evolve_generation(pop, data, cfg, RngStream(0).child(1, 1))
        fits = [s.fitness for s in result.ranked]
        assert fits == sorted(fits, reverse=True)
        assert list(result.next_pop[:3]) == [s.tree for s in result.ranked[:3]]

    def test_ties_keep_earlier_index(self):
        data = random_dataset(np.random.default_rng(2), n=25, d=1)
        pop = [parse_tree("(attr 0)") for _ in range(5)]
        cfg = TrainerConfig(new_pop_size=5, gap=2)
        result = evolve_generation(pop, data, cfg, RngStream(3).child(1, 1))
        # identical trees tie on fitness; stable rank keeps population order
        assert [s.tree for s in result.ranked] == pop

    def test_offspring_grow_from_survivors(self):
        data = random_dataset(np.random.default_rng(3), n=30, d=2)
        cfg = TrainerConfig(new_pop_size=8, gap=2)
        pop = [parse_tree("(attr 0)"), parse_tree("(attr 1)")] + \
              [parse_tree("(const 0.1)") for _ in range(6)]
        result = evolve_generation(pop, data, cfg, RngStream(1).child(1, 1))
        for child in result.next_pop[2:]:
            # one grow step on a one-node survivor gives exactly three nodes,
            # and parameter mutation never changes the count
            assert child.node_count == 3

    def test_deterministic_given_stream(self):
        data = random_dataset(np.random.default_rng(4), n=30, d=3)
        cfg = TrainerConfig(new_pop_size=10, gap=3)
        pop = [parse_tree(f"(attr {i % 3})") for i in range(10)]
        r1 = evolve_generation(pop, data, cfg, RngStream(5).child(2, 1))
        r2 = evolve_generation(pop, data, cfg, RngStream(5).child(2, 1))
        assert [format_tree(t) for t in r1.next_pop] == \
               [format_tree(t) for t in r2.next_pop]


class TestLazyBreeding:
    @pytest.fixture()
    def grown(self, monkeypatch):
        """Counts ``grow_clone`` calls at ``training``'s binding."""
        calls = []

        def counting(*args):
            calls.append(args)
            return grow_clone(*args)

        monkeypatch.setattr(training, "grow_clone", counting)
        return calls

    def test_next_pop_equals_eager_breeding(self, grown):
        data = random_dataset(np.random.default_rng(6), n=40, d=3)
        cfg = TrainerConfig(new_pop_size=12, gap=4)
        texts = ["(attr 0)", "(attr 1)", "(attr 2)", "(const 0.5)",
                 "(add (attr 0) (attr 1))", "(mul (attr 2) (const 2.0))"]
        pop = [parse_tree(t) for t in texts * 2]
        stream = RngStream(8).child(1, 2)
        result = evolve_generation(pop, data, cfg, stream)
        assert grown == []  # scoring and ranking breed nothing
        survivors = [s.tree for s in result.ranked[:cfg.gap]]
        g = stream.generator()
        picks = g.integers(len(survivors), size=cfg.new_pop_size - cfg.gap)
        parents = [survivors[i] for i in picks]
        eager = survivors + list(mutate_params(grow_clone(parents, data.d, g), data.d, g))
        assert [format_tree(t) for t in result.next_pop] == [format_tree(t) for t in eager]
        assert result.next_pop is result.next_pop  # bred once
        assert len(grown) == 1  # and whole, in one call

    def test_train_breeds_only_generations_another_follows(self, grown, monkeypatch):
        paths = []
        evolve = training.evolve_generation

        def recording(pop, data, cfg, stream, scores=None):
            paths.append(stream.path)  # (boost epoch, generation)
            return evolve(pop, data, cfg, stream, scores)

        monkeypatch.setattr(training, "evolve_generation", recording)
        data = random_dataset(np.random.default_rng(0), n=120, d=3)
        cfg = TrainerConfig(max_gp_epoch=3, new_pop_size=8, gap=3, beta=0.9)
        stack = train(data, cfg)
        followed = len(paths) - len({b for b, _ in paths})
        # champions after several generations, and a stalled last epoch
        assert followed > 0 and stack.log.stalled
        assert len(grown) == followed
        assert all(len(args[0]) == cfg.new_pop_size - cfg.gap for args in grown)


class TestDrawLayout:
    """Each generation is bred from one generator, with array draws whose
    shares match the breeding rules: uniform parents and leaves, attributes
    read with probability 0.9, nodes mutated with probability 0.1."""

    def test_one_generator_per_bred_generation_and_per_epoch_stumps(self, monkeypatch):
        made, evolved = [], []
        generator, evolve = RngStream.generator, training.evolve_generation
        monkeypatch.setattr(RngStream, "generator",
                            lambda self: made.append(self.path) or generator(self))
        monkeypatch.setattr(training, "evolve_generation",
                            lambda pop, data, cfg, stream, scores=None:
                            evolved.append(stream.path) or evolve(pop, data, cfg, stream, scores))
        data = random_dataset(np.random.default_rng(0), n=120, d=3)
        cfg = TrainerConfig(max_gp_epoch=3, new_pop_size=8, gap=3, beta=0.9)
        train(data, cfg)
        # each epoch: its stumps at (b, 0), then every generation another follows
        expected = []
        for b in sorted({b for b, _ in evolved}):
            expected.append((b, 0))
            expected += [(b, j) for e, j in evolved if e == b and (b, j + 1) in evolved]
        assert made == expected and len(made) > len({b for b, _ in evolved})

    def test_offspring_grow_their_parents_by_two(self):
        survivors = tuple(parse_tree(t) for t in PARENTS)
        before = [p.code for p in survivors]
        for j in range(1, 20):
            stream = RngStream(4).child(1, j)
            picks = stream.generator().integers(len(survivors), size=16)  # the first draw
            bred = training._breed(survivors, 3, 16, stream)
            assert bred[:len(survivors)] == survivors
            assert ([c.node_count for c in bred[len(survivors):]]
                    == [survivors[i].node_count + 2 for i in picks])
        assert [p.code for p in survivors] == before

    def test_draw_shares_lie_within_4_se_of_their_targets(self):
        # survivors of distinct sizes, so an offspring's size names its parent
        parents = [parse_tree(t) for t in PARENTS]
        by_size = {p.node_count: p for p in parents}
        picked = dict.fromkeys(by_size, 0)
        leaf_at = {size: [0] * ((size + 1) // 2) for size in by_size}
        reads = terminals = 0
        changed = {"const": [0, 0], "op": [0, 0]}  # [changed, seen]
        for j in range(1, 401):
            offspring = training._breed(tuple(parents), 3, 16, RngStream(11).child(1, j))
            for child in offspring[len(parents):]:
                parent = by_size[child.node_count - 2]
                picked[parent.node_count] += 1
                shape = [head in OPS for head, _ in child.code]
                at = next(i for i, (head, _) in enumerate(parent.code) if (head in OPS) != shape[i])
                leaf_at[parent.node_count][sum(h not in OPS for h, _ in parent.code[:at])] += 1
                reads += child.code[at + 2][0] == "attr"
                terminals += 1
                # the parent's nodes in the child: all but the new operator and terminal
                kept = child.code[:at] + child.code[at + 1:at + 2] + child.code[at + 3:]
                for (head, arg), (was, old) in zip(kept, parent.code):
                    kind = "op" if was in OPS else was
                    if kind in changed:
                        changed[kind][0] += (head, arg) != (was, old)
                        changed[kind][1] += 1

        def within_4_se(hits, n, p):
            assert abs(hits / n - p) <= 4 * np.sqrt(p * (1 - p) / n), (hits, n, p)

        for count in picked.values():
            within_4_se(count, sum(picked.values()), 1 / len(parents))
        for counts in leaf_at.values():
            for count in counts:
                within_4_se(count, sum(counts), 1 / len(counts))
        within_4_se(reads, terminals, ATTRIBUTE_PROB)
        within_4_se(*changed["const"], MUTATION_RATE)  # a hit constant always moves
        within_4_se(*changed["op"], MUTATION_RATE * 3 / 4)  # a hit op keeps its op 1 time in 4


# survivors with 1, 3, 5 and 7 nodes, constants and operators among them
PARENTS = ["(const 0.5)", "(add (const 0.25) (attr 0))",
           "(mul (add (attr 1) (const -0.5)) (attr 2))",
           "(sub (pdiv (const 0.75) (attr 0)) (mul (const 2.0) (attr 1)))"]


class TestFindChampion:
    # (attr 0) splits the classes into two pure bins, (attr 1) into two
    # 50/50 bins, and (const 0.5) puts every record in one mixed bin
    DATA = LabeledDataset(np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]]),
                          np.array([0, 0, 1, 1]), ("a", "b"))
    CFG = TrainerConfig(new_pop_size=3, gap=3)

    def ranked(self, *texts):
        """Scores the programs on DATA and ranks them in the order given."""
        return [scored(t, self.DATA)._replace(fitness=10.0 - i) for i, t in enumerate(texts)]

    def test_picks_first_ranked_with_pure_bin(self):
        ranked = self.ranked("(const 0.5)", "(attr 1)", "(attr 0)")
        assert [s.has_pure for s in ranked] == [False, False, True]
        champ, hist = find_champion(ranked, self.DATA, self.CFG, best_fit=0.0, boost_epoch=2)
        assert champ.tree is ranked[2].tree
        assert champ.fitness == ranked[2].fitness
        assert champ.boost_epoch == 2
        assert len(champ.pure_bins) == 2
        expected = fit_histogram(champ.tree, self.DATA, self.CFG.fitness_config())
        assert hist.geometry == expected.geometry == champ.geometry
        assert np.array_equal(hist.counts, expected.counts)
        assert np.array_equal(hist.record_inverse, expected.record_inverse)
        assert (champ.pure_bins, champ.ambiguous_bins) == bin_table(expected, self.CFG.beta)

    def test_builds_one_histogram_for_the_champion_alone(self, monkeypatch):
        built = []
        real = training.fit_histogram
        monkeypatch.setattr(training, "fit_histogram",
                            lambda tree, *rest: built.append(tree) or real(tree, *rest))
        ranked = self.ranked("(const 0.5)", "(attr 1)", "(attr 0)")
        champ, _ = find_champion(ranked, self.DATA, self.CFG, best_fit=0.0, boost_epoch=1)
        assert built == [champ.tree]
        del built[:]
        assert find_champion(ranked[:2], self.DATA, self.CFG, best_fit=0.0,
                             boost_epoch=1) is None
        assert built == []  # no survivor had a pure bin

    def test_requires_strict_fitness_improvement(self):
        (s,) = self.ranked("(attr 0)")
        cfg = dataclasses.replace(self.CFG, gap=1)
        assert find_champion([s], self.DATA, cfg, best_fit=s.fitness, boost_epoch=1) is None
        assert find_champion([s], self.DATA, cfg, best_fit=s.fitness - 1e-9,
                             boost_epoch=1) is not None

    def test_no_pure_bins_means_no_champion(self):
        ranked = self.ranked("(attr 1)", "(const 0.5)")
        assert find_champion(ranked, self.DATA, self.CFG, best_fit=0.0, boost_epoch=1) is None

    def test_scan_limited_to_gap(self):
        ranked = self.ranked("(attr 1)", "(attr 0)")
        narrow = dataclasses.replace(self.CFG, gap=1)
        assert find_champion(ranked, self.DATA, narrow, best_fit=0.0, boost_epoch=1) is None
        found, _ = find_champion(ranked, self.DATA, self.CFG, best_fit=0.0, boost_epoch=1)
        assert found.tree is ranked[1].tree


class TestExtractResidual:
    def make_champion(self, tree_text, data, beta=0.99, float_resolution=False):
        tree = parse_tree(tree_text)
        cfg = FitnessConfig(beta=beta, float_resolution=float_resolution)
        hist = fit_histogram(tree, data, cfg)
        pure, ambiguous = bin_table(hist, beta)
        fitness = gini_fitness(hist, data.class_counts(), cfg.alpha)
        return ChampionEntry(tree, fitness, hist.geometry, pure, ambiguous, beta, 1), hist

    def test_partial_claim(self):
        data = one_col([0.0] * 5 + [1.0] * 4 + [1.0] * 3,
                       [0] * 5 + [1] * 4 + [0] * 3)
        champ, hist = self.make_champion("(attr 0)", data, beta=0.99)
        residual, claimed = extract_residual(champ, data, hist)
        # bin at 0.0 is pure (5 of class a); bin at 1.0 is 4/7 ambiguous
        assert champ.records_claimed == 5
        assert claimed.tolist() == [0, 1, 2, 3, 4]
        assert residual.n == 7

    def test_wholesale_removal_includes_minority_members(self):
        values = [0.0] * 100 + [10.0] * 2
        labels = [0] * 99 + [1] + [1] * 2
        data = one_col(values, labels)
        champ, hist = self.make_champion("(attr 0)", data, beta=0.99)
        residual, claimed = extract_residual(champ, data, hist)
        # the 99:1 bin is pure at 0.99; its single minority record goes too
        assert champ.records_claimed == 102
        assert 99 in claimed.tolist()
        assert residual is None

    def test_full_coverage_leaves_nothing(self):
        data = one_col([0.0, 0.0, 1.0, 1.0], [0, 0, 1, 1])
        champ, hist = self.make_champion("(attr 0)", data)
        residual, claimed = extract_residual(champ, data, hist)
        assert residual is None and claimed.size == 4

    @pytest.mark.parametrize("float_resolution", [False, True])
    def test_program_is_not_replayed(self, monkeypatch, float_resolution):
        data = random_dataset(np.random.default_rng(11), n=60, d=2)
        champ, hist = self.make_champion("(add (attr 0) (attr 1))", data, beta=0.5,
                                         float_resolution=float_resolution)

        def replay(*args):
            raise AssertionError("extract_residual ran the program")
        monkeypatch.setattr(training, "eval_batch", replay)
        residual, claimed = extract_residual(champ, data, hist)
        assert claimed.size == champ.records_claimed > 0
        assert (0 if residual is None else residual.n) == data.n - claimed.size

    def test_histogram_of_other_data_rejected(self):
        data = one_col([0.0, 0.0, 1.0, 1.0], [0, 0, 1, 1])
        champ, hist = self.make_champion("(attr 0)", data)
        bigger = one_col([0.0, 0.0, 1.0, 1.0, 1.0], [0, 0, 1, 1, 1])
        with pytest.raises(ValueError, match="fitted on 4 records"):
            extract_residual(champ, bigger, hist)
        assert champ.records_claimed == 0

    def test_replay_matches_fit_assignment(self):
        rng = np.random.default_rng(7)
        for _ in range(30):
            data = random_dataset(rng)
            float_mode = bool(rng.integers(2))
            beta = float(rng.uniform(0.5, 1.0))
            tree = parse_tree("(attr 0)")
            cfg = FitnessConfig(beta=beta, num_bin=3, float_resolution=float_mode)
            hist = fit_histogram(tree, data, cfg)
            pure, ambiguous = bin_table(hist, beta)
            champ = ChampionEntry(tree, 1.0, hist.geometry, pure, ambiguous, beta, 1)
            hit, _ = champ.lookup.answer(eval_batch(tree, data.records))
            pure_keys = {b.key for b in pure}
            expected = np.array([int(hist.keys[i]) in pure_keys
                                 for i in hist.record_inverse])
            np.testing.assert_array_equal(hit, expected)


class TestTrain:
    def test_separable_single_level(self):
        data = separable_dataset(n_per_class=25, seed=0)
        stack = train(data, TrainerConfig(max_boost_epoch=50, seed=3))
        assert stack.depth == 1
        assert stack.log.residual_sizes == [50, 0]
        assert not stack.log.stalled
        assert stack.entries[0].records_claimed == 50

    def test_zero_boost_budget_gives_empty_stack(self):
        data = separable_dataset(seed=1)
        stack = train(data, TrainerConfig(max_boost_epoch=0))
        assert stack.depth == 0
        assert stack.log.residual_sizes == [data.n]

    def test_single_class_rejected(self):
        data = LabeledDataset(np.zeros((4, 1)), np.zeros(4, dtype=np.int64), ("only",))
        with pytest.raises(ValueError, match="two classes"):
            train(data, TrainerConfig())

    def test_conflicting_duplicates_stall_immediately(self):
        # identical records with different labels can never yield a pure bin
        data = one_col([0.0, 0.0], [0, 1])
        stack = train(data, TrainerConfig(max_boost_epoch=5, max_gp_epoch=3,
                                          new_pop_size=6, gap=2))
        assert stack.depth == 0
        assert stack.log.stalled

    def test_metadata(self):
        data = separable_dataset(n_per_class=10, seed=2)
        stack = train(data, TrainerConfig(max_boost_epoch=10, seed=1))
        assert stack.classes == ("neg", "pos")
        assert stack.n_attributes == 2
        assert stack.majority_class == 0
        assert stack.total_nodes == sum(e.tree.node_count for e in stack.entries)
        assert stack.log.seconds > 0.0
        assert len(stack.log.epoch_seconds) >= stack.depth

    def test_fitness_ratchets_and_residual_shrinks(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            data = random_dataset(rng, n=40, d=2)
            cfg = TrainerConfig(max_boost_epoch=20, max_gp_epoch=6,
                                new_pop_size=12, gap=4, beta=0.9,
                                seed=int(rng.integers(1000)))
            stack = train(data, cfg)
            fits = [e.fitness for e in stack.entries]
            assert all(a < b for a, b in zip(fits, fits[1:]))
            sizes = stack.log.residual_sizes
            assert all(a > b for a, b in zip(sizes, sizes[1:]))
            assert sizes[0] == data.n

    def test_claimed_counts_match_residual_drops(self):
        data = random_dataset(np.random.default_rng(9), n=50, d=3)
        stack = train(data, TrainerConfig(max_boost_epoch=30, max_gp_epoch=8,
                                          new_pop_size=16, gap=4, beta=0.9, seed=5))
        sizes = stack.log.residual_sizes
        for i, entry in enumerate(stack.entries):
            assert entry.records_claimed == sizes[i] - sizes[i + 1]

    def test_determinism_across_runs(self):
        data = random_dataset(np.random.default_rng(10), n=45, d=3)
        cfg = TrainerConfig(max_boost_epoch=15, max_gp_epoch=6,
                            new_pop_size=14, gap=5, beta=0.9, seed=21)
        a = train(data, cfg)
        b = train(data, cfg)
        assert dumps(a) == dumps(b)

    def test_seed_changes_outcome(self):
        data = random_dataset(np.random.default_rng(12), n=45, d=3)
        a = train(data, TrainerConfig(max_boost_epoch=5, max_gp_epoch=4,
                                      new_pop_size=10, gap=3, beta=0.9, seed=1))
        b = train(data, TrainerConfig(max_boost_epoch=5, max_gp_epoch=4,
                                      new_pop_size=10, gap=3, beta=0.9, seed=2))
        assert dumps(a) != dumps(b)

    @pytest.mark.parametrize("float_resolution", [False, True])
    def test_one_histogram_per_level(self, float_resolution, monkeypatch):
        """Batched fixed-mode and float32 scoring build no histogram; the
        champion search builds the champion's alone."""
        built = []
        real = training.fit_histogram
        monkeypatch.setattr(training, "fit_histogram",
                            lambda tree, data, cfg: built.append((tree, data.n))
                            or real(tree, data, cfg))
        data = random_dataset(np.random.default_rng(14), n=80, d=3)
        cfg = TrainerConfig(max_boost_epoch=20, max_gp_epoch=6, new_pop_size=12, gap=4,
                            beta=0.9, float_resolution=float_resolution,
                            alpha=0.4 if float_resolution else 0.0, seed=6)
        stack = train(data, cfg)
        assert stack.depth >= 2
        assert built == [(e.tree, n) for e, n in zip(stack.entries, stack.log.residual_sizes)]

    def test_float_resolution_run(self):
        data = random_dataset(np.random.default_rng(13), n=60, d=2)
        cfg = TrainerConfig(max_boost_epoch=10, max_gp_epoch=3, new_pop_size=10,
                            gap=3, float_resolution=True, beta=0.6, alpha=0.4, seed=4)
        stack = train(data, cfg)
        assert stack.depth >= 1
        for e in stack.entries:
            assert e.geometry.mode == "float32"
            assert len(e.pure_bins) >= 1
