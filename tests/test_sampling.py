import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shaprank import sampling
from shaprank.errors import BudgetError
from shaprank.exact import shapley_exact_subsets
from shaprank.games import ENUMERATION_BUDGET, Game
from shaprank.sampling import (
    EarlyStop,
    SamplingConfig,
    permutation_at,
    shapley_sample_permutations,
)

from conftest import constant_table_game, random_table_game


class TestConfigValidation:
    def test_needs_at_least_one_permutation(self):
        with pytest.raises(ValueError):
            SamplingConfig(n_permutations=0)

    def test_early_stop_window_minimum(self):
        with pytest.raises(ValueError):
            EarlyStop(window=1, epsilon=0.1)

    def test_early_stop_epsilon_positive(self):
        with pytest.raises(ValueError):
            EarlyStop(window=3, epsilon=0.0)

    @pytest.mark.parametrize("n", [1, 4])
    @pytest.mark.parametrize("antithetic", [False, True])
    def test_orderings_beyond_the_budget_draw_nothing(self, monkeypatch, n, antithetic):
        def payoff(masks):
            raise AssertionError("evaluated past the budget")

        def draw(seed, index, n_players):
            raise AssertionError("drew past the budget")

        monkeypatch.setattr(sampling, "permutation_at", draw)
        # the empty and grand payoffs preloaded: the payoff is never called
        game = Game(n, payoff, preloaded=([0, (1 << n) - 1], [0.0, 1.0]))
        count = ENUMERATION_BUDGET // n + 1
        cfg = SamplingConfig(n_permutations=count, antithetic=antithetic)
        with pytest.raises(BudgetError, match=f"{count} orderings of {n} players"):
            shapley_sample_permutations(game, cfg)
        # the largest count within the budget passes the check
        cfg = SamplingConfig(n_permutations=count - 1, antithetic=antithetic)
        with pytest.raises(AssertionError, match="drew past the budget"):
            shapley_sample_permutations(game, cfg)


class TestPermutationStream:
    def test_counter_rng_is_pure(self):
        a = permutation_at(seed=9, index=4, n_players=8)
        b = permutation_at(seed=9, index=4, n_players=8)
        assert np.array_equal(a, b)

    def test_distinct_indices_give_distinct_orderings(self):
        draws = {tuple(permutation_at(0, j, 8)) for j in range(50)}
        assert len(draws) > 40  # collisions allowed but must be rare

    def test_every_draw_is_a_permutation(self):
        for j in range(20):
            perm = permutation_at(3, j, 6)
            assert sorted(perm.tolist()) == list(range(6))


class TestEstimator:
    def test_exhaustive_stream_reproduces_exact_values(self, fig2, monkeypatch):
        orderings = list(itertools.permutations(range(3)))
        monkeypatch.setattr(
            sampling, "permutation_at", lambda seed, j, n: np.array(orderings[j])
        )
        cfg = SamplingConfig(n_permutations=len(orderings), seed=0)
        est = shapley_sample_permutations(fig2, cfg)
        np.testing.assert_allclose(est.values, [25.0, 25.0, 30.0], atol=1e-12)

    def test_constant_game_gives_zero_values_and_errors(self):
        est = shapley_sample_permutations(
            constant_table_game(5), SamplingConfig(n_permutations=40, seed=2)
        )
        np.testing.assert_allclose(est.values, 0.0, atol=1e-12)
        np.testing.assert_allclose(est.std_err, 0.0, atol=1e-12)

    def test_fixed_seed_is_bit_reproducible(self):
        runs = [
            shapley_sample_permutations(
                random_table_game(7, seed=4), SamplingConfig(n_permutations=60, seed=11)
            )
            for _ in range(2)
        ]
        assert np.array_equal(runs[0].values, runs[1].values)
        assert np.array_equal(runs[0].std_err, runs[1].std_err)

    def test_worker_count_never_changes_the_bits(self):
        results = [
            shapley_sample_permutations(
                random_table_game(7, seed=4),
                SamplingConfig(n_permutations=60, seed=11),
            )
            for _ in range(2)
        ]
        assert np.array_equal(results[0].values, results[1].values)
        assert results[0].evals_used == results[1].evals_used

    def test_matches_the_prefix_walk_bit_for_bit(self):
        game = random_table_game(7, seed=8)
        est = shapley_sample_permutations(game, SamplingConfig(n_permutations=50, seed=3))
        sums = np.zeros(7)
        for j in range(50):
            mask, prev = 0, game.evaluate_mask(0)
            marginals = np.empty(7)
            for p in permutation_at(3, j, 7):
                mask |= 1 << int(p)
                cur = game.evaluate_mask(mask)
                marginals[int(p)] = cur - prev
                prev = cur
            sums += marginals
        assert np.array_equal(est.values, sums / 50)

    @settings(max_examples=20)
    @given(
        st.integers(min_value=2, max_value=7),
        st.integers(min_value=1, max_value=50),
        st.integers(min_value=0, max_value=2**31),
    )
    def test_values_always_distribute_the_target(self, n, s, seed):
        game = random_table_game(n, seed=seed)
        est = shapley_sample_permutations(game, SamplingConfig(s, seed=seed))
        assert abs(est.values.sum() - game.target_quantity()) < 1e-9

    def test_per_permutation_cost_bound(self):
        n = 9
        game = random_table_game(n, seed=6)
        est = shapley_sample_permutations(game, SamplingConfig(n_permutations=1, seed=0))
        # the interior of the prefix chain is at most N-1 new coalitions
        assert est.evals_used <= n - 1

    def test_estimate_approaches_exact_values(self):
        game = random_table_game(6, seed=9)
        exact = shapley_exact_subsets(game).values
        est = shapley_sample_permutations(game, SamplingConfig(4000, seed=5))
        assert np.max(np.abs(est.values - exact)) < 1.0

    def test_std_err_shrinks_with_more_samples(self):
        game = random_table_game(7, seed=14)
        small = shapley_sample_permutations(game, SamplingConfig(200, seed=1))
        large = shapley_sample_permutations(game, SamplingConfig(3200, seed=1))
        assert np.median(large.std_err) < np.median(small.std_err)

    def test_antithetic_pairs_each_ordering_with_its_reverse(self):
        game = random_table_game(5, seed=3)
        cfg = SamplingConfig(n_permutations=2, seed=7, antithetic=True)
        est = shapley_sample_permutations(game, cfg)

        base = permutation_at(7, 0, 5)
        expected = np.zeros(5)
        for perm in (base, base[::-1]):
            mask, prev = 0, game.evaluate_mask(0)
            for p in perm:
                mask |= 1 << int(p)
                cur = game.evaluate_mask(mask)
                expected[int(p)] += cur - prev
                prev = cur
        np.testing.assert_allclose(est.values, expected / 2.0, atol=1e-12)


class TestEarlyStopping:
    def test_stops_once_running_means_settle(self):
        cfg = SamplingConfig(
            n_permutations=500, seed=0, early_stop=EarlyStop(window=6, epsilon=1e-9)
        )
        est = shapley_sample_permutations(constant_table_game(5), cfg)
        realized = int(est.method.split("S=")[1].rstrip(")"))
        assert realized == 6  # settles as soon as the window fills

    def test_antithetic_stops_only_between_pairs(self):
        for window in range(2, 7):
            cfg = SamplingConfig(
                n_permutations=500,
                seed=0,
                early_stop=EarlyStop(window=window, epsilon=1e-9),
                antithetic=True,
            )
            est = shapley_sample_permutations(constant_table_game(5), cfg)
            realized = int(est.method.split("S=")[1].rstrip(")"))
            assert realized % 2 == 0 and realized < 500, (window, realized)

    def test_keeps_running_when_epsilon_is_strict(self):
        game = random_table_game(6, seed=1)
        cfg = SamplingConfig(
            n_permutations=50, seed=0, early_stop=EarlyStop(window=5, epsilon=1e-12)
        )
        est = shapley_sample_permutations(game, cfg)
        realized = int(est.method.split("S=")[1].rstrip(")"))
        assert realized == 50

    def test_early_stop_is_worker_independent(self):
        cfg = SamplingConfig(
            n_permutations=300, seed=3, early_stop=EarlyStop(window=8, epsilon=0.5)
        )
        results = [
            shapley_sample_permutations(random_table_game(6, seed=2), cfg)
            for _ in range(2)
        ]
        assert np.array_equal(results[0].values, results[1].values)
        assert results[0].method == results[1].method


class TestStatisticalProperties:
    def test_unbiasedness_over_seeds(self):
        game = random_table_game(6, seed=7)
        exact = shapley_exact_subsets(game).values
        means = np.array(
            [
                shapley_sample_permutations(game, SamplingConfig(50, seed=1000 + s)).values
                for s in range(60)
            ]
        )
        grand = means.mean(axis=0)
        stderr = means.std(axis=0, ddof=1) / math.sqrt(means.shape[0])
        assert np.all(np.abs(grand - exact) <= 3.0 * stderr)
