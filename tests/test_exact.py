import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shaprank.errors import CapacityError
from shaprank.exact import (
    shapley_exact_permutations,
    shapley_exact_subsets,
    subset_weights,
)
from shaprank.games import Game, TableGame

from conftest import additive_table_game, constant_table_game, random_table_game

payoffs = st.floats(min_value=-50.0, max_value=50.0, allow_nan=False)


def brute_force_subsets(table: np.ndarray, n: int) -> np.ndarray:
    """Independent re-derivation: plain double loop over players and subsets."""
    phi = np.zeros(n)
    for i in range(n):
        for mask in range(1 << n):
            if (mask >> i) & 1:
                continue
            k = bin(mask).count("1")
            weight = 1.0 / (n * math.comb(n - 1, k))
            phi[i] += weight * (table[mask | (1 << i)] - table[mask])
    return phi


class TestSubsetEnumeration:
    def test_fig2_values(self, fig2):
        est = shapley_exact_subsets(fig2)
        np.testing.assert_allclose(est.values, [25.0, 25.0, 30.0], atol=1e-9)
        assert est.std_err is None
        assert est.method == "exact-subsets"

    def test_additive_game_returns_weights(self):
        weights = [3.0, -1.0, 0.5]
        est = shapley_exact_subsets(additive_table_game(weights))
        np.testing.assert_allclose(est.values, weights, atol=1e-9)

    def test_constant_game_is_all_zero(self):
        est = shapley_exact_subsets(constant_table_game(5))
        np.testing.assert_allclose(est.values, 0.0, atol=1e-12)

    def test_matches_naive_double_loop(self):
        game = random_table_game(6, seed=21)
        est = shapley_exact_subsets(game)
        np.testing.assert_allclose(
            est.values, brute_force_subsets(game.values, 6), atol=1e-9
        )

    def test_rejects_too_many_players(self):
        game = Game(25, lambda masks: np.zeros(masks.size))
        with pytest.raises(CapacityError, match="sampling"):
            shapley_exact_subsets(game)

    def test_total_distinct_evaluations_is_two_to_the_n(self):
        game = random_table_game(7, seed=1)
        est = shapley_exact_subsets(game)
        assert game.eval_count == 1 << 7
        assert est.evals_used == (1 << 7) - 2  # empty/grand already cached

    def test_workers_do_not_change_the_result(self):
        serial = shapley_exact_subsets(random_table_game(6, seed=5)).values
        threaded = shapley_exact_subsets(random_table_game(6, seed=5)).values
        assert np.array_equal(serial, threaded)


class TestPermutationEnumeration:
    def test_fig2_values_match_subsets(self, fig2):
        est = shapley_exact_permutations(fig2)
        np.testing.assert_allclose(est.values, [25.0, 25.0, 30.0], atol=1e-9)

    def test_single_player_game(self):
        game = TableGame([2.0, 9.0])
        est = shapley_exact_permutations(game)
        np.testing.assert_allclose(est.values, [7.0])

    def test_agrees_with_subsets_on_random_game(self):
        game = random_table_game(6, seed=7)
        by_perm = shapley_exact_permutations(game).values
        by_subset = shapley_exact_subsets(game).values
        np.testing.assert_allclose(by_perm, by_subset, atol=1e-9)

    def test_rejects_too_many_players(self):
        game = Game(11, lambda masks: np.zeros(masks.size))
        with pytest.raises(CapacityError):
            shapley_exact_permutations(game)


class TestAxioms:
    @settings(max_examples=20)
    @given(st.integers(min_value=2, max_value=5), st.integers(min_value=0, max_value=2**31))
    def test_efficiency(self, n, seed):
        game = random_table_game(n, seed=seed)
        est = shapley_exact_subsets(game)
        assert abs(est.values.sum() - game.target_quantity()) < 1e-9

    def test_symmetry(self):
        # payoff depends only on coalition size and on how many of {0, 1} are
        # present, so players 0 and 1 are interchangeable
        rng = np.random.default_rng(8)
        h = rng.uniform(0.0, 10.0, size=(7, 3))
        n = 6
        table = [
            h[bin(m).count("1"), ((m >> 0) & 1) + ((m >> 1) & 1)]
            for m in range(1 << n)
        ]
        est = shapley_exact_subsets(TableGame(table))
        assert abs(est.values[0] - est.values[1]) < 1e-9

    def test_dummy_player_gets_its_constant(self):
        base = random_table_game(4, seed=3).values
        c = 2.5  # player 4 always adds exactly c
        table = np.empty(1 << 5)
        for m in range(1 << 5):
            low = m & 0b1111
            table[m] = base[low] + (c if (m >> 4) & 1 else 0.0)
        est = shapley_exact_subsets(TableGame(table))
        assert abs(est.values[4] - c) < 1e-9

    @settings(max_examples=20)
    @given(
        st.integers(min_value=0, max_value=2**31),
        st.floats(min_value=-3.0, max_value=3.0),
        st.floats(min_value=-3.0, max_value=3.0),
    )
    def test_linearity_over_payoff_tables(self, seed, a, b):
        g1 = random_table_game(4, seed=seed)
        g2 = random_table_game(4, seed=seed + 1)
        combined = TableGame(a * g1.values + b * g2.values)
        phi_combined = shapley_exact_subsets(combined).values
        phi_parts = (
            a * shapley_exact_subsets(g1).values + b * shapley_exact_subsets(g2).values
        )
        np.testing.assert_allclose(phi_combined, phi_parts, atol=1e-9)

    @given(st.integers(min_value=2, max_value=24))
    def test_subset_weights_sum_to_one(self, n):
        w = subset_weights(n)
        total = sum(math.comb(n - 1, k) * w[k] for k in range(n))
        assert abs(total - 1.0) < 1e-12


class TestRouteAgreement:
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7, 8])
    def test_routes_agree_across_sizes(self, n):
        game = random_table_game(n, seed=100 + n)
        np.testing.assert_allclose(
            shapley_exact_permutations(game).values,
            shapley_exact_subsets(game).values,
            atol=1e-9,
        )
