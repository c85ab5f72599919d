import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shaprank.errors import BudgetError, InvalidBandError
from shaprank.exact import shapley_exact_subsets, subset_weights
from shaprank.games import Game, TableGame
from shaprank.partial import SizeBand, leave_one_out, shapley_partial

from conftest import additive_table_game, constant_table_game, random_table_game


class TestSizeBand:
    def test_high_band_sizes(self):
        assert SizeBand(high_d=1).sizes(5) == [4]
        assert SizeBand(high_d=3).sizes(5) == [2, 3, 4]

    def test_low_band_joins(self):
        assert SizeBand(high_d=1, low_d=2).sizes(6) == [0, 1, 5]

    def test_full_band(self):
        assert SizeBand.full(4).sizes(4) == [0, 1, 2, 3]

    def test_overlap_rejected(self):
        with pytest.raises(InvalidBandError, match="overlap"):
            SizeBand(high_d=3, low_d=2).sizes(4)

    def test_high_d_must_be_positive(self):
        with pytest.raises(InvalidBandError):
            SizeBand(high_d=0)

    def test_low_d_must_be_non_negative(self):
        with pytest.raises(InvalidBandError):
            SizeBand(high_d=1, low_d=-1)

    def test_high_d_cannot_exceed_player_count(self):
        with pytest.raises(InvalidBandError):
            SizeBand(high_d=5).sizes(4)


class TestShapleyPartial:
    def test_fig2_single_removal_band(self, fig2):
        est = shapley_partial(fig2, SizeBand(high_d=1))
        np.testing.assert_allclose(est.values, [5.0, 20.0, 35.0], atol=1e-12)

    def test_fig2_full_band_equals_exact(self, fig2):
        est = shapley_partial(fig2, SizeBand(high_d=3))
        np.testing.assert_allclose(est.values, [25.0, 25.0, 30.0], atol=1e-9)

    @pytest.mark.parametrize("band", [SizeBand(1), SizeBand(2), SizeBand(1, low_d=1)])
    def test_additive_game_any_band_returns_weights(self, band):
        weights = [3.0, -1.0, 0.5, 2.0]
        est = shapley_partial(additive_table_game(weights), band)
        np.testing.assert_allclose(est.values, weights, atol=1e-9)

    @settings(max_examples=15)
    @given(
        st.integers(min_value=3, max_value=9),
        st.integers(min_value=0, max_value=2**31),
        st.data(),
    )
    def test_full_band_always_reduces_to_exact(self, n, seed, data):
        game = random_table_game(n, seed=seed)
        # any partition of all sizes into a high and a low stretch is full
        low = data.draw(st.integers(min_value=0, max_value=n - 1))
        band = SizeBand(high_d=n - low, low_d=low)
        assert band.sizes(n) == list(range(n))
        np.testing.assert_allclose(
            shapley_partial(game, band).values,
            shapley_exact_subsets(game).values,
            atol=1e-9,
        )

    def test_full_band_at_twelve_players(self):
        game = random_table_game(12, seed=88)
        np.testing.assert_allclose(
            shapley_partial(game, SizeBand.full(12)).values,
            shapley_exact_subsets(game).values,
            atol=1e-9,
        )

    def test_renormalized_weights_sum_to_one(self):
        for n in (3, 6, 11):
            weights = subset_weights(n)
            for band in (SizeBand(1), SizeBand(2), SizeBand(2, low_d=1)):
                sizes = band.sizes(n)
                mass = sum(math.comb(n - 1, k) * weights[k] for k in sizes)
                renormalized_total = sum(
                    math.comb(n - 1, k) * weights[k] / mass for k in sizes
                )
                assert abs(renormalized_total - 1.0) < 1e-12

    def test_raw_mode_skips_renormalization(self, fig2):
        raw = shapley_partial(fig2, SizeBand(high_d=1), renormalize=False)
        # single top-size subset: raw keeps the 1/N factor
        np.testing.assert_allclose(
            raw.values, np.array([5.0, 20.0, 35.0]) / 3.0, atol=1e-12
        )
        assert "raw" in raw.method

    def test_budget_error(self):
        game = Game(30, lambda masks: np.zeros(masks.size))
        with pytest.raises(BudgetError, match="budget"):
            shapley_partial(game, SizeBand(high_d=16))

    def test_budget_counts_every_coalition_enumerated(self, monkeypatch):
        # sizes 0..5 and 63 pull in sizes 0..6, 63 and 64: 83 278 066
        # coalitions, though each player sees only 7 666 241 subsets
        def refuse(*args):
            raise AssertionError("enumerated past the budget")

        monkeypatch.setattr("shaprank.partial.marginal_sums", refuse)
        with pytest.raises(BudgetError, match="83278066 coalitions"):
            shapley_partial(
                Game(64, lambda masks: np.zeros(masks.size)), SizeBand(high_d=1, low_d=6)
            )

    def test_workers_do_not_change_the_result(self):
        game_a = random_table_game(6, seed=17)
        game_b = random_table_game(6, seed=17)
        a = shapley_partial(game_a, SizeBand(2)).values
        b = shapley_partial(game_b, SizeBand(2)).values
        assert np.array_equal(a, b)


class TestLeaveOneOut:
    def test_fig2(self, fig2):
        est = leave_one_out(fig2)
        np.testing.assert_allclose(est.values, [5.0, 20.0, 35.0], atol=1e-12)
        assert est.method == "leave-one-out"

    def test_constant_game_all_zero(self):
        np.testing.assert_allclose(leave_one_out(constant_table_game(6)).values, 0.0)

    def test_touches_exactly_n_plus_one_coalitions(self):
        n = 8
        game = random_table_game(n, seed=2)
        est = leave_one_out(game)
        # grand coalition was cached at construction; each drop-one set is new
        assert est.evals_used == n
        assert game.eval_count == n + 2  # plus the empty/grand construction pair

    def test_two_player_game_matching_exact(self):
        # marginals agree in both orderings: nu({i}) - nu({}) == nu(N) - nu({j})
        game = TableGame([0.0, 1.0, 2.0, 3.0])
        np.testing.assert_allclose(
            leave_one_out(game).values,
            shapley_exact_subsets(game).values,
            atol=1e-12,
        )

    def test_two_player_game_differing_from_exact(self):
        game = TableGame([0.0, 5.0, 2.0, 6.0])
        loo = leave_one_out(game).values
        exact = shapley_exact_subsets(game).values
        assert np.max(np.abs(loo - exact)) > 0.1

    def test_ranking_divergence_on_fig2(self, fig2):
        loo = leave_one_out(fig2).values
        assert int(np.argmin(loo)) == 0
        exact = shapley_exact_subsets(fig2).values
        minimum = exact.min()
        tied_minimum = {i for i, v in enumerate(exact) if abs(v - minimum) < 1e-9}
        assert tied_minimum == {0, 1}
