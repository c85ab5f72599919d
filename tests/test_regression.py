import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy import stats

from shaprank.errors import BudgetError, SingularSystemError
from shaprank.exact import shapley_exact_subsets
from shaprank.games import ENUMERATION_BUDGET, Game, TableGame
from shaprank.regression import (
    SAMPLERS,
    RegressionConfig,
    _sample_masks,
    _solve_symmetric,
    shapley_kernel_weight,
    shapley_regression,
    stratified_size_probabilities,
)

from conftest import additive_table_game, random_table_game


class TestKernelWeight:
    def test_three_player_values(self):
        assert shapley_kernel_weight(3, 1) == pytest.approx(1.0 / 3.0)
        assert shapley_kernel_weight(3, 2) == pytest.approx(1.0 / 3.0)

    @pytest.mark.parametrize("n", [1, 2, 3, 64])
    def test_the_empty_and_grand_coalitions_have_no_weight(self, n):
        # the regression pins both exactly: their weight is infinite
        for k in (0, n):
            with pytest.raises(ValueError, match=f"coalition size {k} outside"):
                shapley_kernel_weight(n, k)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            shapley_kernel_weight(3, -1)
        with pytest.raises(ValueError):
            shapley_kernel_weight(3, 4)

    @given(st.integers(min_value=2, max_value=30), st.data())
    def test_symmetric_in_coalition_size(self, n, data):
        k = data.draw(st.integers(min_value=1, max_value=n - 1))
        assert shapley_kernel_weight(n, k) == pytest.approx(
            shapley_kernel_weight(n, n - k)
        )

    @given(st.integers(min_value=2, max_value=30), st.data())
    def test_positive_for_proper_sizes(self, n, data):
        k = data.draw(st.integers(min_value=1, max_value=n - 1))
        assert shapley_kernel_weight(n, k) > 0


class TestExhaustiveRegression:
    def test_fig2_recovers_exact_values(self, fig2):
        cfg = RegressionConfig(n_samples=1, sampler="exhaustive")
        est = shapley_regression(fig2, cfg)
        np.testing.assert_allclose(est.values, [25.0, 25.0, 30.0], atol=1e-6)
        assert est.seed is None

    def test_additive_game_residuals_vanish(self):
        weights = [3.0, -1.0, 0.5, 1.25]
        cfg = RegressionConfig(n_samples=1, sampler="exhaustive")
        est = shapley_regression(additive_table_game(weights), cfg)
        np.testing.assert_allclose(est.values, weights, atol=1e-6)

    @pytest.mark.parametrize("n", [2, 3, 4, 6, 8, 10])
    def test_matches_exact_enumeration(self, n):
        game = random_table_game(n, seed=50 + n)
        cfg = RegressionConfig(n_samples=1, sampler="exhaustive")
        np.testing.assert_allclose(
            shapley_regression(game, cfg).values,
            shapley_exact_subsets(game).values,
            atol=1e-6,
        )


    @pytest.mark.parametrize("n", range(2, 15))
    @pytest.mark.parametrize("sampler", SAMPLERS)
    def test_an_additive_game_is_recovered_from_full_rank_rows(self, sampler, n):
        # with the empty and grand coalitions pinned and efficiency
        # eliminated, an additive game fits every row without residual
        weights = np.random.default_rng(n).standard_normal(n) * 10
        cfg = RegressionConfig(n_samples=6 * n, sampler=sampler, seed=n)
        est = shapley_regression(additive_table_game(weights), cfg)
        assert not est.ridge_applied
        np.testing.assert_allclose(est.values, weights, rtol=0, atol=1e-9)


class TestSampledRegression:
    def test_sampling_converges(self):
        game = random_table_game(6, seed=33)
        exact = shapley_exact_subsets(game).values
        cfg = RegressionConfig(n_samples=4000, seed=5)
        est = shapley_regression(game, cfg)
        assert np.max(np.abs(est.values - exact)) < 2.0

    def test_efficiency_holds_at_any_budget(self):
        game = random_table_game(7, seed=8)
        cfg = RegressionConfig(n_samples=20, seed=1)
        est = shapley_regression(game, cfg)
        assert abs(est.values.sum() - game.target_quantity()) < 1e-9

    def test_fixed_seed_reproducible(self):
        game = random_table_game(6, seed=2)
        cfg = RegressionConfig(n_samples=300, sampler="size-stratified", seed=9)
        a = shapley_regression(game, cfg).values
        b = shapley_regression(random_table_game(6, seed=2), cfg).values
        assert np.array_equal(a, b)

    def test_exhaustive_sampler_beyond_the_budget_enumerates_nothing(self):
        def payoff(masks):
            if masks.size > 2:
                raise AssertionError("enumerated past the budget")
            return np.zeros(masks.size)

        game = Game(24, payoff)
        with pytest.raises(BudgetError, match="16777214 coalitions"):
            shapley_regression(game, RegressionConfig(n_samples=1, sampler="exhaustive"))

    @pytest.mark.parametrize("sampler", [s for s in SAMPLERS if s != "exhaustive"])
    def test_samples_beyond_the_budget_draw_nothing(self, sampler):
        def payoff(masks):
            raise AssertionError("drew past the budget")

        # the empty and grand payoffs preloaded: the payoff is never called
        game = Game(4, payoff, preloaded=([0, 15], [0.0, 1.0]))
        samples = ENUMERATION_BUDGET + 1
        with pytest.raises(BudgetError, match=f"{samples} coalitions"):
            shapley_regression(game, RegressionConfig(n_samples=samples, sampler=sampler))

    def test_underdetermined_budget_rejected(self):
        game = random_table_game(6, seed=2)
        with pytest.raises(ValueError, match="underdetermine"):
            shapley_regression(game, RegressionConfig(n_samples=4))

    def test_rows_are_proper_and_nonempty(self):
        masks = _sample_masks(5, RegressionConfig(n_samples=64, seed=0))
        assert masks.size == 64
        assert np.all((masks > 0) & (masks < 0b11111))


class TestSizeStratifiedSampler:
    def test_size_distribution_matches_kernel_mass(self):
        n = 8
        masks = _sample_masks(n, RegressionConfig(n_samples=100_000, seed=12))
        sizes = np.array([int(m).bit_count() for m in masks])
        observed = np.bincount(sizes, minlength=n)[1:n]
        expected = stratified_size_probabilities(n) * masks.size
        result = stats.chisquare(observed, expected)
        assert result.pvalue > 0.01

    def test_subsets_uniform_within_a_size(self):
        n = 6
        masks = _sample_masks(n, RegressionConfig(n_samples=60_000, seed=7))
        chosen = np.array([m for m in masks if int(m).bit_count() == 2])
        values, counts = np.unique(chosen, return_counts=True)
        assert values.size == 15  # all C(6,2) patterns appear
        result = stats.chisquare(counts)
        assert result.pvalue > 0.01


class TestSolver:
    def test_singular_without_ridge_raises_with_condition(self):
        A = np.array([[1.0, 1.0], [1.0, 1.0]])
        b = np.array([1.0, 1.0])
        with pytest.raises(SingularSystemError) as info:
            _solve_symmetric(A, b, ridge=0.0)
        assert info.value.condition is not None

    def test_ridge_fallback_recovers(self):
        A = np.array([[1.0, 1.0], [1.0, 1.0]])
        b = np.array([1.0, 1.0])
        x, _, _ = _solve_symmetric(A, b, ridge=1e-6)
        assert np.all(np.isfinite(x))

    def test_solve_reports_whether_the_ridge_fired(self):
        singular = np.array([[1.0, 1.0], [1.0, 1.0]])
        _, fired, condition = _solve_symmetric(singular, np.ones(2), ridge=1e-6)
        assert fired is True
        assert condition == float(np.linalg.cond(singular + 1e-6 * np.eye(2)))
        plain = np.array([[2.0, 0.0], [0.0, 1.0]])
        _, fired, condition = _solve_symmetric(plain, np.ones(2), ridge=1e-6)
        assert (fired, condition) == (False, 2.0)

    def test_estimate_records_the_ridge_fallback(self):
        game = TableGame(np.arange(16, dtype=np.float64))
        with pytest.raises(SingularSystemError):
            shapley_regression(game, RegressionConfig(n_samples=4, seed=4, ridge=0.0))
        est = shapley_regression(game, RegressionConfig(n_samples=4, seed=4))
        assert est.ridge_applied is True
        exact = shapley_regression(game, RegressionConfig(n_samples=1, sampler="exhaustive"))
        assert exact.ridge_applied is False
        assert exact.condition < 1e3

    @pytest.mark.parametrize("ridge", [-1e-8, float("nan"), float("inf")])
    def test_config_refuses_a_negative_or_non_finite_ridge(self, ridge):
        with pytest.raises(ValueError, match="ridge"):
            RegressionConfig(n_samples=4, ridge=ridge)

    @pytest.mark.parametrize("sampler", [s for s in SAMPLERS if s != "exhaustive"])
    def test_config_refuses_a_negative_seed_for_a_sampler_that_draws(self, sampler):
        with pytest.raises(ValueError, match="seed"):
            RegressionConfig(n_samples=4, sampler=sampler, seed=-1)

    @pytest.mark.parametrize("sampler", ["bernoulli-half", "permutation-prefix", "Exhaustive", ""])
    def test_config_refuses_a_sampler_outside_the_samplers(self, sampler):
        with pytest.raises(ValueError, match="unknown sampler"):
            RegressionConfig(n_samples=4, sampler=sampler)

    def test_the_exhaustive_sampler_takes_any_seed(self):
        game = TableGame(np.arange(8, dtype=np.float64))
        est = shapley_regression(game, RegressionConfig(n_samples=1, sampler="exhaustive", seed=-1))
        assert est.seed is None

    def test_ridge_shrinks_the_solution_monotonically(self):
        rng = np.random.default_rng(0)
        base = rng.standard_normal((6, 4))
        A = base.T @ base  # rank-deficient PSD (6 rows, 4 cols, rank <= 4)
        A[:, -1] = A[:, -2]  # force exact singularity
        A[-1, :] = A[-2, :]
        b = rng.standard_normal(4)
        norms = [
            np.linalg.norm(np.linalg.solve(A + lam * np.eye(4), b))
            for lam in (1e-8, 1e-6, 1e-4, 1e-2, 1.0)
        ]
        assert all(a >= b_ for a, b_ in zip(norms, norms[1:]))

    def test_regression_singularity_surfaces_when_player_never_sampled(self):
        # two fixed rows over 4 players leave the system rank deficient
        game = TableGame(np.arange(16, dtype=np.float64))
        masks = np.array([0b0011, 0b0101], dtype=np.int64)

        n = 4
        indicators = ((masks[:, None] >> np.arange(n)) & 1).astype(np.float64)
        weights = np.ones(2)
        X = indicators[:, :-1] - indicators[:, -1:]
        A = X.T @ (weights[:, None] * X)
        b = X.T @ (weights * np.ones(2))
        with pytest.raises(SingularSystemError):
            _solve_symmetric(A, b, ridge=0.0)

