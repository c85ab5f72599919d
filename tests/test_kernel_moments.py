"""Kernel regression from its moment matrix against the row-matrix path it
replaced.

``reference_regression`` is a local copy of the earlier estimator: every
sampled (or, exhaustively, every proper nonempty) coalition becomes a row of
a dense indicator matrix, the pinned intercept and the efficiency
elimination are applied to those rows, and the normal equations are
``X.T @ (w X)`` and ``X.T @ (w y)``.  The moment path sums in another order,
so values agree to 1e-12 of the largest payoff and conditions to 1e-9
relative, while the ridge decision and every counter agree exactly.  Where
the ridge fires the system is singular and rounding sets its null
direction: the ridge solution there moves by about eps / ridge of the
payoffs, so those cases agree to 100 eps / ridge.
"""

import numpy as np
import pytest

from shaprank.errors import SingularSystemError
from shaprank.exact import shapley_exact_subsets
from shaprank.games import TableGame, make_fig2_game
from shaprank.regression import (
    SAMPLERS,
    RegressionConfig,
    _exhaustive_moments,
    _indicators,
    _sample_masks,
    _sampled_moments,
    _solve_symmetric,
    shapley_kernel_weight,
    shapley_regression,
)

from conftest import build_redundancy_game, random_table_game
from test_exact_routes import batched_game


def reference_rows(n, cfg):
    if cfg.sampler != "exhaustive":
        return _sample_masks(n, cfg)
    masks = np.arange(1, (1 << n) - 1, dtype=np.uint64)
    kernel = np.array([shapley_kernel_weight(n, k) for k in range(n + 1)])
    return masks, kernel[np.bitwise_count(masks)]


def reference_regression(game, cfg):
    """Values, ridge flag, condition and evaluations of the row-matrix
    estimator."""
    n = game.n_players
    before = game.eval_count
    masks, weights = reference_rows(n, cfg)
    values = game.evaluate_masks(masks)
    columns = _indicators(masks, n)
    base = game.evaluate_mask(0)
    target_total = game.target_quantity()
    y = values if cfg.fit_intercept else values - base
    if cfg.enforce_efficiency:
        y = y - columns[:, -1] * target_total
        columns = columns[:, :-1] - columns[:, -1:]
    X = np.hstack([np.ones((masks.size, 1)), columns]) if cfg.fit_intercept else columns
    solved, ridge_applied, condition = _solve_symmetric(
        X.T @ (weights[:, None] * X), X.T @ (weights * y), cfg.ridge)
    phi = solved[1:] if cfg.fit_intercept else solved
    if cfg.enforce_efficiency:
        phi = np.append(phi, target_total - phi.sum())
    return phi, ridge_applied, condition, game.eval_count - before


GAMES = {
    **{f"table{n}": (lambda n=n: random_table_game(n, seed=400 + n)) for n in range(2, 13)},
    "fig2": make_fig2_game,
    "batched7": lambda: batched_game(7, seed=7),
    "redundancy": lambda: build_redundancy_game(seed=2, n_pairs=2),
}


def assert_matches_reference(make_game, cfg):
    game, twin = make_game(), make_game()
    est = shapley_regression(game, cfg)
    phi, ridge_applied, condition, evals = reference_regression(twin, cfg)
    assert (est.evals_used, game.eval_count, game.cache_hits) == (
        evals, twin.eval_count, twin.cache_hits)
    assert est.ridge_applied == ridge_applied
    tolerance = 100 * np.finfo(float).eps / cfg.ridge if ridge_applied else 1e-12
    assert est.condition == pytest.approx(condition, rel=max(tolerance, 1e-9))
    scale = np.max(np.abs(twin.evaluate_masks(np.arange(1 << twin.n_players))))
    np.testing.assert_allclose(est.values, phi, rtol=0, atol=tolerance * scale)
    return est


@pytest.mark.parametrize("name", sorted(GAMES))
@pytest.mark.parametrize("sampler", SAMPLERS)
@pytest.mark.parametrize("enforce_efficiency", [True, False])
@pytest.mark.parametrize("fit_intercept", [True, False])
def test_moments_match_the_row_matrix(name, sampler, enforce_efficiency, fit_intercept):
    n = GAMES[name]().n_players
    cfg = RegressionConfig(n_samples=6 * n, sampler=sampler, seed=len(name),
                           enforce_efficiency=enforce_efficiency, fit_intercept=fit_intercept)
    assert_matches_reference(GAMES[name], cfg)


def test_rank_deficient_rows_fall_back_to_ridge():
    # at seed 4 the four sampled rows leave the system rank deficient
    make_game = lambda: TableGame(np.arange(16, dtype=np.float64))
    cfg = RegressionConfig(n_samples=4, seed=4)
    assert assert_matches_reference(make_game, cfg).ridge_applied
    strict = RegressionConfig(n_samples=4, seed=4, ridge=0.0)
    for estimator in (shapley_regression, reference_regression):
        with pytest.raises(SingularSystemError):
            estimator(make_game(), strict)


@pytest.mark.parametrize("n", range(2, 11))
def test_exhaustive_moments_equal_the_row_sums(n):
    game = random_table_game(n, seed=500 + n)
    masks = np.arange(1, (1 << n) - 1, dtype=np.uint64)
    values = game.evaluate_masks(masks)
    _, weights = reference_rows(n, RegressionConfig(n_samples=1, sampler="exhaustive"))
    z = np.hstack([np.ones((masks.size, 1)), _indicators(masks, n), values[:, None]])
    np.testing.assert_allclose(_exhaustive_moments(masks, values, n),
                               z.T @ (weights[:, None] * z), rtol=1e-13)
    np.testing.assert_allclose(_sampled_moments(masks, weights, values, n),
                               z.T @ (weights[:, None] * z), rtol=1e-13)


@pytest.mark.parametrize("n", range(2, 13))
def test_exhaustive_kernel_is_exact(n):
    game = random_table_game(n, seed=600 + n)
    est = shapley_regression(game, RegressionConfig(n_samples=1, sampler="exhaustive"))
    scale = np.max(np.abs(game.values))
    np.testing.assert_allclose(est.values, shapley_exact_subsets(game).values,
                               rtol=0, atol=1e-12 * scale)
