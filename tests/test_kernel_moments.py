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
from shaprank.exact import REDUCE_BLOCK, shapley_exact_subsets
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
        masks = _sample_masks(n, cfg)
        return masks, np.ones(masks.size)
    masks = np.arange(1, (1 << n) - 1, dtype=np.uint64)
    kernel = np.array([0.0] + [shapley_kernel_weight(n, k) for k in range(1, n)])
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
    y = values - base - columns[:, -1] * target_total
    X = columns[:, :-1] - columns[:, -1:]
    solved, ridge_applied, condition = _solve_symmetric(
        X.T @ (weights[:, None] * X), X.T @ (weights * y), cfg.ridge)
    phi = np.append(solved, target_total - solved.sum())
    return phi, ridge_applied, condition, game.eval_count - before


def block_rows(n):
    return REDUCE_BLOCK // (n + 2) ** 2


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
def test_moments_match_the_row_matrix(name, sampler):
    n = GAMES[name]().n_players
    cfg = RegressionConfig(n_samples=6 * n, sampler=sampler, seed=len(name))
    assert_matches_reference(GAMES[name], cfg)


@pytest.mark.parametrize("name", sorted(GAMES))
def test_sampled_moments_past_one_row_block_match_the_row_matrix(name):
    # one row more than a block of ``_sampled_moments``, so the moments fold
    # two blocks: a full one and a single row
    n = GAMES[name]().n_players
    cfg = RegressionConfig(n_samples=block_rows(n) + 1, seed=len(name))
    assert_matches_reference(GAMES[name], cfg)


@pytest.mark.parametrize("name", sorted(GAMES))
@pytest.mark.parametrize("short", [1, 0], ids=["one-row-short", "exact"])
def test_sampled_moments_of_one_row_block_match_the_row_matrix(name, short):
    # one row short of a block of ``_sampled_moments``, or a block exactly:
    # the moments are one block's, with no fold
    n = GAMES[name]().n_players
    cfg = RegressionConfig(n_samples=block_rows(n) - short, seed=len(name))
    assert_matches_reference(GAMES[name], cfg)


@pytest.mark.parametrize("name", sorted(GAMES))
@pytest.mark.parametrize("extra", [0, 1])
def test_the_fewest_sampled_rows_match_the_row_matrix(name, extra):
    # N or N + 1 rows: at N = 5, 7 and 10 to 12 the sampled system is
    # singular and the ridge decides, on both paths alike
    n = GAMES[name]().n_players
    cfg = RegressionConfig(n_samples=n + extra, seed=len(name))
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


@pytest.mark.parametrize("n", range(2, 15))
def test_exhaustive_moments_equal_the_row_sums(n):
    game = random_table_game(n, seed=500 + n)
    masks = np.arange(1, (1 << n) - 1, dtype=np.uint64)
    values = game.evaluate_masks(masks)
    _, weights = reference_rows(n, RegressionConfig(n_samples=1, sampler="exhaustive"))
    z = np.hstack([np.ones((masks.size, 1)), _indicators(masks, n), values[:, None]])
    np.testing.assert_allclose(_exhaustive_moments(masks, values, n),
                               z.T @ (weights[:, None] * z), rtol=1e-13)


def reference_sampled_moments(masks, values, n):
    """The earlier ``_sampled_moments`` at unit weights: one 3-D outer
    product per row block, every entry summed by ``np.add.reduce``."""
    width = n + 2
    rows = max(1, REDUCE_BLOCK // (width * width))
    moments = np.zeros((width, width))
    for start in range(0, masks.size, rows):
        block = slice(start, start + rows)
        z = np.hstack([np.ones((masks[block].size, 1)), _indicators(masks[block], n),
                       values[block, None]])
        moments += np.add.reduce(z[:, :, None] * z[:, None, :], axis=0)
    return moments


@pytest.mark.parametrize(
    "n, rows",
    [(3, 100), (12, 4000), (32, 4000), (64, 20_000),
     *((n, block_rows(n) + d) for n in (*range(2, 34), 64) for d in (-1, 0, 1))],
)
def test_sampled_moments_equal_the_outer_product_sums(n, rows):
    masks = _sample_masks(n, RegressionConfig(n_samples=rows, seed=n + rows))
    values = np.random.default_rng(rows).standard_normal(rows) * 1e3
    assert np.array_equal(_sampled_moments(masks, values, n),
                          reference_sampled_moments(masks, values, n))


@pytest.mark.parametrize("n", range(2, 15))
def test_exhaustive_kernel_is_exact(n):
    game = random_table_game(n, seed=600 + n)
    est = shapley_regression(game, RegressionConfig(n_samples=1, sampler="exhaustive"))
    scale = np.max(np.abs(game.values))
    np.testing.assert_allclose(est.values, shapley_exact_subsets(game).values,
                               rtol=0, atol=1e-12 * scale)
