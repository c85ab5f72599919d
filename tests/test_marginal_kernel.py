"""The sorted-mask enumeration and the one weighted-marginal kernel behind
exact subsets, band sums, leave-one-out and the oracle.

The differential tests keep local copies of the per-player loops the kernel
replaced: exact must match the old gather bit for bit (both sum each
player's products with ``ordered_sum``), band sums the old per-size
enumeration to the last few bits.
"""

import itertools
import math

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from shaprank.exact import (
    ordered_sum,
    shapley_exact_permutations,
    shapley_exact_subsets,
    subset_weights,
)
from shaprank.games import Game, TableGame, masks_by_size, masks_of_size
from shaprank.oracle import compute_oracle_subsets
from shaprank.partial import SizeBand, leave_one_out, shapley_partial
from shaprank.regression import RegressionConfig, shapley_regression
from shaprank.sampling import SamplingConfig, shapley_sample_permutations

from conftest import build_redundancy_game, random_table_game


def old_exact_gather(game: Game) -> np.ndarray:
    """Exact values the way they were computed before the kernel: one
    gather of every mask without player i, per player."""
    n = game.n_players
    table = game.evaluate_masks(range(1 << n))
    weights = subset_weights(n)
    sizes = np.array([bin(m).count("1") for m in range(1 << n)])
    all_masks = np.arange(1 << n, dtype=np.int64)
    phi = np.zeros(n)
    for i in range(n):
        without = all_masks[(all_masks >> i) & 1 == 0]
        gains = table[without | (1 << i)] - table[without]
        phi[i] = ordered_sum(weights[sizes[without]], gains)
    return phi


def old_band_enumeration(game: Game, band: SizeBand) -> np.ndarray:
    """Renormalized band sums the way they were computed before the kernel:
    per player and per size, the subsets of the other players in
    ``itertools.combinations`` order."""
    n = game.n_players
    sizes = band.sizes(n)
    weights = subset_weights(n)
    scale = 1.0 / sum(math.comb(n - 1, k) * weights[k] for k in sizes)
    phi = np.zeros(n)
    for i in range(n):
        others = [j for j in range(n) if j != i]
        total = 0.0
        for k in sizes:
            without = np.array(
                [sum(1 << j for j in c) for c in itertools.combinations(others, k)],
                dtype=np.int64,
            )
            gains = game.evaluate_masks(without | (1 << i)) - game.evaluate_masks(without)
            total += weights[k] * float(gains.sum())
        phi[i] = total * scale
    return phi


class TestMasksOfSize:
    @pytest.mark.parametrize("n", range(13))
    def test_equals_the_sorted_itertools_enumeration(self, n):
        for k in range(n + 1):
            expected = sorted(
                sum(1 << j for j in combo) for combo in itertools.combinations(range(n), k)
            )
            got = masks_of_size(n, k)
            assert got.dtype == np.uint64
            assert got.tolist() == expected

    @pytest.mark.parametrize("k", [0, 1, 63, 64])
    def test_sixty_four_players(self, k):
        expected = sorted(
            sum(1 << j for j in combo) for combo in itertools.combinations(range(64), k)
        )
        assert masks_of_size(64, k).tolist() == expected

    def test_size_out_of_range_is_empty(self):
        assert masks_of_size(5, 6).size == 0
        assert masks_of_size(5, -1).size == 0

    @pytest.mark.parametrize("n", [*range(1, 13), 20])
    def test_one_sweep_builds_every_size_at_once(self, n):
        by_size = masks_by_size(n, range(-1, n + 2))
        assert sorted(by_size) == list(range(-1, n + 2))
        for k in range(-1, n + 2):
            assert by_size[k].dtype == np.uint64
            assert np.array_equal(by_size[k], masks_of_size(n, k))
        # a partial request sweeps only as far as its sizes need
        for sizes in ([0, n], [1, n - 1], [n // 2, n // 2 + 1]):
            partial = masks_by_size(n, sizes)
            assert all(np.array_equal(partial[k], by_size[k]) for k in sizes)


class TestAgainstTheOldLoops:
    @pytest.mark.parametrize("n", range(1, 13))
    def test_exact_is_bit_identical_to_the_old_gather(self, n):
        new_game = random_table_game(n, seed=100 + n)
        old_game = random_table_game(n, seed=100 + n)
        new = shapley_exact_subsets(new_game)
        assert np.array_equal(new.values, old_exact_gather(old_game))
        assert new_game.eval_count == old_game.eval_count
        assert new_game.cache_hits == old_game.cache_hits

    def test_exact_is_bit_identical_on_the_redundancy_game(self):
        new_game = build_redundancy_game(seed=3, n_pairs=2)
        old_game = build_redundancy_game(seed=3, n_pairs=2)
        assert np.array_equal(
            shapley_exact_subsets(new_game).values, old_exact_gather(old_game)
        )
        assert new_game.eval_count == old_game.eval_count
        assert new_game.cache_hits == old_game.cache_hits

    @pytest.mark.parametrize(
        "n, band",
        [
            (3, SizeBand(1)),
            (6, SizeBand(2, low_d=1)),
            (9, SizeBand(3, low_d=2)),
            (10, SizeBand(1, low_d=3)),
            (12, SizeBand(4)),
            (12, SizeBand.full(12)),
        ],
    )
    def test_band_sums_match_the_old_enumeration(self, n, band):
        new_game = random_table_game(n, seed=200 + n)
        old_game = random_table_game(n, seed=200 + n)
        new = shapley_partial(new_game, band)
        old = old_band_enumeration(old_game, band)
        scale = np.max(np.abs(old))
        np.testing.assert_allclose(new.values, old, rtol=1e-12, atol=1e-12 * scale)
        assert new.evals_used == old_game.eval_count - 2

    def test_each_band_coalition_is_requested_once(self):
        game = random_table_game(10, seed=5)
        shapley_partial(game, SizeBand(3, low_d=2))
        # only the empty and grand coalitions, evaluated at construction,
        # come back from the cache
        assert game.cache_hits == 2


def _symmetric_table(n: int, seed: int, a: int, b: int) -> TableGame:
    """A random table made invariant under swapping players a and b."""
    table = random_table_game(n, seed=seed).values
    masks = np.arange(1 << n)
    bit_a, bit_b = (masks >> a) & 1, (masks >> b) & 1
    swapped = masks & ~((1 << a) | (1 << b)) | (bit_a << b) | (bit_b << a)
    return TableGame((table + table[swapped]) / 2.0)


def _dummy_table(n: int, seed: int, dummy: int, constant: float) -> TableGame:
    """A random table in which player ``dummy`` always adds ``constant``."""
    table = random_table_game(n, seed=seed).values
    masks = np.arange(1 << n)
    base = table[masks & ~(1 << dummy)]
    return TableGame(base + constant * ((masks >> dummy) & 1))


ESTIMATORS = {
    "exact": shapley_exact_subsets,
    "exact-perm": shapley_exact_permutations,
    "full-band": lambda game: shapley_partial(game, SizeBand.full(game.n_players)),
    "kernel": lambda game: shapley_regression(
        game, RegressionConfig(n_samples=1, sampler="exhaustive")),
}


@pytest.mark.parametrize("estimator", sorted(ESTIMATORS))
class TestShapleyAxioms:
    @given(st.integers(min_value=1, max_value=8), st.integers(min_value=0, max_value=2**31))
    def test_efficiency(self, estimator, n, seed):
        assume(n > 1 or estimator != "kernel")  # regression needs two players
        game = random_table_game(n, seed=seed)
        values = ESTIMATORS[estimator](game).values
        assert values.sum() == pytest.approx(game.target_quantity(), rel=1e-12, abs=1e-9)

    @given(st.integers(min_value=2, max_value=8), st.integers(min_value=0, max_value=2**31), st.data())
    def test_symmetry(self, estimator, n, seed, data):
        a, b = data.draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
        values = ESTIMATORS[estimator](_symmetric_table(n, seed, a, b)).values
        assert values[a] == pytest.approx(values[b], rel=1e-12, abs=1e-9)

    @given(
        st.integers(min_value=2, max_value=8),
        st.integers(min_value=0, max_value=2**31),
        st.floats(min_value=-20.0, max_value=20.0),
        st.data(),
    )
    def test_dummy_player(self, estimator, n, seed, constant, data):
        dummy = data.draw(st.integers(0, n - 1))
        game = _dummy_table(n, seed, dummy, constant)
        values = ESTIMATORS[estimator](game).values
        assert values[dummy] == pytest.approx(constant, rel=1e-12, abs=1e-9)


@pytest.mark.parametrize("antithetic", [False, True], ids=["plain", "antithetic"])
class TestPermutationSamplingAxioms:
    @given(
        st.integers(min_value=1, max_value=8),
        st.integers(min_value=0, max_value=2**31),
        st.integers(min_value=1, max_value=30),
    )
    def test_efficiency(self, antithetic, n, seed, perms):
        game = random_table_game(n, seed=seed)
        cfg = SamplingConfig(n_permutations=perms, seed=seed, antithetic=antithetic)
        values = shapley_sample_permutations(game, cfg).values
        assert values.sum() == pytest.approx(game.target_quantity(), rel=1e-12, abs=1e-9)

    @given(st.integers(min_value=2, max_value=8), st.integers(min_value=0, max_value=2**31), st.data())
    def test_a_player_that_never_changes_the_payoff_gets_exactly_zero(
        self, antithetic, n, seed, data
    ):
        dummy = data.draw(st.integers(0, n - 1))
        game = _dummy_table(n, seed, dummy, 0.0)
        cfg = SamplingConfig(n_permutations=20, seed=seed, antithetic=antithetic)
        est = shapley_sample_permutations(game, cfg)
        assert (est.values[dummy], est.std_err[dummy]) == (0.0, 0.0)


@pytest.mark.parametrize("fit_intercept", [False, True], ids=["pinned", "intercept"])
@given(
    st.integers(min_value=2, max_value=8),
    st.integers(min_value=0, max_value=2**31),
    st.integers(min_value=0, max_value=40),
)
def test_sampled_regression_is_efficient(fit_intercept, n, seed, extra):
    game = random_table_game(n, seed=seed)
    cfg = RegressionConfig(n_samples=n + extra, seed=seed, fit_intercept=fit_intercept)
    values = shapley_regression(game, cfg).values
    assert values.sum() == pytest.approx(game.target_quantity(), rel=1e-12, abs=1e-9)


@pytest.mark.parametrize("renormalize", [True, False], ids=["renormalized", "raw"])
@given(
    st.integers(min_value=1, max_value=8),
    st.integers(min_value=0, max_value=2**31),
    st.floats(min_value=-5.0, max_value=5.0),
    st.floats(min_value=-5.0, max_value=5.0),
    st.data(),
)
def test_band_sums_are_linear_in_the_game(renormalize, n, seed, a, b, data):
    high_d = data.draw(st.integers(1, n))
    band = SizeBand(high_d, low_d=data.draw(st.integers(0, n - high_d)))
    u, w = random_table_game(n, seed=seed).values, random_table_game(n, seed=seed + 1).values

    def values(table):
        return shapley_partial(TableGame(table), band, renormalize).values

    combined = values(a * u + b * w)
    np.testing.assert_allclose(combined, a * values(u) + b * values(w), rtol=1e-9, atol=1e-9)


class TestSixtyFourPlayers:
    """Bitmasks of 64 players use the top bit; no path may go through int64."""

    weights = np.linspace(-1.0, 2.0, 64)

    @pytest.fixture
    def additive(self):
        bits = np.arange(64, dtype=np.uint64)
        return Game(64, lambda masks: (masks[:, None] >> bits & np.uint64(1)) @ self.weights)

    def test_sampled_regression_recovers_the_weights(self, additive):
        est = shapley_regression(additive, RegressionConfig(n_samples=400, seed=3))
        np.testing.assert_allclose(est.values, self.weights, atol=1e-9)
        assert all(0 <= mask < 1 << 64 for mask in additive.cached_table()[0].tolist())

    def test_leave_one_out_and_band_sums_recover_the_weights(self, additive):
        np.testing.assert_allclose(leave_one_out(additive).values, self.weights, atol=1e-9)
        np.testing.assert_allclose(
            shapley_partial(additive, SizeBand(2)).values, self.weights, atol=1e-9
        )

    def test_oracle_runs(self, additive):
        oracle = compute_oracle_subsets(additive, "remove", [1])
        # removing the most negative player leaves the largest payoff
        assert [c.members() for c in oracle.per_k[1]] == [(0,)]
