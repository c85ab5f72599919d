import itertools

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from shaprank.errors import BudgetError
from shaprank.exact import shapley_exact_subsets
from shaprank.games import Game, Ranking, mask_from_members
from shaprank.oracle import (
    OracleSubsets,
    build_oracle_rank,
    compute_oracle_subsets,
    jaccard,
    score_ranking,
)
from shaprank.partial import leave_one_out
from shaprank.regression import RegressionConfig, shapley_regression
from shaprank.sampling import SamplingConfig, shapley_sample_permutations

from conftest import (
    build_redundancy_game,
    constant_table_game,
    greedy_oracle_rank,
    members,
    random_table_game,
)


def exhaustive_best_total(oracle: OracleSubsets) -> float:
    """Independent search oracle: try all N! orderings with raw set algebra."""
    n = oracle.n_players
    best = -1.0
    for perm in itertools.permutations(range(n)):
        num, den = 0.0, 0.0
        for k in oracle.k_range:
            prefix = set(perm[:k])
            overlap = max(
                len(prefix & set(members(oset))) / len(prefix | set(members(oset)))
                for oset in oracle.per_k[k]
            )
            num += k * overlap
            den += k
        best = max(best, num / den)
    return best


def synthetic_oracle(n, sets_by_k, mode="remove") -> OracleSubsets:
    per_k = {
        k: np.array([mask_from_members(s, n) for s in tied], dtype=np.uint64)
        for k, tied in sets_by_k.items()
    }
    return OracleSubsets(
        mode=mode, n_players=n, per_k=per_k, best_value={k: 0.0 for k in per_k}
    )


class TestJaccard:
    def test_identical_sets(self):
        assert jaccard(0b10, 0b10) == 1.0

    def test_partial_overlap(self):
        assert jaccard(0b011, 0b110) == pytest.approx(1.0 / 3.0)

    def test_disjoint(self):
        assert jaccard(0, 0b10) == 0.0

    def test_both_empty(self):
        assert jaccard(0, 0) == 1.0

    def test_masks_at_and_above_bit_63_count_exactly(self):
        top = 1 << 63
        assert jaccard(top | 1, top) == 0.5
        assert jaccard((1 << 64) - 1, top) == 1 / 64

    @given(
        st.integers(min_value=1, max_value=12),
        st.data(),
    )
    def test_bounds_and_symmetry(self, n, data):
        a = data.draw(st.integers(0, (1 << n) - 1))
        b = data.draw(st.integers(0, (1 << n) - 1))
        j = jaccard(a, b)
        assert 0.0 <= j <= 1.0
        assert j == jaccard(b, a)
        assert (j == 1.0) == (a == b)


class TestOracleSubsets:
    def test_fig2_remove_mode(self, fig2):
        oracle = compute_oracle_subsets(fig2, "remove", [1, 2])
        assert oracle.per_k[1].tolist() == [0b001]
        assert oracle.per_k[2].tolist() == [0b110]
        assert oracle.best_value[1] == 85.0
        assert oracle.best_value[2] == 55.0

    def test_fig2_keep_mode(self, fig2):
        oracle = compute_oracle_subsets(fig2, "keep", [1, 2])
        assert oracle.per_k[1].tolist() == [0b001]  # 55 beats 40, 35
        assert oracle.per_k[2].tolist() == [0b110]  # 85 is best pair

    def test_full_size_is_trivially_the_grand_coalition(self, fig2):
        for mode in ("keep", "remove"):
            oracle = compute_oracle_subsets(fig2, mode, [3])
            assert oracle.per_k[3].tolist() == [0b111]

    def test_ties_are_all_retained(self):
        oracle = compute_oracle_subsets(constant_table_game(5), "remove", [2])
        assert len(oracle.per_k[2]) == 10  # every C(5,2) subset ties

    def test_optimality_verified_by_independent_rescan(self):
        game = random_table_game(8, seed=42)
        oracle = compute_oracle_subsets(game, "remove", [1, 2, 3])
        for k in (1, 2, 3):
            best = max(
                game.evaluate_mask(game.grand_mask ^ sum(1 << i for i in combo))
                for combo in itertools.combinations(range(8), k)
            )
            assert oracle.best_value[k] == best
            for tied in oracle.per_k[k].tolist():
                assert game.evaluate_mask(
                    game.grand_mask ^ tied
                ) == pytest.approx(best, abs=1e-12)

    def test_rescan_still_holds_at_twelve_players(self):
        game = random_table_game(12, seed=60)
        oracle = compute_oracle_subsets(game, "keep", [1, 2, 3])
        for k in (1, 2, 3):
            best = max(
                game.evaluate_mask(sum(1 << i for i in combo))
                for combo in itertools.combinations(range(12), k)
            )
            assert oracle.best_value[k] == best

    def test_budget_error(self):
        game = Game(40, lambda masks: np.zeros(masks.size))
        with pytest.raises(BudgetError):
            compute_oracle_subsets(game, "remove", [12])

    def test_bad_mode_rejected(self, fig2):
        with pytest.raises(ValueError):
            compute_oracle_subsets(fig2, "drop", [1])


class TestScoreRanking:
    def test_fig2_worked_example(self, fig2):
        oracle = compute_oracle_subsets(fig2, "remove", [1, 2])
        rank = Ranking(order=np.array([0, 2, 1]), scores=np.array([2.0, 1.0, 0.0]))
        score = score_ranking(rank, oracle)
        assert score.per_k[1] == 1.0
        assert score.per_k[2] == pytest.approx(1.0 / 3.0)
        assert score.weighted_total == pytest.approx(5.0 / 9.0)

    def test_perfect_prefixes_score_one(self, fig2):
        oracle = synthetic_oracle(3, {1: [{2}], 2: [{2, 0}]})
        rank = Ranking(order=np.array([2, 0, 1]), scores=np.array([3.0, 2.0, 1.0]))
        assert score_ranking(rank, oracle).weighted_total == 1.0

    def test_max_over_ties(self):
        oracle = synthetic_oracle(4, {2: [{0, 1}, {2, 3}]})
        rank = Ranking(order=np.array([2, 3, 0, 1]), scores=np.arange(4, 0, -1.0))
        assert score_ranking(rank, oracle).per_k[2] == 1.0

    def test_prefix_agreement_means_equal_scores(self, fig2):
        oracle = compute_oracle_subsets(fig2, "remove", [1, 2])
        a = Ranking(order=np.array([0, 2, 1]), scores=np.array([2.0, 1.0, 0.0]))
        b = Ranking(order=np.array([0, 2, 1]), scores=np.array([9.0, 5.0, 1.0]))
        assert score_ranking(a, oracle).weighted_total == score_ranking(b, oracle).weighted_total

    def test_weighted_total_matches_definition(self):
        oracle = synthetic_oracle(5, {1: [{0}], 2: [{1, 2}], 3: [{0, 1, 2}]})
        rank = Ranking(order=np.array([0, 1, 2, 3, 4]), scores=np.arange(5, 0, -1.0))
        score = score_ranking(rank, oracle)
        expected = sum(k * score.per_k[k] for k in (1, 2, 3)) / 6.0
        assert score.weighted_total == pytest.approx(expected)


class TestOracleRank:
    def test_nested_chain_reaches_one(self):
        oracle = synthetic_oracle(4, {1: [{2}], 2: [{2, 0}], 3: [{2, 0, 3}]})
        rank = build_oracle_rank(oracle)
        assert score_ranking(rank, oracle).weighted_total == 1.0
        assert rank.order.tolist()[:3] == [2, 0, 3]

    def test_fig2_greedy_strategy_matches_hand_construction(self, fig2):
        oracle = compute_oracle_subsets(fig2, "remove", [1, 2])
        rank = greedy_oracle_rank(oracle)
        assert rank.order.tolist() == [0, 1, 2]
        assert score_ranking(rank, oracle).weighted_total == pytest.approx(5.0 / 9.0)

    def test_fig2_optimal_strategy_beats_greedy(self, fig2):
        oracle = compute_oracle_subsets(fig2, "remove", [1, 2])
        rank = build_oracle_rank(oracle)
        total = score_ranking(rank, oracle).weighted_total
        assert total == pytest.approx(2.0 / 3.0)
        assert total == pytest.approx(exhaustive_best_total(oracle))

    def test_two_disjoint_oracle_sets_example(self):
        # oracle wants {5} first but {2,7} second: no ordering satisfies both
        oracle = synthetic_oracle(8, {1: [{5}], 2: [{2, 7}]})
        greedy = greedy_oracle_rank(oracle)
        assert greedy.order[0] == 5
        assert score_ranking(greedy, oracle).weighted_total == pytest.approx(5.0 / 9.0)
        optimal = build_oracle_rank(oracle)
        best = score_ranking(optimal, oracle).weighted_total
        assert best == pytest.approx(2.0 / 3.0)
        assert best == pytest.approx(exhaustive_best_total(oracle))
        assert best < 1.0  # the two sets can never both be matched

    @pytest.mark.parametrize("seed", [1, 2, 3, 4])
    def test_optimal_matches_independent_exhaustive_search(self, seed):
        game = random_table_game(6, seed=seed)
        oracle = compute_oracle_subsets(game, "remove", [1, 2, 3])
        rank = build_oracle_rank(oracle)
        assert score_ranking(rank, oracle).weighted_total == pytest.approx(
            exhaustive_best_total(oracle), abs=1e-12
        )

    def test_reconstruction_prefers_small_indices(self):
        oracle = synthetic_oracle(4, {1: [{0}, {1}]})  # tied singletons
        rank = build_oracle_rank(oracle)
        assert rank.order[0] == 0

    def test_non_contiguous_range_scores_only_its_sizes(self, fig2):
        oracle = compute_oracle_subsets(fig2, "remove", [2])
        rank = build_oracle_rank(oracle)
        assert score_ranking(rank, oracle).weighted_total == 1.0

    def test_exact_values_outscore_single_removal_under_redundancy(self):
        game = build_redundancy_game(seed=0, n_pairs=2)
        oracle = compute_oracle_subsets(game, "keep", range(1, 6))
        exact_score = score_ranking(
            shapley_exact_subsets(game).ranking(), oracle
        ).weighted_total
        loo_score = score_ranking(leave_one_out(game).ranking(), oracle).weighted_total
        assert exact_score >= loo_score

    @pytest.mark.parametrize("seed", [11, 12, 13])
    def test_dominates_every_estimator_ranking(self, seed):
        game = random_table_game(7, seed=seed)
        oracle = compute_oracle_subsets(game, "remove", [1, 2, 3, 4])
        ceiling = score_ranking(build_oracle_rank(oracle), oracle).weighted_total
        estimates = [
            shapley_exact_subsets(game),
            leave_one_out(game),
            shapley_sample_permutations(game, SamplingConfig(200, seed=0)),
            shapley_regression(game, RegressionConfig(n_samples=1, sampler="exhaustive")),
        ]
        for est in estimates:
            removal_rank = est.ranking().reversed()
            assert score_ranking(removal_rank, oracle).weighted_total <= ceiling + 1e-12

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    @pytest.mark.parametrize("mode, k_range", [("remove", range(1, 4)), ("keep", range(1, 5))])
    def test_optimal_beyond_twenty_players(self, seed, mode, k_range):
        # greedy scores below the best order on every one of these games
        oracle = compute_oracle_subsets(random_table_game(22, seed), mode, k_range)
        optimal = score_ranking(build_oracle_rank(oracle), oracle)
        assert optimal.weighted_total > score_ranking(greedy_oracle_rank(oracle), oracle).weighted_total

    def test_the_budget_selects_the_construction(self, monkeypatch):
        # sizes 1..2 of 8 players hold 8 + 28 prefixes; greedy leads with {5}
        oracle = synthetic_oracle(8, {1: [{5}], 2: [{2, 7}]})
        monkeypatch.setattr("shaprank.oracle.ENUMERATION_BUDGET", 36)
        assert score_ranking(build_oracle_rank(oracle), oracle).weighted_total == pytest.approx(2 / 3)
        monkeypatch.setattr("shaprank.oracle.ENUMERATION_BUDGET", 35)
        assert build_oracle_rank(oracle).order[0] == 5

    def test_greedy_beyond_the_enumeration_budget(self):
        # sizes 1..23 of 24 players: 2**24 - 2 prefixes
        oracle = synthetic_oracle(24, {1: [{0}], 23: [set(range(23))]})
        rank = build_oracle_rank(oracle)
        assert rank.order.tolist() == greedy_oracle_rank(oracle).order.tolist()
        assert score_ranking(rank, oracle).weighted_total == 1.0
