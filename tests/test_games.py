import itertools
import json
import threading
import time

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from shaprank.errors import CharacteristicFunctionError, FormatError
from shaprank.formats import (
    game_from_json_dict,
    game_to_json_dict,
    load_game_json,
    save_game_json,
)
from shaprank.games import (
    Game,
    Ranking,
    ShapleyEstimate,
    TableGame,
    as_masks,
    make_fig2_game,
    mask_from_members,
)
from shaprank.toynet import Layer, ModelSpec, accuracy_char_fn, make_blobs_dataset

from conftest import MALFORMED_GAME_SPECS, constant_table_game, members, per_mask


class TestMasks:
    def test_mask_from_members_rejects_players_out_of_range(self):
        with pytest.raises(ValueError, match="player index 3 out of range for 3 players"):
            mask_from_members([0, 3], 3)

    def test_members_round_trip(self):
        mask = mask_from_members([0, 2, 5], n_players=6)
        assert mask == 0b100101
        assert members(mask) == (0, 2, 5)

    @given(st.integers(min_value=1, max_value=64), st.data())
    def test_mask_from_members_inverts_members(self, n, data):
        mask = data.draw(st.integers(min_value=0, max_value=(1 << n) - 1))
        assert mask_from_members(members(mask), n) == mask

    @pytest.mark.parametrize("masks", [
        7.9, [7.9], np.float64(7.9), np.array([7.9]), np.array([1.7]), True, [True],
        np.True_, np.array([True]), [np.True_], [1, 2.0], "7", [None],
    ])
    def test_refuses_what_is_not_an_integer(self, fig2, masks):
        with pytest.raises(ValueError, match="coalition masks must be integers"):
            as_masks(masks, 3)
        with pytest.raises(ValueError, match="coalition masks must be integers"):
            fig2.evaluate_masks(masks)

    @pytest.mark.parametrize("bad", [7.9, True, np.float64(7.0), np.True_])
    def test_evaluate_mask_refuses_a_float_or_a_bool(self, fig2, bad):
        with pytest.raises(ValueError, match="coalition masks must be integers"):
            fig2.evaluate_mask(bad)

    @pytest.mark.parametrize("masks", [
        np.array([-1]), np.array([3, -2], dtype=np.int8), np.int64(-1), [-1], [3, -5],
    ])
    def test_names_a_negative_mask_as_negative(self, fig2, masks):
        low = int(np.min(masks))
        with pytest.raises(ValueError, match=f"^negative coalition mask {low}$"):
            fig2.evaluate_masks(masks)

    @pytest.mark.parametrize("masks, high", [(np.array([8]), 8), ([8, 1], 8), (np.uint64(9), 9),
                                             ([2**64], 2**64), ([1, 2**70], 2**70)])
    def test_names_a_mask_out_of_range(self, fig2, masks, high):
        with pytest.raises(ValueError, match=f"^mask {high} out of range for 3 players$"):
            fig2.evaluate_masks(masks)

    @pytest.mark.parametrize("masks", [
        5, np.uint64(5), np.int8(5), np.array(5), [5, 1], (5, 1), np.array([5, 1], dtype=np.int64),
        np.array([[5], [1]], dtype=np.uint32), [np.int16(5), 1], range(8), [],
    ])
    def test_accepts_python_and_numpy_integers(self, fig2, masks):
        want = [int(m) for m in np.ravel(np.asarray(masks, dtype=np.int64))]
        got = as_masks(masks, 3)
        assert got.dtype == np.uint64 and got.tolist() == want
        assert fig2.evaluate_masks(masks).tolist() == [fig2.values[m] for m in want]

    def test_python_ints_at_and_above_bit_63_stay_exact(self):
        seen = []
        game = Game(64, lambda masks: seen.append(masks.tolist()) or np.zeros(masks.size))
        top = [2**63, 2**63 + 1, 2**64 - 2]
        assert as_masks([1] + top, 64).tolist() == [1] + top
        game.evaluate_masks([1] + top)
        assert seen[-1] == [1] + top
        assert game.cached_table()[0].tolist() == [0, 1] + top + [2**64 - 1]

    def test_preloaded_masks_must_be_integers(self):
        with pytest.raises(ValueError, match="coalition masks must be integers"):
            Game(3, lambda m: m * 1.0, preloaded=(np.array([1.7]), np.array([1.0])))
        with pytest.raises(ValueError, match="negative coalition mask -1"):
            Game(3, lambda m: m * 1.0, preloaded=(np.array([-1]), np.array([1.0])))

    def test_accuracy_payoff_shares_the_check(self):
        data = make_blobs_dataset(seed=0)
        rng = np.random.default_rng(0)
        spec = ModelSpec([Layer("dense", rng.standard_normal((3, 2)), np.zeros(3)),
                          Layer("dense", rng.standard_normal((3, 3)), np.zeros(3),
                                "softmax-logits")])
        payoff = accuracy_char_fn(spec, data)
        assert payoff([7, 1]).tolist() == payoff(np.array([7, 1], dtype=np.uint64)).tolist()
        for bad, message in ((np.array([7.0]), "coalition masks must be integers"),
                             ([True], "coalition masks must be integers"),
                             (np.array([-1]), "negative coalition mask -1"),
                             (np.array([8]), "mask 8 out of range for 3 players")):
            with pytest.raises(ValueError, match=message):
                payoff(bad)


class TestGame:
    def test_empty_and_grand_evaluated_at_construction(self):
        calls = []
        game = Game(3, per_mask(lambda m: calls.append(m) or float(m)))
        assert sorted(calls) == [0, 7]
        assert game.eval_count == 2
        assert game.cached_table()[0].tolist() == [0, 7]

    def test_cache_soundness(self):
        game = Game(3, lambda masks: masks * 2.0)
        first = game.evaluate_mask(5)
        count = game.eval_count
        for _ in range(4):
            assert game.evaluate_mask(5) == first
        assert game.eval_count == count

    def test_char_fn_failure_carries_coalition(self):
        def bad(mask):
            if mask == 0b101:
                raise OSError("model file unreadable")
            return 1.0

        game = Game(3, per_mask(bad))
        with pytest.raises(CharacteristicFunctionError) as info:
            game.evaluate_mask(0b101)
        assert info.value.coalition == 0b101
        assert isinstance(info.value.__cause__, OSError)
        # a call that raises is named by the smallest coalition it was given
        with pytest.raises(CharacteristicFunctionError) as info:
            game.evaluate_masks([0b110, 0b101, 0b011])
        assert info.value.coalition == 0b011
        assert not {0b011, 0b110} & set(game.cached_table()[0].tolist())

    def test_concurrent_requests_evaluate_once(self):
        calls = []
        lock = threading.Lock()

        def slow(mask):
            with lock:
                calls.append(mask)
            time.sleep(0.01)
            return float(mask)

        game = Game(4, per_mask(slow))
        threads = [
            threading.Thread(target=game.evaluate_mask, args=(0b1010,))
            for _ in range(8)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert calls.count(0b1010) == 1
        assert game.evaluate_mask(0b1010) == float(0b1010)

    def test_non_finite_payoff_names_the_coalition(self):
        game = Game(3, per_mask(lambda m: float("nan") if m == 0b011 else 1.0))
        with pytest.raises(CharacteristicFunctionError) as info:
            game.evaluate_mask(0b011)
        assert info.value.coalition == 0b011
        assert 0b011 not in game.cached_table()[0].tolist()

    def test_counters_with_duplicate_masks(self):
        game = Game(3, lambda masks: masks.astype(np.float64))
        values = game.evaluate_masks([1, 2, 1, 7, 2, 1])
        assert values.tolist() == [1.0, 2.0, 1.0, 7.0, 2.0, 1.0]
        assert game.eval_count == 2 + 2  # empty and grand, then masks 1 and 2
        assert game.cache_hits == 4  # the repeats of 1 and 2, and mask 7

    def test_target_quantity_can_be_negative(self):
        game = TableGame([5.0, 1.0])
        assert game.target_quantity() == -4.0

    def test_preloaded_values_do_not_count_as_evaluations(self):
        game = Game(2, lambda masks: masks * 1.0, preloaded=([0, 3, 1], [9.0, 9.0, 9.0]))
        assert game.eval_count == 0
        assert game.evaluate_mask(1) == 9.0

    def test_a_repeated_preloaded_mask_keeps_its_last_payoff(self):
        masks = np.array([3, 1, 0, 1, 3, 1], dtype=np.uint64)
        payoffs = np.array([1.0, 2.0, 3.0, 4.0, -0.0, 6.0])
        game = Game(2, lambda masks: masks * 1.0, preloaded=(masks, payoffs))
        cached_masks, cached_payoffs = game.cached_table()
        assert cached_masks.tolist() == [0, 1, 3]
        assert cached_payoffs.tobytes() == np.array([3.0, 6.0, -0.0]).tobytes()
        assert (game.eval_count, game.cache_hits) == (0, 2)

    def test_preloaded_arrays_of_unequal_length_are_refused(self):
        with pytest.raises(ValueError, match="differ in length"):
            Game(2, lambda masks: masks * 1.0, preloaded=([0, 3, 1], [9.0, 9.0]))


class TestTableGame:
    def test_rejects_non_power_of_two(self):
        with pytest.raises(ValueError):
            TableGame([1.0, 2.0, 3.0])

    def test_json_round_trip_is_lossless(self, tmp_path):
        rng = np.random.default_rng(3)
        game = TableGame(rng.standard_normal(16))
        path = tmp_path / "game.json"
        save_game_json(game, path)
        loaded = load_game_json(path)
        assert loaded.n_players == game.n_players
        assert np.array_equal(loaded.values, game.values)

    def test_missing_key_is_a_parse_error(self, tmp_path):
        doc = game_to_json_dict(make_fig2_game())
        del doc["values"]["3"]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(FormatError, match="missing"):
            load_game_json(path)

    def test_extra_key_is_a_parse_error(self, tmp_path):
        doc = game_to_json_dict(make_fig2_game())
        doc["values"]["8"] = 1.0
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(FormatError, match="unexpected"):
            load_game_json(path)

    def test_non_numeric_payoff_rejected(self, tmp_path):
        doc = game_to_json_dict(make_fig2_game())
        doc["values"]["0"] = "ten"
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(FormatError):
            load_game_json(path)

    @pytest.mark.parametrize("text, message", MALFORMED_GAME_SPECS)
    def test_malformed_spec_names_the_problem(self, tmp_path, text, message):
        path = tmp_path / "bad.json"
        path.write_text(text)
        with pytest.raises(FormatError) as info:
            load_game_json(path)
        assert str(info.value) == f"{path}: {message}"

    def test_duplicated_key_keeps_the_last_payoff(self, tmp_path):
        path = tmp_path / "dup.json"
        path.write_text('{"n_players": 1, "values": {"0": 1.0, "1": 2.0, "1": 3}}')
        assert load_game_json(path).values.tolist() == [1.0, 3.0]

    @pytest.mark.parametrize("n", range(1, 11))
    def test_key_mismatch_report_matches_the_set_difference(self, n):
        # the report walks the expected keys lazily; a local copy of the
        # set difference it replaced gives the reference message
        size = 1 << n
        rng = np.random.default_rng(n)
        for _ in range(20):
            keep = rng.random(size) < rng.choice([0.2, 0.9, 1.0])
            values = {str(m): 1.0 for m in np.flatnonzero(keep)}
            for extra in rng.choice(["01", "+3", " 2", str(size), "-1", "x", "1_0"], 2):
                values[str(extra)] = 2.0
            expected = {str(m) for m in range(size)}
            reference = (
                f"game spec must contain exactly the {size} coalition keys; "
                f"missing {sorted(expected - set(values))[:5]}, "
                f"unexpected {sorted(set(values) - expected)[:5]}"
            )
            with pytest.raises(FormatError) as info:
                game_from_json_dict({"n_players": n, "values": values})
            assert str(info.value) == reference

    def test_expected_keys_are_walked_in_sorted_order(self):
        from shaprank.formats import _sorted_keys

        for size in [*range(1, 300), 1000, 1024, 4096]:
            assert list(_sorted_keys(size)) == sorted(str(m) for m in range(size))

    def test_keys_in_any_order_and_int_payoffs_load(self):
        values = {str(m): m * 3 for m in (5, 0, 7, 2, 1, 3, 6, 4)}
        game = game_from_json_dict({"n_players": 3, "values": values})
        assert game.values.tolist() == [3.0 * m for m in range(8)]


class TestFig2Game:
    def test_payoff_table(self, fig2):
        expected = {
            0b000: 10.0,
            0b001: 55.0,
            0b010: 40.0,
            0b011: 55.0,
            0b100: 35.0,
            0b101: 70.0,
            0b110: 85.0,
            0b111: 90.0,
        }
        for mask, value in expected.items():
            assert fig2.evaluate_mask(mask) == value

    def test_empty_and_grand(self, fig2):
        assert fig2.evaluate_mask(0) == 10.0
        assert fig2.evaluate_mask(fig2.grand_mask) == 90.0
        assert fig2.target_quantity() == 80.0

    def test_player0_marginals_across_all_orderings(self, fig2):
        marginals = []
        for perm in itertools.permutations(range(3)):
            mask, prev = 0, fig2.evaluate_mask(0)
            for p in perm:
                mask |= 1 << p
                cur = fig2.evaluate_mask(mask)
                if p == 0:
                    marginals.append(cur - prev)
                prev = cur
        assert sorted(marginals) == [5.0, 5.0, 15.0, 35.0, 45.0, 45.0]

    def test_first_listed_ordering_marginals(self, fig2):
        # ordering (0,1,2): player 0 joins first
        assert fig2.evaluate_mask(0b001) - fig2.evaluate_mask(0) == 45.0
        # ordering (1,2,0): player 0 joins last
        assert fig2.evaluate_mask(0b111) - fig2.evaluate_mask(0b110) == 5.0

    def test_constant_game_target_is_zero(self):
        assert constant_table_game(4).target_quantity() == 0.0


class TestShapleyEstimate:
    def test_rejects_non_finite_values(self):
        with pytest.raises(ValueError):
            ShapleyEstimate(values=np.array([1.0, np.nan]), method="x")

    def test_rejects_negative_std_err(self):
        with pytest.raises(ValueError):
            ShapleyEstimate(
                values=np.zeros(2), method="x", std_err=np.array([0.1, -0.1])
            )

    def test_ranking_helper(self):
        est = ShapleyEstimate(values=np.array([1.0, 3.0, 2.0]), method="x")
        assert est.ranking().order.tolist() == [1, 2, 0]


class TestRanking:
    def test_tie_break_by_ascending_index(self):
        rank = Ranking.from_values([25.0, 25.0, 30.0])
        assert rank.order.tolist() == [2, 0, 1]
        assert rank.scores.tolist() == [30.0, 25.0, 25.0]

    def test_rejects_non_monotone_scores(self):
        with pytest.raises(ValueError):
            Ranking(order=np.array([0, 1]), scores=np.array([1.0, 2.0]))

    def test_rejects_non_permutation(self):
        with pytest.raises(ValueError):
            Ranking(order=np.array([0, 0]), scores=np.array([2.0, 1.0]))

    @pytest.mark.parametrize("scores", [[30.0, np.nan, 25.0], [np.inf, 25.0, 25.0],
                                        [30.0, 25.0, -np.inf], [np.nan] * 3])
    def test_rejects_non_finite_scores(self, scores):
        with pytest.raises(ValueError, match="scores must be finite"):
            Ranking(order=np.array([2, 0, 1]), scores=np.array(scores))

    def test_reversed_keeps_validity(self):
        rank = Ranking.from_values([0.1, 0.9, 0.5]).reversed()
        assert rank.order.tolist() == [0, 2, 1]
