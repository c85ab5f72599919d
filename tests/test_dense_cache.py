"""The array-backed payoff cache of ``Game`` against the dict it replaced.

``DictGame`` is a local copy of the old payoff path: a dict cache, one
locked ``evaluate_mask`` call per requested mask, in request order, each
calling a payoff of one mask.  The sorted-array cache, for every N, with
one payoff call per batch, must give the same values and the same counters
on every batch.
"""

import math
import sys
import threading

import numpy as np
import pytest

from shaprank.errors import CharacteristicFunctionError
from shaprank.exact import shapley_exact_subsets
from shaprank.games import Game, TableGame
from shaprank.partial import SizeBand, shapley_partial

from conftest import build_redundancy_game, random_table_game


class DictGame:
    """The payoff path before the dense cache, kept verbatim in behaviour."""

    def __init__(self, n_players, char_fn, preloaded=None):
        self.n_players = n_players
        self.char_fn = char_fn
        self.eval_count = 0
        self.cache_hits = 0
        self._cache = {}
        self._lock = threading.Lock()
        for mask, value in zip(*(preloaded or ((), ()))):
            self._cache[int(mask)] = float(value)
        self.evaluate_mask(0)
        self.evaluate_mask((1 << n_players) - 1)

    def evaluate_mask(self, mask):
        mask = int(mask)
        with self._lock:
            if mask in self._cache:
                self.cache_hits += 1
                return self._cache[mask]
            value = float(self.char_fn(mask))
            if not math.isfinite(value):
                raise CharacteristicFunctionError(
                    f"characteristic function returned {value} for coalition {mask:#x}",
                    coalition=mask,
                )
            self._cache[mask] = value
            self.eval_count += 1
            return value

    def evaluate_masks(self, masks):
        return np.array([self.evaluate_mask(m) for m in masks], dtype=np.float64)

    def cached_table(self):
        masks = sorted(self._cache)
        return np.array(masks, dtype=np.uint64), np.array([self._cache[m] for m in masks])


def cached_masks(game):
    return set(game.cached_table()[0].tolist())


def assert_same_tables(new: Game, old: DictGame) -> None:
    (new_masks, new_values), (old_masks, old_values) = new.cached_table(), old.cached_table()
    assert new_masks.dtype == old_masks.dtype and np.array_equal(new_masks, old_masks)
    assert np.array_equal(new_values, old_values)


def assert_same_state(new: Game, old: DictGame) -> None:
    assert new.eval_count == old.eval_count
    assert new.cache_hits == old.cache_hits
    assert_same_tables(new, old)


def random_batches(rng, n_players, count):
    """Batches of random masks with repeats inside and across batches."""
    for _ in range(count):
        size = int(rng.integers(1, 3 << n_players))
        yield rng.integers(0, 1 << n_players, size=size).astype(np.uint64)


@pytest.mark.parametrize("n", range(1, 13))
def test_batches_match_the_dict_path(n):
    rng = np.random.default_rng(n)
    table = random_table_game(n, seed=n).values
    keys = rng.choice(1 << n, size=min(3, 1 << n), replace=False).tolist()
    preloaded = (keys, [float(rng.standard_normal()) for _ in keys])
    new = Game(n, table.__getitem__, preloaded=preloaded)
    old = DictGame(n, lambda mask: table[mask], preloaded=preloaded)
    assert_same_state(new, old)
    for masks in random_batches(rng, n, 4):
        assert np.array_equal(new.evaluate_masks(masks), old.evaluate_masks(masks.tolist()))
        assert_same_state(new, old)
    mask = int(rng.integers(0, 1 << n))
    assert new.evaluate_mask(mask) == old.evaluate_mask(mask)
    assert_same_state(new, old)


def test_dict_cache_batches_match_the_dict_path():
    n = 26
    rng = np.random.default_rng(30)
    new = Game(n, lambda masks: (masks % 1009).astype(np.float64) / 7.0)
    old = DictGame(n, lambda mask: float(mask % 1009) / 7.0)
    pool = rng.integers(0, 1 << n, size=40).astype(np.uint64)
    for _ in range(5):
        masks = rng.choice(pool, size=int(rng.integers(1, 60)))
        assert np.array_equal(new.evaluate_masks(masks), old.evaluate_masks(masks.tolist()))
        assert (new.eval_count, new.cache_hits) == (old.eval_count, old.cache_hits)
        assert_same_tables(new, old)


@pytest.mark.parametrize("pairs", [0, 2])
def test_redundancy_game_matches_the_dict_path(pairs):
    game = build_redundancy_game(seed=0, n_pairs=pairs)
    new = Game(game.n_players, game.char_fn)
    old = DictGame(game.n_players, lambda mask: game.char_fn(np.array([mask], dtype=np.uint64))[0])
    assert np.array_equal(shapley_exact_subsets(new).values, shapley_exact_subsets(old).values)
    assert_same_state(new, old)


def test_band_sums_match_the_dict_path():
    table = random_table_game(9, seed=11).values
    new = TableGame(table)
    old = DictGame(9, lambda mask: table[mask])
    band = SizeBand(high_d=3, low_d=2)
    assert np.array_equal(shapley_partial(new, band).values, shapley_partial(old, band).values)
    assert_same_state(new, old)


def test_non_finite_batched_payoff_names_its_coalition():
    table = np.arange(16, dtype=np.float64)
    table[0b0110] = np.inf
    table[0b1001] = np.nan
    game = Game(4, table.__getitem__)
    with pytest.raises(CharacteristicFunctionError) as info:
        game.evaluate_masks(np.array([3, 0b1001, 5, 0b0110], dtype=np.uint64))
    assert info.value.coalition == 0b0110
    assert "inf" in str(info.value)
    for mask in (3, 5, 0b0110, 0b1001):
        assert mask not in cached_masks(game)
    assert game.eval_count == 2 and game.cache_hits == 0


def test_batched_payoff_is_called_once_on_the_distinct_missing_masks():
    calls = []
    table = np.arange(32, dtype=np.float64)

    def payoff(masks):
        calls.append(masks.tolist())
        return table[masks]

    game = Game(5, payoff)
    calls.clear()
    values = game.evaluate_masks([9, 31, 4, 9, 0, 4, 17])
    assert values.tolist() == [9.0, 31.0, 4.0, 9.0, 0.0, 4.0, 17.0]
    assert calls == [[4, 9, 17]]  # ascending, known masks left out
    assert game.eval_count == 2 + 3
    assert game.cache_hits == 4


def test_unsorted_batch_with_repeated_partly_cached_masks(monkeypatch):
    def payoff(mask):
        return mask * 1.5 + 0.25

    n = 7
    new = Game(n, payoff)
    old = DictGame(n, payoff)
    first = [40, 3, 99, 3, 17]
    assert np.array_equal(new.evaluate_masks(first), old.evaluate_masks(first))
    lookups = []
    real_lookup = Game._lookup

    def counting_lookup(self, masks):
        lookups.append(masks.size)
        return real_lookup(self, masks)

    monkeypatch.setattr(Game, "_lookup", counting_lookup)
    # new masks out of order and repeated, among cached ones (3, 17, 40, 99,
    # the empty and the grand coalition)
    masks = [90, 17, 5, 90, 127, 64, 3, 5, 0, 64, 90, 40, 11, 99, 5]
    assert np.array_equal(new.evaluate_masks(masks), old.evaluate_masks(masks))
    assert (new.eval_count, new.cache_hits) == (old.eval_count, old.cache_hits)
    # the new payoffs are placed as computed, not searched for again
    assert lookups == [len(masks)]
    assert_same_tables(new, old)


@pytest.mark.parametrize("n", [20, 21])
def test_values_and_counters_either_side_of_the_old_dense_limit(n):
    game = Game(n, lambda masks: np.ones(masks.size))
    assert game.evaluate_masks([3, 3, 5]).tolist() == [1.0, 1.0, 1.0]
    assert (game.eval_count, game.cache_hits) == (4, 1)


@pytest.mark.parametrize("n", [20, 21, 24])
def test_sparse_batches_with_preloads_match_the_dict_path(n):
    def payoff(mask):
        return (mask * 2654435761 % 1000003) / 17.0

    rng = np.random.default_rng(n)
    pool = rng.integers(0, 1 << n, size=300).astype(np.uint64)
    preloaded = ([*pool[:20].tolist(), (1 << n) - 1],
                 [*(float(rng.standard_normal()) for _ in range(20)), 4.25])
    new = Game(n, payoff, preloaded=preloaded)
    old = DictGame(n, payoff, preloaded=preloaded)
    assert_same_state(new, old)
    for _ in range(6):
        masks = rng.choice(pool, size=int(rng.integers(1, 200)))
        assert np.array_equal(new.evaluate_masks(masks), old.evaluate_masks(masks.tolist()))
        assert_same_state(new, old)


def test_bad_masks_and_preloaded_payoffs_are_refused():
    payoff = np.zeros(8).__getitem__
    game = Game(3, payoff)
    with pytest.raises(ValueError):
        game.evaluate_masks([1, 8])
    with pytest.raises(ValueError):
        Game(3, payoff, preloaded=([-1], [0.0]))
    with pytest.raises(ValueError):
        Game(3, payoff, preloaded=([1], [float("nan")]))


def test_failing_batched_payoff_caches_nothing():
    def payoff(masks):
        if masks.size > 1:
            raise OSError("model file unreadable")
        return np.zeros(masks.size)

    game = Game(4, payoff)
    with pytest.raises(CharacteristicFunctionError) as info:
        game.evaluate_masks([0, 6, 3])
    # a raising batched call names the smallest coalition it was given
    assert info.value.coalition == 3
    assert isinstance(info.value.__cause__, OSError)
    assert not cached_masks(game) & {6, 3}
    assert (game.eval_count, game.cache_hits) == (2, 0)


@pytest.mark.parametrize(
    "payoff",
    [lambda masks: 5.0, lambda masks: np.zeros(masks.size + 1), lambda masks: np.zeros((masks.size, 1))],
    ids=["scalar", "one-too-many", "column"],
)
def test_batched_payoff_must_return_one_value_per_mask(payoff):
    with pytest.raises(CharacteristicFunctionError) as info:
        Game(3, payoff)
    assert info.value.coalition == 0
    assert "returned shape" in str(info.value)

    calls = []

    def short_batch(masks):
        calls.append(masks.size)
        return np.zeros(max(masks.size - (len(calls) > 2), 0))

    game = Game(3, short_batch)
    with pytest.raises(CharacteristicFunctionError) as info:
        game.evaluate_masks([5, 1, 6])
    assert info.value.coalition == 1
    assert not cached_masks(game) & {1, 5, 6}


def test_payoff_sees_each_request_as_an_ascending_uint64_vector():
    seen = []

    def payoff(masks):
        seen.append(masks)
        return np.zeros(masks.size)

    game = Game(6, payoff)
    game.evaluate_mask(40)
    game.evaluate_masks([33, 2, 33, 40, 7])
    game.evaluate_masks(np.array([[9, 1], [9, 63]], dtype=np.int64))
    assert [m.tolist() for m in seen] == [[0], [63], [40], [2, 7, 33], [1, 9]]
    for masks in seen:
        assert (masks.dtype, masks.ndim) == (np.uint64, 1)


@pytest.mark.parametrize(
    "payoff",
    [lambda masks: [float(m) for m in masks.tolist()],
     lambda masks: masks.astype(np.int64),
     lambda masks: masks.astype(np.float32)],
    ids=["list", "int-array", "float32-array"],
)
def test_payoff_may_return_any_sequence_of_numbers(payoff):
    game = Game(4, payoff)
    values = game.evaluate_masks([6, 15, 3])
    assert (values.dtype, values.tolist()) == (np.float64, [6.0, 15.0, 3.0])


def test_payoff_that_returns_non_numbers_names_the_smallest_coalition():
    game = Game(4, lambda masks: np.where(masks == 9, "nine", "0"))
    with pytest.raises(CharacteristicFunctionError) as info:
        game.evaluate_masks([12, 9, 5])
    assert info.value.coalition == 5
    assert isinstance(info.value.__cause__, ValueError)
    assert not cached_masks(game) & {5, 9, 12}


def test_threads_sharing_a_game_evaluate_each_coalition_once():
    calls = []
    table = np.arange(1 << 10, dtype=np.float64)

    def payoff(masks):
        calls.extend(masks.tolist())
        return table[masks]

    game = Game(10, payoff)
    rng = np.random.default_rng(0)
    batches = [rng.integers(0, 1 << 10, size=200).astype(np.uint64) for _ in range(16)]
    results = [None] * len(batches)

    def work(j):
        results[j] = game.evaluate_masks(batches[j])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(j,)) for j in range(len(batches))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert sorted(calls) == sorted(set(calls))
    assert all(np.array_equal(r, table[b]) for r, b in zip(results, batches))
    assert game.eval_count == len(calls)
    assert game.eval_count + game.cache_hits == 2 + 16 * 200
