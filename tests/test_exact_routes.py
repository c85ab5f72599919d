"""The exact routes against the code they replaced.

``reference_permutations`` is a local copy of the earlier permutation route:
a table of every ordering, and per chunk of orderings the prefix masks, the
chain of payoffs along them, its differences and one ``np.bincount`` per
player.  ``reference_marginal_sums`` is the earlier pairing of coalitions
by boolean selections over the ascending masks, which ``marginal_sums``
still uses for proper bands; it sums each player's products with the same
fixed-order ``ordered_sum``.  The new code must give the same floats, not
merely close ones.
"""

import math

import numpy as np
import pytest

from shaprank.exact import (
    _predecessor_masks,
    marginal_sums,
    ordered_sum,
    shapley_exact_permutations,
    subset_weights,
)
from shaprank.games import Game, masks_of_size

from conftest import build_redundancy_game, random_table_game

# orderings summed per chunk; the chunk sums are then added up
CHUNK_ROWS = 1 << 18


def reference_orderings(n):
    """All orderings of range(n) as an (n!, n) int8 array; block ``pos``
    holds the orderings of range(n-1) with player n-1 inserted at ``pos``."""
    if n == 1:
        return np.zeros((1, 1), dtype=np.int8)
    smaller = reference_orderings(n - 1)
    rows = smaller.shape[0]
    out = np.empty((rows * n, n), dtype=np.int8)
    for pos in range(n):
        block = out[pos * rows:(pos + 1) * rows]
        block[:, :pos] = smaller[:, :pos]
        block[:, pos] = n - 1
        block[:, pos + 1:] = smaller[:, pos:]
    return out


def reference_permutations(game):
    n = game.n_players
    table = game.evaluate_masks(np.arange(1 << n, dtype=np.uint64))
    empty_value = table[0]
    perms = reference_orderings(n)
    totals = np.zeros(n)
    for start in range(0, perms.shape[0], CHUNK_ROWS):
        chunk = perms[start:start + CHUNK_ROWS].astype(np.int64)
        prefix_masks = np.bitwise_or.accumulate(np.left_shift(1, chunk), axis=1)
        chain = table[prefix_masks]
        marginals = np.empty_like(chain)
        marginals[:, 0] = chain[:, 0] - empty_value
        marginals[:, 1:] = np.diff(chain, axis=1)
        totals += np.bincount(chunk.ravel(), weights=marginals.ravel(), minlength=n)
    return totals / math.factorial(n)


def reference_marginal_sums(game, sizes, weights):
    sizes = sorted(set(sizes))
    above = [k + 1 for k in sizes]
    pulled = sorted(set(sizes + above))
    masks = np.sort(np.concatenate([masks_of_size(game.n_players, k) for k in pulled]))
    counts = np.bitwise_count(masks)
    values = game.evaluate_masks(masks)
    in_band, in_above = np.isin(counts, sizes), np.isin(counts, above)
    phi = np.empty(game.n_players)
    for i in range(game.n_players):
        has_i = (masks & np.uint64(1 << i)).astype(bool)
        without = in_band & ~has_i
        gains = values[in_above & has_i] - values[without]
        phi[i] = ordered_sum(weights[counts[without]], gains)
    return phi


def batched_game(n, seed):
    """A payoff computed from the whole mask array at once, with no table."""
    rng = np.random.default_rng(seed)
    unit = rng.uniform(-5.0, 5.0, size=n)
    pair = rng.uniform(-1.0, 1.0, size=(n, n))

    def payoff(masks):
        members = ((masks[:, None] >> np.arange(n, dtype=np.uint64)) & np.uint64(1)).astype(float)
        return members @ unit + np.einsum("mi,ij,mj->m", members, pair, members) ** 2 / n

    return Game(n, payoff)


def games():
    for n in range(1, 11):
        yield random_table_game(n, seed=300 + n)
    yield from (batched_game(n, seed=n) for n in (1, 4, 7, 10))
    yield build_redundancy_game(seed=2, n_pairs=2)


@pytest.mark.parametrize("n", range(1, 7))
def test_predecessor_masks_match_each_ordering(n):
    orderings = reference_orderings(n)
    table = _predecessor_masks(n)
    assert table.dtype == np.uint16
    assert table.shape == orderings.shape
    for row, ordering in zip(table, orderings):
        before = 0
        for player in ordering:
            assert row[player] == before
            before |= 1 << int(player)


def test_permutation_route_matches_the_chunked_bincount(fig2):
    for game in [fig2, *games()]:
        assert np.array_equal(shapley_exact_permutations(game).values,
                              reference_permutations(game))


def test_full_band_matches_the_boolean_pairing(fig2):
    rng = np.random.default_rng(4)
    for game in [fig2, *games()]:
        n = game.n_players
        for weights in (subset_weights(n), rng.uniform(-1.0, 1.0, size=n)):
            got = marginal_sums(game, range(n), weights)
            assert np.array_equal(got, reference_marginal_sums(game, range(n), weights))
