"""Ground-truth Shapley values by exhaustive enumeration.

Two independent routes are provided: a sum over all subsets with the
closed-form per-size weights, and a brute-force average of marginal
contributions over all N! player orderings.  They must agree to floating
precision and serve as the oracle for every approximation in this package.
"""

from __future__ import annotations

import functools
import math
from typing import Sequence

import numpy as np

from .errors import CapacityError
from .games import Game, ShapleyEstimate, masks_of_size

SUBSET_ENUM_MAX_PLAYERS = 24
PERM_ENUM_MAX_PLAYERS = 10

_PERM_CHUNK_ROWS = 1 << 18


def subset_weights(n_players: int) -> np.ndarray:
    """Weight of a size-k coalition in the subset-sum formulation.

    ``w[k] = 1 / (N * C(N-1, k))``; the weights over all subsets of the other
    players sum to 1.  ``math.comb`` is exact, so each weight suffers a
    single rounding.
    """
    return np.array(
        [1.0 / (n_players * math.comb(n_players - 1, k)) for k in range(n_players)]
    )


def marginal_sums(game: Game, sizes: Sequence[int], weights: np.ndarray) -> np.ndarray:
    """Per player i, ``sum of weights[|S|] * (v(S + i) - v(S))`` over the
    coalitions S without i whose size is in ``sizes``.

    Each coalition of a size in ``sizes`` or one above is requested once, in
    ascending mask order.  In that order the masks of a size in ``sizes``
    without bit i, each OR-ed with bit i, are exactly the masks of a size
    above with bit i set, so the two selections pair up by position.
    """
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
        phi[i] = float(np.dot(weights[counts[without]], gains))
    return phi


def shapley_exact_subsets(game: Game) -> ShapleyEstimate:
    """Exact per-player values via full subset enumeration.

    Evaluates every one of the ``2**N`` coalitions once (through the shared
    cache) and accumulates weighted marginal contributions per player.
    """
    n = game.n_players
    if n > SUBSET_ENUM_MAX_PLAYERS:
        raise CapacityError(
            f"subset enumeration supports at most {SUBSET_ENUM_MAX_PLAYERS} "
            f"players (got {n}); use permutation sampling or kernel regression"
        )
    before = game.eval_count
    phi = marginal_sums(game, range(n), subset_weights(n))
    return ShapleyEstimate(
        values=phi,
        method="exact-subsets",
        evals_used=game.eval_count - before,
    )


@functools.lru_cache(maxsize=4)
def _all_permutations(n: int) -> np.ndarray:
    """All permutations of range(n) as an (n!, n) int8 array."""
    if n == 1:
        return np.zeros((1, 1), dtype=np.int8)
    smaller = _all_permutations(n - 1)
    rows = smaller.shape[0]
    out = np.empty((rows * n, n), dtype=np.int8)
    for pos in range(n):
        block = out[pos * rows:(pos + 1) * rows]
        block[:, :pos] = smaller[:, :pos]
        block[:, pos] = n - 1
        block[:, pos + 1:] = smaller[:, pos:]
    return out


def shapley_exact_permutations(game: Game) -> ShapleyEstimate:
    """Exact per-player values by averaging marginals over all N! orderings.

    Each ordering contributes one marginal per player, read off the chain of
    payoffs along its growing prefix; the average over the full permutation
    group equals the subset-sum route.  Kept as a genuinely separate
    computation so the two can cross-check each other.
    """
    n = game.n_players
    if n > PERM_ENUM_MAX_PLAYERS:
        raise CapacityError(
            f"permutation enumeration supports at most {PERM_ENUM_MAX_PLAYERS} "
            f"players (got {n}); use shapley_exact_subsets or sampling"
        )
    before = game.eval_count
    table = game.evaluate_masks(np.arange(1 << n, dtype=np.uint64))
    empty_value = table[0]
    perms = _all_permutations(n)
    totals = np.zeros(n)
    for start in range(0, perms.shape[0], _PERM_CHUNK_ROWS):
        chunk = perms[start:start + _PERM_CHUNK_ROWS].astype(np.int64)
        prefix_masks = np.bitwise_or.accumulate(np.left_shift(1, chunk), axis=1)
        chain = table[prefix_masks]
        marginals = np.empty_like(chain)
        marginals[:, 0] = chain[:, 0] - empty_value
        marginals[:, 1:] = np.diff(chain, axis=1)
        totals += np.bincount(chunk.ravel(), weights=marginals.ravel(), minlength=n)
    phi = totals / math.factorial(n)
    return ShapleyEstimate(
        values=phi,
        method="exact-permutations",
        evals_used=game.eval_count - before,
    )
