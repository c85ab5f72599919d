"""Ground-truth Shapley values by exhaustive enumeration.

Two independent routes are provided: a sum over all subsets with the
closed-form per-size weights, and a brute-force average of marginal
contributions over all N! player orderings.  They must agree to floating
precision and serve as the oracle for every approximation in this package.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence

import numpy as np

from .errors import CapacityError
from .games import Game, ShapleyEstimate, masks_by_size

SUBSET_ENUM_MAX_PLAYERS = 24
PERM_ENUM_MAX_PLAYERS = 10

_PERM_CHUNK_ROWS = 1 << 18
# terms per np.add.reduce call in ordered_sum
REDUCE_BLOCK = 1 << 16


def ordered_sum(a: np.ndarray, b: Optional[np.ndarray] = None) -> float:
    """``sum(a * b)``, or ``sum(a)`` without ``b``, over 1-D arrays in one
    fixed order: ``np.add.reduce`` of each consecutive block of
    ``REDUCE_BLOCK`` terms, the block sums added in order.

    ``np.dot`` leaves the order to BLAS, whose threads split a long vector
    between them, so its last digits depend on the thread count; numpy's
    own reduction runs on one thread, and the blocks bound the products
    held at once.
    """
    total = 0.0
    for start in range(0, a.size, REDUCE_BLOCK):
        terms = a[start:start + REDUCE_BLOCK]
        if b is not None:
            terms = terms * b[start:start + REDUCE_BLOCK]
        total += float(np.add.reduce(terms))
    return total


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
    above with bit i set, so the two selections pair up by position.  When
    ``sizes`` is every size, the request is every mask and player i's pairs
    are the two halves of ``reshape(-1, 2, 2**i)``: the same pairs in the
    same order, so each ``ordered_sum`` sees the same vectors.
    """
    n = game.n_players
    sizes = sorted(set(sizes))
    if sizes == list(range(n)):
        masks = np.arange(1 << n, dtype=np.uint64)
        values = game.evaluate_masks(masks)
        counts = np.bitwise_count(masks)
        phi = np.empty(n)
        for i in range(n):
            pairs = values.reshape(-1, 2, 1 << i)
            gains = pairs[:, 1] - pairs[:, 0]
            sizes_without = counts.reshape(-1, 2, 1 << i)[:, 0]
            phi[i] = ordered_sum(weights[sizes_without].ravel(), gains.ravel())
        return phi
    above = [k + 1 for k in sizes]
    pulled = sorted(set(sizes + above))
    masks = np.sort(np.concatenate(list(masks_by_size(n, pulled).values())))
    counts = np.bitwise_count(masks)
    values = game.evaluate_masks(masks)
    in_band, in_above = np.isin(counts, sizes), np.isin(counts, above)
    phi = np.empty(n)
    for i in range(n):
        has_i = (masks & np.uint64(1 << i)).astype(bool)
        without = in_band & ~has_i
        gains = values[in_above & has_i] - values[without]
        phi[i] = ordered_sum(weights[counts[without]], gains)
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


def _predecessor_masks(n: int) -> np.ndarray:
    """An (n!, n) uint16 table over every ordering of range(n): entry
    ``[r, p]`` is the mask of the players placed before player p in ordering
    r.  Ordering ``pos * (n-1)! + r`` is ordering r of range(n-1) with player
    n-1 inserted at position ``pos``."""
    if n == 1:
        return np.zeros((1, 1), dtype=np.uint16)
    smaller = _predecessor_masks(n - 1)
    rows = smaller.shape[0]
    # a row's predecessor masks are nested, so sorted they are its prefixes
    prefixes = np.sort(smaller, axis=1)
    out = np.empty((n * rows, n), dtype=np.uint16)
    for pos in range(n - 1):
        block = out[pos * rows:(pos + 1) * rows]
        after = smaller >= prefixes[:, pos, None]
        np.bitwise_or(smaller, np.left_shift(after, n - 1, dtype=np.uint16), out=block[:, :-1])
        block[:, -1] = prefixes[:, pos]
    out[-rows:, :-1] = smaller
    out[-rows:, -1] = (1 << (n - 1)) - 1
    return out


def shapley_exact_permutations(game: Game) -> ShapleyEstimate:
    """Exact per-player values by averaging marginals over all N! orderings.

    Each ordering contributes one marginal per player, ``v(P + p) - v(P)``
    with P the players before p; the average over the full permutation
    group equals the subset-sum route.  Kept as a genuinely separate
    computation so the two can cross-check each other.  Each player's
    marginals are summed in ordering order, one chunk of orderings at a
    time, and the chunk sums are added up.
    """
    n = game.n_players
    if n > PERM_ENUM_MAX_PLAYERS:
        raise CapacityError(
            f"permutation enumeration supports at most {PERM_ENUM_MAX_PLAYERS} "
            f"players (got {n}); use shapley_exact_subsets or sampling"
        )
    before = game.eval_count
    masks = np.arange(1 << n, dtype=np.uint64)
    table = game.evaluate_masks(masks)
    # gains[p << n | S] = v(S + p) - v(S), so a predecessor mask OR-ed with
    # its player's offset indexes its marginal directly
    gains = np.concatenate([table[masks | np.uint64(1 << p)] - table for p in range(n)])
    index = _predecessor_masks(n)
    index |= np.arange(n, dtype=np.uint16) << n
    totals = np.zeros(n)
    for start in range(0, index.shape[0], _PERM_CHUNK_ROWS):
        totals += np.add.reduce(gains[index[start:start + _PERM_CHUNK_ROWS]], axis=0)
    phi = totals / math.factorial(n)
    return ShapleyEstimate(
        values=phi,
        method="exact-permutations",
        evals_used=game.eval_count - before,
    )
