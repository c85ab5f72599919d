"""Brute-force oracle subsets and size-weighted Jaccard scoring of rankings.

For every requested size K the oracle enumerates all C(N, K) coalitions and
keeps the best ones: in ``keep`` mode the coalition itself is the layer that
survives, in ``remove`` mode the coalition is deleted and its complement is
what gets scored.  A ranking is then judged by how well its top-K prefixes
overlap the oracle's size-K sets, with larger K weighted more heavily.

A single fixed ordering generally cannot reproduce every oracle set (the
sets need not be nested), so the benchmark also constructs the reference
ordering that maximizes the weighted overlap; every estimator's ranking is
scored against that ceiling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Literal

import numpy as np

from .errors import BudgetError
from .games import ENUMERATION_BUDGET, Game, Ranking, masks_by_size, masks_of_size

_TIE_TOL = 1e-12
_BLOCK_ELEMENTS = 1 << 16

Mode = Literal["keep", "remove"]


@dataclass
class OracleSubsets:
    """Best coalitions per evaluated size, with all ties retained: ``per_k[k]``
    holds the size-``k`` sets as ``uint64`` masks, ascending in keep mode
    and descending in remove mode."""

    mode: Mode
    n_players: int
    per_k: dict[int, np.ndarray]
    best_value: dict[int, float]

    @property
    def k_range(self) -> tuple[int, ...]:
        return tuple(sorted(self.per_k))


@dataclass
class RankScore:
    """Per-size Jaccard overlaps and their size-weighted combination."""

    per_k: dict[int, float]
    weighted_total: float


def jaccard(a: int, b: int) -> float:
    """Intersection-over-union of two int bitmasks; 1.0 when both are empty."""
    union = a | b
    if union == 0:
        return 1.0
    return (a & b).bit_count() / union.bit_count()


def compute_oracle_subsets(
    game: Game,
    mode: Mode,
    k_range: Iterable[int],
) -> OracleSubsets:
    """Exhaustive argmax over coalitions of each requested size.

    ``keep`` maximizes the payoff of the stored coalition, ``remove``
    maximizes the payoff of its complement.  Ties within 1e-12 of the best
    payoff are all retained.
    """
    if mode not in ("keep", "remove"):
        raise ValueError(f"mode must be 'keep' or 'remove', got {mode!r}")
    n = game.n_players
    per_k: dict[int, np.ndarray] = {}
    best_value: dict[int, float] = {}
    for k in sorted(set(k_range)):
        if not 1 <= k <= n:
            raise ValueError(f"oracle size {k} outside [1, {n}]")
        count = math.comb(n, k)
        if count > ENUMERATION_BUDGET:
            raise BudgetError(
                f"size {k} enumerates {count} coalitions, over the {ENUMERATION_BUDGET} budget"
            )
        scored = masks_of_size(n, k if mode == "keep" else n - k)
        values = game.evaluate_masks(scored)
        best = float(values.max())
        per_k[k] = scored[values >= best - _TIE_TOL]
        if mode == "remove":
            # the complements of ascending kept sets descend
            per_k[k] = (per_k[k] ^ np.uint64(game.grand_mask))[::-1]
        best_value[k] = best
    return OracleSubsets(mode=mode, n_players=n, per_k=per_k, best_value=best_value)


def _best_overlaps(masks: np.ndarray, tied: np.ndarray) -> np.ndarray:
    """Each ``uint64`` mask's best Jaccard overlap with the ``tied`` masks.

    Every overlap is the quotient of two exact popcounts, so it equals
    :func:`jaccard` bit for bit; empty against empty is 1.0, and with no
    tied sets every mask gets 0.
    """
    best = np.zeros(masks.size)
    # blocks of sets keep each intermediate near _BLOCK_ELEMENTS entries
    step = max(1, _BLOCK_ELEMENTS // max(masks.size, 1))
    for start in range(0, tied.size, step):
        block = tied[start:start + step, None]
        inter = np.bitwise_count(masks & block)
        union = np.bitwise_count(masks | block)
        overlap = np.divide(inter, union, out=np.ones(union.shape), where=union > 0)
        np.maximum(best, overlap.max(axis=0), out=best)
    return best


def score_ranking(rank: Ranking, oracle: OracleSubsets) -> RankScore:
    """Score a ranking's top-K prefixes against the oracle sets.

    For each size the prefix is compared against every tied oracle set and
    the best overlap counts; sizes are combined weighted by K.
    """
    if rank.n_players != oracle.n_players:
        raise ValueError("ranking and oracle cover different player counts")
    prefixes = np.bitwise_or.accumulate(np.uint64(1) << rank.order.astype(np.uint64))
    per_k = {k: float(_best_overlaps(prefixes[k - 1:k], oracle.per_k[k])[0])
             for k in oracle.k_range}
    total = sum(k * overlap for k, overlap in per_k.items()) / sum(per_k)
    return RankScore(per_k=per_k, weighted_total=total)


def _optimal_values(oracle: OracleSubsets) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Per size s in 0..kmax, the ascending size-s masks and their values
    ``value(mask) = gain(mask) + max over free i of value(mask | 1<<i)``:
    the largest ``sum K * J_K`` an ordering that starts with ``mask`` can
    reach, ``gain`` being ``|mask| * best overlap`` at scored sizes, else 0.
    Above kmax, the largest scored size, every value is 0, so the sizes are
    filled from kmax down; the empty prefix keeps 0.  In ascending order the
    size-s masks without bit i, each OR-ed with bit i, are the size-(s+1)
    masks with bit i, so the two selections pair up by position."""
    n = oracle.n_players
    top = max(oracle.k_range)
    by_size = masks_by_size(n, range(top + 1))
    masks = [by_size[size] for size in range(top + 1)]
    value = [np.zeros(m.size) for m in masks]
    for k in oracle.k_range:
        value[k] = k * _best_overlaps(masks[k], oracle.per_k[k])
    for size in range(top - 1, 0, -1):
        best = np.full(masks[size].size, -np.inf)
        for i in range(n):
            bit = np.uint64(1 << i)
            without = masks[size] & bit == 0
            best[without] = np.maximum(best[without], value[size + 1][masks[size + 1] & bit != 0])
        value[size] += best
    return masks, value


def _walk(n: int, score: Callable[[np.ndarray, int], np.ndarray]) -> list[int]:
    """Build an order slot by slot: slot ``k`` (from 1) takes the first free
    player whose extended size-``k`` prefix ``score``s within the tie
    tolerance of the best, so ties go to the smallest index."""
    order: list[int] = []
    mask = 0
    for k in range(1, n + 1):
        free = [i for i in range(n) if not (mask >> i) & 1]
        extended = np.array([mask | 1 << i for i in free], dtype=np.uint64)
        scores = score(extended, k)
        pick = int(np.argmax(scores >= scores.max() - _TIE_TOL))
        order.append(free[pick])
        mask = int(extended[pick])
    return order


def build_oracle_rank(oracle: OracleSubsets) -> Ranking:
    """The reference ordering scored against the same oracle sets.

    The exact dynamic-programming search runs when the prefixes it holds,
    every coalition of sizes 1..kmax, fit the enumeration budget, and the
    greedy construction otherwise.  Scores attached to the result are
    ordinal placeholders (position ranks), not payoff estimates.
    """
    if not oracle.per_k:
        raise ValueError("oracle has no evaluated sizes to rank against")
    n = oracle.n_players
    top = max(oracle.k_range)
    if sum(math.comb(n, size) for size in range(1, top + 1)) <= ENUMERATION_BUDGET:
        masks, value = _optimal_values(oracle)
        # every prefix above the largest scored size is worth 0
        order = _walk(n, lambda extended, k: value[k][np.searchsorted(masks[k], extended)]
                      if k <= top else np.zeros(extended.size))
    else:
        # the prefixes fixed before a slot add the same amount to every
        # candidate's weighted overlap, so only the new prefix's gain differs;
        # distinct gains differ by at least 1/(64*63), far above the tolerance
        unscored = np.empty(0, dtype=np.uint64)
        order = _walk(n, lambda extended, k:
                      k * _best_overlaps(extended, oracle.per_k.get(k, unscored)))
    scores = np.arange(n, 0, -1, dtype=np.float64)
    return Ranking(order=np.array(order), scores=scores)


def score_report_dict(mode: str, score: RankScore) -> dict:
    """JSON-ready form of a score: mode, per-size overlaps, weighted total."""
    return {
        "mode": mode,
        "per_k": {str(k): score.per_k[k] for k in sorted(score.per_k)},
        "weighted_total": score.weighted_total,
    }
