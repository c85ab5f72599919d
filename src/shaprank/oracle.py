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
from typing import Iterable, Literal, Sequence

import numpy as np

from .errors import BudgetError
from .games import Coalition, Game, Ranking, masks_of_size

SIZE_BUDGET = 10**7
_TIE_TOL = 1e-12

# The reference-ordering search is exact up to this many players, beyond it
# the greedy construction takes over.
OPTIMAL_RANK_MAX_PLAYERS = 20

Mode = Literal["keep", "remove"]


@dataclass
class OracleSubsets:
    """Best coalitions per evaluated size, with all ties retained."""

    mode: Mode
    n_players: int
    per_k: dict[int, tuple[Coalition, ...]]
    best_value: dict[int, float]

    @property
    def k_range(self) -> tuple[int, ...]:
        return tuple(sorted(self.per_k))


@dataclass
class RankScore:
    """Per-size Jaccard overlaps and their size-weighted combination."""

    per_k: dict[int, float]
    weighted_total: float


def jaccard(a: Coalition, b: Coalition) -> float:
    """Intersection-over-union of two coalitions; 1.0 when both are empty."""
    if a.n_players != b.n_players:
        raise ValueError("coalitions belong to games of different sizes")
    union = a.bits | b.bits
    if union == 0:
        return 1.0
    return (a.bits & b.bits).bit_count() / union.bit_count()


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
    per_k: dict[int, tuple[Coalition, ...]] = {}
    best_value: dict[int, float] = {}
    for k in sorted(set(k_range)):
        if not 1 <= k <= n:
            raise ValueError(f"oracle size {k} outside [1, {n}]")
        count = math.comb(n, k)
        if count > SIZE_BUDGET:
            raise BudgetError(
                f"size {k} enumerates {count} coalitions, over the {SIZE_BUDGET} budget"
            )
        masks = masks_of_size(n, k)
        scored = masks if mode == "keep" else masks ^ np.uint64(game.grand_mask)
        values = game.evaluate_masks(scored)
        best = float(values.max())
        tied = masks[values >= best - _TIE_TOL]
        per_k[k] = tuple(Coalition(int(m), n) for m in tied)
        best_value[k] = best
    return OracleSubsets(mode=mode, n_players=n, per_k=per_k, best_value=best_value)


def _best_overlap(prefix: Coalition, tied: Sequence[Coalition]) -> float:
    return max(jaccard(oracle_set, prefix) for oracle_set in tied)


def score_ranking(rank: Ranking, oracle: OracleSubsets) -> RankScore:
    """Score a ranking's top-K prefixes against the oracle sets.

    For each size the prefix is compared against every tied oracle set and
    the best overlap counts; sizes are combined weighted by K.
    """
    if rank.n_players != oracle.n_players:
        raise ValueError("ranking and oracle cover different player counts")
    per_k: dict[int, float] = {}
    num = 0.0
    den = 0.0
    for k in oracle.k_range:
        overlap = _best_overlap(rank.top(k), oracle.per_k[k])
        per_k[k] = overlap
        num += k * overlap
        den += k
    return RankScore(per_k=per_k, weighted_total=num / den)


def _prefix_gains(oracle: OracleSubsets) -> np.ndarray:
    """``gain[mask] = |mask| * best overlap`` for masks of scored sizes, else 0."""
    n = oracle.n_players
    gains = np.zeros(1 << n)
    for k in oracle.k_range:
        masks_k = masks_of_size(n, k)
        best = np.zeros(masks_k.size)
        for oracle_set in oracle.per_k[k]:
            inter = sum(((masks_k >> j) & 1).astype(np.float64) for j in oracle_set.members())
            union = k + oracle_set.size - inter
            np.maximum(best, inter / union, out=best)
        gains[masks_k] = k * best
    return gains


def _optimal_order(oracle: OracleSubsets) -> list[int]:
    """Ordering maximizing the weighted overlap, by dynamic programming.

    ``remaining[mask]`` is the best achievable future gain once the prefix
    set equals ``mask``; the forward reconstruction picks the smallest player
    index that preserves optimality, for reproducibility.
    """
    n = oracle.n_players
    gains = _prefix_gains(oracle)
    remaining = np.zeros(1 << n)
    for size in range(n - 1, -1, -1):
        masks_s = masks_of_size(n, size)
        best = np.full(masks_s.size, -np.inf)
        for i in range(n):
            open_slot = (masks_s >> i) & 1 == 0
            cand = masks_s[open_slot] | (1 << i)
            contrib = np.full(masks_s.size, -np.inf)
            contrib[open_slot] = gains[cand] + remaining[cand]
            np.maximum(best, contrib, out=best)
        remaining[masks_s] = best

    order: list[int] = []
    mask = 0
    for _ in range(n):
        need = remaining[mask]
        for i in range(n):
            if (mask >> i) & 1:
                continue
            cand = mask | (1 << i)
            if gains[cand] + remaining[cand] >= need - 1e-12:
                order.append(i)
                mask = cand
                break
    return order


def _greedy_order(oracle: OracleSubsets) -> list[int]:
    """Position-by-position construction: each slot takes the player that
    maximizes the weighted overlap of the prefixes fixed so far, ties going
    to the smallest index.  Cheap, but can lock in an early prefix that no
    later choice can repair."""
    n = oracle.n_players
    order: list[int] = []
    chosen = 0
    for position in range(1, n + 1):
        best_score, best_player = -1.0, -1
        for i in range(n):
            if (chosen >> i) & 1:
                continue
            extended = order + [i]
            num = 0.0
            den = 0.0
            for k in oracle.k_range:
                den += k
                if k <= position:
                    prefix = Coalition.from_members(extended[:k], n)
                    num += k * _best_overlap(prefix, oracle.per_k[k])
            score = num / den
            if score > best_score + 1e-15:
                best_score, best_player = score, i
        order.append(best_player)
        chosen |= 1 << best_player
    return order


def build_oracle_rank(
    oracle: OracleSubsets,
    strategy: str = "auto",
) -> Ranking:
    """The reference ordering scored against the same oracle sets.

    ``auto`` uses the exact dynamic-programming search when the player count
    allows and falls back to the greedy construction beyond that; both are
    selectable explicitly.  Scores attached to the result are ordinal
    placeholders (position ranks), not payoff estimates.
    """
    if not oracle.per_k:
        raise ValueError("oracle has no evaluated sizes to rank against")
    n = oracle.n_players
    if strategy == "auto":
        strategy = "optimal" if n <= OPTIMAL_RANK_MAX_PLAYERS else "greedy"
    if strategy == "optimal":
        if n > OPTIMAL_RANK_MAX_PLAYERS:
            raise BudgetError(
                f"exact rank search supports at most {OPTIMAL_RANK_MAX_PLAYERS} players"
            )
        order = _optimal_order(oracle)
    elif strategy == "greedy":
        order = _greedy_order(oracle)
    else:
        raise ValueError(f"unknown strategy {strategy!r}")
    scores = np.arange(n, 0, -1, dtype=np.float64)
    return Ranking(order=np.array(order), scores=scores)


def score_report_dict(mode: str, score: RankScore) -> dict:
    """JSON-ready form of a score: mode, per-size overlaps, weighted total."""
    return {
        "mode": mode,
        "per_k": {str(k): score.per_k[k] for k in sorted(score.per_k)},
        "weighted_total": score.weighted_total,
    }
