"""Shapley approximation restricted to a band of coalition sizes.

Instead of summing marginal contributions over every subset of the other
players, only subsets whose size falls in a caller-chosen band are
enumerated: the ``high_d`` largest sizes (N-d .. N-1), optionally joined by
the ``low_d`` smallest ones (0 .. d'-1).  Single-player-removal scoring is
the ``high_d=1`` special case; widening the band to every size recovers the
exact values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from .errors import BudgetError, InvalidBandError
from .exact import marginal_sums, subset_weights
from .games import ENUMERATION_BUDGET, Game, ShapleyEstimate


@dataclass(frozen=True)
class SizeBand:
    """Selects which coalition sizes contribute to the restricted sum.

    ``high_d`` includes the ``d`` largest sizes of subsets of the other
    players; ``low_d``, when given, additionally includes the ``d'`` smallest.
    The two ends must not overlap.
    """

    high_d: int
    low_d: Optional[int] = None

    def __post_init__(self):
        if self.high_d < 1:
            raise InvalidBandError("high_d must be >= 1")
        if self.low_d is not None and self.low_d < 0:
            raise InvalidBandError("low_d must be >= 0")

    def sizes(self, n_players: int) -> list[int]:
        """Included subset sizes (of subsets of the N-1 other players)."""
        if self.high_d > n_players:
            raise InvalidBandError(
                f"high_d={self.high_d} exceeds the {n_players} available sizes"
            )
        low = self.low_d or 0
        if low > n_players - self.high_d:
            raise InvalidBandError(
                f"band ends overlap: low_d={low} reaches size {low - 1}, "
                f"high_d={self.high_d} starts at size {n_players - self.high_d}"
            )
        return sorted(set(range(low)) | set(range(n_players - self.high_d, n_players)))

    @classmethod
    def full(cls, n_players: int) -> "SizeBand":
        return cls(high_d=n_players)


def shapley_partial(
    game: Game,
    band: SizeBand,
    renormalize: bool = True,
) -> ShapleyEstimate:
    """Weighted marginal contributions over the band's coalition sizes only.

    Per player the included subset weights are renormalized to sum to 1, so
    the estimate is a proper weighted average of marginals and the full band
    reproduces exact enumeration.  ``renormalize=False`` keeps the raw
    restricted sum instead.
    """
    n = game.n_players
    sizes = band.sizes(n)
    # marginal_sums enumerates every coalition of a band size or one above
    cost = sum(math.comb(n, k) for k in set(sizes) | {k + 1 for k in sizes})
    if cost > ENUMERATION_BUDGET:
        raise BudgetError(
            f"band enumerates {cost} coalitions, over the "
            f"{ENUMERATION_BUDGET} budget; narrow the band or sample instead"
        )
    weights = subset_weights(n)
    # each size k carries total weight C(N-1,k) * w(k) = 1/N across its subsets
    included_mass = sum(math.comb(n - 1, k) * weights[k] for k in sizes)
    scale = 1.0 / included_mass if renormalize else 1.0
    before = game.eval_count
    phi = marginal_sums(game, sizes, weights) * scale

    label = f"partial(high_d={band.high_d}, low_d={band.low_d})"
    if not renormalize:
        label += ", raw"
    return ShapleyEstimate(
        values=phi,
        method=label,
        evals_used=game.eval_count - before,
    )


def leave_one_out(game: Game) -> ShapleyEstimate:
    """Single-player-removal scores: payoff drop when player i leaves the
    grand coalition.  Touches exactly N+1 distinct coalitions."""
    est = shapley_partial(game, SizeBand(high_d=1))
    est.method = "leave-one-out"
    return est
