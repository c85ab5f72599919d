"""Monte-Carlo Shapley estimation over random player orderings.

Each sampled ordering is walked front to back, evaluating the payoff of the
growing prefix; consecutive differences are the players' marginal
contributions for that ordering, so one ordering costs at most N+1 distinct
coalition evaluations.  Averaging over orderings gives an unbiased estimate,
and the per-ordering marginals always telescope to the full target quantity,
so the estimate distributes the target exactly at any sample count.

Orderings are drawn from a counter-based generator keyed on
``(seed, ordering index)``: ordering ``j`` is a pure function of the seed
and ``j``, which keeps results bit-reproducible.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import BudgetError
from .games import ENUMERATION_BUDGET, Game, ShapleyEstimate, prefix_masks


@dataclass(frozen=True)
class EarlyStop:
    """Stop once the running means stay inside an ``epsilon`` corridor.

    After each ordering the per-player running means are recorded; when the
    spread (max minus min) of every player's mean over the last ``window``
    orderings drops below ``epsilon``, sampling halts.
    """

    window: int
    epsilon: float

    def __post_init__(self):
        if self.window < 2:
            raise ValueError("early-stop window must be >= 2")
        if not self.epsilon > 0:
            raise ValueError("early-stop epsilon must be > 0")


@dataclass(frozen=True)
class SamplingConfig:
    n_permutations: int
    seed: int = 0
    early_stop: Optional[EarlyStop] = None
    antithetic: bool = False

    def __post_init__(self):
        if self.n_permutations < 1:
            raise ValueError("n_permutations must be >= 1")


def permutation_at(seed: int, index: int, n_players: int) -> np.ndarray:
    """The ``index``-th ordering of the stream for ``seed``; pure function."""
    key = np.array([seed & 0xFFFFFFFFFFFFFFFF, index], dtype=np.uint64)
    rng = np.random.Generator(np.random.Philox(key=key))
    return rng.permutation(n_players)


def shapley_sample_permutations(game: Game, cfg: SamplingConfig) -> ShapleyEstimate:
    """Average marginal contributions over sampled orderings.

    ``std_err`` is the per-player sample standard deviation of the marginals
    divided by sqrt of the realized ordering count.
    """
    n = game.n_players
    # one marginal per player per ordering, also where N = 1 requests no prefix
    if cfg.n_permutations * n > ENUMERATION_BUDGET:
        raise BudgetError(f"{cfg.n_permutations} orderings of {n} players take "
                          f"{cfg.n_permutations * n} marginals, over the {ENUMERATION_BUDGET} budget")
    empty_value = game.evaluate_mask(0)
    full_value = game.evaluate_mask(game.grand_mask)
    before = game.eval_count

    sums = np.zeros(n)
    sq_sums = np.zeros(n)
    stopper = cfg.early_stop
    history: deque[np.ndarray] = deque(maxlen=stopper.window if stopper else 1)
    realized = 0

    for j in range(cfg.n_permutations):
        # an antithetic pair walks one ordering forward, then backward
        perm = permutation_at(cfg.seed, j // 2 if cfg.antithetic else j, n)
        if cfg.antithetic and j % 2:
            perm = perm[::-1]
        chain = game.evaluate_masks(prefix_masks(perm))
        marginals = np.empty(n)
        marginals[perm] = np.diff(chain, prepend=empty_value, append=full_value)
        sums += marginals
        sq_sums += marginals * marginals
        realized += 1

        if stopper:
            history.append(sums / realized)
            # an antithetic pair is one draw: never stop between its halves
            if len(history) == stopper.window and not (cfg.antithetic and realized % 2):
                stacked = np.stack(history)
                spread = stacked.max(axis=0) - stacked.min(axis=0)
                if spread.max() < stopper.epsilon:
                    break

    values = sums / realized
    if realized > 1:
        variance = np.maximum(sq_sums - realized * values**2, 0.0) / (realized - 1)
        std_err = np.sqrt(variance / realized)
    else:
        std_err = np.zeros(n)
    return ShapleyEstimate(
        values=values,
        method=f"permutation-sampling(S={realized})",
        std_err=std_err,
        evals_used=game.eval_count - before,
        seed=cfg.seed,
    )
