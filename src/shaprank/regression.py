"""Shapley estimation as kernel-weighted least squares over coalition rows.

Each sampled coalition is one regression row: a binary membership vector,
the coalition's payoff, and a weight.  Solving the weighted least-squares
problem whose weights follow the closed-form coalition kernel recovers the
Shapley values; with every proper nonempty coalition enumerated the recovery
is exact.

The rows enter only through one moment matrix ``G = sum w z z^T`` over
``z = [1, x_0..x_{N-1}, v]`` (Covert & Lee, "Improving KernelSHAP", AISTATS
2021).  Sampled rows are folded into it block by block; the exhaustive rows
need no rows at all, since their membership moments are binomial sums and
their payoff moments one pass over the payoff vector.

The intercept is pinned to the empty coalition's payoff, and by default the
solution is constrained (by variable elimination) to distribute the target
quantity exactly, which is numerically far better behaved than emulating the
constraints with huge anchor weights.  Both are linear maps applied to ``G``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import BudgetError, SingularSystemError
from .exact import REDUCE_BLOCK, ordered_sum
from .games import ENUMERATION_BUDGET, Game, ShapleyEstimate, mask_from_members, prefix_masks

LARGE_KERNEL_WEIGHT = 1e10
_COND_LIMIT = 1e12

SAMPLERS = ("exhaustive", "size-stratified", "bernoulli-half", "permutation-prefix")


def shapley_kernel_weight(n: int, k: int) -> float:
    """Least-squares weight of a size-``k`` coalition among ``n`` players.

    ``(n-1) / (C(n,k) * k * (n-k))`` for proper nonempty sizes; the empty and
    grand coalitions get a large constant standing in for the infinite weight
    that would pin them exactly.
    """
    if not 0 <= k <= n:
        raise ValueError(f"coalition size {k} outside [0, {n}]")
    if k == 0 or k == n:
        return LARGE_KERNEL_WEIGHT
    return (n - 1) / (math.comb(n, k) * k * (n - k))


def stratified_size_probabilities(n: int) -> np.ndarray:
    """Probability of each proper nonempty size under kernel-mass sampling.

    The mass of size ``k`` is its kernel weight times the number of size-k
    coalitions, i.e. proportional to ``1 / (k * (n - k))``.
    """
    sizes = np.arange(1, n)
    mass = 1.0 / (sizes * (n - sizes))
    return mass / mass.sum()


@dataclass(frozen=True)
class RegressionConfig:
    """Row budget and sampling strategy for the regression estimator.

    ``n_samples`` is ignored by the exhaustive sampler, which always uses all
    ``2**N - 2`` proper nonempty coalitions (so at most N = 23 players fit
    the enumeration budget); every other sampler draws ``n_samples`` rows,
    held to the same budget.  ``ridge`` is the fallback
    regularizer applied only if the plain normal equations are singular; set
    it to 0 to make singularity a hard error.  By default the intercept is
    pinned to the empty coalition's payoff; ``fit_intercept`` estimates it
    from the rows instead.
    """

    n_samples: int
    sampler: str = "size-stratified"
    seed: int = 0
    ridge: float = 1e-8
    enforce_efficiency: bool = True
    fit_intercept: bool = False

    def __post_init__(self):
        if self.sampler not in SAMPLERS:
            raise ValueError(f"unknown sampler {self.sampler!r}; pick one of {SAMPLERS}")
        if self.n_samples < 1:
            raise ValueError("n_samples must be >= 1")
        if not 0 <= self.ridge < math.inf:
            raise ValueError("ridge must be finite and >= 0")
        if self.sampler != "exhaustive" and self.seed < 0:
            raise ValueError(f"seed must be >= 0 for the {self.sampler} sampler, got {self.seed}")


def _sample_masks(n: int, cfg: RegressionConfig) -> tuple[np.ndarray, np.ndarray]:
    """Coalition bitmasks plus their regression weights for a sampling
    ``cfg.sampler``.

    Weights are importance-corrected so every sampler targets the same
    kernel-weighted objective: rows drawn proportionally to kernel mass get
    unit weight, uniformly drawn rows get the kernel itself, and ordering
    prefixes (uniform over sizes) get the kernel scaled by the size count.
    """
    full = (1 << n) - 1
    rng = np.random.default_rng(cfg.seed)
    masks: list[int] = []
    weights: list[float] = []
    if cfg.sampler == "size-stratified":
        probs = stratified_size_probabilities(n)
        drawn = rng.choice(np.arange(1, n), size=cfg.n_samples, p=probs)
        for k in drawn:
            members = rng.choice(n, size=int(k), replace=False)
            masks.append(mask_from_members(members.tolist(), n))
            weights.append(1.0)
    elif cfg.sampler == "bernoulli-half":
        while len(masks) < cfg.n_samples:
            bits = rng.integers(0, 2, size=n)
            mask = mask_from_members(np.flatnonzero(bits).tolist(), n)
            if mask == 0 or mask == full:
                continue
            masks.append(mask)
            weights.append(shapley_kernel_weight(n, int(bits.sum())))
    else:  # permutation-prefix
        # an ordering's n - 1 prefixes have sizes 1..n-1, in that order
        orderings = -(-cfg.n_samples // (n - 1))
        prefixes = np.concatenate([prefix_masks(rng.permutation(n)) for _ in range(orderings)])
        per_size = [shapley_kernel_weight(n, k) * math.comb(n, k) for k in range(1, n)]
        return prefixes[:cfg.n_samples], np.tile(per_size, orderings)[:cfg.n_samples]
    return np.array(masks, dtype=np.uint64), np.array(weights)


def _indicators(masks: np.ndarray, n: int) -> np.ndarray:
    """Membership rows of ``uint64`` masks: column ``j`` is 1.0 where bit
    ``j`` is set, else 0.0."""
    return ((masks[:, None] >> np.arange(n, dtype=np.uint64)) & 1).astype(np.float64)


def _sampled_moments(masks: np.ndarray, weights: np.ndarray, values: np.ndarray,
                     n: int) -> np.ndarray:
    """``G = sum over rows of w * z z^T`` with ``z = [1, x_0..x_{n-1}, v]``.

    Rows are folded in consecutive blocks of about ``REDUCE_BLOCK`` products,
    each summed by ``np.add.reduce`` and added in order, so no more than one
    block of membership rows exists at a time and the sum's order is fixed.
    """
    width = n + 2
    rows = max(1, REDUCE_BLOCK // (width * width))
    moments = np.zeros((width, width))
    for start in range(0, masks.size, rows):
        block = slice(start, start + rows)
        z = np.empty((masks[block].size, width))
        z[:, 0] = 1.0
        z[:, 1:-1] = _indicators(masks[block], n)
        z[:, -1] = values[block]
        weighted = weights[block, None] * z
        moments += np.add.reduce(weighted[:, :, None] * z[:, None, :], axis=0)
    return moments


def _exhaustive_moments(masks: np.ndarray, values: np.ndarray, n: int) -> np.ndarray:
    """``G`` over every proper nonempty coalition, ``masks`` being
    ``1 .. 2**n - 2`` in order, without forming a row.

    The membership moments depend only on sizes: ``sum w`` counts C(n, k)
    coalitions of size k, ``sum w x_i`` C(n-1, k-1) and ``sum w x_i x_j``
    (i != j) C(n-2, k-2).  The payoff moments take one pass over the
    kernel-weighted payoffs of every mask, zero at the empty and grand
    coalitions: player i's coalitions are the upper halves of
    ``reshape(-1, 2, 2**i)``.
    """
    kernel = [shapley_kernel_weight(n, k) for k in range(n + 1)]

    def moment(fixed: int) -> float:
        # the proper coalitions holding ``fixed`` given players: C(n-fixed, k-fixed) of size k
        return math.fsum(math.comb(n - fixed, k - fixed) * kernel[k]
                         for k in range(max(1, fixed), n))

    moments = np.empty((n + 2, n + 2))
    moments[0, 0] = moment(0)
    moments[1:-1, 1:-1] = moment(2)
    moments[0, 1:-1] = moments[1:-1, 0] = moment(1)
    np.fill_diagonal(moments[1:-1, 1:-1], moments[0, 1])
    weighted = np.zeros(1 << n)
    np.multiply(np.array(kernel)[np.bitwise_count(masks)], values, out=weighted[1:-1])
    moments[0, -1] = moments[-1, 0] = ordered_sum(weighted)
    for i in range(n):
        moments[1 + i, -1] = moments[-1, 1 + i] = ordered_sum(
            weighted.reshape(-1, 2, 1 << i)[:, 1].ravel())
    moments[-1, -1] = ordered_sum(weighted[1:-1], values)
    return moments


def _normal_equations(moments: np.ndarray, n: int, base: float, total: float,
                      cfg: RegressionConfig) -> tuple[np.ndarray, np.ndarray]:
    """The solved system ``A theta = b`` as a linear map of the moments.

    Each design column and the target is a row of ``M`` over
    ``z = [1, x_0..x_{n-1}, v]``, so ``M G M^T`` holds ``A`` and ``b``.  A
    pinned intercept regresses ``v - v(empty)``; efficiency eliminates the
    last player through the sum constraint, turning columns into
    ``x_j - x_last`` and the target into ``... - total * x_last``.
    """
    transform = np.eye(n + 2)
    if not cfg.fit_intercept:
        transform[-1, 0] = -base
    if cfg.enforce_efficiency:
        transform[-1, n] = -total
        transform[1:n, n] = -1.0
    players = range(1, n if cfg.enforce_efficiency else n + 1)
    transform = transform[[0, *players, -1] if cfg.fit_intercept else [*players, -1]]
    # sums of at most n + 2 terms, which BLAS splits by output, not by term
    mapped = transform @ moments @ transform.T
    return mapped[:-1, :-1], mapped[:-1, -1]


def _solve_symmetric(
    A: np.ndarray, b: np.ndarray, ridge: float
) -> tuple[np.ndarray, bool, float]:
    """Solve the (PSD) normal equations, falling back to ridge on failure.

    Returns the solution, whether the ridge fallback fired and the condition
    number of the matrix actually solved.
    """

    def attempt(mat: np.ndarray) -> Optional[tuple[np.ndarray, float]]:
        try:
            np.linalg.cholesky(mat)
        except np.linalg.LinAlgError:
            return None
        condition = float(np.linalg.cond(mat))
        if condition > _COND_LIMIT:
            return None
        return np.linalg.solve(mat, b), condition

    solved = attempt(A)
    if solved is not None:
        return solved[0], False, solved[1]
    if ridge > 0:
        solved = attempt(A + ridge * np.eye(A.shape[0]))
        if solved is not None:
            return solved[0], True, solved[1]
    raise SingularSystemError(
        "normal equations are rank deficient and ridge fallback "
        f"{'is disabled' if ridge == 0 else f'lambda={ridge} did not help'}",
        condition=float(np.linalg.cond(A)),
    )


def shapley_regression(
    game: Game,
    cfg: RegressionConfig,
) -> ShapleyEstimate:
    """Kernel-weighted least squares over sampled coalition rows.

    The exhaustive sampler requests every proper nonempty coalition, in
    ascending order.  With ``enforce_efficiency`` the last player's
    coefficient is eliminated through the sum constraint, so the returned
    values always distribute the target quantity exactly.
    """
    n = game.n_players
    if n < 2:
        raise ValueError("regression needs at least 2 players")
    if cfg.sampler != "exhaustive" and cfg.n_samples < n:
        raise ValueError(
            f"n_samples={cfg.n_samples} underdetermines {n} players; need >= {n}"
        )
    before = game.eval_count
    if cfg.sampler == "exhaustive":
        full = (1 << n) - 1
        if full - 1 > ENUMERATION_BUDGET:
            raise BudgetError(f"the exhaustive sampler enumerates {full - 1} coalitions, "
                              f"over the {ENUMERATION_BUDGET} budget; sample instead")
        masks = np.arange(1, full, dtype=np.uint64)
        moments = _exhaustive_moments(masks, game.evaluate_masks(masks), n)
    else:
        if cfg.n_samples > ENUMERATION_BUDGET:
            raise BudgetError(f"the {cfg.sampler} sampler draws {cfg.n_samples} coalitions, "
                              f"over the {ENUMERATION_BUDGET} budget")
        masks, weights = _sample_masks(n, cfg)
        moments = _sampled_moments(masks, weights, game.evaluate_masks(masks), n)
    base = game.evaluate_mask(0)
    target_total = game.target_quantity()
    solved, ridge_applied, condition = _solve_symmetric(
        *_normal_equations(moments, n, base, target_total, cfg), cfg.ridge)
    phi = solved[1:] if cfg.fit_intercept else solved
    if cfg.enforce_efficiency:
        phi = np.append(phi, target_total - phi.sum())

    stochastic = cfg.sampler != "exhaustive"
    return ShapleyEstimate(
        values=phi,
        method=f"kernel-regression({cfg.sampler}, rows={masks.size})",
        evals_used=game.eval_count - before,
        seed=cfg.seed if stochastic else None,
        ridge_applied=ridge_applied,
        condition=condition,
    )
