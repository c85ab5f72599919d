"""Shapley estimation as kernel-weighted least squares over coalition rows.

Each sampled coalition becomes one regression row: a binary membership
vector, the coalition's payoff, and a weight.  Solving the weighted
least-squares problem whose weights follow the closed-form coalition kernel
recovers the Shapley values; with every proper nonempty coalition enumerated
the recovery is exact.

The intercept is pinned to the empty coalition's payoff, and by default the
solution is constrained (by variable elimination) to distribute the target
quantity exactly, which is numerically far better behaved than emulating the
constraints with huge anchor weights.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import SingularSystemError
from .games import Game, ShapleyEstimate, mask_from_members

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
    ``2**N - 2`` proper nonempty coalitions.  ``ridge`` is the fallback
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
        if self.ridge < 0:
            raise ValueError("ridge must be >= 0")


def _sample_masks(n: int, cfg: RegressionConfig) -> tuple[np.ndarray, np.ndarray]:
    """Coalition bitmasks plus their regression weights for ``cfg.sampler``.

    Weights are importance-corrected so every sampler targets the same
    kernel-weighted objective: rows drawn proportionally to kernel mass get
    unit weight, uniformly drawn rows get the kernel itself, and ordering
    prefixes (uniform over sizes) get the kernel scaled by the size count.
    """
    full = (1 << n) - 1
    if cfg.sampler == "exhaustive":
        masks = np.arange(1, full, dtype=np.uint64)
        kernel = np.array([shapley_kernel_weight(n, k) for k in range(n + 1)])
        return masks, kernel[np.bitwise_count(masks)]

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
        while len(masks) < cfg.n_samples:
            perm = rng.permutation(n)
            mask = 0
            for p in perm[:-1]:
                mask |= 1 << int(p)
                k = int(mask).bit_count()
                masks.append(mask)
                weights.append(shapley_kernel_weight(n, k) * math.comb(n, k))
        del masks[cfg.n_samples:]
        del weights[cfg.n_samples:]
    return np.array(masks, dtype=np.uint64), np.array(weights)


def _indicators(masks: np.ndarray, n: int) -> np.ndarray:
    """Membership rows of ``uint64`` masks: column ``j`` is 1.0 where bit
    ``j`` is set, else 0.0."""
    return ((masks[:, None] >> np.arange(n, dtype=np.uint64)) & 1).astype(np.float64)


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

    With ``enforce_efficiency`` the last player's coefficient is eliminated
    through the sum constraint, so the returned values always distribute the
    target quantity exactly.
    """
    n = game.n_players
    if n < 2:
        raise ValueError("regression needs at least 2 players")
    if cfg.sampler != "exhaustive" and cfg.n_samples < n:
        raise ValueError(
            f"n_samples={cfg.n_samples} underdetermines {n} players; need >= {n}"
        )
    before = game.eval_count
    masks, weights = _sample_masks(n, cfg)
    values = game.evaluate_masks(masks)

    columns = _indicators(masks, n)
    base = game.evaluate_mask(0)
    target_total = game.target_quantity()
    y = values if cfg.fit_intercept else values - base

    if cfg.enforce_efficiency:
        # eliminate the last player's coefficient via the sum constraint;
        # the intercept column, when fitted, is untouched by it
        y = y - columns[:, -1] * target_total
        columns = columns[:, :-1] - columns[:, -1:]
    X = np.hstack([np.ones((masks.size, 1)), columns]) if cfg.fit_intercept else columns
    solved, ridge_applied, condition = _solve_symmetric(
        X.T @ (weights[:, None] * X), X.T @ (weights * y), cfg.ridge)
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
