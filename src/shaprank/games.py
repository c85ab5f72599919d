"""Players, coalitions, characteristic functions, and the shared value cache.

A game is a pair (set of players, characteristic function): the function maps
any subset of players to a real payoff.  Every estimator in this package
consumes payoffs exclusively through :class:`Game`, whose memoizing cache
evaluates each distinct coalition at most once and holds only those, for any
number of players.  Evaluation is sequential; the cache is still thread-safe.

Coalitions are represented as bitmasks (bit ``i`` set means player ``i`` is a
member), which caps the number of players at 64.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Callable, Iterable, Optional, Sequence

import numpy as np

from .errors import CharacteristicFunctionError

MAX_PLAYERS = 64
# the most items one enumeration or draw may hold: the coalitions of a band, an
# oracle size, the rank's prefixes or the exhaustive kernel, sampled kernel rows,
# permutation marginals, toy-model training cells (exact.py caps N instead)
ENUMERATION_BUDGET = 10**7


def full_mask(n_players: int) -> int:
    return (1 << n_players) - 1


def mask_from_members(members: Iterable[int], n_players: int) -> int:
    mask = 0
    for i in members:
        if not 0 <= i < n_players:
            raise ValueError(f"player index {i} out of range for {n_players} players")
        mask |= 1 << i
    return mask


def masks_of_size(n_players: int, size: int) -> np.ndarray:
    """All bitmasks over ``n_players`` with exactly ``size`` bits set, as an
    ascending uint64 array (empty when ``size`` is out of range)."""
    return masks_by_size(n_players, [size])[size]


def masks_by_size(n_players: int, sizes: Iterable[int]) -> dict[int, np.ndarray]:
    """``masks_of_size(n_players, size)`` for each of ``sizes``, keyed by size.

    One sweep over the bits builds every size up to the largest
    ``min(size, n_players - size)`` asked for; a size above half is the
    complement of the size below it, in reverse.
    """
    sizes = set(sizes)
    top = max((min(s, n_players - s) for s in sizes if 0 <= s <= n_players), default=0)
    # by_count[j]: ascending masks over the bits seen so far with j bits
    # set; each new top bit appends the masks that take it
    by_count = [np.zeros(1, dtype=np.uint64)] + [np.empty(0, dtype=np.uint64)] * top
    for bit in range(n_players):
        for j in range(min(top, bit + 1), 0, -1):
            by_count[j] = np.concatenate([by_count[j], by_count[j - 1] | np.uint64(1 << bit)])
    full = np.uint64(full_mask(n_players))
    out = {}
    for size in sizes:
        if not 0 <= size <= n_players:
            out[size] = np.empty(0, dtype=np.uint64)
        elif 2 * size > n_players:
            out[size] = full ^ by_count[n_players - size][::-1]
        else:
            out[size] = by_count[size]
    return out


def prefix_masks(perm: np.ndarray) -> np.ndarray:
    """Bitmasks of the ordering's proper nonempty prefixes, shortest first."""
    bits = np.left_shift(np.uint64(1), perm[:-1].astype(np.uint64))
    return np.bitwise_or.accumulate(bits)


@dataclass(frozen=True)
class Coalition:
    """A subset of the players of an ``n_players``-player game.

    ``bits`` is the membership bitmask; only the low ``n_players`` bits may
    be set.
    """

    bits: int
    n_players: int

    def __post_init__(self):
        if not 0 <= self.n_players <= MAX_PLAYERS:
            raise ValueError(f"n_players must be in [0, {MAX_PLAYERS}]")
        if self.bits < 0 or self.bits >> self.n_players:
            raise ValueError(
                f"bitmask {self.bits:#x} has bits above player {self.n_players - 1}"
            )

    @classmethod
    def from_members(cls, members: Iterable[int], n_players: int) -> "Coalition":
        return cls(mask_from_members(members, n_players), n_players)

    @classmethod
    def grand(cls, n_players: int) -> "Coalition":
        return cls(full_mask(n_players), n_players)

    @property
    def size(self) -> int:
        return self.bits.bit_count()

    def members(self) -> tuple[int, ...]:
        return tuple(i for i in range(self.n_players) if (self.bits >> i) & 1)

    def contains(self, player: int) -> bool:
        return bool((self.bits >> player) & 1)

    def complement(self) -> "Coalition":
        return Coalition(self.bits ^ full_mask(self.n_players), self.n_players)


class Game:
    """An ``n_players`` coalition game with a memoized characteristic function.

    ``char_fn`` maps a ``uint64`` array of bitmasks to an array of as many
    payoffs.  The payoffs of the grand coalition and of the empty coalition are
    computed eagerly so that ``target_quantity`` is always available.

    The cache is two arrays kept in step: the cached masks in ascending
    order (``uint64``) and their payoffs (float64), 16 bytes per cached
    coalition whatever the number of players.  A lookup is a binary search.
    ``preloaded`` is a pair of arrays, bitmasks and their finite payoffs; a
    repeated mask keeps its last payoff.

    One lock is held across each lookup, characteristic-function call and
    store, so concurrent requests for the same coalition still evaluate it
    once.  ``char_fn`` sees the distinct uncached masks in ascending order.
    A call that raises or does not return one payoff per mask, or a payoff
    that is not finite, surfaces as :class:`CharacteristicFunctionError`,
    and nothing of the batch it was requested in is cached.  The error names
    the smallest coalition of a failed call, or the smallest coalition whose
    payoff is not finite.
    ``eval_count`` counts distinct characteristic function evaluations;
    ``cache_hits`` counts lookups served from memory (within a batch, a
    repeated coalition's first request is an evaluation and the rest are
    hits).
    """

    def __init__(
        self,
        n_players: int,
        char_fn: Callable,
        preloaded: Optional[tuple[np.ndarray, np.ndarray]] = None,
    ):
        if not 1 <= n_players <= MAX_PLAYERS:
            raise ValueError(f"n_players must be in [1, {MAX_PLAYERS}]")
        self.n_players = n_players
        self.char_fn = char_fn
        self.eval_count = 0
        self.cache_hits = 0
        self._lock = threading.Lock()
        self._masks = np.empty(0, dtype=np.uint64)
        self._payoffs = np.empty(0, dtype=np.float64)
        if preloaded is not None:
            masks = self._as_masks(preloaded[0])
            values = np.asarray(preloaded[1], dtype=np.float64)
            if values.shape != masks.shape:
                raise ValueError("preloaded masks and payoffs differ in length")
            if not np.all(np.isfinite(values)):
                raise ValueError("preloaded payoffs must be finite")
            # the first of each mask in reverse is its last payoff
            self._masks, last = np.unique(masks[::-1], return_index=True)
            self._payoffs = values[::-1][last]
        self.evaluate_mask(0)
        self.evaluate_mask(full_mask(n_players))

    @property
    def grand_mask(self) -> int:
        return full_mask(self.n_players)

    def evaluate_mask(self, mask: int) -> float:
        return float(self.evaluate_masks([int(mask)])[0])

    def evaluate_masks(self, masks) -> np.ndarray:
        """Payoffs of ``masks``, in order.

        The payoff function runs once, on the distinct coalitions not yet
        cached, in ascending order.
        """
        masks = self._as_masks(masks)
        with self._lock:
            values, known = self._lookup(masks)
            if known.all():
                self.cache_hits += masks.size
                return values
            missing, inverse = masks[~known], None
            if missing.size > 1 and not np.all(missing[1:] > missing[:-1]):
                missing, inverse = np.unique(missing, return_inverse=True)
            computed = self._compute(missing)
            self._store(missing, computed)
            self.eval_count += missing.size
            self.cache_hits += masks.size - missing.size
            values[~known] = computed if inverse is None else computed[inverse]
            return values

    def target_quantity(self) -> float:
        """Payoff of the grand coalition minus the payoff of the empty one."""
        return self.evaluate_mask(self.grand_mask) - self.evaluate_mask(0)

    def cached_table(self) -> tuple[np.ndarray, np.ndarray]:
        """Every cached coalition as ascending ``uint64`` masks and their
        payoffs: the cache's own arrays, which callers must not modify."""
        with self._lock:
            return self._masks, self._payoffs

    # -- cache internals; _lookup and _store run under the lock -------------

    def _as_masks(self, masks) -> np.ndarray:
        try:
            masks = np.asarray(masks, dtype=np.uint64).ravel()
        except OverflowError as exc:
            raise ValueError("negative coalition mask") from exc
        if masks.size and int(masks.max()) >> self.n_players:
            raise ValueError(
                f"mask {int(masks.max())} out of range for {self.n_players} players"
            )
        return masks

    def _lookup(self, masks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        if not self._masks.size:
            return np.zeros(masks.size), np.zeros(masks.size, dtype=bool)
        # a mask above every cached one searches to the end: clip to the last
        at = np.minimum(np.searchsorted(self._masks, masks), self._masks.size - 1)
        return self._payoffs[at], self._masks[at] == masks

    def _store(self, masks: np.ndarray, values: np.ndarray) -> None:
        """Insert ascending, distinct, not yet cached ``masks`` with their
        payoffs."""
        at = np.searchsorted(self._masks, masks)
        self._masks = np.insert(self._masks, at, masks)
        self._payoffs = np.insert(self._payoffs, at, values)

    def _compute(self, masks: np.ndarray) -> np.ndarray:
        """Payoffs of ascending, distinct, uncached ``masks``; raises naming
        the first of ``masks`` when the call fails or does not return one
        payoff per mask, else the first coalition whose payoff is not
        finite."""
        batch = f"a batch of {masks.size} coalitions starting at {int(masks[0]):#x}"
        try:
            values = np.asarray(self.char_fn(masks), dtype=np.float64)
        except Exception as exc:
            raise self._failure(
                f"characteristic function failed for {batch}", masks[0]) from exc
        if values.shape != masks.shape:
            raise self._failure(
                f"characteristic function returned shape {values.shape} for {batch}",
                masks[0])
        bad = np.flatnonzero(~np.isfinite(values))
        if bad.size:
            mask = int(masks[bad[0]])
            raise self._failure(
                f"characteristic function returned {float(values[bad[0]])} "
                f"for coalition {mask:#x}",
                mask,
            )
        return values

    def _failure(self, message: str, mask) -> CharacteristicFunctionError:
        return CharacteristicFunctionError(message, coalition=Coalition(int(mask), self.n_players))


class TableGame(Game):
    """A game whose characteristic function is a dense payoff table.

    ``values[mask]`` is the payoff of the coalition with that bitmask, so the
    table has exactly ``2**n_players`` entries.
    """

    def __init__(self, values: Sequence[float]):
        values = np.asarray(values, dtype=np.float64)
        n_players = int(values.size).bit_length() - 1
        if values.ndim != 1 or values.size != (1 << n_players) or n_players < 1:
            raise ValueError(
                f"table length {values.size} is not 2**n for n >= 1 players"
            )
        self.values = values
        super().__init__(n_players, values.__getitem__)


def make_fig2_game() -> TableGame:
    """Bundled 3-player demo game with hand-checkable attribution values.

    Payoffs are percentages; the exact per-player values are (25, 25, 30), so
    player 2 (0-based) contributes most, while single-player-removal scores
    invert the picture.  Used throughout the tests and available from the CLI
    as ``make-fig2``.
    """
    table = np.empty(8, dtype=np.float64)
    table[0b000] = 10.0
    table[0b001] = 55.0
    table[0b010] = 40.0
    table[0b011] = 55.0
    table[0b100] = 35.0
    table[0b101] = 70.0
    table[0b110] = 85.0
    table[0b111] = 90.0
    return TableGame(table)


@dataclass
class ShapleyEstimate:
    """Per-player attribution values plus bookkeeping about how they were made.

    ``values[i]`` is the estimated contribution of player ``i``.  ``std_err``
    is populated by sampling estimators only.  ``evals_used`` counts the new
    distinct characteristic-function evaluations the estimator triggered.
    Kernel regression also sets ``ridge_applied`` (whether the ridge
    fallback fired) and ``condition`` (of the matrix it solved).
    """

    values: np.ndarray
    method: str
    std_err: Optional[np.ndarray] = None
    evals_used: int = 0
    seed: Optional[int] = None
    ridge_applied: Optional[bool] = None
    condition: Optional[float] = None

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.ndim != 1:
            raise ValueError("values must be a vector")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("estimate contains non-finite values")
        if self.std_err is not None:
            self.std_err = np.asarray(self.std_err, dtype=np.float64)
            if self.std_err.shape != self.values.shape:
                raise ValueError("std_err must align with values")
            if np.any(self.std_err < 0):
                raise ValueError("std_err must be non-negative")

    @property
    def n_players(self) -> int:
        return int(self.values.size)

    def ranking(self) -> "Ranking":
        return Ranking.from_values(self.values)


@dataclass
class Ranking:
    """A total order of players, most important first.

    ``scores[j]`` belongs to player ``order[j]`` and is non-increasing in
    ``j``.  Ties in the underlying values are broken by ascending player
    index so rankings are reproducible across platforms.
    """

    order: np.ndarray
    scores: np.ndarray

    def __post_init__(self):
        self.order = np.asarray(self.order, dtype=np.int64)
        self.scores = np.asarray(self.scores, dtype=np.float64)
        n = self.order.size
        if sorted(self.order.tolist()) != list(range(n)):
            raise ValueError("order must be a permutation of 0..N-1")
        if self.scores.shape != self.order.shape:
            raise ValueError("scores must align with order")
        if np.any(np.diff(self.scores) > 0):
            raise ValueError("scores must be non-increasing along the order")

    @classmethod
    def from_values(cls, values: Sequence[float]) -> "Ranking":
        values = np.asarray(values, dtype=np.float64)
        order = np.lexsort((np.arange(values.size), -values))
        return cls(order=order, scores=values[order])

    @property
    def n_players(self) -> int:
        return int(self.order.size)

    def top(self, k: int) -> Coalition:
        """The coalition formed by the first ``k`` positions."""
        return Coalition.from_members(self.order[:k].tolist(), self.n_players)

    def reversed(self) -> "Ranking":
        """Same order read back to front, with scores negated to stay sorted."""
        return Ranking(order=self.order[::-1].copy(), scores=-self.scores[::-1])
