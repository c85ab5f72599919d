"""Players, coalitions, characteristic functions, and the shared value cache.

A game is a pair (set of players, characteristic function): the function maps
any subset of players to a real payoff.  Every estimator in this package
consumes payoffs exclusively through :class:`Game`, whose memoizing cache
evaluates each distinct coalition at most once.  Evaluation is sequential;
the cache is still safe to share between threads.

Coalitions are represented as bitmasks (bit ``i`` set means player ``i`` is a
member), which caps the number of players at 64.
"""

from __future__ import annotations

import itertools
import json
import operator
import threading
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, Optional, Sequence

import numpy as np

from .errors import CharacteristicFunctionError, FormatError

MAX_PLAYERS = 64
# games up to this size cache payoffs in a dense table of 2**n entries (9 MiB
# at 20); beyond it a sampled estimator touches a few thousand scattered
# coalitions, and faulting in a page of the table for each costs far more
# memory than a dict of them (150 orderings at N = 24: +144 MiB vs +1 MiB)
DENSE_MAX_PLAYERS = 20


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
    if not 0 <= size <= n_players:
        return np.empty(0, dtype=np.uint64)
    if 2 * size > n_players:
        full = np.uint64(full_mask(n_players))
        return full ^ masks_of_size(n_players, n_players - size)[::-1]
    # by_count[j]: ascending masks over the bits seen so far with j bits
    # set; each new top bit appends the masks that take it
    by_count = [np.zeros(1, dtype=np.uint64)] + [np.empty(0, dtype=np.uint64)] * size
    for bit in range(n_players):
        for j in range(min(size, bit + 1), 0, -1):
            by_count[j] = np.concatenate([by_count[j], by_count[j - 1] | np.uint64(1 << bit)])
    return by_count[size]


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

    ``char_fn`` maps a bitmask (int) to a float payoff; with ``batched=True``
    it instead maps a ``uint64`` array of bitmasks to an array of as many
    payoffs.
    The payoffs of the grand coalition and of the empty coalition are
    computed eagerly so that ``target_quantity`` is always available.

    Up to ``DENSE_MAX_PLAYERS`` players the cache is a dense float64 table
    with a "known" flag per coalition, both allocated zeroed; beyond that it
    is a dict.
    ``preloaded`` maps bitmasks to finite payoffs.

    One lock is held across each lookup, characteristic-function call and
    store, so concurrent requests for the same coalition still evaluate it
    once.  A payoff that raises or is not finite surfaces as
    :class:`CharacteristicFunctionError`, and nothing of the batch it was
    requested in is cached; so does a batched ``char_fn`` that does not
    return one payoff per mask.  The error names the coalition, except when
    a batched call fails: it then names the first coalition of the call.
    ``eval_count`` counts
    distinct characteristic function evaluations; ``cache_hits`` counts
    lookups served from memory (within a batch, a repeated coalition's
    first request is an evaluation and the rest are hits).
    """

    def __init__(
        self,
        n_players: int,
        char_fn: Callable,
        preloaded: Optional[Mapping[int, float]] = None,
        batched: bool = False,
    ):
        if not 1 <= n_players <= MAX_PLAYERS:
            raise ValueError(f"n_players must be in [1, {MAX_PLAYERS}]")
        self.n_players = n_players
        self.char_fn = char_fn
        self.batched = batched
        self.eval_count = 0
        self.cache_hits = 0
        self._lock = threading.Lock()
        self._dict: Optional[dict[int, float]] = None
        if n_players <= DENSE_MAX_PLAYERS:
            self._values = np.zeros(1 << n_players)
            self._known = np.zeros(1 << n_players, dtype=bool)
        else:
            self._dict = {}
        if preloaded:
            values = np.fromiter(preloaded.values(), dtype=np.float64, count=len(preloaded))
            if not np.all(np.isfinite(values)):
                raise ValueError("preloaded payoffs must be finite")
            self._store(self._as_masks(list(preloaded)), values)
        self.evaluate_mask(0)
        self.evaluate_mask(full_mask(n_players))

    @property
    def grand_mask(self) -> int:
        return full_mask(self.n_players)

    def evaluate_mask(self, mask: int) -> float:
        return float(self.evaluate_masks([int(mask)])[0])

    def evaluate_masks(self, masks) -> np.ndarray:
        """Payoffs of ``masks``, in order.

        The payoff function runs once on the distinct coalitions not yet
        cached, in order of first request (one array call when batched).
        """
        masks = self._as_masks(masks)
        with self._lock:
            values, known = self._lookup(masks)
            if known.all():
                self.cache_hits += masks.size
                return values
            missing = masks[~known]
            if missing.size > 1 and not np.all(missing[1:] > missing[:-1]):
                new, first = np.unique(missing, return_index=True)
                missing = new[np.argsort(first)]
            computed = self._compute(missing)
            self._store(missing, computed)
            self.eval_count += missing.size
            self.cache_hits += masks.size - missing.size
            values[~known] = self._lookup(masks[~known])[0]
            return values

    def target_quantity(self) -> float:
        """Payoff of the grand coalition minus the payoff of the empty one."""
        return self.evaluate_mask(self.grand_mask) - self.evaluate_mask(0)

    def cached_table(self) -> tuple[np.ndarray, np.ndarray]:
        """Every cached coalition as ascending ``uint64`` masks and their
        payoffs."""
        with self._lock:
            if self._dict is None:
                masks = np.flatnonzero(self._known).astype(np.uint64)
                return masks, self._values[masks]
            masks = np.array(sorted(self._dict), dtype=np.uint64)
            return masks, np.array([self._dict[m] for m in masks.tolist()], dtype=np.float64)

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
        if self._dict is None:
            return self._values[masks], self._known[masks]
        # cached payoffs are finite, so NaN marks the missing ones
        values = np.array([self._dict.get(m, np.nan) for m in masks.tolist()], dtype=np.float64)
        return values, ~np.isnan(values)

    def _store(self, masks: np.ndarray, values: np.ndarray) -> None:
        if self._dict is None:
            self._values[masks] = values
            self._known[masks] = True
        else:
            self._dict.update(zip(masks.tolist(), values.tolist()))

    def _compute(self, masks: np.ndarray) -> np.ndarray:
        """Payoffs of distinct uncached ``masks``; raises naming the first
        coalition whose payoff is not finite or whose scalar call fails, or
        the first of ``masks`` when a batched call fails or does not return
        one payoff per mask."""
        if self.batched:
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
        else:
            values = np.empty(masks.size)
            for j, mask in enumerate(masks.tolist()):
                try:
                    values[j] = float(self.char_fn(mask))
                except Exception as exc:
                    raise self._failure(
                        f"characteristic function failed for coalition {mask:#x}", mask
                    ) from exc
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
        super().__init__(n_players, values.__getitem__, batched=True)

    def to_json_dict(self) -> dict:
        return {
            "n_players": self.n_players,
            "values": {str(m): float(v) for m, v in enumerate(self.values)},
        }

    @classmethod
    def from_json_dict(cls, doc: dict) -> "TableGame":
        if not isinstance(doc, dict):
            raise FormatError("game spec must be a JSON object")
        try:
            n_players = int(doc["n_players"])
            raw = doc["values"]
        except (KeyError, TypeError, ValueError) as exc:
            raise FormatError("game spec needs integer 'n_players' and 'values'") from exc
        if not 1 <= n_players <= MAX_PLAYERS:
            raise FormatError(f"n_players must be in [1, {MAX_PLAYERS}]")
        if not isinstance(raw, dict):
            raise FormatError("'values' must map bitmask strings to payoffs")
        table = _payoff_table(raw, 1 << n_players)
        if not np.all(np.isfinite(table)):
            raise FormatError("game spec contains non-finite payoffs")
        return cls(table)


def _payoff_table(raw: dict, size: int) -> np.ndarray:
    """The payoff table of ``raw``, which must have exactly the keys ``"0"``
    .. ``str(size - 1)``, written canonically, and only int or float payoffs.

    Validity is decided on whole arrays; only an invalid ``raw`` is walked key
    by key, to name what is wrong.  The missing keys come from walking the
    ``size`` expected keys in sorted order, which stops after five absent
    ones: at most ``len(raw) + 5`` steps, however many players the spec
    declares.
    """
    masks = None
    if len(raw) == size:
        try:
            masks = np.fromiter(map(int, raw), dtype=np.int64, count=size)
        except (TypeError, ValueError, OverflowError):
            pass
    # compared one key at a time: a list of 2**n strings would raise peak memory
    if (masks is None or masks.min() < 0 or masks.max() >= size
            or not all(map(operator.eq, map(str, masks.tolist()), raw))):
        extra = [key for key in raw if not _is_coalition_key(key, size)]
        missing = list(itertools.islice((k for k in _sorted_keys(size) if k not in raw), 5))
        raise FormatError(
            f"game spec must contain exactly the {size} coalition keys; "
            f"missing {missing}, unexpected {sorted(extra)[:5]}"
        )

    def number_type(t):
        return t is not bool and issubclass(t, (int, float))

    if not all(map(number_type, set(map(type, raw.values())))):
        key = next(key for key, value in raw.items() if not number_type(type(value)))
        raise FormatError(f"payoff for coalition {key} is not a number")
    table = np.empty(size, dtype=np.float64)
    table[masks] = np.fromiter(map(float, raw.values()), dtype=np.float64, count=size)
    return table


def _is_coalition_key(key, size: int) -> bool:
    """Whether ``key`` is ``str(m)`` for some ``m`` in ``range(size)``."""
    try:
        mask = int(key)
    except (TypeError, ValueError):
        return False
    return 0 <= mask < size and str(mask) == key


def _sorted_keys(size: int):
    """``str(m)`` for every ``m`` in ``range(size)``, in sorted order, made
    one at a time: a key's successor is its first child (key + "0"), else
    the next sibling of it or of its nearest ancestor that has one."""
    yield "0"
    m = 1
    while m < size:
        yield str(m)
        if m * 10 < size:
            m *= 10
            continue
        while m % 10 == 9 or m + 1 >= size:
            m //= 10
            if m == 0:
                return
        m += 1


def save_game_json(game: TableGame, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(game.to_json_dict(), fh, sort_keys=True, indent=1)
        fh.write("\n")


def load_game_json(path) -> TableGame:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise FormatError(f"{path}: not valid JSON: {exc}") from exc
    return TableGame.from_json_dict(doc)


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
