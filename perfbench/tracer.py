"""Per-layer tracing of one workload process, from outside the library.

Each traced name is replaced where its caller looks it up: ``shaprank.cli``
imports its functions by name, so the wrappers go into the ``cli`` module's
namespace, and ``regression._solve_symmetric`` into ``regression``'s.  Games
built by the CLI are handed out as a ``TracedGame``, whose public methods open
a span; the game's calls to itself are not traced.

Spans ``(id, name, start, end, parent)`` stay in memory until the pass ends.
The hot paths get counters instead of spans: the characteristic function
runs about 10^6 times per ``tables`` pass, so each call only adds to a call
count and a "busy" time, the time with at least one call running, which
counts calls that overlap under ``--workers`` once.  A layer's self time is its spans' duration
minus the spans opened inside them; ``games`` self time further subtracts
the busy payoff time.
"""

from __future__ import annotations

import functools
import os
import re
import threading
import time
from collections import defaultdict

clock = time.perf_counter
CALLS, BUSY_S, ACTIVE, BUSY_FROM = range(4)

# shaprank.cli name -> span name (the layer is the part before the dot)
CLI_SPANS = {
    "load_game_json": "games.load",
    "load_model": "toynet.load",
    "load_dataset_csv": "toynet.load",
    "split_dataset": "toynet.load",
    "accuracy_char_fn": "toynet.prefix",
    "shapley_exact_subsets": "exact",
    "shapley_exact_permutations": "exact",
    "shapley_partial": "partial",
    "shapley_sample_permutations": "sampling",
    "shapley_regression": "regression",
    "compute_oracle_subsets": "oracle.subsets",
    "build_oracle_rank": "oracle.rank",
    "score_ranking": "oracle.score",
    "_load_cache": "cli.cache_read",
    "_save_cache": "cli.cache_write",
}

# Game method -> number of coalitions one call requests
GAME_REQUESTS = {
    "evaluate": lambda args: 1,
    "evaluate_mask": lambda args: 1,
    "evaluate_masks": lambda args: len(args[0]),
    "target_quantity": lambda args: 2,
    "cached_values": lambda args: 0,
    "is_cached": lambda args: 0,
}


class Tracer:
    """Spans and counters for one pass; ``take`` hands over one invocation."""

    def __init__(self):
        self.spans: list[tuple] = []
        self._stack: list[list] = []  # [id, name, start, child seconds]
        self._next_id = 0
        self._lock = threading.Lock()
        # calls, busy seconds, calls running, busy since
        self._payoff = [0, 0.0, 0, 0.0]
        self._reset()

    def _reset(self) -> None:
        self.total_s: dict[str, float] = defaultdict(float)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self._payoff[CALLS:BUSY_S + 1] = [0, 0.0]
        self.model_game = False

    # -- spans ---------------------------------------------------------------

    def open(self, name: str) -> None:
        self._stack.append([self._next_id, name, clock(), 0.0])
        self._next_id += 1

    def close(self) -> None:
        end = clock()
        span_id, name, start, child = self._stack.pop()
        duration = end - start
        self.total_s[name] += duration
        self.self_s[name] += duration - child
        parent = None
        if self._stack:
            self._stack[-1][3] += duration
            parent = self._stack[-1][0]
        self.spans.append((span_id, name, start, end, parent))

    def traced(self, fn, name: str):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close()
            tracer._count(name, args, result)
            return result

        return wrapper

    def _count(self, name: str, args, result) -> None:
        self.counts[name + ".calls"] += 1
        if name == "toynet.prefix":
            self.model_game = True
        elif name == "sampling":
            self.counts["sampling.orderings"] += _method_number(result, "S")
        elif name == "regression":
            self.counts["regression.rows"] += _method_number(result, "rows")
        elif name in ("cli.cache_read", "cli.cache_write"):
            self.counts["cli.cache_bytes"] += os.path.getsize(args[0])

    # -- games ---------------------------------------------------------------

    def payoff(self, char_fn):
        """``char_fn`` with its calls counted and timed."""
        state = self._payoff
        acquire, release, now = self._lock.acquire, self._lock.release, clock

        def timed(mask):
            acquire()
            if not state[ACTIVE]:
                state[BUSY_FROM] = now()
            state[ACTIVE] += 1
            release()
            try:
                return char_fn(mask)
            finally:
                end = now()
                acquire()
                state[CALLS] += 1
                state[ACTIVE] -= 1
                if not state[ACTIVE]:
                    state[BUSY_S] += end - state[BUSY_FROM]
                release()

        return timed

    def game_factory(self, game_class):
        """Builds ``game_class`` games with a timed payoff, seen through a
        ``TracedGame``."""
        tracer = self

        def make(n_players, char_fn, *args, **kwargs):
            tracer.open("games")
            try:
                game = game_class(n_players, tracer.payoff(char_fn), *args, **kwargs)
            finally:
                tracer.close()
            return TracedGame(tracer, game)

        return make

    # -- wiring --------------------------------------------------------------

    def install(self, cli, regression) -> None:
        """Wrap every traced name the modules still have; a layer whose name
        is gone simply reports nothing."""
        targets = [(cli, name, span) for name, span in CLI_SPANS.items()]
        targets.append((regression, "_solve_symmetric", "regression.solve"))
        for module, name, span in targets:
            if hasattr(module, name):
                setattr(module, name, self.traced(getattr(module, name), span))
        cli.Game = self.game_factory(cli.Game)

    def run(self, main, argv) -> int:
        self.open("cli")
        try:
            return main(argv)
        finally:
            self.close()

    def take(self) -> tuple[dict, list[tuple]]:
        """Raw sums and spans of the invocation that just ran; starts the
        next one."""
        record = {
            "total_s": dict(self.total_s),
            "self_s": dict(self.self_s),
            "counts": dict(self.counts),
            "payoff_calls": self._payoff[CALLS],
            "payoff_busy_s": self._payoff[BUSY_S],
            "model_game": self.model_game,
        }
        spans = self.spans
        self.spans = []
        self._reset()
        return record, spans


class TracedGame:
    """The game the CLI built, as its callers see it.

    Calls from outside the game go through the methods below and open a
    ``games`` span; the game's calls to its own methods (and its worker
    threads) reach the real object directly, so they cost nothing extra.
    """

    def __init__(self, tracer: Tracer, game):
        self._tracer = tracer
        self._game = game

    def __getattr__(self, name):
        return getattr(self._game, name)


def _outer_call(name: str, requests):
    def method(self, *args, **kwargs):
        tracer = self._tracer
        count = requests(args)
        tracer.counts["games.requests"] += count
        caller = tracer._stack[-1][1] if tracer._stack else "cli"
        tracer.counts[caller + ".requests"] += count
        tracer.open("games")
        try:
            return getattr(self._game, name)(*args, **kwargs)
        finally:
            tracer.close()

    method.__name__ = name
    return method


for _name, _requests in GAME_REQUESTS.items():
    setattr(TracedGame, _name, _outer_call(_name, _requests))


def _method_number(estimate, key: str) -> int:
    """A count the estimator puts in its method label, e.g. ``S=300``."""
    match = re.search(rf"\b{key}=(\d+)", estimate.method)
    return int(match.group(1)) if match else 0


def layer_metrics(records: list[dict]) -> dict[str, tuple[float, str]]:
    """Per-layer metrics over the invocations of one pass.

    A layer appears only where it did work.  Times are self times unless the
    name says otherwise (``load_s``, ``prefix_s``, ``payoff_s`` and
    ``solve_s`` are whole spans, which have no traced children).
    """
    total_s: dict[str, float] = defaultdict(float)
    self_s: dict[str, float] = defaultdict(float)
    counts: dict[str, int] = defaultdict(int)
    for rec in records:
        for k, v in rec["total_s"].items():
            total_s[k] += v
        for k, v in rec["self_s"].items():
            self_s[k] += v
        for k, v in rec["counts"].items():
            counts[k] += v
    calls = sum(r["payoff_calls"] for r in records)
    busy = sum(r["payoff_busy_s"] for r in records)
    requests = counts["games.requests"]
    out: dict[str, tuple[float, str]] = {
        "games.requests": (requests, "count"),
        "games.payoff_calls": (calls, "count"),
        "games.hit_ratio": (1.0 - calls / requests if requests else 0.0, "ratio"),
        "games.payoff_s": (busy, "s"),
        "games.self_s": (self_s["games"] - busy, "s"),
        "cli.self_s": (self_s["cli"], "s"),
    }
    model = [r for r in records if r["model_game"] and r["payoff_calls"]]
    if model:
        mean = sum(r["payoff_busy_s"] for r in model) / sum(r["payoff_calls"] for r in model)
        out["toynet.payoff_us"] = (mean * 1e6, "us")

    def span(metric: str, name: str, table=self_s) -> None:
        if counts[name + ".calls"]:
            out[metric] = (table[name], "s")

    span("games.load_s", "games.load", total_s)
    span("toynet.load_s", "toynet.load", total_s)
    span("toynet.prefix_s", "toynet.prefix", total_s)
    span("exact.self_s", "exact")
    if counts["exact.calls"]:
        out["exact.calls"] = (counts["exact.calls"], "count")
    span("partial.self_s", "partial")
    if counts["partial.calls"]:
        out["partial.requests"] = (counts["partial.requests"], "count")
    span("sampling.self_s", "sampling")
    if counts["sampling.calls"]:
        out["sampling.orderings"] = (counts["sampling.orderings"], "count")
    span("regression.self_s", "regression")
    if counts["regression.calls"]:
        out["regression.rows"] = (counts["regression.rows"], "count")
    span("regression.solve_s", "regression.solve", total_s)
    span("oracle.subsets_s", "oracle.subsets")
    span("oracle.rank_s", "oracle.rank")
    span("oracle.score_s", "oracle.score")
    span("cli.cache_read_s", "cli.cache_read")
    span("cli.cache_write_s", "cli.cache_write")
    if counts["cli.cache_read.calls"] or counts["cli.cache_write.calls"]:
        out["cli.cache_bytes"] = (counts["cli.cache_bytes"], "bytes")
    return out
