"""The ``--cache`` file writer of ``shaprank.formats``: the bytes it writes,
against a one-string writer kept here, and the memory the writer and the
reader take on a cache of 2^16 rows."""

import json
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from shaprank import formats
from shaprank.games import Game


def reference_save_cache(path, source, game):
    """``formats.save_cache`` before it wrote its rows block by block: every
    row joined into one string, written in one call."""
    masks, values = game.cached_table()
    header = json.dumps(
        {"format": formats.CACHE_FORMAT, "source": source, "n_players": game.n_players},
        sort_keys=True,
    )
    body = "\n".join(f"[{m}, {v!r}]" for m, v in zip(masks.tolist(), values.tolist()))
    Path(path).write_text(header + "\n" + body + "\n", encoding="utf-8")


def cached_game(n_players, rows, seed):
    """A game holding ``rows`` cached payoffs, at least the two every game
    holds (the empty and the grand coalition), of every kind ``repr`` writes
    differently: negative, whole, tiny and huge."""
    rng = np.random.default_rng(seed)
    full = (1 << n_players) - 1
    others = rng.choice(np.arange(1, full), size=rows - 2, replace=False)
    masks = np.array([0, *others, full], dtype=np.uint64)
    payoffs = rng.standard_normal(rows) * 10.0 ** rng.integers(-300, 300, size=rows)
    payoffs[::7] = np.round(payoffs[::7] * 1e-300)
    return Game(n_players, lambda masks: np.zeros(masks.size), preloaded=(masks, payoffs))


@pytest.mark.parametrize(
    "rows",
    [2, formats._WRITE_ROWS - 1, formats._WRITE_ROWS, formats._WRITE_ROWS + 1, 1 << 14],
)
def test_the_rows_are_written_as_one_string_writes_them(tmp_path, rows):
    game = cached_game(14, rows, seed=rows)
    assert game.cached_table()[0].size == rows
    formats.save_cache(tmp_path / "new.jsonl", "src", game)
    reference_save_cache(tmp_path / "old.jsonl", "src", game)
    assert (tmp_path / "new.jsonl").read_bytes() == (tmp_path / "old.jsonl").read_bytes()


def traced_peak(call, *args) -> int:
    """The largest number of bytes traced as allocated while ``call(*args)``
    ran, what it returns included."""
    tracemalloc.start()
    try:
        call(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="module")
def game16():
    return cached_game(16, 1 << 16, seed=16)


def test_the_writer_holds_one_block_of_rows(tmp_path, game16):
    path = tmp_path / "cache.jsonl"
    written = traced_peak(formats.save_cache, path, "src", game16)
    size = path.stat().st_size
    assert size > 1 << 20
    # not the whole body as one string, nor every row as Python objects
    assert written < size / 2, (written, size)


def test_the_reader_holds_one_chunk_of_parsed_rows(tmp_path, game16):
    path = tmp_path / "cache.jsonl"
    reference_save_cache(path, "src", game16)
    size = path.stat().st_size
    assert size > 1 << 20
    # the file's bytes and text and the arrays returned, but the Python
    # objects of one chunk of rows, not of every row
    read = traced_peak(formats.load_cache, path, "src", 16)
    assert read < 3 * size, (read, size)
