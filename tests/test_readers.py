"""The bulk input readers of ``shaprank.formats`` against the
record-by-record readers they replaced.

``reference_load_cache``, ``reference_payoff_table`` and
``reference_load_dataset_csv`` are local copies of the readers that
``formats.load_cache``, ``formats._payoff_table`` and
``formats.load_dataset_csv`` replaced: one ``json.loads`` per cache line,
one ``str(int(key)) == key`` test per game key, one Python list per CSV
row.  ``reference_load_game_json`` is ``formats.load_game_json`` with its
flat parse switched off, so that every game spec goes through
``json.loads`` into a dict and ``formats.game_from_json_dict``.  On valid
and corrupted inputs alike, the readers in ``shaprank`` must return the
same result or raise the same exception with the same text.
"""

import itertools
import json
import math
import operator
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from shaprank import formats
from shaprank.errors import FormatError
from shaprank.formats import (
    JSON_INTEGER,
    JSON_NUMBER,
    _bulk_table,
    _is_coalition_key,
    _payoff_table,
    _sorted_keys,
    game_to_json_dict,
    load_dataset_csv,
    load_game_json,
    save_game_json,
)
from shaprank.toynet import LabeledDataset

from conftest import random_table_game


def reference_load_cache(path, source, n_players):
    """``formats.load_cache`` before the bulk parse, kept verbatim in behaviour."""
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    if not lines:
        raise FormatError(f"{path}: empty cache file")
    try:
        header = json.loads(lines[0])
    except json.JSONDecodeError as exc:
        raise FormatError(f"{path}: corrupt cache header") from exc
    if (
        not isinstance(header, dict)
        or header.get("format") != formats.CACHE_FORMAT
        or "source" not in header
    ):
        raise FormatError(f"{path}: corrupt cache header")
    if header["source"] != source or header.get("n_players") != n_players:
        raise FormatError(
            f"{path}: cache was built for a different game "
            f"(source {header['source']!r}, {header.get('n_players')} players)"
        )
    values = {}
    for ln, line in enumerate(lines[1:], start=2):
        try:
            row = json.loads(line)
            if not (
                isinstance(row, list)
                and len(row) == 2
                and type(row[0]) in JSON_INTEGER
                and type(row[1]) in JSON_NUMBER
            ):
                raise ValueError("a cache row is [integer mask, number payoff]")
            mask, value = row[0], float(row[1])
        except (ValueError, OverflowError) as exc:
            raise FormatError(f"{path}:{ln}: corrupt cache entry") from exc
        if not 0 <= mask < 1 << n_players:
            raise FormatError(
                f"{path}:{ln}: mask {mask} out of range for {n_players} players"
            )
        if not math.isfinite(value):
            raise FormatError(f"{path}:{ln}: non-finite payoff {value} for mask {mask}")
        values[mask] = value
    return values


def reference_payoff_table(raw, size):
    """``formats._payoff_table`` before the bulk key check, kept verbatim in
    behaviour."""
    masks = None
    if len(raw) == size:
        try:
            masks = np.fromiter(map(int, raw), dtype=np.int64, count=size)
        except (TypeError, ValueError, OverflowError):
            pass
    if (masks is None or masks.min() < 0 or masks.max() >= size
            or not all(map(operator.eq, map(str, masks.tolist()), raw))):
        extra = [key for key in raw if not _is_coalition_key(key, size)]
        missing = list(itertools.islice((k for k in _sorted_keys(size) if k not in raw), 5))
        raise FormatError(
            f"game spec must contain exactly the {size} coalition keys; "
            f"missing {missing}, unexpected {sorted(extra)[:5]}"
        )
    if not set(map(type, raw.values())) <= JSON_NUMBER:
        key = next(key for key, value in raw.items() if type(value) not in JSON_NUMBER)
        raise FormatError(f"payoff for coalition {key} is not a number")
    table = np.empty(size, dtype=np.float64)
    table[masks] = np.fromiter(map(float, raw.values()), dtype=np.float64, count=size)
    return table


def reference_load_game_json(path):
    """``load_game_json`` with the flat parse refusing every document."""
    with mock.patch.object(formats, "_bulk_table", lambda text: None):
        return load_game_json(path)


def reference_load_dataset_csv(path):
    """``formats.load_dataset_csv`` before the bulk conversion, one list per
    row.  It strips the text at the end only, as the header-on-line-1 rule
    does; before that rule it stripped both ends.  A label beyond int64 is a
    format error naming its line, as the reader has it now; before, it
    escaped as an ``OverflowError``.  A header without a feature column is
    refused, as the reader does now; before, it read rows of no features."""
    lines = Path(path).read_text(encoding="utf-8").rstrip().splitlines()
    if not lines:
        raise FormatError(f"{path}: empty dataset file")
    header = lines[0].split(",")
    if len(header) < 2 or header[-1] != "label" or not all(c.startswith("x") for c in header[:-1]):
        raise FormatError(f"{path}: expected header 'x0,...,label'")
    if len(lines) == 1:
        raise FormatError(f"{path}: header but no samples")
    n_features = len(header) - 1
    inputs, labels = [], []
    for ln, line in enumerate(lines[1:], start=2):
        parts = line.split(",")
        if len(parts) != n_features + 1:
            raise FormatError(f"{path}:{ln}: expected {n_features + 1} columns")
        try:
            inputs.append([float(v) for v in parts[:-1]])
            labels.append(np.int64(int(parts[-1])))
        except (ValueError, OverflowError) as exc:
            raise FormatError(f"{path}:{ln}: {exc}") from exc
    return LabeledDataset(inputs=np.array(inputs), labels=np.array(labels))


def outcome(read, *args):
    """What ``read(*args)`` returns, or the class and text of what it raises."""
    try:
        return "ok", read(*args)
    except Exception as exc:  # noqa: BLE001 - any difference is the finding
        return type(exc), str(exc)


# the readers' chunk size, then one that puts a chunk boundary at every row or
# entry and one that cuts the text at uneven places
CHUNK_SIZES = (formats._PARSE_CHUNK, 1, 17)


def as_bytes(result):
    """An outcome with its arrays as their dtype and bytes, so that ``==``
    compares them bit for bit."""
    status, value = result
    if status != "ok":
        return result
    values = value if isinstance(value, tuple) else (value,)
    return status, [(v.dtype.str, v.tobytes()) if isinstance(v, np.ndarray) else v
                    for v in values]


def chunked_outcome(read, *args):
    """``outcome(read, *args)`` with ``formats._PARSE_CHUNK`` at each of
    ``CHUNK_SIZES``: checked to be the same bit for bit at every size, and
    returned."""
    first = outcome(read, *args)
    for size in CHUNK_SIZES[1:]:
        with mock.patch.object(formats, "_PARSE_CHUNK", size):
            assert as_bytes(outcome(read, *args)) == as_bytes(first), size
    return first


def cache_dict(rows):
    """Cache rows ``(masks, payoffs)`` as the reference reader returns
    them: a dict in first-seen order, a repeated mask keeping its last
    payoff."""
    masks, payoffs = rows
    return dict(zip(masks.tolist(), payoffs.tolist()))


def assert_same_outcome(new, old):
    assert new[0] == old[0], (new, old)
    if new[0] != "ok":
        assert new[1] == old[1]
    elif isinstance(old[1], LabeledDataset):
        assert new[1].inputs.shape == old[1].inputs.shape
        assert np.array_equal(new[1].inputs, old[1].inputs, equal_nan=True)
        assert new[1].labels.dtype == old[1].labels.dtype
        assert np.array_equal(new[1].labels, old[1].labels)
    elif isinstance(old[1], np.ndarray):
        assert np.array_equal(new[1], old[1], equal_nan=True)
    elif isinstance(new[1], tuple):
        # cache rows against the reference's dict, bit for bit: dict ==
        # cannot tell -0.0 from 0.0
        masks, payoffs = new[1]
        assert (masks.dtype, payoffs.dtype) == (np.uint64, np.float64)
        rows = cache_dict(new[1])
        assert list(rows) == list(old[1])
        assert (np.array(list(rows.values()), dtype=np.float64).tobytes()
                == np.array(list(old[1].values()), dtype=np.float64).tobytes())
    else:
        assert new[1] == old[1]
        assert list(new[1]) == list(old[1])


# ---------------------------------------------------------------------------
# --cache rows
# ---------------------------------------------------------------------------

CACHE_PLAYERS = 3
BAD_CACHE_LINES = [
    "", " ", "[8, 1.0]", "[-1, 1.0]", "[1, NaN]", "[1, -Infinity]", "[1, 1e400]",
    "[true, 1.0]", "[1, false]", "[1.0, 2.0]", '["1", 2.0]', "[1, null]", "[1, {}]",
    "[[1], 2.0]", "[1, 2.0, 3.0]", "[1]", "[]", "{}", "1", "[1, 2.0],", ",[1, 2.0]",
    "[1, 2.0]]", "[[1, 2.0]", "[1, " + "9" * 400 + "]", "[1, 2.0] x", "[1, 2.0]\xa0",
    '["a,b"]', '[{"a": 1, "b": 2}]', '["]", "["]', '[1, {"a": [2]}]', "[1 2, 3]",
    "[1, 2.0] [", "] [1, 2.0", "[1, 2, 3", "1, 2]", "[" + "{" * 2000 + ", 1]",
]


@st.composite
def cache_bodies(draw):
    """Cache rows as written, then perhaps corrupted: a bad line put in, two
    lines merged, a line split, in any place."""
    rows = draw(st.lists(st.tuples(
        st.integers(0, (1 << CACHE_PLAYERS) - 1),
        st.one_of(st.integers(-10**20, 10**20),
                  st.floats(allow_nan=False, allow_infinity=False)),
    ), max_size=12))
    spaces = st.sampled_from(["", " ", "  ", "\t"])
    lines = [f"{draw(spaces)}[{m},{draw(spaces)}{v!r}]{draw(spaces)}" for m, v in rows]
    for _ in range(draw(st.integers(0, 2))):
        at = draw(st.integers(0, len(lines)))
        edit = draw(st.sampled_from(["insert", "merge", "split"]))
        if edit == "insert":
            lines.insert(at, draw(st.sampled_from(BAD_CACHE_LINES)))
        elif edit == "merge" and at + 1 < len(lines):
            lines[at:at + 2] = [lines[at] + draw(st.sampled_from([", ", " ", ""])) + lines[at + 1]]
        elif edit == "split" and at < len(lines) and lines[at]:
            cut = draw(st.integers(0, len(lines[at])))
            lines[at:at + 1] = [lines[at][:cut], lines[at][cut:]]
    return lines


def write_cache(path, lines, newline="\n"):
    header = json.dumps({"format": formats.CACHE_FORMAT, "n_players": CACHE_PLAYERS, "source": "s"})
    path.write_bytes(newline.join([header, *lines]).encode("utf-8") + newline.encode())


class TestCacheReader:
    @given(cache_bodies(), st.sampled_from(["\n", "\r\n", "\r"]))
    def test_same_as_the_line_by_line_reader(self, tmp_path_factory, lines, newline):
        path = tmp_path_factory.mktemp("cache") / "cache.jsonl"
        write_cache(path, lines, newline)
        assert_same_outcome(chunked_outcome(formats.load_cache, path, "s", CACHE_PLAYERS),
                            outcome(reference_load_cache, path, "s", CACHE_PLAYERS))

    @pytest.mark.parametrize(
        "lines, newline, expected",
        [
            # lines that parse as rows when joined, or with brackets dropped
            (["[[0, 1.0]", "[1, 2.0]]"], "\n", "2: corrupt cache entry"),
            (["[[0, 1.0]]"], "\n", "2: corrupt cache entry"),
            (["[1]", "[1, 2, 3]"], "\n", "2: corrupt cache entry"),
            (["1, 2.0]", "[[1, 2.0]"], "\n", "2: corrupt cache entry"),
            (["[1, 2.0", "[1, 2.0]]"], "\n", "2: corrupt cache entry"),
            (["[1, 2.0]", '["a,b"]'], "\n", "3: corrupt cache entry"),
            (["[0, 1.0]", "[1, 2.0]"], "\r\n", {0: 1.0, 1: 2.0}),
            (["[0, 1.0]   ", "[1, 2.0]\t", "[0, 3.0] "], "\n", {0: 3.0, 1: 2.0}),
            # tokens the row pattern lets through to json, which reads or
            # refuses them; the comparison with the reference is bit for bit
            (["[-0, 1.0]"], "\n", {0: 1.0}),
            (["[01, 1.0]"], "\n", "2: corrupt cache entry"),
            (["[1, 1.]"], "\n", "2: corrupt cache entry"),
            (["[1, 1e]"], "\n", "2: corrupt cache entry"),
            (["[18446744073709551616, 1.0]"], "\n",
             "2: mask 18446744073709551616 out of range for 3 players"),
            (["[1, -0]"], "\n", {1: 0.0}),
            (["[1, -0.0]", "[2, 0.0]"], "\n", {1: -0.0, 2: 0.0}),
            (["[1, NaN]"], "\n", "2: non-finite payoff nan for mask 1"),
            (["[1, Infinity]"], "\n", "2: non-finite payoff inf for mask 1"),
            (["\t[\t1\t,\t2.5\t]\t"], "\n", {1: 2.5}),
            # beside a row: JSON whitespace neither, a line break to
            # str.splitlines() the second
            (["[1, 2.0]\xa0"], "\n", "2: corrupt cache entry"),
            (["[1, 2.0]\x0b[2, 3.0]"], "\n", {1: 2.0, 2: 3.0}),
            (["\x0b[1, 2.0]"], "\n", "2: corrupt cache entry"),
            # a line break to str.splitlines() ending the header
            (["\x0c[1, 2.0]\n"], "", {1: 2.0}),
            (["\x0c\n[1, 2.0]\n"], "", "2: corrupt cache entry"),
        ],
    )
    def test_rows_the_bulk_parse_could_misread(self, tmp_path, lines, newline, expected):
        path = tmp_path / "cache.jsonl"
        write_cache(path, lines, newline)
        new = chunked_outcome(formats.load_cache, path, "s", CACHE_PLAYERS)
        assert_same_outcome(new, outcome(reference_load_cache, path, "s", CACHE_PLAYERS))
        if isinstance(expected, str):
            assert new == (FormatError, f"{path}:{expected}")
        else:
            assert new[0] == "ok" and cache_dict(new[1]) == expected

    @pytest.mark.parametrize(
        "row, expected",
        [("[4095, 01]", "corrupt cache entry"),
         ("[4095, 1e400]", "non-finite payoff inf for mask 4095"),
         ("[4096, 1.0]", "mask 4096 out of range for 12 players")],
        ids=["refused-by-json", "not-finite", "out-of-range"],
    )
    def test_a_bad_row_in_the_last_chunk(self, tmp_path, row, expected):
        # every row but the last is good, and the rows are longer than a chunk
        rng = np.random.default_rng(3)
        lines = [f"[{m}, {v!r}]" for m, v in enumerate(rng.standard_normal(4095).tolist())]
        path = tmp_path / "cache.jsonl"
        header = {"format": formats.CACHE_FORMAT, "n_players": 12, "source": "s"}
        path.write_text("\n".join([json.dumps(header), *lines, row]) + "\n")
        assert len("\n".join(lines)) > formats._PARSE_CHUNK
        new = chunked_outcome(formats.load_cache, path, "s", 12)
        assert_same_outcome(new, outcome(reference_load_cache, path, "s", 12))
        assert new == (FormatError, f"{path}:4097: {expected}")


# ---------------------------------------------------------------------------
# game keys
# ---------------------------------------------------------------------------

BAD_KEYS = ["0{}", "+{}", "-{}", " {}", "{} ", "{}\n", "{}_0", "1_{}", "{}.0", "x{}", ""]
BAD_PAYOFFS = [True, None, "2.0", [1.0], {}]


@st.composite
def game_values(draw):
    """A game spec's ``values`` and its table size, perhaps with renamed,
    dropped or added keys and payoffs that are not numbers."""
    n_players = draw(st.integers(1, 4))
    size = 1 << n_players
    payoffs = st.one_of(st.integers(-10**6, 10**6), st.floats(width=32))
    items = [(str(m), draw(payoffs)) for m in draw(st.permutations(range(size)))]
    for _ in range(draw(st.integers(0, 2))):
        at = draw(st.integers(0, len(items) - 1))
        key, value = items[at]
        edit = draw(st.sampled_from(["rename", "drop", "add", "payoff", "digits"]))
        if edit == "rename":
            items[at] = (draw(st.sampled_from(BAD_KEYS)).format(key), value)
        elif edit == "drop":
            del items[at]
        elif edit == "add":
            items.append((str(draw(st.integers(-3, 2 * size))), value))
        elif edit == "payoff":
            items[at] = (key, draw(st.sampled_from(BAD_PAYOFFS)))
        else:
            # the same digits in another script: int() reads them
            other = draw(st.sampled_from([0x0660, 0x06F0, 0x0966, 0xFF10]))
            items[at] = (key.translate({ord("0") + d: other + d for d in range(10)}), value)
    return dict(items), size


class TestGameKeys:
    @given(game_values())
    def test_same_as_the_key_by_key_check(self, case):
        raw, size = case
        assert_same_outcome(outcome(_payoff_table, raw, size),
                            outcome(reference_payoff_table, raw, size))

    @pytest.mark.parametrize("key", ["\u0661", "\uff11", "0" * 20 + "1", "1" * 25])
    def test_keys_int_reads_but_are_not_canonical(self, key):
        raw = {"0": 1.0, key: 2.0}
        new = outcome(_payoff_table, raw, 2)
        assert_same_outcome(new, outcome(reference_payoff_table, raw, 2))
        assert new[0] is FormatError

    def test_keys_that_are_not_strings(self):
        raw = {0: 1.0, 1: 2.0}
        assert_same_outcome(outcome(_payoff_table, raw, 2),
                            outcome(reference_payoff_table, raw, 2))


# ---------------------------------------------------------------------------
# dataset CSV
# ---------------------------------------------------------------------------

BAD_CELLS = ["", " ", "abc", "1.5", "1e3", "0x1", "--1", "nan", "inf", "9" * 30, "1,"]


@st.composite
def csv_texts(draw):
    """A dataset CSV as written, then perhaps corrupted: a bad cell, a short
    or a long line, a blank line, blank lines or spaces at the end."""
    n_features = draw(st.integers(0, 3))
    n_rows = draw(st.integers(1, 6))
    cells = st.one_of(st.floats(width=32).map(repr), st.integers(-99, 99).map(str))
    rows = [
        [draw(cells) for _ in range(n_features)] + [str(draw(st.integers(-5, 5)))]
        for _ in range(n_rows)
    ]
    for _ in range(draw(st.integers(0, 2))):
        row = rows[draw(st.integers(0, n_rows - 1))]
        at = draw(st.integers(0, len(row)))
        edit = draw(st.sampled_from(["cell", "short", "long"]))
        if edit == "cell" and at < len(row):
            row[at] = draw(st.sampled_from(BAD_CELLS))
        elif edit == "short" and row:
            del row[min(at, len(row) - 1)]
        elif edit == "long":
            row.insert(at, draw(cells))
    lines = [",".join([f"x{i}" for i in range(n_features)] + ["label"])]
    lines += [",".join(row) for row in rows]
    if draw(st.booleans()):
        lines.insert(draw(st.integers(1, len(lines))), "")
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    return newline.join(lines) + draw(st.sampled_from(["", newline, newline * 3, "  \n"]))


class TestDatasetReader:
    @given(csv_texts())
    def test_same_as_the_row_by_row_reader(self, tmp_path_factory, text):
        path = tmp_path_factory.mktemp("csv") / "d.csv"
        path.write_bytes(text.encode("utf-8"))
        assert_same_outcome(outcome(load_dataset_csv, path),
                            outcome(reference_load_dataset_csv, path))

    def test_a_short_and_a_long_line_do_not_balance(self, tmp_path):
        path = tmp_path / "d.csv"
        # every cell an integer: the six cells would line up as two rows of three
        path.write_text("x0,x1,label\n1,0\n1,2,3,1\n")
        new = outcome(load_dataset_csv, path)
        assert_same_outcome(new, outcome(reference_load_dataset_csv, path))
        assert new == (FormatError, f"{path}:2: expected 3 columns")


# ---------------------------------------------------------------------------
# game spec documents
# ---------------------------------------------------------------------------

HUGE = "1" + "0" * 400
BAD_GAME_KEYS = ["1", "16", " 1", "1 ", "-0", "01", "1.0", "1e0", "\u0661"]
BAD_GAME_PAYOFFS = ["NaN", "Infinity", "-Infinity", "true", "null", '"2.0"', HUGE, "-" + HUGE,
                    json.dumps('":,'), json.dumps('1": 2, "3')]


def game_table(path):
    return load_game_json(path).values.tobytes()


def reference_game_table(path):
    return reference_load_game_json(path).values.tobytes()


@st.composite
def game_spec_texts(draw):
    """A game spec as ``json.dumps`` writes it, with or without indent, in
    either key order, perhaps with another top-level key, then perhaps
    corrupted; and whether the flat parse must read it (the order
    ``sort_keys`` gives, no other key, no corruption)."""
    n_players = draw(st.integers(1, 4))
    order = draw(st.permutations(range(1 << n_players)))
    payoffs = st.one_of(st.integers(-10**20, 10**20),
                        st.floats(allow_nan=False, allow_infinity=False))
    # "K<m>" and "V<m>" stand for the key and the payoff of mask m until the
    # layout is written; then each is replaced by its token
    keys = {m: json.dumps(str(m)) for m in order}
    tokens = {m: json.dumps(draw(payoffs)) for m in order}
    doc = {"values": {f"K{m}": f"V{m}" for m in order}, "n_players": n_players}
    # mostly the order sort_keys gives and no other key, the layout the flat
    # parse takes; without sort_keys, "values" comes first
    sort_keys, extra = draw(st.sampled_from(
        [(True, None), (True, None), (True, None), (False, None), (True, "comment"),
         (True, "z"), (True, "\u00e9")]))
    if extra:
        doc[extra] = 1
    text = json.dumps(doc, indent=draw(st.sampled_from([None, 1])), sort_keys=sort_keys,
                      ensure_ascii=False)
    corruptions = [draw(st.sampled_from(
        ["swap", "key", "payoff", "duplicate-key", "duplicate-values"]))
        for _ in range(draw(st.integers(0, 2)))]
    for corruption in corruptions:
        at = draw(st.integers(0, len(order) - 1))
        m = order[at]
        if corruption == "swap" and at + 1 < len(order):
            # the comma after one entry and the colon after the next key
            # trade places: the counts of both stay the same
            text = text.replace(f'"V{m}",', f'"V{m}":').replace(
                f'"K{order[at + 1]}":', f'"K{order[at + 1]}",')
        elif corruption == "key":
            keys[m] = json.dumps(draw(st.sampled_from(BAD_GAME_KEYS)), ensure_ascii=False)
        elif corruption == "payoff":
            tokens[m] = draw(st.sampled_from(BAD_GAME_PAYOFFS))
        elif corruption == "duplicate-key":
            other = draw(st.sampled_from(order))
            tokens[m] += f", {keys[other]}: {json.dumps(draw(payoffs))}"
        elif corruption == "duplicate-values":
            again = draw(st.sampled_from(['{"0": 1.0}', "{}", "null"]))
            text = text[:text.rindex("}")] + f', "values": {again}' + "}"
    for m in order:
        text = text.replace(f'"K{m}"', keys[m]).replace(f'"V{m}"', tokens[m])
    return text, sort_keys and not extra and not corruptions


class TestGameSpecReader:
    @given(game_spec_texts())
    def test_same_as_the_dict_parse(self, tmp_path_factory, case):
        text, in_bulk = case
        path = tmp_path_factory.mktemp("game") / "game.json"
        path.write_bytes(text.encode("utf-8"))
        assert_same_outcome(chunked_outcome(game_table, path), outcome(reference_game_table, path))
        if in_bulk:
            assert chunked_outcome(_bulk_table, text)[1] is not None

    @pytest.mark.parametrize(
        "values",
        [
            # a comma and a colon swapped; every count still right
            '"0": 1.5: "1", 2.5, "2": 3.5, "3": 4.5',
            *(f'"0": 1.5, "1": 2.5, "2": 3.5, {key}: 4.5' for key in
              ['" 3"', '"3 "', '"03"', '"3.0"', '"3e0"', '"+3"', '"\u0663"', '"\\u0033"']),
            '"-0": 1.5, "1": 2.5, "2": 3.5, "3": 4.5',
            '"0": 1.5, "1": 2.5, "2": 3.5, "4": 4.5',
            # a digit outside the quotes would join the key once they are gone
            '"0": 1.5, "1": 2.5, "2": 3.5, 3"": 4.5',
            '"0": 1.5, "1": 2.5, "2": 3.5, ""3: 4.5',
            '"0": 1.5, "1": 2.5, "1"0: 3.5, "3": 4.5',
            *(f'"0": 1.5, "1": 2.5, "2": 3.5, "3": {payoff}' for payoff in BAD_GAME_PAYOFFS),
            '"0": 1.5, "1": 2.5, "2": 3.5, "3": 4.5, "3": 5.5',
            '"0": 1.5, "1": 2.5, "2": 3.5, "3": 4.5, "2": 3.5',
            '"0": 1.5, "1": 2.5, "2": 3.5, "3": [4.5]',
            '"0": 1.5, "1": 2.5, "2": 3.5, "3": 4.5,',
            '"0": 1.5, "1": 2.5, "2": 3.5',
            '"0": 1.5, "1": 2.5, "2": 3.5, "3": 4.5\u00a0',
        ],
    )
    def test_documents_the_flat_parse_could_misread(self, tmp_path, values):
        text = '{"n_players": 2, "values": {' + values + "}}"
        path = tmp_path / "game.json"
        path.write_bytes(text.encode("utf-8"))
        assert_same_outcome(chunked_outcome(game_table, path), outcome(reference_game_table, path))
        assert chunked_outcome(_bulk_table, text) == ("ok", None)

    @pytest.mark.parametrize("payoff", ["01", "1e400", HUGE, '"2.0"'],
                             ids=["refused-by-json", "not-finite", "beyond-float", "a-string"])
    def test_a_bad_entry_in_the_last_chunk(self, tmp_path, payoff):
        # every entry but the last is good, and the entries are longer than a chunk
        payoffs = [json.dumps(v) for v in np.random.default_rng(4).standard_normal(4095).tolist()]
        entries = [f'"{m}": {v}' for m, v in enumerate([*payoffs, payoff])]
        text = '{"n_players": 12, "values": {' + ", ".join(entries) + "}}"
        path = tmp_path / "game.json"
        path.write_bytes(text.encode("utf-8"))
        assert len(text) > formats._PARSE_CHUNK
        new = chunked_outcome(game_table, path)
        assert_same_outcome(new, outcome(reference_game_table, path))
        assert new[0] is FormatError
        assert chunked_outcome(_bulk_table, text) == ("ok", None)

    @pytest.mark.parametrize(
        "text, in_bulk",
        [
            ('{"n_players": 2, "values": {"0": 1.5, "1": 2.5, "2": 3.5, "3": 4.5}, "values": {}}',
             False),
            ('{"n_players": 2, "values": {"0": 1.5, "1": 2.5, "2": 3.5, "3": 4.5}, "n_players": 2}',
             False),
            # json keeps the last of a repeated key; the bulk layout writes it once
            ('{"n_players": 1, "n_players": 2, "values": {"0": 1.5, "1": 2.5, "2": 3.5, "3": 4.5}}',
             False),
            ('{"n_players": 2, "values": {"0": 1.5, "1": 2.5, "2": 3.5, "3": 4.5}}\x0c', False),
            ('{"n_players": 2.0, "values": {"0": 1.5, "1": 2.5, "2": 3.5, "3": 4.5}}', False),
            ('{"n_players": 22 "values": {"0": 1.5, "1": 2.5, "2": 3.5, "3": 4.5}}', False),
            ('{"n_players": 3, "values": {"0": 1.5, "1": 2.5, "2": 3.5, "3": 4.5}}', False),
            ('{"n_players": 2, "x": "\\"values\\": {", '
             '"values": {"0": 1.5, "1": 2.5, "2": 3.5, "3": 4.5}}', False),
            ('[{"n_players": 2, "values": {"0": 1.5, "1": 2.5, "2": 3.5, "3": 4.5}}]', False),
            ('{"n_players": 2, "values": {"0": 1.5, "1": 2.5, "2": 3.5, "3": 4.5}}}', False),
            ('{"n_\\u0070layers": 2, "values": {"0": 1.5, "1": 2.5, "2": 3.5, "3": 4.5}}', False),
            (' \r\n{ "n_players" :2 ,"values":{"0": 1.5, "1": 2.5, "2": 3.5, "3": 4.5}}', True),
            ('{"n_players": 65, "values": {"0": 1.5, "1": 2.5, "2": 3.5, "3": 4.5}}', False),
        ],
        ids=["second-values", "second-n_players", "n_players-twice", "form-feed-after",
             "float-n_players", "no-comma-after-n_players", "too-few-keys", "values-in-a-string", "in-a-list",
             "extra-brace", "escaped-n_players", "spaces-around-the-head", "n_players-too-large"],
    )
    def test_documents_around_the_values(self, tmp_path, text, in_bulk):
        path = tmp_path / "game.json"
        path.write_bytes(text.encode("utf-8"))
        assert_same_outcome(outcome(game_table, path), outcome(reference_game_table, path))
        assert (_bulk_table(text) is not None) == in_bulk

    @pytest.mark.parametrize("n_players", [1, 2, 5, 10])
    def test_the_layouts_written_are_read_in_bulk(self, tmp_path, n_players):
        # save_game_json's layout, and json.dump(sort_keys=True) without an
        # indent as the benchmark writes its tables: if either stopped
        # taking the flat parse, nothing else would fail
        game = random_table_game(n_players, seed=n_players)
        path = tmp_path / "game.json"
        save_game_json(game, path)
        doc = game_to_json_dict(game)
        for text in (path.read_text(encoding="utf-8"), json.dumps(doc, sort_keys=True) + "\n"):
            table = _bulk_table(text)
            assert table is not None
            assert table.tobytes() == game.values.tobytes()
