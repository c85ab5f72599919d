"""Every file shaprank reads or writes, as docs/formats.md specifies it:
game specs, coalition-value caches, reports and their CSV tables, model
files with their flat-binary sidecars, and datasets.  A bad input raises
:class:`FormatError` naming the file, and its line where it has lines.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import itertools
import json
import math
import os
import re
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .errors import FormatError
from .games import MAX_PLAYERS, Game, Ranking, TableGame
from .toynet import LabeledDataset, Layer, ModelSpec, Normalization

# the types ``json`` decodes a JSON integer and a JSON number to, which every
# reader tests with ``type(value) in``: bool is a subclass of int, never one
JSON_INTEGER = frozenset({int})
JSON_NUMBER = frozenset({int, float})


def read_input(path, hashes: Optional[dict], key: str) -> bytes:
    """The bytes of the input file ``path``.  With ``hashes``, also sets
    ``hashes[key]`` to their sha256, as a report's ``inputs`` records it."""
    raw = Path(path).read_bytes()
    if hashes is not None:
        hashes[key] = "sha256:" + hashlib.sha256(raw).hexdigest()
    return raw


def read_text(path, hashes: Optional[dict] = None, key: str = "") -> str:
    """The input file ``path`` as text, as ``open(path,
    encoding="utf-8").read()`` reads it (newlines translated), hashed as
    :func:`read_input` hashes it.  Its bytes are gone when this returns, so
    a caller's parse holds only the text and what it makes of it."""
    try:
        with io.TextIOWrapper(io.BytesIO(read_input(path, hashes, key)), encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: not UTF-8 text: {exc}") from exc


@contextlib.contextmanager
def format_errors(where, complaint: str, with_reason: bool = False):
    """Within the block, turn what Python raises on a bad input into
    ``FormatError("<where>: <complaint>")``, with the error's own text
    appended ``with_reason``: a key, index or type the document lacks, text
    json cannot take (RecursionError past the recursion limit), a number
    out of range."""
    try:
        yield
    except (KeyError, IndexError, TypeError, ValueError, OverflowError, RecursionError) as exc:
        reason = f": {exc}" if with_reason else ""
        raise FormatError(f"{where}: {complaint}{reason}") from exc


def json_typed(values, types: frozenset) -> bool:
    """Whether every one of ``values`` (a collection, read twice) is a JSON
    value of ``types``, tested with ``type(value) in`` so that ``true`` is
    never a number.  A list passes where ``list`` is one of ``types`` and
    its own items pass, to any depth."""
    kinds = set(map(type, values))
    nested = [value for value in values if type(value) is list] if list in kinds else []
    return kinds <= types and all(map(json_typed, nested, itertools.repeat(types)))


def write_json(doc, path) -> None:
    """Write ``doc`` deterministically: sorted keys, one-space indent and a
    trailing newline, so equal documents are equal bytes."""
    write_lines(path, [json.dumps(doc, sort_keys=True, indent=1)])


def write_lines(path, lines: Sequence[str]) -> None:
    """Write ``lines`` to ``path`` as UTF-8, each ended by ``\\n``."""
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


# JSON's whitespace: str.strip() would also strip \x0b, \x0c and \x1c..\x1f
_JSON_SPACE = " \t\n\r"
# a game spec's head up to the opening brace of its "values" object, with
# "n_players" once, unescaped, and an integer without a leading zero
_HEAD = re.compile(r'[ \t\n\r]*+\{[ \t\n\r]*+"n_players"[ \t\n\r]*+:[ \t\n\r]*+([1-9][0-9]{0,2}+)'
                   r'[ \t\n\r]*+,[ \t\n\r]*+"values"[ \t\n\r]*+:[ \t\n\r]*+\{')
# a number token of a flat parse's text: json reads it or refuses it
_NUMBER = r"-?[0-9][0-9.eE+-]*+"
# the entries of the "values" object as written, each '"digits": number';
# possessive, so the match keeps no state per entry (re, Python 3.11)
_ENTRY = rf'[ \t\n\r]*+"[0-9]++"[ \t\n\r]*+:[ \t\n\r]*+{_NUMBER}[ \t\n\r]*+'
_VALUES_BODY = re.compile(rf"{_ENTRY}(?:,{_ENTRY})*+")
# with the quotes deleted, entries of the "values" object as flat list items
_AS_FLAT_LIST = str.maketrans({'"': None, ":": ","})
# the flat parses read their text in chunks of whole entries or rows of about
# this many characters, which bounds the Python objects a parse holds at once
_PARSE_CHUNK = 1 << 16


def game_to_json_dict(game: TableGame) -> dict:
    return {
        "n_players": game.n_players,
        "values": {str(m): float(v) for m, v in enumerate(game.values)},
    }


def game_from_json_dict(doc: dict) -> TableGame:
    if not isinstance(doc, dict):
        raise FormatError("game spec must be a JSON object")
    if type(doc.get("n_players")) not in JSON_INTEGER or "values" not in doc:
        raise FormatError("game spec needs integer 'n_players' and 'values'")
    n_players, raw = doc["n_players"], doc["values"]
    if not 1 <= n_players <= MAX_PLAYERS:
        raise FormatError(f"n_players must be in [1, {MAX_PLAYERS}]")
    if not isinstance(raw, dict):
        raise FormatError("'values' must map bitmask strings to payoffs")
    table = _payoff_table(raw, 1 << n_players)
    if not np.all(np.isfinite(table)):
        raise FormatError("game spec contains non-finite payoffs")
    return TableGame(table)


def _payoff_table(raw: dict, size: int) -> np.ndarray:
    """The payoff table of ``raw``, which must have exactly the keys ``"0"``
    .. ``str(size - 1)``, written canonically, and only int or float payoffs.

    ``_bulk_table`` reads every valid file in the canonical layout, so the
    keys here are checked one by one.  The missing keys come from walking the
    ``size`` expected keys in sorted order, which stops after five absent
    ones: at most ``len(raw) + 5`` steps, however many players the spec
    declares.
    """
    # distinct keys, each canonical and in range: exactly the size expected
    if len(raw) != size or not all(_is_coalition_key(key, size) for key in raw):
        extra = [key for key in raw if not _is_coalition_key(key, size)]
        missing = list(itertools.islice((k for k in _sorted_keys(size) if k not in raw), 5))
        raise FormatError(
            f"game spec must contain exactly the {size} coalition keys; "
            f"missing {missing}, unexpected {sorted(extra)[:5]}"
        )
    masks = np.fromiter(map(int, raw), dtype=np.int64, count=size)

    if not json_typed(raw.values(), JSON_NUMBER):
        key = next(key for key, value in raw.items() if type(value) not in JSON_NUMBER)
        raise FormatError(f"payoff for coalition {key} is not a number")
    try:
        payoffs = np.fromiter(map(float, raw.values()), dtype=np.float64, count=size)
    except OverflowError:
        # an int beyond float range: walk the payoffs to name its coalition
        for key, value in raw.items():
            try:
                float(value)
            except OverflowError:
                raise FormatError(
                    f"payoff for coalition {key} is too large for a float") from None
    table = np.empty(size, dtype=np.float64)
    table[masks] = payoffs
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
    write_json(game_to_json_dict(game), path)


def load_game_json(path, hashes: Optional[dict] = None) -> TableGame:
    """Read a game spec; with ``hashes``, ``hashes["game"]`` is the sha256 of
    the bytes read."""
    text = read_text(path, hashes, "game")
    table = _bulk_table(text)
    if table is not None:
        return TableGame(table)
    # any other document, valid or not: the dict parse reads it or names
    # what is wrong
    with format_errors(path, "not valid JSON", with_reason=True):
        doc = json.loads(text)
    del text
    try:
        return game_from_json_dict(doc)
    except FormatError as exc:
        raise FormatError(f"{path}: {exc}") from exc


def _bulk_table(text: str) -> Optional[np.ndarray]:
    """The payoff table of the game spec ``text``, parsed by flat
    ``json.loads`` calls over chunks of its entries, or None unless ``text``
    is laid out as ``{"n_players": n, "values": {...}}`` (as ``write_json`` and
    ``json.dump(sort_keys=True)`` write it), in ASCII, and holds exactly the
    canonical keys with finite number payoffs.  Whatever it refuses, the
    dict parse reads to the same table or refuses with its own message."""
    head = _HEAD.match(text)
    if head is None or int(head[1]) > MAX_PLAYERS:
        return None
    size = 1 << int(head[1])
    # the body runs to the first "}", which must close the document; a
    # regular expression checks it, not arrays of its bytes, whose freed
    # buffers would stay resident under the parse's objects
    start, end = head.end(), text.find("}", head.end())
    if (end < 0 or text[end + 1:].strip(_JSON_SPACE) != "}"
            or _VALUES_BODY.fullmatch(text, start, end) is None):
        return None
    pairs = _flat_pairs(text, start, end, ",", _AS_FLAT_LIST)
    if pairs is None or pairs[0].size != size or pairs[0].max() >= size:
        return None
    masks, values = pairs
    table = np.full(size, np.nan)
    table[masks] = values
    # size keys in range: a NaN left is a missing key, or a payoff not finite
    return table if np.all(np.isfinite(table)) else None


def _flat_pairs(text: str, start: int, end: int, sep: str,
                table: dict) -> Optional[tuple[np.ndarray, np.ndarray]]:
    """The records of ``text[start:end]``, joined by ``sep``, that ``table``
    translates into flat JSON list items, an integer key then a number
    payoff, as ``uint64`` keys and float64 payoffs; None when json refuses a
    number (a leading zero, ``1.``), a key is outside ``uint64`` or an
    integer payoff is beyond float range.  One ``json.loads`` reads each
    chunk of about ``_PARSE_CHUNK`` characters of whole records, so a parse
    holds the Python objects of one chunk at a time.  The caller's regular
    expression has accepted the text: every ``sep`` in it ends a record, and
    it lets no other token through."""
    keys, payoffs = [], []
    while True:
        cut = text.find(sep, min(start + _PARSE_CHUNK, end), end)
        cut = end if cut < 0 else cut
        try:
            flat = json.loads("[" + text[start:cut].translate(table) + "]")
            keys.append(np.fromiter(flat[0::2], dtype=np.uint64))
            payoffs.append(np.fromiter(flat[1::2], dtype=np.float64))
        except (ValueError, OverflowError):
            return None
        if cut >= end:
            return np.concatenate(keys), np.concatenate(payoffs)
        start = cut + 1


CACHE_FORMAT = "shaprank-cache-v1"
# cache rows, each "[" integer mask "," number payoff "]" with spaces or tabs
# around the tokens, joined by "\n"; possessive, as _VALUES_BODY
_CACHE_ROW = rf"[ \t]*+\[[ \t]*+-?[0-9]++[ \t]*+,[ \t]*+{_NUMBER}[ \t]*+\][ \t]*+"
_CACHE_ROWS = re.compile(rf"(?:{_CACHE_ROW}(?:\n|\Z))*+")
# with the brackets deleted and each "\n" a comma, rows as flat list items
_ROWS_AS_FLAT_LIST = str.maketrans({"[": None, "]": None, "\n": ","})
# save_cache formats and writes this many rows at a time
_WRITE_ROWS = 1 << 12


def load_cache(path, source: str, n_players: int) -> tuple[np.ndarray, np.ndarray]:
    """The masks and the payoffs of the cache file ``path``, in file order."""
    text = read_text(path)
    # the header is the first line as str.splitlines() cuts it
    start = text.find("\n") + 1 or len(text)
    head = text[:start].splitlines()
    if not head:
        raise FormatError(f"{path}: empty cache file")
    with format_errors(path, "corrupt cache header"):
        header = json.loads(head[0])
        if header["format"] != CACHE_FORMAT or "source" not in header:
            raise ValueError("not a cache header")
    players = header.get("n_players")
    if header["source"] != source or type(players) not in JSON_INTEGER or players != n_players:
        raise FormatError(
            f"{path}: cache was built for a different game "
            f"(source {header['source']!r}, {players} players)"
        )
    # rows after a header that ends at the first "\n", each one line as
    # save_cache writes it up to spaces and tabs, are parsed in bulk
    if len(head) == 1 and _CACHE_ROWS.fullmatch(text, start):
        end = len(text) - text.endswith("\n")
        rows = _flat_pairs(text, start, end, "\n", _ROWS_AS_FLAT_LIST)
        if (rows is not None and int(rows[0].max(initial=0)) >> n_players == 0
                and np.all(np.isfinite(rows[1]))):
            return rows
    # only a bad cache gets here: walk it line by line to name the line
    masks, payoffs = [], []
    for ln, line in enumerate(text.splitlines()[1:], start=2):
        with format_errors(f"{path}:{ln}", "corrupt cache entry"):
            row = json.loads(line)
            if not (
                isinstance(row, list)
                and len(row) == 2
                and type(row[0]) in JSON_INTEGER
                and type(row[1]) in JSON_NUMBER
            ):
                raise ValueError("a cache row is [integer mask, number payoff]")
            mask, value = row[0], float(row[1])
        if not 0 <= mask < 1 << n_players:
            raise FormatError(
                f"{path}:{ln}: mask {mask} out of range for {n_players} players"
            )
        if not math.isfinite(value):
            raise FormatError(f"{path}:{ln}: non-finite payoff {value} for mask {mask}")
        masks.append(mask)
        payoffs.append(value)
    return np.array(masks, dtype=np.uint64), np.array(payoffs, dtype=np.float64)


def save_cache(path, source: str, game: Game) -> None:
    """Write every cached payoff of ``game`` to ``path``.

    A run that computed nothing new leaves an existing file as it is, so warm
    runs do not rewrite a large cache.
    """
    path = Path(path)
    if game.eval_count == 0 and path.exists():
        return
    masks, values = game.cached_table()
    header = json.dumps(
        {"format": CACHE_FORMAT, "source": source, "n_players": game.n_players},
        sort_keys=True,
    )
    # write beside the target, then rename over it: an interrupted write
    # leaves the previous cache intact
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(header + "\n")
            # the repr of Python ints and floats is what json.dumps writes
            # for them; _WRITE_ROWS rows at a time, each ended by "\n"
            for at in range(0, masks.size, _WRITE_ROWS):
                block = zip(masks[at:at + _WRITE_ROWS].tolist(),
                            values[at:at + _WRITE_ROWS].tolist())
                fh.write("".join(f"[{m}, {v!r}]\n" for m, v in block))
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def ranking_from_report(path) -> tuple[str, Ranking]:
    """The name (the file's stem) and the ranking of the ranking report
    ``path``."""
    with format_errors(path, "not a ranking report"):
        doc = json.loads(read_text(path))
        order, scores = doc["order"], doc["scores"]
        # Ranking would convert 0.7, true or "3"
        if not (isinstance(order, list) and isinstance(scores, list)
                and json_typed(order, JSON_INTEGER) and json_typed(scores, JSON_NUMBER)):
            raise ValueError("order must hold JSON integers and scores JSON numbers")
        ranking = Ranking(order=order, scores=scores)
    return Path(path).stem, ranking


def write_rank_csv(out_path, ranking: Ranking, est) -> None:
    lines = ["position,player,score" + (",std_err" if est.std_err is not None else "")]
    for pos, (player, score) in enumerate(zip(ranking.order, ranking.scores)):
        row = f"{pos},{int(player)},{float(score)!r}"
        if est.std_err is not None:
            row += f",{float(est.std_err[player])!r}"
        lines.append(row)
    write_lines(str(out_path) + ".csv", lines)


def write_oracle_csv(out_path, rows) -> None:
    lines = ["name,k,jaccard,weighted_total"]
    for row in rows:
        for k, value in sorted(row["per_k"].items(), key=lambda kv: int(kv[0])):
            lines.append(f"{row['name']},{k},{value!r},{row['weighted_total']!r}")
    write_lines(str(out_path) + ".csv", lines)


MODEL_FORMAT = "shaprank-model-v1"
INLINE_PARAM_LIMIT = 8192
_NORM_VECTORS = ("mean", "var", "gamma", "beta")
# what a model parameter may be: a JSON number, or nested lists of them
_PARAMETER = JSON_NUMBER | {list}


def _norm_to_json(norm: Optional[Normalization]):
    if norm is None:
        return None
    return {**{key: getattr(norm, key).tolist() for key in _NORM_VECTORS}, "eps": norm.eps}


def _norm_from_json(doc) -> Optional[Normalization]:
    if doc is None:
        return None
    vectors = {key: _number_array(doc[key]) for key in _NORM_VECTORS}
    eps = doc.get("eps", 1e-5)
    if type(eps) not in JSON_NUMBER:
        raise ValueError("norm eps must be a JSON number")
    return Normalization(**vectors, eps=float(eps))


def _number_array(node) -> np.ndarray:
    """``node``, nested lists of JSON numbers, as a float64 array; numpy
    would also take ``true`` or ``"2"`` for a number."""
    if not json_typed([node], _PARAMETER):
        raise ValueError("model parameters must be JSON numbers")
    return np.array(node, dtype=np.float64)


def write_flat_binary(tensors: Sequence[np.ndarray], path) -> None:
    """Little-endian float32 tensors behind a one-line JSON header."""
    header = json.dumps(
        {"dtype": "f32le", "shapes": [list(t.shape) for t in tensors]},
        sort_keys=True,
    ).encode("utf-8")
    payload = b"".join(np.ascontiguousarray(t, dtype="<f4").tobytes() for t in tensors)
    Path(path).write_bytes(header + b"\n" + payload)


def read_flat_binary(path, hashes: Optional[dict] = None) -> list[np.ndarray]:
    """Read a :func:`write_flat_binary` file; with ``hashes``,
    ``hashes["binary_weights"]`` is the sha256 of the bytes read."""
    raw = read_input(path, hashes, "binary_weights")
    newline = raw.find(b"\n")
    if newline < 0:
        raise FormatError(f"{path}: missing binary header line")
    with format_errors(path, "bad binary header"):
        header = json.loads(raw[:newline].decode("utf-8"))
        shapes = header["shapes"]
        if header["dtype"] != "f32le":
            raise KeyError("dtype")
        # int() would read 4.9, true or "4" as a dimension
        if not (type(shapes) is list and all(
                type(s) is list and json_typed(s, JSON_INTEGER) and min(s, default=0) >= 0
                for s in shapes)):
            raise ValueError("shape entries must be non-negative JSON integers")
    payload = raw[newline + 1:]
    # exact Python ints: np.prod would wrap a product past int64
    counts = [math.prod(s) for s in shapes]
    if len(payload) != 4 * sum(counts):
        raise FormatError(f"{path}: payload size mismatch")
    tensors = []
    offset = 0
    for shape, count in zip(shapes, counts):
        arr = np.frombuffer(payload, dtype="<f4", count=count, offset=offset)
        tensors.append(arr.astype(np.float64).reshape(shape))
        offset += count * 4
    return tensors


def save_model(spec: ModelSpec, path, removed: Sequence[int] = ()) -> None:
    """Write a model as JSON; large weight sets go to a binary sidecar.

    ``removed`` units of the prunable layer are written as the file's
    ``mask``, which :func:`load_model` applies.  Small models embed every
    tensor in the JSON document (exact float64 round trip); above
    ``INLINE_PARAM_LIMIT`` total parameters the weights and biases move to
    ``<path>.bin`` in the flat float32 format.
    """
    path = Path(path)
    n_params = sum(l.weights.size + l.bias.size for l in spec.layers)
    doc = {
        "format": MODEL_FORMAT,
        "prunable_layer": spec.prunable_layer,
        "mask": {"layer": spec.prunable_layer, "removed": sorted(map(int, removed))}
        if len(removed) else None,
        "layers": [],
        "binary_weights": None,
    }
    tensors: list[np.ndarray] = []
    inline = n_params <= INLINE_PARAM_LIMIT
    for layer in spec.layers:
        entry = {
            "kind": layer.kind,
            "activation": layer.activation,
            "norm": _norm_to_json(layer.norm),
        }
        if inline:
            entry["weights"] = layer.weights.tolist()
            entry["bias"] = layer.bias.tolist()
        else:
            entry["weights"] = {"tensor": len(tensors)}
            tensors.append(layer.weights)
            entry["bias"] = {"tensor": len(tensors)}
            tensors.append(layer.bias)
        doc["layers"].append(entry)
    if not inline:
        sidecar = path.with_suffix(path.suffix + ".bin")
        write_flat_binary(tensors, sidecar)
        doc["binary_weights"] = sidecar.name
    write_json(doc, path)


def load_model(path, hashes: Optional[dict] = None) -> ModelSpec:
    """Read a model file into the model it describes: a ``mask`` entry's
    units are zeroed in the layer it names, and without one every unit
    stays on.  With ``hashes``, ``hashes["model"]`` is the sha256 of the
    bytes read, and ``hashes["binary_weights"]`` that of the sidecar if
    there is one."""
    path = Path(path)
    with format_errors(path, "not valid JSON"):
        doc = json.loads(read_text(path, hashes, "model"))
    if not isinstance(doc, dict) or doc.get("format") != MODEL_FORMAT:
        raise FormatError(f"{path}: not a {MODEL_FORMAT} file")
    tensors: list[np.ndarray] = []

    def fetch(node) -> np.ndarray:
        if not isinstance(node, dict):
            return _number_array(node)
        index = node["tensor"]
        if not (type(index) in JSON_INTEGER and 0 <= index < len(tensors)):
            raise ValueError(f"a tensor index must be a JSON integer in [0, {len(tensors)})")
        return tensors[index]

    with format_errors(path, "malformed model document", with_reason=True):
        if doc.get("binary_weights"):
            tensors = read_flat_binary(path.parent / doc["binary_weights"], hashes)
        layers = [
            Layer(
                kind=entry["kind"],
                weights=fetch(entry["weights"]),
                bias=fetch(entry["bias"]),
                activation=entry["activation"],
                norm=_norm_from_json(entry.get("norm")),
            )
            for entry in doc["layers"]
        ]
        prunable = doc["prunable_layer"]
        if type(prunable) not in JSON_INTEGER:
            raise ValueError("prunable_layer must be a JSON integer")
        spec = ModelSpec(layers=layers, prunable_layer=prunable)
        if doc.get("mask") is not None:
            spec = _without_units(spec, doc["mask"]["layer"], doc["mask"]["removed"])
    return spec


def _without_units(spec: ModelSpec, index, removed) -> ModelSpec:
    """``spec`` with the units ``removed`` of layer ``index`` zeroed: their
    weight rows, biases and norm ``gamma``/``beta``.  On finite inputs each
    such unit then outputs exactly zero, so it is a dummy player."""
    if not (type(index) in JSON_INTEGER and 0 <= index < len(spec.layers)):
        raise ValueError(f"mask layer must be a layer index in [0, {len(spec.layers)})")
    layer = spec.layers[index]
    if not (type(removed) is list and json_typed(removed, JSON_INTEGER)
            and all(0 <= i < layer.out_units for i in removed)):
        raise ValueError(f"mask must remove unit indices in [0, {layer.out_units})")
    weights, bias, norm = layer.weights.copy(), layer.bias.copy(), layer.norm
    weights[removed] = bias[removed] = 0.0
    if norm is not None:
        gamma, beta = norm.gamma.copy(), norm.beta.copy()
        gamma[removed] = beta[removed] = 0.0
        norm = dataclasses.replace(norm, gamma=gamma, beta=beta)
    layers = list(spec.layers)
    layers[index] = dataclasses.replace(layer, weights=weights, bias=bias, norm=norm)
    return dataclasses.replace(spec, layers=layers)


def load_dataset_csv(path, hashes: Optional[dict] = None) -> LabeledDataset:
    """Read a dataset CSV: the header ``x0,...,xD-1,label`` on line 1, then
    one row per line; blank lines may follow the last row.  With
    ``hashes``, ``hashes["data"]`` is the sha256 of the bytes read."""
    lines = read_text(path, hashes, "data").rstrip().splitlines()
    if not lines:
        raise FormatError(f"{path}: empty dataset file")
    header = lines[0].split(",")
    # at least one feature column before the label
    if len(header) < 2 or header[-1] != "label" or not all(c.startswith("x") for c in header[:-1]):
        raise FormatError(f"{path}: expected header 'x0,...,label'")
    if len(lines) == 1:
        raise FormatError(f"{path}: header but no samples")
    n_features = len(header) - 1
    rows = lines[1:]
    # counted per line: a short and a long line would balance in the total
    if set(map(str.count, rows, itertools.repeat(","))) == {n_features}:
        cells = ",".join(rows).split(",")
        labels = cells[n_features::n_features + 1]
        del cells[n_features::n_features + 1]
        try:
            inputs = np.fromiter(map(float, cells), dtype=np.float64, count=len(cells))
            labels = np.fromiter(map(int, labels), dtype=np.int64, count=len(rows))
        except (ValueError, OverflowError):
            pass
        else:
            return LabeledDataset(inputs=inputs.reshape(len(rows), n_features), labels=labels)
    # only a bad dataset gets here: walk it row by row to name the line
    inputs, labels = [], []
    for ln, line in enumerate(rows, start=2):
        parts = line.split(",")
        if len(parts) != n_features + 1:
            raise FormatError(f"{path}:{ln}: expected {n_features + 1} columns")
        try:
            inputs.append([float(v) for v in parts[:-1]])
            labels.append(np.int64(int(parts[-1])))
        except (ValueError, OverflowError) as exc:
            raise FormatError(f"{path}:{ln}: {exc}") from exc
    return LabeledDataset(inputs=np.array(inputs), labels=np.array(labels))


def check_model_data(spec: ModelSpec, data: LabeledDataset, path) -> None:
    """Refuse ``data``, read from ``path``, as the input of ``spec``: its
    features must be the first layer's inputs, and its labels classes of
    the last layer."""
    first = spec.layers[0]
    if first.kind != "dense" or data.inputs.shape[1] != first.in_units:
        wants = first.in_units if first.kind == "dense" else f"{first.in_units}-channel images"
        raise FormatError(f"{path}: {data.inputs.shape[1]} features, "
                          f"the model's first layer expects {wants}")
    n_classes = spec.layers[-1].out_units
    outside = np.flatnonzero((data.labels < 0) | (data.labels >= n_classes))
    if outside.size:
        row = int(outside[0])
        raise FormatError(f"{path}:{row + 2}: label {data.labels[row]} outside the "
                          f"model's {n_classes} classes")
