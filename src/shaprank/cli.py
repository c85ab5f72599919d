"""Command-line front end: rank players, benchmark rankings, prune models.

Subcommands: ``rank``, ``oracle``, ``prune``, ``train-toy``, ``make-fig2``.
Reports are JSON documents written with sorted keys so identical inputs and
seeds reproduce byte-identical files; volatile diagnostics (wall time) go to
stderr instead.  Exit codes: 0 success, 2 usage, 3 capacity/budget,
4 numerical failure, 5 I/O or format.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import re
import sys
import time
from pathlib import Path
from typing import Iterator, Optional

import numpy as np

from . import __version__
from .errors import (
    BudgetError,
    CapacityError,
    CharacteristicFunctionError,
    FormatError,
    InvalidBandError,
    ShapRankError,
    SingularSystemError,
    TrainingDivergedError,
)
from .exact import shapley_exact_permutations, shapley_exact_subsets
from .games import (
    Coalition,
    Game,
    JSON_INTEGER,
    JSON_NUMBER,
    Ranking,
    _NUMBER,
    _flat_pairs,
    decode_text,
    load_game_json,
    make_fig2_game,
    save_game_json,
    write_json,
)
from .oracle import build_oracle_rank, compute_oracle_subsets, score_ranking, score_report_dict
from .partial import SizeBand, shapley_partial
from .regression import SAMPLERS, RegressionConfig, shapley_regression
from .sampling import EarlyStop, SamplingConfig, shapley_sample_permutations
from .toynet import (
    load_dataset_csv,
    load_model,
    make_blobs_dataset,
    save_dataset_csv,
    save_model,
    split_dataset,
    train_toy_model,
    ModelSpec,
    accuracy_char_fn,
)

CACHE_FORMAT = "shaprank-cache-v1"
# cache rows, each "[" integer mask "," number payoff "]" with spaces or tabs
# around the tokens, joined by "\n"; possessive, as games._VALUES_BODY
_CACHE_ROW = rf"[ \t]*+\[[ \t]*+-?[0-9]++[ \t]*+,[ \t]*+{_NUMBER}[ \t]*+\][ \t]*+"
_CACHE_ROWS = re.compile(rf"(?:{_CACHE_ROW}(?:\n|\Z))*+")
# with the brackets deleted and each "\n" a comma, the rows as one flat list
_ROWS_AS_FLAT_LIST = str.maketrans({"[": None, "]": None, "\n": ","})


class UsageError(ShapRankError):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _sha256_text(text: str) -> str:
    return "sha256:" + hashlib.sha256(text.encode("utf-8")).hexdigest()


def _stderr_note(doc) -> None:
    print(json.dumps(doc, sort_keys=True), file=sys.stderr)


def _finite_float(text: str) -> float:
    """argparse ``type`` of the float flags, and the parse of each --split part."""
    value = float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be a finite number, got {text!r}")
    return value


def _parse_fractions(text: str) -> tuple[float, float, float]:
    parts = text.split(":")
    if len(parts) != 3:
        raise UsageError(f"--split expects train:val:test, got {text!r}")
    try:
        return tuple(map(_finite_float, parts))  # type: ignore[return-value]
    except (ValueError, argparse.ArgumentTypeError) as exc:
        raise UsageError(f"bad --split {text!r}: {exc}") from exc


def _parse_k_range(text: str, n_players: int) -> list[int]:
    try:
        if ":" in text:
            lo, hi = (int(bound) for bound in text.split(":", 1))
            # the range stops at its first size outside [1, N], so a huge
            # bound is named without the range being built
            ks = list(range(lo, min(hi, n_players + 1 if 1 <= lo <= n_players else lo) + 1))
        else:
            ks = [int(p) for p in text.split(",")]
    except ValueError as exc:
        raise UsageError(f"bad --k-range {text!r}") from exc
    if not ks:
        raise UsageError(f"--k-range {text!r} selects no sizes")
    for at, k in enumerate(ks):
        if not 1 <= k <= n_players:
            raise UsageError(f"--k-range {text!r}: k={k} outside [1, {n_players}]")
        if k in ks[:at]:
            raise UsageError(f"--k-range {text!r}: k={k} given twice")
    return sorted(ks)


# ---------------------------------------------------------------------------
# Game sources and cache persistence
# ---------------------------------------------------------------------------


def _load_game_source(args) -> tuple[int, object, dict, str, Optional[ModelSpec]]:
    """Resolve --game or --model/--data into (n_players, char_fn, input
    provenance dict, cache source fingerprint, model spec or None)."""
    if args.game and args.model:
        raise UsageError("give either --game or --model, not both")
    # the loaders record the sha256 of each file they read: the game; or, in
    # this order, the model, its binary sidecar if it has one, and the dataset
    inputs: dict = {}
    if args.game:
        table = load_game_json(args.game, inputs)
        return table.n_players, table.values.__getitem__, inputs, inputs["game"], None
    if not args.model or not args.data:
        raise UsageError("need --game, or --model together with --data")
    spec = load_model(args.model, inputs)
    if args.layer is not None:
        if not 0 <= args.layer < len(spec.layers):
            raise UsageError(f"--layer {args.layer} out of range")
        spec = spec.with_prunable_layer(args.layer)
    data = load_dataset_csv(args.data, inputs)
    first = spec.layers[0]
    if first.kind != "dense" or data.inputs.shape[1] != first.in_units:
        wants = first.in_units if first.kind == "dense" else f"{first.in_units}-channel images"
        raise FormatError(f"{args.data}: {data.inputs.shape[1]} features, "
                          f"the model's first layer expects {wants}")
    n_classes = spec.layers[-1].out_units
    outside = np.flatnonzero((data.labels < 0) | (data.labels >= n_classes))
    if outside.size:
        row = int(outside[0])
        raise FormatError(
            f"{args.data}:{row + 2}: label {data.labels[row]} outside the "
            f"model's {n_classes} classes"
        )
    fractions = _parse_fractions(args.split)
    parts = split_dataset(data, fractions, seed=args.split_seed)
    val = parts["val"]
    if val is None:
        raise UsageError(f"--split {args.split} leaves the validation part empty")
    source = _sha256_text(
        "|".join(
            [
                *inputs.values(),
                f"layer={spec.prunable_layer}",
                f"split={args.split}",
                f"split_seed={args.split_seed}",
            ]
        )
    )
    inputs.update(layer=spec.prunable_layer, split=args.split, split_seed=args.split_seed)
    return spec.n_players, accuracy_char_fn(spec, val), inputs, source, spec


def _load_cache(path, source: str, n_players: int) -> tuple[np.ndarray, np.ndarray]:
    """The masks and the payoffs of the cache file ``path``, in file order."""
    text = decode_text(Path(path).read_bytes(), path)
    # the header is the first line as str.splitlines() cuts it
    start = text.find("\n") + 1 or len(text)
    head = text[:start].splitlines()
    if not head:
        raise FormatError(f"{path}: empty cache file")
    try:
        header = json.loads(head[0])
    except (json.JSONDecodeError, RecursionError) as exc:
        raise FormatError(f"{path}: corrupt cache header") from exc
    if (
        not isinstance(header, dict)
        or header.get("format") != CACHE_FORMAT
        or "source" not in header
    ):
        raise FormatError(f"{path}: corrupt cache header")
    if header["source"] != source or header.get("n_players") != n_players:
        raise FormatError(
            f"{path}: cache was built for a different game "
            f"(source {header['source']!r}, {header.get('n_players')} players)"
        )
    # rows after a header that ends at the first "\n", each one line as
    # _save_cache writes it up to spaces and tabs, are parsed in one call
    if len(head) == 1 and _CACHE_ROWS.fullmatch(text, start):
        end = len(text) - text.endswith("\n")
        rows = _flat_pairs("[" + text[start:end].translate(_ROWS_AS_FLAT_LIST) + "]")
        if (rows is not None and int(rows[0].max(initial=0)) >> n_players == 0
                and np.all(np.isfinite(rows[1]))):
            return rows
    # only a bad cache gets here: walk it line by line to name the line
    masks, payoffs = [], []
    for ln, line in enumerate(text.splitlines()[1:], start=2):
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
        except (ValueError, OverflowError, RecursionError) as exc:
            raise FormatError(f"{path}:{ln}: corrupt cache entry") from exc
        if not 0 <= mask < 1 << n_players:
            raise FormatError(
                f"{path}:{ln}: mask {mask} out of range for {n_players} players"
            )
        if not math.isfinite(value):
            raise FormatError(f"{path}:{ln}: non-finite payoff {value} for mask {mask}")
        masks.append(mask)
        payoffs.append(value)
    return np.array(masks, dtype=np.uint64), np.array(payoffs, dtype=np.float64)


def _save_cache(path, source: str, game: Game) -> None:
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
    # the repr of Python ints and floats is what json.dumps writes for them
    body = "\n".join(f"[{m}, {v!r}]" for m, v in zip(masks.tolist(), values.tolist()))
    # write beside the target, then rename over it: an interrupted write
    # leaves the previous cache intact
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        tmp.write_text(header + "\n" + body + "\n", encoding="utf-8")
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def _game_with_cache(args) -> tuple[Game, dict, str, Optional[ModelSpec]]:
    n_players, char_fn, inputs, source, spec = _load_game_source(args)
    preloaded = None
    if args.cache and Path(args.cache).exists():
        preloaded = _load_cache(args.cache, source, n_players)
    game = Game(n_players, char_fn, preloaded=preloaded)
    return game, inputs, source, spec


# ---------------------------------------------------------------------------
# Estimator dispatch
# ---------------------------------------------------------------------------


def _early_stop(args) -> Optional[dict]:
    pair = {"window": args.early_stop_window, "epsilon": args.early_stop_eps}
    given = [v is not None for v in pair.values()]
    if any(given) and not all(given):
        raise UsageError("--early-stop-window and --early-stop-eps go together")
    # the window is the length of a deque, which must fit a C ssize_t
    if all(given) and pair["window"] > sys.maxsize:
        raise UsageError(f"--early-stop-window {pair['window']} is over {sys.maxsize}")
    return pair if all(given) else None


# --method -> (estimator, the report's params from the parsed arguments a, the
# estimator's arguments after the game from a and those params p).  The
# estimator is looked up by name when the method runs, so wrappers set on this
# module after import (the benchmark's set-up marker, its tracer) see the call.
_METHODS = {
    "exact": ("shapley_exact_subsets", lambda a: {"route": "subsets"}, lambda a, p: ()),
    "exact-perm": ("shapley_exact_permutations", lambda a: {"route": "permutations"},
                   lambda a, p: ()),
    "partial": (
        "shapley_partial",
        lambda a: {"high_d": a.high_d, "low_d": a.low_d, "renormalize": not a.raw_sum},
        lambda a, p: (SizeBand(high_d=p["high_d"], low_d=p["low_d"]), p["renormalize"]),
    ),
    "perm": (
        "shapley_sample_permutations",
        lambda a: {"perms": a.perms, "antithetic": a.antithetic, "early_stop": _early_stop(a)},
        lambda a, p: (SamplingConfig(
            n_permutations=p["perms"], seed=a.seed, antithetic=p["antithetic"],
            early_stop=p["early_stop"] and EarlyStop(**p["early_stop"])),),
    ),
    "kernel": (
        "shapley_regression",
        lambda a: {"samples": a.samples, "sampler": a.sampler, "ridge": a.ridge,
                   "enforce_efficiency": not a.no_efficiency, "fit_intercept": a.fit_intercept},
        lambda a, p: (RegressionConfig(
            n_samples=p["samples"], sampler=p["sampler"], seed=a.seed, ridge=p["ridge"],
            enforce_efficiency=p["enforce_efficiency"], fit_intercept=p["fit_intercept"]),),
    ),
}


def _run_method(game: Game, args):
    estimator, params_of, arguments_of = _METHODS[args.method]
    params = params_of(args)
    return globals()[estimator](game, *arguments_of(args, params)), params


def _provenance(inputs: dict, game: Game, params: dict, est=None) -> dict:
    doc = {
        "tool": "shaprank",
        "version": __version__,
        "inputs": inputs,
        "params": params,
        "n_players": game.n_players,
        "cache_hits": game.cache_hits,
        "seed": None,
    }
    if est is not None:
        doc["seed"] = est.seed
        doc["evals_used"] = est.evals_used
        if est.ridge_applied is not None:
            doc["ridge_applied"] = est.ridge_applied
            doc["condition"] = est.condition
    return doc


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_rank(args) -> int:
    game, inputs, source, _ = _game_with_cache(args)
    started = time.perf_counter()
    est, params = _run_method(game, args)
    elapsed = time.perf_counter() - started
    ranking = est.ranking()
    report = {
        "report": "ranking",
        "method": est.method,
        "order": ranking.order.tolist(),
        "scores": ranking.scores.tolist(),
        "values": est.values.tolist(),
        **_provenance(inputs, game, params, est),
    }
    if est.std_err is not None:
        report["std_err"] = est.std_err[ranking.order].tolist()
    write_json(report, args.out)
    if args.csv:
        _write_rank_csv(args.out, ranking, est)
    if args.cache:
        _save_cache(args.cache, source, game)
    _stderr_note({"command": "rank", "out": str(args.out), "wall_time_s": elapsed})
    return 0


def _write_rank_csv(out_path, ranking: Ranking, est) -> None:
    lines = ["position,player,score" + (",std_err" if est.std_err is not None else "")]
    for pos, (player, score) in enumerate(zip(ranking.order, ranking.scores)):
        row = f"{pos},{int(player)},{float(score)!r}"
        if est.std_err is not None:
            row += f",{float(est.std_err[player])!r}"
        lines.append(row)
    Path(str(out_path) + ".csv").write_text("\n".join(lines) + "\n", encoding="utf-8")


def _ranking_from_report(path) -> tuple[str, Ranking]:
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
        order, scores = doc["order"], doc["scores"]
        # Ranking would convert 0.7, true or "3"
        if not (isinstance(order, list) and isinstance(scores, list)
                and set(map(type, order)) <= JSON_INTEGER
                and set(map(type, scores)) <= JSON_NUMBER):
            raise ValueError("order must hold JSON integers and scores JSON numbers")
        ranking = Ranking(order=order, scores=scores)
    except (KeyError, TypeError, ValueError, OverflowError, RecursionError) as exc:
        raise FormatError(f"{path}: not a ranking report") from exc
    return Path(path).stem, ranking


def _rankings_to_score(args, oracle_rank: Ranking) -> Iterator[tuple[str, Ranking]]:
    """``(name, ranking)`` of the oracle rank, then of each ``--rank`` report,
    which must rank the oracle rank's players."""
    yield "oracle-rank", oracle_rank
    for path in args.rank or []:
        name, ranking = _ranking_from_report(path)
        if ranking.n_players != oracle_rank.n_players:
            raise FormatError(f"{path}: ranks {ranking.n_players} players, "
                              f"the game has {oracle_rank.n_players}")
        # importance rankings list best-to-keep first; removal benchmarks
        # judge what gets deleted first, so flip them
        yield name, ranking.reversed() if args.mode == "remove" else ranking


def cmd_oracle(args) -> int:
    game, inputs, source, _ = _game_with_cache(args)
    k_range = _parse_k_range(args.k_range, game.n_players)
    started = time.perf_counter()
    oracle = compute_oracle_subsets(game, args.mode, k_range)
    rankings = _rankings_to_score(args, build_oracle_rank(oracle))
    # reports are read lazily, each scored before the next is opened, so the
    # first bad report decides the error
    rows = [
        {"name": name, "order": ranking.order.tolist(),
         **score_report_dict(args.mode, score_ranking(ranking, oracle))}
        for name, ranking in rankings
    ]
    elapsed = time.perf_counter() - started
    report = {
        "report": "oracle",
        "mode": args.mode,
        "k_range": k_range,
        "oracle_subsets": {
            str(k): [list(c.members()) for c in oracle.per_k[k]] for k in oracle.k_range
        },
        "oracle_best_value": {str(k): oracle.best_value[k] for k in oracle.k_range},
        # the construction follows from the budget; the key keeps reports unchanged
        "rank_strategy": "auto",
        "scores": rows,
        **_provenance(inputs, game, {"mode": args.mode, "k_range": k_range}),
    }
    report["evals_used"] = game.eval_count
    write_json(report, args.out)
    if args.csv:
        _write_oracle_csv(args.out, rows)
    if args.cache:
        _save_cache(args.cache, source, game)
    _stderr_note({"command": "oracle", "out": str(args.out), "wall_time_s": elapsed})
    return 0


def _write_oracle_csv(out_path, rows) -> None:
    lines = ["name,k,jaccard,weighted_total"]
    for row in rows:
        for k, value in sorted(row["per_k"].items(), key=lambda kv: int(kv[0])):
            lines.append(f"{row['name']},{k},{value!r},{row['weighted_total']!r}")
    Path(str(out_path) + ".csv").write_text("\n".join(lines) + "\n", encoding="utf-8")


def cmd_prune(args) -> int:
    if args.game:
        raise UsageError("prune operates on --model/--data, not --game")
    if args.count is not None and args.fraction is not None:
        raise UsageError("give --count or --fraction, not both")
    if args.count is None and args.fraction is None:
        raise UsageError("need --count or --fraction")
    if args.fraction is not None and not 0 < args.fraction < 1:
        raise UsageError(f"--fraction must be in (0, 1), got {args.fraction}")
    game, inputs, source, spec = _game_with_cache(args)
    n = game.n_players
    count = args.count if args.count is not None else int(round(args.fraction * n))
    if not 0 < count < n:
        raise UsageError(f"remove count must be in (0, {n}), got {count}")

    started = time.perf_counter()
    est, params = _run_method(game, args)
    ranking = est.ranking()
    removed = sorted(int(p) for p in ranking.order[n - count:])
    kept = Coalition.from_members(
        (i for i in range(n) if i not in removed), n
    )
    nu_before = game.evaluate_mask(game.grand_mask)
    nu_after = game.evaluate_mask(kept.bits)
    elapsed = time.perf_counter() - started
    save_model(spec, args.out, removed=removed)

    summary = {
        "report": "prune",
        "method": est.method,
        "removed_players": removed,
        "kept_players": list(kept.members()),
        "nu_before": nu_before,
        "nu_after": nu_after,
        "count": count,
        **_provenance(inputs, game, params, est),
    }
    summary_path = args.summary or (str(args.out) + ".summary.json")
    write_json(summary, summary_path)
    if args.cache:
        _save_cache(args.cache, source, game)
    _stderr_note({"command": "prune", "out": str(args.out), "wall_time_s": elapsed})
    return 0


def cmd_train_toy(args) -> int:
    if args.data:
        inputs: dict = {}
        data = load_dataset_csv(args.data, inputs)
    else:
        data = make_blobs_dataset(seed=args.data_seed)
        inputs = {"data": f"blobs(seed={args.data_seed})"}
    fractions = _parse_fractions(args.split)
    parts = split_dataset(data, fractions, seed=args.split_seed)
    train_part = parts["train"]
    if train_part is None:
        raise UsageError(f"--split {args.split} leaves the training part empty")
    try:
        hidden = [int(h) for h in args.hidden.split(",") if h]
    except ValueError as exc:
        raise UsageError(f"--hidden expects comma-separated integers, got {args.hidden!r}") from exc
    started = time.perf_counter()
    spec = train_toy_model(
        hidden, train_part, epochs=args.epochs, lr=args.lr, seed=args.seed
    )
    elapsed = time.perf_counter() - started
    save_model(spec, args.out)
    if args.write_data:
        save_dataset_csv(data, args.write_data)
    grand = np.array([(1 << spec.n_players) - 1], dtype=np.uint64)
    train_acc = float(accuracy_char_fn(spec, train_part)(grand)[0])
    _stderr_note(
        {
            "command": "train-toy",
            "out": str(args.out),
            "train_accuracy": train_acc,
            "split": args.split,
            "inputs": inputs,
            "wall_time_s": elapsed,
        }
    )
    return 0


def cmd_make_fig2(args) -> int:
    save_game_json(make_fig2_game(), args.out)
    _stderr_note({"command": "make-fig2", "out": str(args.out)})
    return 0


# ---------------------------------------------------------------------------
# Argument wiring
# ---------------------------------------------------------------------------


def _add_game_source(p: _Parser) -> None:
    p.add_argument("--game", help="payoff-table game spec (JSON)")
    p.add_argument("--model", help="toy model file (JSON)")
    p.add_argument("--data", help="labeled dataset (CSV)")
    p.add_argument("--layer", type=int, default=None, help="prunable layer override")
    p.add_argument("--split", default="0:1:0", help="train:val:test fractions")
    p.add_argument("--split-seed", type=int, default=0)
    p.add_argument("--cache", help="coalition-value cache file (JSON lines)")
    p.add_argument(
        "--workers", type=int, default=1,
        help="accepted for compatibility; evaluation is sequential",
    )


def _add_method(p: _Parser) -> None:
    p.add_argument(
        "--method",
        required=True,
        choices=list(_METHODS),
    )
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--high-d", type=int, default=1, dest="high_d")
    p.add_argument("--low-d", type=int, default=None, dest="low_d")
    p.add_argument("--raw-sum", action="store_true", dest="raw_sum")
    p.add_argument("--perms", type=int, default=100)
    p.add_argument("--early-stop-window", type=int, default=None)
    p.add_argument("--early-stop-eps", type=_finite_float, default=None)
    p.add_argument("--antithetic", action="store_true")
    p.add_argument("--samples", type=int, default=1000)
    p.add_argument(
        "--sampler",
        default="size-stratified",
        choices=SAMPLERS,
    )
    p.add_argument("--ridge", type=_finite_float, default=1e-8)
    p.add_argument("--no-efficiency", action="store_true", dest="no_efficiency")
    p.add_argument("--fit-intercept", action="store_true", dest="fit_intercept")


def build_parser() -> _Parser:
    parser = _Parser(prog="shaprank", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_rank = sub.add_parser("rank", help="estimate player values and rank them")
    _add_game_source(p_rank)
    _add_method(p_rank)
    p_rank.add_argument("--out", required=True)
    p_rank.add_argument("--csv", action="store_true")
    p_rank.set_defaults(handler=cmd_rank)

    p_oracle = sub.add_parser("oracle", help="oracle subsets, reference rank, scores")
    _add_game_source(p_oracle)
    p_oracle.add_argument("--mode", required=True, choices=["keep", "remove"])
    p_oracle.add_argument("--k-range", required=True, dest="k_range")
    p_oracle.add_argument(
        "--rank", action="append", help="ranking report to score (repeatable)"
    )
    p_oracle.add_argument("--out", required=True)
    p_oracle.add_argument("--csv", action="store_true")
    p_oracle.set_defaults(handler=cmd_oracle)

    p_prune = sub.add_parser("prune", help="mask the least important units")
    _add_game_source(p_prune)
    _add_method(p_prune)
    p_prune.add_argument("--count", type=int, default=None)
    p_prune.add_argument("--fraction", type=float, default=None)
    p_prune.add_argument("--out", required=True)
    p_prune.add_argument("--summary", default=None)
    p_prune.set_defaults(handler=cmd_prune)

    p_train = sub.add_parser("train-toy", help="train a small dense fixture model")
    p_train.add_argument("--out", required=True)
    p_train.add_argument("--data", help="CSV dataset; omit for bundled blobs")
    p_train.add_argument("--data-seed", type=int, default=0)
    p_train.add_argument("--hidden", default="16")
    p_train.add_argument("--epochs", type=int, default=200)
    p_train.add_argument("--lr", type=_finite_float, default=0.1)
    p_train.add_argument("--seed", type=int, default=0)
    p_train.add_argument("--split", default="1:0:0")
    p_train.add_argument("--split-seed", type=int, default=0)
    p_train.add_argument("--write-data", default=None)
    p_train.set_defaults(handler=cmd_train_toy)

    p_fig2 = sub.add_parser("make-fig2", help="write the bundled 3-player demo game")
    p_fig2.add_argument("--out", required=True)
    p_fig2.set_defaults(handler=cmd_make_fig2)

    return parser


# first match wins; LinAlgError is a ValueError, so it comes before that
_EXIT_CODES: list[tuple[type, int]] = [
    (UsageError, 2),
    (InvalidBandError, 2),
    (np.linalg.LinAlgError, 4),
    (ValueError, 2),
    (CapacityError, 3),
    (BudgetError, 3),
    (SingularSystemError, 4),
    (TrainingDivergedError, 4),
    (CharacteristicFunctionError, 4),
    (FormatError, 5),
    (OSError, 5),
]


def _exit_code_for(exc: BaseException) -> int:
    for klass, code in _EXIT_CODES:
        if isinstance(exc, klass):
            return code
    return 1


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.handler(args)
    except Exception as exc:  # noqa: BLE001 - single funnel to structured stderr
        code = _exit_code_for(exc)
        print(
            json.dumps(
                {
                    "error": type(exc).__name__,
                    "message": str(exc),
                    "exit_code": code,
                },
                sort_keys=True,
            ),
            file=sys.stderr,
        )
        return code


if __name__ == "__main__":
    sys.exit(main())
