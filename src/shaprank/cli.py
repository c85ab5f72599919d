"""Command-line front end: rank players, benchmark rankings, prune models.

Subcommands: ``rank``, ``oracle``, ``prune``, ``make-fig2``.
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
    ShapRankError,
    SingularSystemError,
)
from .exact import shapley_exact_permutations, shapley_exact_subsets
from .formats import (
    check_model_data,
    load_cache,
    load_dataset_csv,
    load_game_json,
    load_model,
    ranking_from_report,
    save_cache,
    save_game_json,
    save_model,
    write_json,
    write_oracle_csv,
    write_rank_csv,
)
from .games import MAX_PLAYERS, Game, Ranking, make_fig2_game, mask_from_members
from .oracle import build_oracle_rank, compute_oracle_subsets, score_ranking, score_report_dict
from .partial import SizeBand, shapley_partial
from .regression import SAMPLERS, RegressionConfig, shapley_regression
from .sampling import EarlyStop, SamplingConfig, shapley_sample_permutations
from .toynet import ModelSpec, accuracy_char_fn, split_dataset


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


def _non_negative(text: str) -> int:
    """argparse ``type`` of the seed flags that seed numpy's generators,
    which take no negative seed."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {text!r}")
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
# Game sources
# ---------------------------------------------------------------------------


def _check_output_dirs(args) -> None:
    """Fail before any input is read if a file the command would write has
    no directory to go in (``--csv`` and the default ``--summary`` go
    beside ``--out``), rather than after the estimate it would hold.  The
    handlers call it after the usage errors the command line alone shows."""
    for flag in ("out", "summary", "cache"):
        path = getattr(args, flag, None)
        if path and not Path(path).parent.is_dir():
            raise FileNotFoundError(f"--{flag} {path}: "
                                    f"directory {Path(path).parent} does not exist")


def _load_game(args) -> tuple[Game, dict, str, Optional[ModelSpec], object]:
    """Resolve --game or --model/--data into (game holding the --cache
    file's payoffs, input provenance dict, cache source fingerprint, model
    spec or None, ``--method``'s config)."""
    if args.game and args.model:
        raise UsageError("give either --game or --model, not both")
    if args.game:
        for flag in ("data", "layer", "split", "split_seed"):
            if getattr(args, flag) is not None:
                raise UsageError(f"--{flag.replace('_', '-')} applies to --model, not --game")
    elif not args.model or not args.data:
        raise UsageError("need --game, or --model together with --data")
    split = "0:1:0" if args.split is None else args.split
    fractions = _parse_fractions(split)
    config = _method_config(args)
    _check_output_dirs(args)
    # the loaders record the sha256 of each file they read: the game; or, in
    # this order, the model, its binary sidecar if it has one, and the dataset
    inputs: dict = {}
    spec = None
    if args.game:
        table = load_game_json(args.game, inputs)
        n_players, char_fn, source = table.n_players, table.values.__getitem__, inputs["game"]
    else:
        spec = load_model(args.model, inputs)
        if args.layer is not None:
            if not 0 <= args.layer < len(spec.layers):
                raise UsageError(f"--layer {args.layer} out of range")
            spec = spec.with_prunable_layer(args.layer)
        if spec.n_players > MAX_PLAYERS:
            raise CapacityError(f"{args.model}: layer {spec.prunable_layer} has {spec.n_players} "
                                f"units, over the {MAX_PLAYERS}-player limit")
        data = load_dataset_csv(args.data, inputs)
        check_model_data(spec, data, args.data)
        split_seed = args.split_seed or 0
        if fractions[0] == fractions[2] == 0 < fractions[1]:
            # every payoff is a hit count over the rows, which their order
            # does not change, so a split that sets no rows aside keeps the
            # file's order and skips the shuffle
            val = data
        else:
            val = split_dataset(data, fractions, seed=split_seed)["val"]
        if val is None:
            raise UsageError(f"--split {split} leaves the validation part empty")
        source = _sha256_text(
            "|".join(
                [
                    *inputs.values(),
                    f"layer={spec.prunable_layer}",
                    f"split={split}",
                    f"split_seed={split_seed}",
                ]
            )
        )
        inputs.update(layer=spec.prunable_layer, split=split, split_seed=split_seed)
        n_players, char_fn = spec.n_players, accuracy_char_fn(spec, val)
    preloaded = None
    if args.cache and Path(args.cache).exists():
        preloaded = load_cache(args.cache, source, n_players)
    return Game(n_players, char_fn, preloaded=preloaded), inputs, source, spec, config


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


def _method_config(args):
    """``--method``'s config, or None (``exact``, ``exact-perm`` and
    ``oracle`` take none), built before any input is read: the usage errors
    of its flags that the command line alone shows come first.  A config
    check's error is re-raised in its own class, naming the flag and the
    value it was given."""
    method = getattr(args, "method", None)
    try:
        if method == "partial":
            return SizeBand(high_d=args.high_d, low_d=args.low_d)
        if method == "perm":
            early_stop = _early_stop(args)
            return SamplingConfig(
                n_permutations=args.perms, seed=args.seed, antithetic=args.antithetic,
                early_stop=early_stop and EarlyStop(**early_stop))
        if method != "kernel":
            return None
        # every kernel sampler but the exhaustive one draws from numpy's
        # generator, which takes no negative seed
        if args.sampler != "exhaustive" and args.seed < 0:
            raise UsageError(f"argument --seed: must be a non-negative integer for the "
                             f"{args.sampler} sampler, got '{args.seed}'")
        return RegressionConfig(
            n_samples=args.samples, sampler=args.sampler, seed=args.seed, ridge=args.ridge)
    except ValueError as exc:
        # each check's message starts with the name of the field it checks
        fields = {"n_permutations": "--perms", "n_samples": "--samples", "ridge": "--ridge",
                  "high_d": "--high-d", "low_d": "--low-d",
                  "early-stop window": "--early-stop-window",
                  "early-stop epsilon": "--early-stop-eps"}
        flag = next((f for field, f in fields.items() if str(exc).startswith(field + " ")), None)
        if flag is None:
            raise
        value = getattr(args, flag[2:].replace("-", "_"))
        raise type(exc)(f"argument {flag}: {exc}, got '{value}'") from exc


METHODS = ("exact", "exact-perm", "partial", "perm", "kernel")


def _estimate(game: Game, args, config):
    """Run --method on ``game`` with its ``config`` from
    ``_method_config``: (estimate, the report's params).  Each
    estimator is called by its name in this module, which is looked up when
    the call runs, so wrappers set on this module after import (the
    benchmark's set-up marker, its tracer) see the call."""
    if args.method == "exact":
        return shapley_exact_subsets(game), {"route": "subsets"}
    if args.method == "exact-perm":
        return shapley_exact_permutations(game), {"route": "permutations"}
    if args.method == "partial":
        return shapley_partial(game, config), {"high_d": args.high_d, "low_d": args.low_d}
    if args.method == "perm":
        params = {"perms": args.perms, "antithetic": args.antithetic,
                  "early_stop": _early_stop(args)}
        return shapley_sample_permutations(game, config), params
    params = {"samples": args.samples, "sampler": args.sampler, "ridge": args.ridge}
    return shapley_regression(game, config), params


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
    game, inputs, source, _, config = _load_game(args)
    started = time.perf_counter()
    est, params = _estimate(game, args, config)
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
        write_rank_csv(args.out, ranking, est)
    if args.cache:
        save_cache(args.cache, source, game)
    _stderr_note({"command": "rank", "out": str(args.out), "wall_time_s": elapsed})
    return 0


def _rankings_to_score(args, oracle_rank: Ranking) -> Iterator[tuple[str, Ranking]]:
    """``(name, ranking)`` of the oracle rank, then of each ``--rank`` report,
    which must rank the oracle rank's players."""
    yield "oracle-rank", oracle_rank
    for path in args.rank or []:
        name, ranking = ranking_from_report(path)
        if ranking.n_players != oracle_rank.n_players:
            raise FormatError(f"{path}: ranks {ranking.n_players} players, "
                              f"the game has {oracle_rank.n_players}")
        # importance rankings list best-to-keep first; removal benchmarks
        # judge what gets deleted first, so flip them
        yield name, ranking.reversed() if args.mode == "remove" else ranking


def cmd_oracle(args) -> int:
    game, inputs, source, _, _ = _load_game(args)
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
            str(k): [[i for i in range(game.n_players) if mask >> i & 1]
                     for mask in oracle.per_k[k].tolist()]
            for k in oracle.k_range
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
        write_oracle_csv(args.out, rows)
    if args.cache:
        save_cache(args.cache, source, game)
    _stderr_note({"command": "oracle", "out": str(args.out), "wall_time_s": elapsed})
    return 0


def cmd_prune(args) -> int:
    if args.game:
        raise UsageError("prune operates on --model/--data, not --game")
    if args.count is not None and args.fraction is not None:
        raise UsageError("give --count or --fraction, not both")
    if args.count is None and args.fraction is None:
        raise UsageError("need --count or --fraction")
    if args.fraction is not None and not 0 < args.fraction < 1:
        raise UsageError(f"--fraction must be in (0, 1), got {args.fraction}")
    game, inputs, source, spec, config = _load_game(args)
    n = game.n_players
    count = args.count if args.count is not None else int(round(args.fraction * n))
    if not 0 < count < n:
        raise UsageError(f"remove count must be in (0, {n}), got {count}")

    started = time.perf_counter()
    est, params = _estimate(game, args, config)
    ranking = est.ranking()
    removed = sorted(int(p) for p in ranking.order[n - count:])
    kept = [i for i in range(n) if i not in removed]
    nu_before = game.evaluate_mask(game.grand_mask)
    nu_after = game.evaluate_mask(mask_from_members(kept, n))
    elapsed = time.perf_counter() - started
    save_model(spec, args.out, removed=removed)

    summary = {
        "report": "prune",
        "method": est.method,
        "removed_players": removed,
        "kept_players": kept,
        "nu_before": nu_before,
        "nu_after": nu_after,
        "count": count,
        **_provenance(inputs, game, params, est),
    }
    summary_path = args.summary or (str(args.out) + ".summary.json")
    write_json(summary, summary_path)
    if args.cache:
        save_cache(args.cache, source, game)
    _stderr_note({"command": "prune", "out": str(args.out), "wall_time_s": elapsed})
    return 0


def cmd_make_fig2(args) -> int:
    _check_output_dirs(args)
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
    p.add_argument("--split", help="train:val:test fractions (default 0:1:0)")
    p.add_argument("--split-seed", type=_non_negative)
    p.add_argument("--cache", help="coalition-value cache file (JSON lines)")
    p.add_argument(
        "--workers", type=int, default=1,
        help="accepted for compatibility; evaluation is sequential",
    )


def _add_method(p: _Parser) -> None:
    p.add_argument(
        "--method",
        required=True,
        choices=METHODS,
    )
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--high-d", type=int, default=1, dest="high_d")
    p.add_argument("--low-d", type=int, default=None, dest="low_d")
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

    p_fig2 = sub.add_parser("make-fig2", help="write the bundled 3-player demo game")
    p_fig2.add_argument("--out", required=True)
    p_fig2.set_defaults(handler=cmd_make_fig2)

    return parser


# first match wins; LinAlgError is a ValueError, so it comes before that
_EXIT_CODES: list[tuple[type, int]] = [
    (UsageError, 2),
    (np.linalg.LinAlgError, 4),
    (ValueError, 2),
    (CapacityError, 3),
    (BudgetError, 3),
    (SingularSystemError, 4),
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
        _stderr_note({"error": type(exc).__name__, "message": str(exc), "exit_code": code})
        return code


if __name__ == "__main__":
    sys.exit(main())
