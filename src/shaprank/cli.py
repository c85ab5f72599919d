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
    TrainingDivergedError,
)
from .exact import shapley_exact_permutations, shapley_exact_subsets
from .formats import (
    check_labels,
    check_model_data,
    load_cache,
    load_dataset_csv,
    load_game_json,
    load_model,
    ranking_from_report,
    save_cache,
    save_dataset_csv,
    save_game_json,
    save_model,
    write_json,
    write_oracle_csv,
    write_rank_csv,
)
from .games import (
    ENUMERATION_BUDGET,
    MAX_PLAYERS,
    Game,
    Ranking,
    make_fig2_game,
    mask_from_members,
)
from .oracle import build_oracle_rank, compute_oracle_subsets, score_ranking, score_report_dict
from .partial import SizeBand, shapley_partial
from .regression import SAMPLERS, RegressionConfig, shapley_regression
from .sampling import EarlyStop, SamplingConfig, shapley_sample_permutations
from .toynet import (
    check_hidden,
    make_blobs_dataset,
    split_dataset,
    train_toy_model,
    ModelSpec,
    accuracy_char_fn,
)


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
    """argparse ``type`` of ``--epochs`` and of the seed flags that seed
    numpy's generators, which take no negative seed."""
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


def _load_game(args) -> tuple[Game, dict, str, Optional[ModelSpec]]:
    """Resolve --game or --model/--data into (game holding the --cache
    file's payoffs, input provenance dict, cache source fingerprint, model
    spec or None)."""
    if args.game and args.model:
        raise UsageError("give either --game or --model, not both")
    # the loaders record the sha256 of each file they read: the game; or, in
    # this order, the model, its binary sidecar if it has one, and the dataset
    inputs: dict = {}
    spec = None
    if args.game:
        for flag in ("data", "layer", "split", "split_seed"):
            if getattr(args, flag) is not None:
                raise UsageError(f"--{flag.replace('_', '-')} applies to --model, not --game")
        table = load_game_json(args.game, inputs)
        n_players, char_fn, source = table.n_players, table.values.__getitem__, inputs["game"]
    else:
        if not args.model or not args.data:
            raise UsageError("need --game, or --model together with --data")
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
        split = "0:1:0" if args.split is None else args.split
        split_seed = args.split_seed or 0
        fractions = _parse_fractions(split)
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
    return Game(n_players, char_fn, preloaded=preloaded), inputs, source, spec


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


METHODS = ("exact", "exact-perm", "partial", "perm", "kernel")


def _estimate(game: Game, args):
    """Run --method on ``game``: (estimate, the report's params).  Each
    estimator is called by its name in this module, which is looked up when
    the call runs, so wrappers set on this module after import (the
    benchmark's set-up marker, its tracer) see the call."""
    if args.method == "exact":
        return shapley_exact_subsets(game), {"route": "subsets"}
    if args.method == "exact-perm":
        return shapley_exact_permutations(game), {"route": "permutations"}
    if args.method == "partial":
        params = {"high_d": args.high_d, "low_d": args.low_d, "renormalize": not args.raw_sum}
        band = SizeBand(high_d=args.high_d, low_d=args.low_d)
        return shapley_partial(game, band, params["renormalize"]), params
    if args.method == "perm":
        early_stop = _early_stop(args)
        params = {"perms": args.perms, "antithetic": args.antithetic, "early_stop": early_stop}
        cfg = SamplingConfig(
            n_permutations=args.perms, seed=args.seed, antithetic=args.antithetic,
            early_stop=early_stop and EarlyStop(**early_stop))
        return shapley_sample_permutations(game, cfg), params
    # kernel: every sampler but the exhaustive one draws from numpy's
    # generator, which takes no negative seed
    if args.sampler != "exhaustive" and args.seed < 0:
        raise UsageError(f"argument --seed: must be a non-negative integer for the "
                         f"{args.sampler} sampler, got '{args.seed}'")
    params = {"samples": args.samples, "sampler": args.sampler, "ridge": args.ridge,
              "enforce_efficiency": not args.no_efficiency, "fit_intercept": args.fit_intercept}
    cfg = RegressionConfig(
        n_samples=args.samples, sampler=args.sampler, seed=args.seed, ridge=args.ridge,
        enforce_efficiency=not args.no_efficiency, fit_intercept=args.fit_intercept)
    return shapley_regression(game, cfg), params


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
    game, inputs, source, _ = _load_game(args)
    started = time.perf_counter()
    est, params = _estimate(game, args)
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
    game, inputs, source, _ = _load_game(args)
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
    game, inputs, source, spec = _load_game(args)
    n = game.n_players
    count = args.count if args.count is not None else int(round(args.fraction * n))
    if not 0 < count < n:
        raise UsageError(f"remove count must be in (0, {n}), got {count}")

    started = time.perf_counter()
    est, params = _estimate(game, args)
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


def cmd_train_toy(args) -> int:
    try:
        hidden = [int(h) for h in args.hidden.split(",") if h]
    except ValueError as exc:
        raise UsageError(f"--hidden expects comma-separated integers, got {args.hidden!r}") from exc
    hidden = check_hidden(hidden)
    if args.data:
        inputs: dict = {}
        data = load_dataset_csv(args.data, inputs)
        # the trainer makes a class of each label up to the largest
        classes = int(data.labels.max()) + 1
        check_labels(data, classes, args.data)
        # and holds rows x classes one-hot targets, and classes x (width
        # feeding the head) head weights and their gradient
        head_inputs = hidden[-1] if hidden else data.inputs.shape[1]
        if classes * max(data.size, head_inputs) > ENUMERATION_BUDGET:
            row = int(data.labels.argmax())
            raise BudgetError(f"{args.data}:{row + 2}: label {data.labels[row]} asks for {classes} "
                              f"classes; {classes} classes x max({data.size} rows, {head_inputs} "
                              f"head inputs) are over the {ENUMERATION_BUDGET} budget")
    else:
        data = make_blobs_dataset(seed=args.data_seed)
        inputs = {"data": f"blobs(seed={args.data_seed})"}
    fractions = _parse_fractions(args.split)
    parts = split_dataset(data, fractions, seed=args.split_seed)
    train_part = parts["train"]
    if train_part is None:
        raise UsageError(f"--split {args.split} leaves the training part empty")
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
    p_train.add_argument("--data-seed", type=_non_negative, default=0)
    p_train.add_argument("--hidden", default="16")
    p_train.add_argument("--epochs", type=_non_negative, default=200)
    p_train.add_argument("--lr", type=_finite_float, default=0.1)
    p_train.add_argument("--seed", type=_non_negative, default=0)
    p_train.add_argument("--split", default="1:0:0")
    p_train.add_argument("--split-seed", type=_non_negative, default=0)
    p_train.add_argument("--write-data", default=None)
    p_train.set_defaults(handler=cmd_train_toy)

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
        _stderr_note({"error": type(exc).__name__, "message": str(exc), "exit_code": code})
        return code


if __name__ == "__main__":
    sys.exit(main())
