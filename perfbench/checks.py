"""Output checks for one pass, against references computed from the inputs.

``check_pass`` returns, per invocation, the list of problems found; an
invocation with any problem counts as failed.  Efficiency (values summing to
``v(N) - v(empty)``) is checked for every efficient estimator; the band sums
of ``partial`` are not efficient, so they are checked against an independent
reference instead.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

TOL = 1e-9


def output_files(argv: list[str]) -> list[str]:
    """Files an invocation writes, relative to the pass directory."""
    out = argv[argv.index("--out") + 1]
    files = [out]
    if argv[0] == "prune":
        files.append(out + ".summary.json")
    if "--cache" in argv:
        files.append(argv[argv.index("--cache") + 1])
    return files


def _load(path: Path) -> dict:
    return json.loads(path.read_text(encoding="utf-8"))


def _efficiency(report: dict, target: float) -> list[str]:
    total = float(np.sum(report["values"]))
    if abs(total - target) > TOL * max(1.0, abs(target)):
        return [f"values sum to {total!r}, v(N) - v(empty) is {target!r}"]
    return []


def _matches(report: dict, reference, what: str, tol: float = TOL) -> list[str]:
    values = np.asarray(report["values"], dtype=np.float64)
    reference = np.asarray(reference, dtype=np.float64)
    if values.shape != reference.shape:
        return [f"{values.size} values, {what} has {reference.size}"]
    worst = float(np.max(np.abs(values - reference)))
    if worst > tol:
        return [f"values differ from {what} by {worst:.3g}"]
    return []


def _oracle_rank_is_best(report: dict) -> list[str]:
    rows = {row["name"]: row["weighted_total"] for row in report["scores"]}
    best = rows.pop("oracle-rank")
    worse = [name for name, total in rows.items() if total > best + 1e-12]
    return [f"row {name} outscores oracle-rank" for name in worse]


def _check_tables(kind: str, d: Path, refs: dict) -> list[str]:
    if kind == "exact":
        report = _load(d / "exact.json")
        return _efficiency(report, refs["large_target"]) + _matches(
            report, refs["large_exact"], "the numpy subset sum"
        )
    if kind == "partial":
        return _matches(_load(d / "partial.json"), refs["large_partial"], "the numpy band sum")
    if kind == "oracle":
        report = _load(d / "oracle.json")
        problems = _oracle_rank_is_best(report)
        for k, best in refs["large_best_removal"].items():
            got = report["oracle_best_value"][str(k)]
            if got != best:
                problems.append(f"oracle best value for k={k} is {got!r}, expected {best!r}")
        return problems
    report = _load(d / "exact_perm.json")
    return _efficiency(report, refs["small_target"]) + _matches(
        report, refs["small_exact"], "the numpy subset sum"
    )


def _check_n14(kind: str, d: Path, refs: dict) -> list[str]:
    if kind == "exact":
        return _efficiency(_load(d / "exact.json"), refs["target"])
    if kind == "kernel":
        # with every proper coalition as a row, regression recovers the
        # exact values up to the conditioning of the normal equations
        report = _load(d / "kernel.json")
        return _efficiency(report, refs["target"]) + _matches(
            report, _load(d / "exact.json")["values"], "the exact report", tol=1e-6
        )
    if kind == "oracle":
        return _oracle_rank_is_best(_load(d / "oracle.json"))
    summary = _load(d / "pruned.json.summary.json")
    exact_order = _load(d / "exact.json")["order"]
    problems = []
    if summary["removed_players"] != sorted(exact_order[-4:]):
        problems.append("prune removed other units than the 4 last of the exact ranking")
    if summary["nu_before"] != refs["grand_value"]:
        problems.append(f"nu_before {summary['nu_before']!r} != v(N) {refs['grand_value']!r}")
    return problems


def _check_n32(kind: str, d: Path, refs: dict) -> list[str]:
    report = _load(d / f"{kind}.json")
    if kind == "partial":
        return _matches(report, refs["partial"], "the numpy band sum")
    return _efficiency(report, refs["target"])


CHECKS = {"tables": _check_tables, "toynet-n14": _check_n14, "toynet-n32": _check_n32}


def check_pass(workload: str, pass_dir: Path, records: list[dict], refs: dict) -> list[list[str]]:
    """Problems per invocation: non-zero exit, then the report checks."""
    problems = []
    for record in records:
        if record["exit_code"] != 0:
            problems.append([f"exit code {record['exit_code']}: {record['stderr'].strip()}"])
            continue
        try:
            problems.append(CHECKS[workload](record["kind"], pass_dir, refs))
        except (OSError, KeyError, ValueError, TypeError) as exc:
            problems.append([f"unreadable report: {type(exc).__name__}: {exc}"])
    return problems


def identical_outputs(first: Path, other: Path, argvs: list[list[str]]) -> list[list[str]]:
    """Per invocation, the files it wrote last that differ from the first pass."""
    owner = {}
    for index, argv in enumerate(argvs):
        for name in output_files(argv):
            owner[name] = index
    problems: list[list[str]] = [[] for _ in argvs]
    for name, index in owner.items():
        a, b = first / name, other / name
        if not (a.exists() and b.exists() and a.read_bytes() == b.read_bytes()):
            problems[index].append(f"{name} differs from the first pass")
    return problems
