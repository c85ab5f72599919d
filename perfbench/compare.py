"""Compare two result files written by ``run.py --out``.

For each workload and metric it prints both sides' medians and quartiles
over the runs in each file, the change of the medians, and a verdict against
the bounds in ``BENCHMARK.json``:

- ``REGRESSION``: the median got worse by more than the metric's bound;
- ``unresolved``: not a regression, but one side's quartile spread is wider
  than the bound, so "unchanged" cannot be told from noise;
- ``GAIN``: better by more than the first side's own spread, and the second
  side wins at least 9 in 10 of the runs paired by seed, over at least 10
  pairs;
- ``no change`` otherwise.

Per-invocation times (``exact_s``, ...) take the bound of ``wall_s``.  Layer
metrics have no bound; their medians are printed for the trace.  The exit
code is 1 if any verdict is ``REGRESSION``.
"""

from __future__ import annotations

import json
import math
import statistics
from collections import defaultdict
from pathlib import Path

GAIN_SHARE = 0.9
MIN_PAIRS = 10


def _load(path: str) -> dict[str, dict[str, dict]]:
    """workload -> metric -> {"unit", "runs": {seed: value}}"""
    table: dict[str, dict[str, dict]] = defaultdict(dict)
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        if not line.strip():
            continue
        result = json.loads(line)
        for section in ("metrics", "layers"):
            for name, m in result[section].items():
                entry = table[result["workload"]].setdefault(
                    name, {"unit": m["unit"], "layer": section == "layers", "runs": {}}
                )
                entry["runs"][result["seed"]] = m["value"]
        entry = table[result["workload"]].setdefault(
            "error_rate", {"unit": "ratio", "layer": False, "runs": {}}
        )
        entry["runs"][result["seed"]] = result["error_rate"]
    return table


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def _rule(name: str, layer: bool, declared: dict) -> tuple[str, float | None]:
    """(better, bound) of a metric."""
    if name in declared:
        return declared[name]["better"], declared[name]["bound"]
    if name == "error_rate":
        return "lower", 0.0
    better = "higher" if "hit_ratio" in name else "lower"
    if layer:
        return better, None
    return better, declared.get("wall_s", {}).get("bound")


def verdict(before: dict, after: dict, better: str, bound: float | None) -> tuple[float, str]:
    """Relative change of the medians (positive = worse) and the verdict."""
    q1b, mb, q3b = _quartiles(list(before.values()))
    q1a, ma, q3a = _quartiles(list(after.values()))
    sign = 1.0 if better == "lower" else -1.0
    if mb == 0:
        worse = 0.0 if ma == mb else sign * math.copysign(math.inf, ma)
    else:
        worse = sign * (ma - mb) / abs(mb)
    if bound is None:
        return worse, "-"
    if worse > bound:
        return worse, "REGRESSION"
    spread_b = (q3b - q1b) / abs(mb) if mb else 0.0
    spread_a = (q3a - q1a) / abs(ma) if ma else 0.0
    seeds = set(before) & set(after)
    wins = sum(sign * (after[s] - before[s]) < 0 for s in seeds)
    if -worse > spread_b and len(seeds) >= MIN_PAIRS and wins >= GAIN_SHARE * len(seeds):
        return worse, "GAIN"
    if max(spread_b, spread_a) > bound:
        return worse, "unresolved"
    return worse, "no change"


def compare(before_path: str, after_path: str) -> int:
    benchmark = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
    declared = {m["name"]: m for m in json.loads(benchmark.read_text())["end_to_end"]}
    before, after = _load(before_path), _load(after_path)
    regressions = 0
    for workload in sorted(set(before) | set(after)):
        print(f"== {workload}")
        print(f"  {'metric':<28} {'unit':<6} {'before median [q1, q3] n':<34} "
              f"{'after median [q1, q3] n':<34} {'worse by':>9}  verdict")
        a_side, b_side = before.get(workload, {}), after.get(workload, {})
        for name in list(a_side) + [n for n in b_side if n not in a_side]:
            if name not in a_side or name not in b_side:
                print(f"  {name:<28} only in {'before' if name in a_side else 'after'}")
                continue
            a, b = a_side[name], b_side[name]
            better, bound = _rule(name, a["layer"], declared)
            worse, word = verdict(a["runs"], b["runs"], better, bound)
            regressions += word == "REGRESSION"
            cells = []
            for side in (a, b):
                q1, med, q3 = _quartiles(list(side["runs"].values()))
                cells.append(f"{med:.4g} [{q1:.4g}, {q3:.4g}] {len(side['runs'])}")
            print(f"  {name:<28} {a['unit']:<6} {cells[0]:<34} {cells[1]:<34} "
                  f"{worse:>+9.1%}  {word}")
    return 1 if regressions else 0
