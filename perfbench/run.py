"""shaprank benchmark: run one workload for a fixed time and check every output.

Run from the root of a checkout:

    python3 perfbench/run.py --workload tables --seed 1 --seconds 28 --trace 0
    python3 perfbench/run.py --compare before.jsonl after.jsonl

A run generates the workload's inputs from ``--seed`` (untimed), then runs
passes until ``--seconds`` have gone by, and at least two.  A pass is one
fresh Python process (``worker.py``) that calls ``shaprank.cli.main`` once
per invocation of the workload, each after the previous one returns: a
closed loop with one caller.  Every report is checked, and reports must be
byte-identical between the passes of a run.  Metrics are medians over the
passes.  With ``--trace 1`` traced and untraced passes alternate and the
per-layer metrics come from the traced ones; ``trace.overhead_s`` is the
median, over adjacent pairs, of the traced pass's wall time minus the
untraced one's.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``--out FILE`` also appends every
metric of the run, per-invocation times included, to FILE as one JSON line;
``--compare`` reads two such files.
"""

from __future__ import annotations

import os

# Cap BLAS at one thread in this process and the pass processes it starts,
# before numpy is first imported.  The only parallel step left is
# `prune --workers 2`.
BLAS_THREADS = "1"
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse
import compileall
import json
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from checks import check_pass, identical_outputs
from inputs import make_inputs
from tracer import layer_metrics
from workloads import WORKLOADS, invocations

HERE = Path(__file__).resolve().parent
MIN_PASSES = 2
RUN_LIMIT_S = 165.0  # a run must end within 180 s

BENCHMARK = HERE.parent / "BENCHMARK.json"


def pass_metrics(doc: dict) -> dict[str, tuple[float, str]]:
    """End-to-end metrics of one untraced pass."""
    records = doc["invocations"]
    out = {
        "wall_s": (doc["import_s"] + sum(r["wall_s"] for r in records), "s"),
        "setup_s": (doc["import_s"] + sum(r["setup_s"] for r in records), "s"),
        "peak_rss_mib": (doc["peak_rss_mib"], "MiB"),
    }
    for record in records:
        name = record["kind"] + "_s"
        out[name] = (out.get(name, (0.0, "s"))[0] + record["wall_s"], "s")
    return out


def traced_metrics(doc: dict) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced pass, plus each invocation's hit ratio."""
    out = layer_metrics([r["trace"] for r in doc["invocations"]])
    for record in doc["invocations"]:
        ratio = layer_metrics([record["trace"]])["games.hit_ratio"]
        out[f"games.hit_ratio[{record['kind']}]"] = ratio
    return out


def medians(per_pass: list[dict[str, tuple[float, str]]]) -> dict[str, tuple[float, str]]:
    names = [name for name in per_pass[0] if all(name in p for p in per_pass)]
    return {n: (statistics.median(p[n][0] for p in per_pass), per_pass[0][n][1]) for n in names}


def run_pass(workload: str, seed: int, traced: bool, pass_dir: Path, src: Path,
             timeout: float) -> dict | None:
    """One pass in a fresh process; ``None`` if it crashed or ran out of time."""
    pass_dir.mkdir()
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--trace", "1" if traced else "0"]
    try:
        proc = subprocess.run(cmd, cwd=pass_dir, env=env, capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        print(f"pass {pass_dir.name}: killed after {timeout:.0f} s", file=sys.stderr)
        return None
    if proc.returncode != 0 or not (pass_dir / "pass.json").exists():
        print(f"pass {pass_dir.name} crashed:\n{proc.stderr[-2000:]}", file=sys.stderr)
        return None
    return json.loads((pass_dir / "pass.json").read_text(encoding="utf-8"))


def run(args, src: Path, work: Path) -> dict:
    begun = time.monotonic()
    refs = make_inputs(args.workload, args.seed, work / "inputs")
    # every pass, the first one too, then imports shaprank from bytecode
    compileall.compile_dir(str(src), quiet=1)
    argvs = [argv for _, argv in invocations(args.workload, args.seed)]
    untraced, traced = [], []
    attempted = failed = 0
    problems: list[str] = []
    first_dir = None
    measuring_from = time.monotonic()
    last_pass_s = 0.0
    index = 0
    while True:
        done = len(untraced) + len(traced)
        enough = done >= MIN_PASSES and done % 2 == 0 if args.trace else done >= MIN_PASSES
        if enough and time.monotonic() - measuring_from >= args.seconds:
            break
        left = RUN_LIMIT_S - (time.monotonic() - begun)
        if enough and left < 1.5 * last_pass_s * (2 if args.trace else 1):
            break
        is_traced = bool(args.trace) and index % 2 == 1
        pass_dir = work / f"pass{index}"
        started = time.monotonic()
        doc = run_pass(args.workload, args.seed, is_traced, pass_dir, src, max(left, 1.0))
        last_pass_s = time.monotonic() - started
        index += 1
        attempted += len(argvs)
        if doc is None:
            failed += len(argvs)
            problems.append(f"{pass_dir.name}: pass did not finish")
            break
        found = check_pass(args.workload, pass_dir, doc["invocations"], refs)
        if first_dir is None:
            first_dir = pass_dir
        else:
            for mine, same in zip(found, identical_outputs(first_dir, pass_dir, argvs)):
                mine += same
        for record, mine in zip(doc["invocations"], found):
            if mine:
                failed += 1
                problems += [f"{pass_dir.name} {record['kind']}: {p}" for p in mine]
        (traced if is_traced else untraced).append(doc)

    per_pass = [pass_metrics(d) for d in untraced]
    metrics = medians(per_pass) if per_pass else {}
    layers = {}
    if traced and untraced:
        layers = medians([traced_metrics(d) for d in traced])
        # passes alternate, so each traced pass is paired with the untraced
        # one just before it; adjacent passes share the machine's state
        overheads = [pass_metrics(t)["wall_s"][0] - u["wall_s"][0]
                     for u, t in zip(per_pass, traced)]
        layers["trace.overhead_s"] = (statistics.median(overheads), "s")
    return {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "passes": {"untraced": len(untraced), "traced": len(traced)},
        "pass_wall_s": [p["wall_s"][0] for p in per_pass],
        "attempted": attempted,
        "failed": failed,
        "error_rate": failed / attempted,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "layers": {k: {"value": v, "unit": u} for k, (v, u) in layers.items()},
        "problems": problems,
        "env": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "nproc": os.cpu_count(),
            "blas_threads": int(BLAS_THREADS),
        },
    }


def report(result: dict) -> None:
    env = result["env"]
    passes = result["passes"]
    print(f"workload {result['workload']}  seed {result['seed']}  passes "
          f"{passes['untraced']} untraced + {passes['traced']} traced  "
          f"(python {env['python']}, numpy {env['numpy']}, nproc {env['nproc']}, "
          f"BLAS threads {env['blas_threads']})")
    for problem in result["problems"][:20]:
        print(f"FAILED {problem}")
    print(f"  error_rate {result['error_rate']:.4f} "
          f"({result['failed']} of {result['attempted']} invocations)")
    every = {**result["metrics"], **result["layers"]}
    for name, m in every.items():
        print(f"  {name} {m['value']:.6g} {m['unit']}")
    # The final line holds the metrics BENCHMARK.json declares, which exist on
    # every workload; the per-invocation times (`exact_s`, ...) and the
    # per-module layer metrics exist only on some, so they stay above it and
    # in the --out file.
    declared = json.loads(BENCHMARK.read_text(encoding="utf-8"))
    wanted = [m["name"] for m in declared["per_layer" if result["trace"] else "end_to_end"]]
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: every[name] for name in wanted if name in every},
    }))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=28.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="append this run's metrics to a JSON-lines file")
    parser.add_argument("--compare", nargs=2, metavar=("BEFORE", "AFTER"),
                        help="compare two --out files and exit")
    args = parser.parse_args()
    if args.compare:
        from compare import compare

        return compare(*args.compare)
    if args.workload is None:
        parser.error("--workload is required")

    src = Path.cwd() / "src"
    if not (src / "shaprank" / "cli.py").is_file():
        print("error: no ./src/shaprank; run from the root of a shaprank checkout",
              file=sys.stderr)
        return 2
    work = Path.cwd() / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        result = run(args, src, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:  # another run still uses it
            pass
    if args.out:
        with open(args.out, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(result) + "\n")
    report(result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
