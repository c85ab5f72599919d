"""Scale probe: timings and memory of in-process cases, each run in a fresh
Python process with BLAS at one thread.

    python scripts/scale_probe.py
    python scripts/scale_probe.py --chains 5 --masks 100 --repeats 1
    python scripts/scale_probe.py --compare CHECKOUT_A CHECKOUT_B --pairs 5

Each case prints one JSON line: its parameters, the median time of its
measured calls over ``--repeats``, the ``VmHWM`` those calls added to the
process (MiB, read from ``/proc/self/status``) and a sha256 of the bytes of
their results, so a before/after pair also shows whether values moved.
``--compare`` runs every case against the ``src/`` of two checkouts, the
first side alternating from pair to pair, and prints both sides' medians.

Cases:

- ``toynet-payoff``: the accuracy payoff of a 2-32-16-4 detector net (eight
  ReLU detectors per class of four 2-D blobs, 2 800 rows) under
  ``--chains`` calls of one random permutation chain each (the 33 prefixes
  of an ordering of the 32 units) and one call of ``--masks`` random masks.
  A fresh payoff is built, untimed, for every repeat.
- ``toynet-tables``: the accuracy payoff of a 2-14-4 detector net (one ReLU
  detector per class, two of them split into half-amplitude twins, and
  eight weak random units; 2 800 rows) under the two single-mask calls a
  ``Game`` starts with, then one call of all 2**14 masks, which builds the
  per-group tables.  A fresh payoff is built, untimed, for every repeat.
- ``toynet-per-coalition``: ``toynet-payoff``'s net and data with one NaN
  input, which sends every call down the float64 per-coalition route, under
  the first 5 of its chains and the first 200 of its random masks.
- ``perm-sampling``: permutation sampling of ``--chains`` antithetic
  orderings through a fresh ``Game`` of ``toynet-payoff``'s net and data.
- ``perm-rowsum-500``, ``-2000`` and ``-8000``: permutation sampling of that
  many orderings through a fresh ``Game`` of 64 players whose payoff is a
  row sum of integer weights plus the squared coalition size, so nearly
  all the time is the sampler's and the cache's.  The sampling cases also
  report ``evals_used`` and the game's ``cache_hits``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# the net's, the data's and the masks' seed
SEED = 1
BLAS_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS")


def vmhwm_mib() -> float:
    """The peak resident set of this process so far, in MiB."""
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


def detector_net(rng):
    """2 -> 32 -> 16 -> 4: eight jittered ReLU detectors per blob class feed
    four second-layer units per class, which feed the head.  The payoff's
    differential tests build their 32-unit net with it too."""
    import numpy as np

    from shaprank.toynet import Layer, ModelSpec

    classes = 4
    cls1 = np.repeat(np.arange(classes), 8)
    angles = 2.0 * np.pi * cls1 / classes + rng.normal(0.0, 0.15, cls1.size)
    w1 = np.stack([np.cos(angles), np.sin(angles)], axis=1) * rng.uniform(0.8, 1.2, (32, 1))
    cls2 = np.repeat(np.arange(classes), 4)
    w2 = rng.uniform(0.0, 0.5, (16, 32)) * (cls2[:, None] == cls1[None, :])
    w2 += 0.05 * rng.standard_normal((16, 32))
    w3 = (np.arange(classes)[:, None] == cls2[None, :]) + 0.1 * rng.standard_normal((classes, 16))
    return ModelSpec([
        Layer("dense", w1, -rng.uniform(0.0, 1.0, 32)),
        Layer("dense", w2, rng.normal(0.0, 0.1, 16)),
        Layer("dense", w3, np.zeros(classes), "softmax-logits"),
    ])


def detector_net_14(rng):
    """2 -> 14 -> 4: one jittered ReLU detector per blob class, two of them
    split into half-amplitude twins, and eight weak random units."""
    import numpy as np

    from shaprank.toynet import Layer, ModelSpec

    classes = 4
    angles = 2.0 * np.pi * np.arange(classes) / classes + rng.normal(0.0, 0.15, classes)
    w1 = np.stack([np.cos(angles), np.sin(angles)], axis=1) * rng.uniform(0.8, 1.2, (classes, 1))
    b1 = -rng.uniform(0.0, 1.0, classes)
    w2 = np.eye(classes)
    twins = rng.permutation(classes)[:2]
    w2[:, twins] /= 2.0
    weak = rng.standard_normal((8, 2))
    return ModelSpec([
        Layer("dense", np.vstack([w1, w1[twins], weak]),
              np.concatenate([b1, b1[twins], rng.normal(0.0, 0.5, 8)])),
        Layer("dense", np.hstack([w2, w2[:, twins], 0.05 * rng.standard_normal((classes, 8))]),
              np.zeros(classes), "softmax-logits"),
    ])


def _repeated(args, repeat) -> dict:
    """``--repeats`` runs of ``repeat``, which builds its own state untimed
    and returns its measured time, the bytes of its results and the fields
    to report: the median time, the ``VmHWM`` added, the fields and a
    sha256 of the results, which must agree between runs."""
    before = vmhwm_mib()
    times, outcomes = [], set()
    for _ in range(args.repeats):
        elapsed, results, fields = repeat()
        times.append(elapsed)
        outcomes.add((hashlib.sha256(results).hexdigest(), tuple(fields.items())))
    if len(outcomes) != 1:
        raise RuntimeError("results differ between repeats")
    digest, fields = outcomes.pop()
    return {
        **dict(fields),
        "repeats": args.repeats,
        "median_s": statistics.median(times),
        "vmhwm_added_mib": round(vmhwm_mib() - before, 3),
        "sha256": digest,
    }


def _timed_calls(args, spec, data, calls) -> dict:
    """``calls`` on a fresh payoff of ``spec`` per repeat."""
    import numpy as np

    from shaprank.toynet import accuracy_char_fn

    def repeat():
        # freed on return: the next repeat's payoff does not meet this one's
        char_fn = accuracy_char_fn(spec, data)
        start = time.perf_counter()
        payoffs = [char_fn(masks) for masks in calls]
        return time.perf_counter() - start, np.concatenate(payoffs).tobytes(), {}

    return _repeated(args, repeat)


def _timed_sampling(args, n_players, payoff, cfg) -> dict:
    """Permutation sampling under ``cfg`` through a fresh ``Game`` of
    ``payoff`` per repeat, with the estimate's evaluations and the game's
    cache hits."""
    from shaprank.games import Game
    from shaprank.sampling import shapley_sample_permutations

    def repeat():
        game = Game(n_players, payoff())
        start = time.perf_counter()
        est = shapley_sample_permutations(game, cfg)
        elapsed = time.perf_counter() - start
        return elapsed, est.values.tobytes() + est.std_err.tobytes(), {
            "evals_used": est.evals_used, "cache_hits": game.cache_hits}

    return _repeated(args, repeat)


def _detector_calls(args):
    """``toynet-payoff``'s net, data and calls: ``--chains`` chains, then
    one call of ``--masks`` masks."""
    import numpy as np

    from shaprank.toynet import make_blobs_dataset

    rng = np.random.default_rng(SEED)
    spec = detector_net(rng)
    data = make_blobs_dataset(seed=SEED, n_per_class=700, n_classes=4, spread=1.2)
    units = np.uint64(1) << np.arange(32, dtype=np.uint64)
    chains = [
        np.concatenate([[0], np.bitwise_or.accumulate(units[rng.permutation(32)])]).astype(np.uint64)
        for _ in range(args.chains)
    ]
    return spec, data, chains + [rng.integers(0, 1 << 32, size=args.masks, dtype=np.uint64)]


def toynet_payoff(args) -> dict:
    spec, data, calls = _detector_calls(args)
    return {"case": "toynet-payoff", "chains": args.chains, "masks": args.masks,
            **_timed_calls(args, spec, data, calls)}


def toynet_per_coalition(args) -> dict:
    import numpy as np

    spec, data, calls = _detector_calls(args)
    # a NaN input makes a NaN prefix row, which the float32 screen refuses;
    # a coalition costs several times as much in float64, so the case runs
    # the first 5 chains and 200 masks
    data.inputs[0, 0] = np.nan
    calls = calls[:min(5, args.chains)] + [calls[-1][:200]]
    return {"case": "toynet-per-coalition", "chains": len(calls) - 1, "masks": calls[-1].size,
            **_timed_calls(args, spec, data, calls)}


def toynet_tables(args) -> dict:
    import numpy as np

    from shaprank.toynet import make_blobs_dataset

    spec = detector_net_14(np.random.default_rng(SEED))
    data = make_blobs_dataset(seed=SEED, n_per_class=700, n_classes=4, spread=1.2)
    # the empty and the grand coalition, then every mask
    calls = [np.array([0], dtype=np.uint64), np.array([(1 << 14) - 1], dtype=np.uint64),
             np.arange(1 << 14, dtype=np.uint64)]
    return {"case": "toynet-tables", **_timed_calls(args, spec, data, calls)}


def perm_sampling(args) -> dict:
    from shaprank.sampling import SamplingConfig
    from shaprank.toynet import accuracy_char_fn

    spec, data, _ = _detector_calls(args)
    cfg = SamplingConfig(n_permutations=args.chains, seed=SEED, antithetic=True)
    return {"case": "perm-sampling", "orderings": args.chains,
            **_timed_sampling(args, 32, lambda: accuracy_char_fn(spec, data), cfg)}


def row_sum_payoff():
    """A coalition's payoff is the sum of its members' integer weights (1 to
    100, seeded) plus the square of its size, so that a player's marginal
    depends on its place in the ordering.  Each byte of the mask is one
    table lookup for each term: the payoff is exact, so the same bits in any
    batch."""
    import numpy as np

    weights = np.random.default_rng(SEED).integers(1, 101, size=64).astype(np.float64)
    byte_bits = np.arange(256)[:, None] >> np.arange(8) & 1
    tables = [byte_bits @ weights[8 * k:8 * k + 8] for k in range(8)]
    byte_sizes = byte_bits.sum(axis=1)

    def payoff(masks):
        total, size = np.zeros(masks.size), np.zeros(masks.size)
        for k, table in enumerate(tables):
            byte = (masks >> np.uint64(8 * k) & np.uint64(255)).astype(np.intp)
            total += table[byte]
            size += byte_sizes[byte]
        return total + size * size

    return payoff


def perm_row_sum(orderings):
    def case(args) -> dict:
        from shaprank.sampling import SamplingConfig

        cfg = SamplingConfig(n_permutations=orderings, seed=SEED)
        return {"case": f"perm-rowsum-{orderings}", "players": 64, "orderings": orderings,
                **_timed_sampling(args, 64, row_sum_payoff, cfg)}

    return case


CASES = {"toynet-payoff": toynet_payoff, "toynet-tables": toynet_tables,
         "toynet-per-coalition": toynet_per_coalition, "perm-sampling": perm_sampling,
         **{f"perm-rowsum-{k}": perm_row_sum(k) for k in (500, 2000, 8000)}}


def run_case(case: str, src: Path, args) -> dict:
    """One case in a fresh process importing shaprank from ``src``."""
    env = dict(os.environ, PYTHONPATH=str(src), **{var: "1" for var in BLAS_ENV})
    argv = [sys.executable, str(Path(__file__).resolve()), "--child", case,
            "--chains", str(args.chains), "--masks", str(args.masks),
            "--repeats", str(args.repeats)]
    proc = subprocess.run(argv, capture_output=True, text=True, env=env, check=False)
    if proc.returncode != 0:
        raise SystemExit(f"case {case} failed under {src}:\n{proc.stderr}")
    return json.loads(proc.stdout)


def compare(a: Path, b: Path, args) -> None:
    for case in CASES:
        sides: dict[Path, list[dict]] = {a: [], b: []}
        for pair in range(args.pairs):
            for side in (a, b) if pair % 2 == 0 else (b, a):
                sides[side].append(run_case(case, side / "src", args))
        medians = {side: statistics.median(r["median_s"] for r in runs) for side, runs in sides.items()}
        faster = sum(rb["median_s"] < ra["median_s"] for ra, rb in zip(sides[a], sides[b]))
        print(json.dumps({
            "case": case,
            "pairs": args.pairs,
            "a_median_s": medians[a],
            "b_median_s": medians[b],
            "b_over_a": medians[b] / medians[a],
            "b_faster_pairs": faster,
            "a_vmhwm_added_mib": statistics.median(r["vmhwm_added_mib"] for r in sides[a]),
            "b_vmhwm_added_mib": statistics.median(r["vmhwm_added_mib"] for r in sides[b]),
            "same_sha256": len({r["sha256"] for r in sides[a] + sides[b]}) == 1,
        }))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--chains", type=int, default=150)
    parser.add_argument("--masks", type=int, default=4000)
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--compare", nargs=2, type=Path, metavar=("A", "B"))
    parser.add_argument("--pairs", type=int, default=5)
    parser.add_argument("--child", choices=sorted(CASES), help=argparse.SUPPRESS)
    args = parser.parse_args()
    if min(args.chains, args.masks, args.repeats, args.pairs) < 1:
        parser.error("--chains, --masks, --repeats and --pairs must be positive")
    if args.child:
        print(json.dumps(CASES[args.child](args)))
    elif args.compare:
        compare(*args.compare, args)
    else:
        for case in CASES:
            print(json.dumps(run_case(case, ROOT / "src", args)))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
