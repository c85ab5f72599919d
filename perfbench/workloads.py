"""The fixed ``shaprank`` invocations of each workload, in pass order.

Paths are relative to the pass directory; the inputs sit in its sibling
``inputs`` directory.  Each entry is ``(kind, argv)``; ``kind`` names the
end-to-end metric ``<kind>_s`` that times the invocation.
"""

from __future__ import annotations

WORKLOADS = ("tables", "toynet-n14", "toynet-n32")

_LARGE = ["--game", "../inputs/table20.json"]
_SMALL = ["--game", "../inputs/table10.json"]
_MODEL = ["--model", "../inputs/model.json", "--data", "../inputs/blobs.csv"]
_CACHE = ["--cache", "cache.jsonl"]


def invocations(workload: str, seed: int) -> list[tuple[str, list[str]]]:
    if workload == "tables":
        return [
            ("exact", ["rank", *_LARGE, "--method", "exact", "--out", "exact.json"]),
            ("partial", ["rank", *_LARGE, "--method", "partial", "--high-d", "6",
                         "--low-d", "2", "--out", "partial.json"]),
            ("oracle", ["oracle", *_LARGE, "--mode", "remove", "--k-range", "1:3",
                        "--rank", "exact.json", "--out", "oracle.json"]),
            ("exact_perm", ["rank", *_SMALL, "--method", "exact-perm",
                            "--out", "exact_perm.json"]),
        ]
    if workload == "toynet-n14":
        # the cache file is absent when the pass starts: exact fills it cold,
        # kernel and oracle read it warm and write it back
        return [
            ("exact", ["rank", *_MODEL, "--method", "exact", *_CACHE, "--out", "exact.json"]),
            ("kernel", ["rank", *_MODEL, "--method", "kernel", "--sampler", "exhaustive",
                        *_CACHE, "--out", "kernel.json"]),
            ("oracle", ["oracle", *_MODEL, "--mode", "remove", "--k-range", "1:13",
                        "--rank", "exact.json", *_CACHE, "--out", "oracle.json"]),
            ("prune", ["prune", *_MODEL, "--method", "exact", "--count", "4",
                       "--workers", "2", "--out", "pruned.json"]),
        ]
    if workload == "toynet-n32":
        return [
            ("perm", ["rank", *_MODEL, "--method", "perm", "--perms", "150", "--antithetic",
                      "--seed", str(seed), "--out", "perm.json"]),
            ("kernel", ["rank", *_MODEL, "--method", "kernel", "--samples", "4000",
                        "--seed", str(seed), "--out", "kernel.json"]),
            ("partial", ["rank", *_MODEL, "--method", "partial", "--high-d", "2",
                         "--out", "partial.json"]),
        ]
    raise ValueError(f"unknown workload {workload!r}")
