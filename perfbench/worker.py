"""One pass of a workload, in a fresh process started by ``run.py``.

Runs the workload's invocations one after another through
``shaprank.cli.main`` in the current directory and writes ``pass.json``
there (and ``spans.jsonl`` when tracing).  It imports nothing but the
standard library before ``shaprank``, so ``import_s`` includes numpy's
import as a user of the CLI pays it.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import io
import json
import resource
import time

from workloads import invocations

clock = time.perf_counter

# the first call to any of these ends an invocation's set-up
ESTIMATORS = (
    "shapley_exact_subsets",
    "shapley_exact_permutations",
    "shapley_partial",
    "shapley_sample_permutations",
    "shapley_regression",
    "compute_oracle_subsets",
)


class SetupMarker:
    """Records when an invocation first reaches an estimator or the oracle."""

    def __init__(self, cli):
        self.first: float | None = None
        for name in ESTIMATORS:
            if hasattr(cli, name):
                setattr(cli, name, self._wrap(getattr(cli, name)))

    def _wrap(self, fn):
        @functools.wraps(fn)
        def marked(*args, **kwargs):
            if self.first is None:
                self.first = clock()
            return fn(*args, **kwargs)

        return marked


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    started = clock()
    import shaprank.cli as cli
    import shaprank.regression as regression

    import_s = clock() - started
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install(cli, regression)
    marker = SetupMarker(cli)

    records = []
    spans = []
    for index, (kind, argv) in enumerate(invocations(args.workload, args.seed)):
        marker.first = None
        stderr = io.StringIO()
        begin = clock()
        with contextlib.redirect_stderr(stderr):
            code = tracer.run(cli.main, argv) if tracer else cli.main(argv)
        end = clock()
        record = {
            "kind": kind,
            "exit_code": code,
            "wall_s": end - begin,
            "setup_s": (marker.first or end) - begin,
            "stderr": stderr.getvalue()[-2000:],
        }
        if tracer:
            record["trace"], taken = tracer.take()
            spans += [(index, *span) for span in taken]
        records.append(record)

    doc = {
        "import_s": import_s,
        "invocations": records,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    with open("pass.json", "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    if tracer:
        # one line per span: invocation, id, name, start, end, parent id
        with open("spans.jsonl", "w", encoding="utf-8") as fh:
            fh.writelines(json.dumps(span) + "\n" for span in spans)


if __name__ == "__main__":
    main()
