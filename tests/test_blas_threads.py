"""Reports do not depend on the BLAS thread count.

OpenBLAS splits a long dot product between its threads, so a sum left to it
changes its last digits with ``OPENBLAS_NUM_THREADS``.  The thread count is
read when numpy loads, so each side runs in a fresh process: one with
``OPENBLAS_NUM_THREADS`` and ``OMP_NUM_THREADS`` at 1, one at 2.  Both write
the ``rank`` reports of ``exact``, ``partial``, exhaustive and sampled
``kernel`` on a 16-player table and of ``exact``, exhaustive and sampled
``kernel`` on an 8-unit toy net (whose payoffs go through BLAS matrix
products; the sampled kernel's membership moments do too), and the values of
exact, partial and exhaustive kernel on a 20-player table.  Every file must
have the same bytes on both sides.

Run as a script, this file is that process: ``python
tests/test_blas_threads.py INPUTS OUT``.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import shaprank
from shaprank import cli
from shaprank.formats import save_game_json

SRC = Path(shaprank.__file__).resolve().parents[1]
TABLE = "table16.json"
NET = ["--model", "net.json", "--data", "net-data.csv"]

# output file -> rank arguments, relative to the inputs directory
RANK_RUNS = {
    "table-exact.json": ["--game", TABLE, "--method", "exact"],
    "table-partial.json": ["--game", TABLE, "--method", "partial", "--high-d", "6",
                           "--low-d", "2"],
    "table-kernel.json": ["--game", TABLE, "--method", "kernel", "--sampler", "exhaustive"],
    "table-sampled-kernel.json": ["--game", TABLE, "--method", "kernel", "--samples", "2000",
                                  "--seed", "1"],
    "net-exact.json": [*NET, "--method", "exact"],
    "net-kernel.json": [*NET, "--method", "kernel", "--sampler", "exhaustive"],
    "net-sampled-kernel.json": [*NET, "--method", "kernel", "--samples", "2000", "--seed", "1"],
}


def write_reports(inputs: Path, out: Path) -> None:
    from conftest import random_table_game
    from shaprank.exact import shapley_exact_subsets
    from shaprank.partial import SizeBand, shapley_partial
    from shaprank.regression import RegressionConfig, shapley_regression

    os.chdir(inputs)
    for name, argv in RANK_RUNS.items():
        assert cli.main(["rank", *argv, "--out", str(out / name)]) == 0, name
    estimates = {
        "exact": shapley_exact_subsets,
        "partial": lambda game: shapley_partial(game, SizeBand(high_d=6, low_d=2)),
        "kernel": lambda game: shapley_regression(
            game, RegressionConfig(n_samples=1, sampler="exhaustive")),
    }
    for name, estimate in estimates.items():
        values = estimate(random_table_game(20, seed=3)).values
        (out / f"library-{name}.bin").write_bytes(values.tobytes())


@pytest.mark.skipif((os.cpu_count() or 1) < 2,
                    reason="one CPU: OpenBLAS runs one thread whatever the setting")
def test_reports_are_the_same_at_one_and_two_blas_threads(tmp_path):
    from conftest import random_table_game

    inputs = tmp_path / "inputs"
    inputs.mkdir()
    save_game_json(random_table_game(16, seed=16), inputs / TABLE)
    assert cli.main(["train-toy", "--out", str(inputs / "net.json"), "--hidden", "8",
                     "--epochs", "60", "--seed", "5", "--data-seed", "5",
                     "--write-data", str(inputs / "net-data.csv")]) == 0
    children = {}
    for threads in ("1", "2"):
        out = tmp_path / f"threads{threads}"
        out.mkdir()
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(filter(None, [str(SRC),
                                                            os.environ.get("PYTHONPATH")])))
        children[out] = subprocess.Popen(
            [sys.executable, __file__, str(inputs), str(out)], env=env,
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
    for child in children.values():
        _, err = child.communicate(timeout=300)
        assert child.returncode == 0, err
    one, two = children
    names = sorted(p.name for p in one.iterdir())
    assert names == sorted(p.name for p in two.iterdir())
    assert len(names) == len(RANK_RUNS) + 3
    differ = [n for n in names if (one / n).read_bytes() != (two / n).read_bytes()]
    assert not differ, f"differ between one and two BLAS threads: {differ}"


if __name__ == "__main__":
    write_reports(Path(sys.argv[1]), Path(sys.argv[2]))
