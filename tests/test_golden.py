"""Golden reports: every committed file under ``tests/golden/`` must come out
of ``cli.main`` byte for byte.

The files cover every ``rank`` method and ``oracle`` on ``make-fig2`` and on
a seeded 10-player table, and ``exact``, exhaustive ``kernel``, ``oracle``
and ``prune`` on a small seeded ``train-toy`` net.  Table payoffs are read
from the file, but the toy net is trained here and its payoffs go through
BLAS matrix products, so the toy-net files (``net*``) pin the environment
they were made in: Python 3.11, numpy 2.4.6 with OpenBLAS 0.3.31 on x86-64.
``tests/test_blas_threads.py`` checks that reports do not depend on the BLAS
thread count.

Regenerating the files is a deliberate step, with a note in CHANGES.md
saying which bytes moved and why::

    PYTHONPATH=src python tests/test_golden.py

It generates every file into a temporary directory and prints each file's
name as ``unchanged``, ``changed``, ``new`` or ``removed`` before replacing
the directory's contents.
"""

import shutil
import sys
import tempfile
from pathlib import Path

import pytest

from shaprank import cli
from shaprank.formats import save_game_json

GOLDEN = Path(__file__).resolve().parent / "golden"
TABLE_SEED = 10

# --method -> extra flags, for every rank method
RANK_METHODS = {
    "exact": [],
    "exact-perm": [],
    "partial": ["--high-d", "2"],
    "perm": ["--perms", "40", "--seed", "3", "--antithetic"],
    "kernel": ["--samples", "60", "--seed", "3"],
}


def _run(*argv) -> None:
    code = cli.main([str(a) for a in argv])
    assert code == 0, f"exit {code}: {argv}"


def generate(out: Path) -> None:
    """Write every golden file into the directory ``out``."""
    from conftest import random_table_game

    _run("make-fig2", "--out", out / "fig2.json")
    save_game_json(random_table_game(10, seed=TABLE_SEED), out / "table10.json")
    for game, k_range in (("fig2", "1:3"), ("table10", "1:10")):
        source = ["--game", out / f"{game}.json"]
        for method, flags in RANK_METHODS.items():
            _run("rank", *source, "--method", method, *flags,
                 "--out", out / f"{game}-{method}.json")
        ranks = [a for m in RANK_METHODS for a in ("--rank", out / f"{game}-{m}.json")]
        for mode in ("keep", "remove"):
            _run("oracle", *source, "--mode", mode, "--k-range", k_range, *ranks,
                 "--out", out / f"{game}-oracle-{mode}.json")

    net = ["--model", out / "net.json", "--data", out / "net-data.csv"]
    _run("train-toy", "--out", out / "net.json", "--hidden", "8", "--epochs", "60",
         "--seed", "5", "--data-seed", "5", "--write-data", out / "net-data.csv")
    _run("rank", *net, "--method", "exact", "--out", out / "net-exact.json")
    _run("rank", *net, "--method", "kernel", "--sampler", "exhaustive",
         "--out", out / "net-kernel.json")
    _run("oracle", *net, "--mode", "remove", "--k-range", "1:4",
         "--rank", out / "net-exact.json", "--rank", out / "net-kernel.json",
         "--out", out / "net-oracle.json")
    _run("prune", *net, "--method", "exact", "--count", "3",
         "--out", out / "net-pruned.json", "--summary", out / "net-prune-summary.json")


GOLDEN_FILES = sorted(p.name for p in GOLDEN.glob("*"))


@pytest.fixture(scope="module")
def generated(tmp_path_factory):
    out = tmp_path_factory.mktemp("golden")
    generate(out)
    return out


def test_cli_writes_exactly_the_golden_files(generated):
    assert sorted(p.name for p in generated.iterdir()) == GOLDEN_FILES


@pytest.mark.parametrize("name", GOLDEN_FILES)
def test_cli_reproduces_the_golden_file(generated, name):
    same = (generated / name).read_bytes() == (GOLDEN / name).read_bytes()
    assert same, f"{name} differs from tests/golden/{name}"


def replace_golden_files() -> None:
    """Regenerate every golden file, printing what moved."""
    with tempfile.TemporaryDirectory() as tmp:
        fresh = Path(tmp)
        generate(fresh)
        old = {p.name for p in GOLDEN.glob("*")}
        new = {p.name for p in fresh.iterdir()}
        for name in sorted(old | new):
            if name not in new:
                status = "removed"
            elif name not in old:
                status = "new"
            elif (fresh / name).read_bytes() == (GOLDEN / name).read_bytes():
                status = "unchanged"
            else:
                status = "changed"
            print(f"{status:<9} {name}")
        GOLDEN.mkdir(exist_ok=True)
        for stale in GOLDEN.iterdir():
            stale.unlink()
        for made in fresh.iterdir():
            shutil.copyfile(made, GOLDEN / made.name)


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    replace_golden_files()
