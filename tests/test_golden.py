"""Golden reports: every committed report under ``tests/golden/`` must come
out of ``cli.main`` byte for byte.

The reports cover every ``rank`` method and ``oracle`` on ``make-fig2`` and
on a seeded 10-player table, and ``exact``, exhaustive ``kernel``,
``oracle`` and ``prune`` on a small 2-8-3 net.  The net and its dataset,
``net.json`` and ``net-data.csv``, are committed inputs: they are read, not
generated.  Only the kernel reports (``fig2-kernel``, ``table10-kernel``,
``net-kernel``, and ``net-oracle``, which scores ``net-kernel``'s order)
still pin the environment they were made in: Python 3.11, numpy 2.4.6 with
OpenBLAS 0.3.31 on x86-64.  Every other report is checked under three
other OpenBLAS core types, each in a process of its own;
``tests/test_blas_threads.py`` checks that reports do not depend on the
BLAS thread count.

Regenerating the reports is a deliberate step, with a note in CHANGES.md
saying which bytes moved and why::

    PYTHONPATH=src python tests/test_golden.py

It generates every report into a temporary directory and prints each
file's name as ``unchanged``, ``changed``, ``new`` or ``removed`` before
replacing the reports in the directory; the inputs stay.  ``python
tests/test_golden.py OUT`` only generates the reports into ``OUT``.
"""

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from shaprank import cli
from shaprank.formats import save_game_json

GOLDEN = Path(__file__).resolve().parent / "golden"
TABLE_SEED = 10
# the committed inputs of the net reports
INPUTS = ("net-data.csv", "net.json")
# the reports whose bytes depend on the BLAS kernel
KERNEL_REPORTS = {"fig2-kernel.json", "table10-kernel.json", "net-kernel.json", "net-oracle.json"}
# OpenBLAS core type -> the instruction set its kernels need
CORE_TYPES = {"Haswell": "AVX2", "Sandybridge": "AVX", "Prescott": "SSE3"}

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
    """Write every golden report into the directory ``out``."""
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

    net = ["--model", GOLDEN / "net.json", "--data", GOLDEN / "net-data.csv"]
    _run("rank", *net, "--method", "exact", "--out", out / "net-exact.json")
    _run("rank", *net, "--method", "kernel", "--sampler", "exhaustive",
         "--out", out / "net-kernel.json")
    _run("oracle", *net, "--mode", "remove", "--k-range", "1:4",
         "--rank", out / "net-exact.json", "--rank", out / "net-kernel.json",
         "--out", out / "net-oracle.json")
    _run("prune", *net, "--method", "exact", "--count", "3",
         "--out", out / "net-pruned.json", "--summary", out / "net-prune-summary.json")


GOLDEN_FILES = sorted(p.name for p in GOLDEN.glob("*") if p.name not in INPUTS)


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


@pytest.mark.parametrize("name", INPUTS)
def test_a_committed_input_reads_back_to_its_bytes(tmp_path, name):
    # the net reports are made from what the readers take from the inputs;
    # writing that back must give the committed bytes, so nothing is lost
    from conftest import save_dataset_csv
    from shaprank.formats import load_dataset_csv, load_model, save_model

    load, save = {"net.json": (load_model, save_model),
                  "net-data.csv": (load_dataset_csv, save_dataset_csv)}[name]
    save(load(GOLDEN / name), tmp_path / name)
    same = (tmp_path / name).read_bytes() == (GOLDEN / name).read_bytes()
    assert same, f"tests/golden/{name} does not read back to its bytes"


def _switchable_core_types() -> set[str]:
    """The core types of ``CORE_TYPES`` that ``OPENBLAS_CORETYPE`` can select
    here: numpy's OpenBLAS must be built with ``DYNAMIC_ARCH``, and the CPU
    must have the core type's instruction set."""
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    if "DYNAMIC_ARCH" not in blas.get("openblas configuration", ""):
        return set()
    from numpy._core._multiarray_umath import __cpu_features__

    return {core for core, isa in CORE_TYPES.items() if __cpu_features__.get(isa)}


@pytest.fixture(scope="module")
def other_kernels(tmp_path_factory):
    """core type -> (child process generating every report under it, its
    output directory), one child per switchable core type, all started
    together."""
    src = Path(cli.__file__).resolve().parents[1]
    children = {}
    for core in sorted(_switchable_core_types()):
        out = tmp_path_factory.mktemp(core)
        env = dict(os.environ, OPENBLAS_CORETYPE=core,
                   PYTHONPATH=os.pathsep.join(filter(None, [str(src),
                                                            os.environ.get("PYTHONPATH")])))
        children[core] = subprocess.Popen(
            [sys.executable, __file__, str(out)], env=env,
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True), out
    yield children
    for child, _ in children.values():
        child.kill()
        child.communicate()


@pytest.mark.parametrize("core", CORE_TYPES)
def test_reports_other_than_the_kernels_are_the_same_under_other_blas_kernels(
    other_kernels, core
):
    if core not in other_kernels:
        pytest.skip(f"OpenBLAS cannot select the {core} kernels here")
    child, out = other_kernels[core]
    _, err = child.communicate(timeout=300)
    assert child.returncode == 0, err
    assert sorted(p.name for p in out.iterdir()) == GOLDEN_FILES
    differ = [name for name in GOLDEN_FILES if name not in KERNEL_REPORTS
              and (out / name).read_bytes() != (GOLDEN / name).read_bytes()]
    assert not differ, f"differ under OPENBLAS_CORETYPE={core}: {differ}"


def replace_golden_files() -> None:
    """Regenerate every golden report, printing what moved."""
    with tempfile.TemporaryDirectory() as tmp:
        fresh = Path(tmp)
        generate(fresh)
        old = set(GOLDEN_FILES)
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
        for stale in old:
            (GOLDEN / stale).unlink()
        for made in fresh.iterdir():
            shutil.copyfile(made, GOLDEN / made.name)


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    if len(sys.argv) > 1:
        generate(Path(sys.argv[1]))
    else:
        replace_golden_files()
