"""Smoke runs of the experiment scripts with small budgets."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def run_script(script, args) -> str:
    """The stdout of ``scripts/<script>`` run with ``args``; it must exit 0."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in [str(ROOT / "src"), env.get("PYTHONPATH")] if p
    )
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


@pytest.mark.parametrize(
    "script, args",
    [
        ("run_ablation.py", ["--pairs", "1", "--perms", "50", "--samples", "200"]),
        ("sampling_convergence.py", ["--budgets", "100,400"]),
    ],
)
def test_script_exits_cleanly(script, args):
    assert run_script(script, args).strip()


def test_ablation_table_is_identical_across_reruns():
    args = ["--seed", "0", "--pairs", "1", "--perms", "50", "--samples", "200"]
    assert run_script("run_ablation.py", args) == run_script("run_ablation.py", args)


def test_scale_probe_smallest_setting_is_deterministic():
    args = ["--chains", "1", "--masks", "1", "--repeats", "1"]
    first, second = (
        [json.loads(line) for line in run_script("scale_probe.py", args).splitlines()]
        for _ in range(2)
    )
    assert [case["case"] for case in first] == ["toynet-payoff", "toynet-tables",
                                                "toynet-per-coalition", "perm-sampling",
                                                "perm-rowsum-500", "perm-rowsum-2000",
                                                "perm-rowsum-8000"]
    assert all(case["median_s"] > 0 and case["vmhwm_added_mib"] >= 0 for case in first)
    assert [case["sha256"] for case in first] == [case["sha256"] for case in second]
