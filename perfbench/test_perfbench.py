"""Self-tests of the benchmark, at a small size.

Run from the repository root::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import measure  # noqa: E402
import workloads  # noqa: E402
from layers import COUNTERS, LayerTrace  # noqa: E402

SMALL_APPS = ("APV", "TippyTipper")

# Prints the traced-pass counters of every pass kind on SMALL_APPS, as JSON.
COUNTER_SCRIPT = """
import json, sys
sys.path[:0] = [{here!r}, {src!r}]
import test_perfbench
print(json.dumps(test_perfbench.small_counters({root!r})))
"""


def small_targets(root: str):
    from repro.corpus.apps import spec_by_name

    os.makedirs(root, exist_ok=True)
    targets = [workloads.dump_spec(spec_by_name(n), root) for n in SMALL_APPS]
    workloads.write_targets(root, targets)
    return targets


def small_counters(root: str):
    """Counters of one traced pass per pass kind over SMALL_APPS."""
    targets = workloads.read_targets(root)
    out_path = os.path.join(root, "report.out")
    counters = {}
    for workload in workloads.WORKLOADS:
        record = workloads.run_pass(workload, targets, LayerTrace(), out_path)
        assert all(run.error is None for run in record.apps), record.apps
        counters[workload] = {name: record.counters.get(name, 0) for name in COUNTERS}
    return counters


@pytest.fixture(scope="module")
def small_root(tmp_path_factory):
    root = str(tmp_path_factory.mktemp("small"))
    small_targets(root)
    return root


def test_counters_repeat_across_runs_and_hash_seeds(small_root):
    first = small_counters(small_root)
    assert small_counters(small_root) == first
    assert first["lint-witness"]["solve.prov_facts"] > 0
    assert first["corpus-batch"]["build.nodes"] > 0
    for hash_seed in ("1", "2", "3"):
        script = COUNTER_SCRIPT.format(
            here=HERE, src=os.path.join(ROOT, "src"), root=small_root
        )
        out = subprocess.run(
            [sys.executable, "-c", script],
            env=dict(os.environ, PYTHONHASHSEED=hash_seed),
            capture_output=True,
            text=True,
            check=True,
            timeout=300,
        )
        assert json.loads(out.stdout.splitlines()[-1]) == first, hash_seed


def test_committed_fingerprints_pass(small_root):
    result = measure.measure(
        small_root, "corpus-batch", 0, 0.0, False, workloads.load_expected()
    )
    assert result["attempted"] == len(SMALL_APPS)
    assert result["failed"] == 0, result["problems"]


def test_corrupted_fingerprint_fails(small_root):
    expected = workloads.load_expected()
    fingerprints = dict(expected["fingerprints"])
    fingerprints["APV"] = "0" * 64
    expected["fingerprints"] = fingerprints
    result = measure.measure(small_root, "corpus-batch", 0, 0.0, False, expected)
    assert result["failed"] == 1
    assert result["failed"] / result["attempted"] > 0
    assert any("APV" in problem for problem in result["problems"])


def test_refuses_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(
        HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("_work", "__pycache__")
    )
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "scale-analyze",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=180,
    )
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
