"""Regenerate ``perfbench/expected.json``, the default-seed output checks.

Usage, from the repository root::

    python3 perfbench/regen.py

For every app of every workload at seed 0 it records the solution
fingerprint hash, the lint finding uids of ``lint-witness`` and the
per-layer counters of one traced pass. It refuses to write anything
unless the interpreter oracle (``repro.semantics.run_app`` +
``check_soundness``: static solution covers every dynamic fact) passes
on every app, and unless the fresh values pass the benchmark's own
output checks. Witness text is not pinned.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
from typing import Dict, List

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import workloads  # noqa: E402
from layers import COUNTERS, LayerTrace  # noqa: E402


def main() -> int:
    from repro.core.analysis import analyze
    from repro.frontend.loader import load_app_from_dir
    from repro.runner.tasks import fingerprint_hash

    expected: Dict[str, object] = {
        "schema": workloads.EXPECTED_SCHEMA,
        "seed": workloads.DEFAULT_SEED,
        "fingerprints": {},
        "lint_uids": {},
        "counters": {},
    }
    problems: List[str] = []
    workroot = os.path.join(HERE, "_work", f"regen-{os.getpid()}")
    try:
        for workload in workloads.WORKLOADS:
            root = os.path.join(workroot, workload)
            targets = workloads.prepare(workload, workloads.DEFAULT_SEED, root)
            for target in targets:
                app = load_app_from_dir(target.path, name=target.name)
                app.validate()
                result = analyze(app)
                problem = workloads.oracle_problem(result)
                if problem is not None:
                    problems.append(f"{workload}/{target.name}: {problem}")
                expected["fingerprints"][target.name] = fingerprint_hash(result)
            out_path = os.path.join(root, "report.out")
            record = workloads.run_pass(workload, targets, LayerTrace(), out_path)
            expected["counters"][workload] = {
                name: record.counters.get(name, 0) for name in COUNTERS
            }
            for run in record.apps:
                if run.error is not None:
                    problems.append(f"{workload}/{run.name}: {run.error}")
                elif workload == "lint-witness":
                    results = json.loads(run.output)["runs"][0]["results"]
                    expected["lint_uids"][run.name] = sorted(
                        r["partialFingerprints"]["reproLintUid/v1"] for r in results
                    )
            refs = workloads.references(
                workload, workloads.DEFAULT_SEED, targets, expected, out_path
            )
            workloads.check_runs(
                workload, workloads.DEFAULT_SEED, targets, [record], refs, expected
            )
            problems += [
                f"{workload}/{run.name}: {run.problem}"
                for run in record.apps
                if run.problem is not None
            ]
    finally:
        shutil.rmtree(workroot, ignore_errors=True)
    if problems:
        for problem in problems:
            print(f"FAIL {problem}", file=sys.stderr)
        print("expected.json left unchanged", file=sys.stderr)
        return 1
    with open(workloads.EXPECTED_PATH, "w", encoding="utf-8") as f:
        json.dump(expected, f, indent=2, sort_keys=True)
        f.write("\n")
    print(f"wrote {workloads.EXPECTED_PATH}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
