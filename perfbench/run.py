"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload corpus-batch --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload lint-witness --seed 3 --seconds 20 --trace 1

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of the traced run. Every metric is printed with its unit; the
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. See
``perfbench/README.md`` for the workloads and metrics.

Set-up (corpus generation, dump, loading the expected outputs) runs
``SETUPS`` times in this process and ``setup_s`` is its median; the
timed loop then runs in a fresh process (``measure.py``) so its peak
memory excludes set-up.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SETUPS = 3
TIME_LIMIT = 175.0  # seconds for the whole run, set-up included

END_TO_END_UNITS = {
    "apps_per_s": "1/s",
    "app_p50_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


def layer_unit(name: str) -> str:
    if name.endswith((".s", "_s")):
        return "s"
    if name.endswith(("_ratio", "_util")):
        return "ratio"
    return "count"


def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload",
        required=True,
        choices=("corpus-batch", "lint-witness", "scale-analyze"),
    )
    parser.add_argument(
        "--seed", type=int, default=0,
        help="0: the committed corpus; other: re-drawn app seeds",
    )
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def run_child(argv: List[str], timeout: float) -> Dict[str, object]:
    """Run ``measure.py``; kill its whole process group on timeout."""
    proc = subprocess.Popen(
        [sys.executable, os.path.join(HERE, "measure.py")] + argv,
        stdout=subprocess.PIPE,
        start_new_session=True,
    )
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise SystemExit(f"error: measurement exceeded {timeout:.0f}s")
    if proc.returncode != 0:
        raise SystemExit(f"error: measurement exited with {proc.returncode}")
    return json.loads(out.decode().strip().splitlines()[-1])


def main(argv: Optional[List[str]] = None) -> int:
    started = time.perf_counter()
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"error: no repro sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import hostspeed
    import workloads

    workdir = os.path.join(HERE, "_work", f"{args.workload}-{os.getpid()}")
    try:
        raw_setup, setup_times = [], []
        calibration = hostspeed.calibrate()
        for _ in range(SETUPS):
            t0 = time.perf_counter()
            workloads.prepare(args.workload, args.seed, workdir)
            workloads.load_expected()
            raw_setup.append(time.perf_counter() - t0)
            before, calibration = calibration, hostspeed.calibrate()
            setup_times.append(raw_setup[-1] / hostspeed.slowdown(before, calibration))
        budget = TIME_LIMIT - (time.perf_counter() - started)
        child = run_child(
            [workdir, args.workload, str(args.seed), str(args.seconds), str(args.trace)],
            timeout=budget,
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):  # still in use by another run
            os.rmdir(os.path.dirname(workdir))

    metrics = dict(child["metrics"])
    if args.trace:
        units = {name: layer_unit(name) for name in metrics}
    else:
        metrics["setup_s"] = statistics.median(setup_times)
        units = END_TO_END_UNITS
    attempted, failed = child["attempted"], child["failed"]
    for problem in child["problems"]:
        print(f"FAIL {problem}")
    print(
        f"{args.workload} seed={args.seed}: {child['passes']} timed pass(es), "
        f"{child['traced_passes']} traced, {child['samples']} app samples"
    )
    print(f"  raw pass walls (s): {child['pass_walls']}")
    print(f"  host slowdowns: {child['slowdowns']}")
    raw = child["raw"]
    print(
        "  before host-speed scaling: "
        + ", ".join(f"{name} = {raw[name]:.6g}" for name in sorted(raw))
        + f", setup_s = {statistics.median(raw_setup):.6g}"
    )
    print(f"  fail_frac = {failed / attempted:.4f} ({failed}/{attempted})")
    for name in sorted(metrics):
        print(f"  {name} = {metrics[name]:.6g} {units[name]}")
    print(
        json.dumps(
            {
                "correct": not child["problems"] and failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
