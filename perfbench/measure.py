"""Timed closed loop over one workload's prepared projects.

``run.py`` starts this file as a fresh process after set-up, so the
peak resident set it reports belongs to the analysis, not to corpus
generation::

    python3 perfbench/measure.py WORKDIR WORKLOAD SEED SECONDS TRACE

It runs whole passes over the targets until ``SECONDS`` have elapsed,
then the untimed check pass, and prints one JSON object: the
end-to-end metrics (``TRACE`` 0) or the per-layer metrics (``TRACE``
1), plus attempted/failed counts and any problems found.
"""

from __future__ import annotations

import json
import os
import resource
import statistics
import sys
import time
from typing import Dict, List

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import hostspeed  # noqa: E402
from layers import COUNTERS, TIME_METRICS, LayerTrace  # noqa: E402
import workloads  # noqa: E402
from workloads import PassRecord  # noqa: E402


def run_passes(
    workload: str, targets, seconds: float, trace: bool, out_path: str
) -> List[PassRecord]:
    """Whole passes, as many as fit in ``seconds`` (at least one; two
    when traced, which alternates untraced and traced passes so the
    tracing overhead is measured alike). Whole passes keep the app mix
    the same in every run. A calibration before and after every pass
    gives the pass's host slowdown."""
    workloads.warm_up(workload, targets, out_path)
    passes: List[PassRecord] = []
    started = time.perf_counter()
    processes = workloads.JOBS if workload == "corpus-batch" else 1
    calibration = hostspeed.calibrate(processes)
    while True:
        layer = LayerTrace() if trace and len(passes) % 2 == 1 else None
        record = workloads.run_pass(workload, targets, layer, out_path)
        before, calibration = calibration, hostspeed.calibrate(processes)
        record.slowdown = hostspeed.slowdown(before, calibration)
        passes.append(record)
        elapsed = time.perf_counter() - started
        next_end = elapsed * (len(passes) + 1) / len(passes)
        if next_end > seconds and len(passes) >= (2 if trace else 1):
            return passes


def at_reference_speed(record: PassRecord) -> None:
    """Divide every timing of ``record`` by its host slowdown."""
    factor = record.slowdown
    record.wall /= factor
    record.cpu /= factor
    for run in record.apps:
        run.seconds /= factor
    for name in record.layers:
        record.layers[name] /= factor


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0  # ru_maxrss is in KiB on Linux


def end_to_end(passes: List[PassRecord], peak_mb: float) -> Dict[str, float]:
    per_app: Dict[str, List[float]] = {}
    for record in passes:
        for run in record.apps:
            per_app.setdefault(run.name, []).append(run.seconds)
    return {
        "apps_per_s": statistics.median(
            sum(run.problem is None for run in r.apps) / r.wall for r in passes
        ),
        # Median per app over passes, then median over apps: the same
        # app mix every run, however many passes fit.
        "app_p50_s": statistics.median(
            statistics.median(samples) for samples in per_app.values()
        ),
        "cpu_s": statistics.median(r.cpu for r in passes),
        "peak_rss_mb": peak_mb,
    }


def per_layer(workload: str, passes: List[PassRecord]) -> Dict[str, float]:
    traced = [r for r in passes if r.traced]
    plain = [r for r in passes if not r.traced]
    n = len(traced)
    metrics: Dict[str, float] = {}
    for span, name in TIME_METRICS.items():
        metrics[name] = sum(r.layers.get(span, 0.0) for r in traced) / n
    counters = traced[0].counters
    for name in COUNTERS:
        metrics[name] = counters.get(name, 0)
    scheduled, skipped = metrics["solve.ops_scheduled"], metrics["solve.ops_skipped"]
    metrics["solve.skip_ratio"] = skipped / max(scheduled + skipped, 1)
    slot_s = sum(r.wall * r.slots for r in traced) / n
    layer_s = sum(metrics[name] for name in TIME_METRICS.values())
    batch = workload == "corpus-batch"
    worker_s = sum(run.seconds for r in traced for run in r.apps) / n if batch else 0.0
    overhead_s = worker_s - layer_s if batch else 0.0
    metrics.update(
        {
            "batch.wall_s": sum(r.wall for r in traced) / n if batch else 0.0,
            "batch.worker_s": worker_s,
            "batch.slot_util": worker_s / slot_s if batch else 0.0,
            "batch.overhead_s": overhead_s,
            "trace.slot_s": slot_s,
            "other.s": slot_s - layer_s - overhead_s,
            "trace.overhead_s": statistics.median(r.wall for r in traced)
            - statistics.median(r.wall for r in plain),
        }
    )
    return metrics


def layer_problems(
    workload: str, seed: int, passes: List[PassRecord], expected: Dict[str, object]
) -> List[str]:
    """Traced-run checks: every layer recorded, counters exact."""
    traced = [r for r in passes if r.traced]
    problems = []
    for span in workloads.LAYERS_BY_WORKLOAD[workload]:
        if any(r.layers.get(span, 0.0) <= 0.0 for r in traced):
            problems.append(f"layer {span!r} recorded no time")
    first = {name: traced[0].counters.get(name, 0) for name in COUNTERS}
    for record in traced[1:]:
        if {name: record.counters.get(name, 0) for name in COUNTERS} != first:
            problems.append("per-layer counters differ between traced passes")
    if seed == workloads.DEFAULT_SEED:
        pinned = expected["counters"][workload]
        for name, value in pinned.items():
            if first.get(name, 0) != value:
                problems.append(
                    f"counter {name} = {first.get(name, 0)}, expected {value}"
                )
    return problems


def measure(
    workdir: str,
    workload: str,
    seed: int,
    seconds: float,
    trace: bool,
    expected: Dict[str, object],
) -> Dict[str, object]:
    targets = workloads.read_targets(workdir)
    out_path = os.path.join(workdir, "report.out")
    passes = run_passes(workload, targets, seconds, trace, out_path)
    peak_mb = peak_rss_mb()  # before the check pass allocates anything
    raw_walls = [r.wall for r in passes]
    raw = end_to_end([r for r in passes if not r.traced], peak_mb)
    for record in passes:
        at_reference_speed(record)
    refs = workloads.references(workload, seed, targets, expected, out_path)
    workloads.check_runs(workload, seed, targets, passes, refs, expected)
    timed = [r for r in passes if not r.traced]
    problems = sorted(
        {f"{run.name}: {run.problem}" for r in passes for run in r.apps if run.problem}
    )
    if trace:
        problems += layer_problems(workload, seed, passes, expected)
        metrics = per_layer(workload, passes)
    else:
        metrics = end_to_end(timed, peak_mb)
    attempted = sum(len(r.apps) for r in passes)
    failed = sum(run.problem is not None for r in passes for run in r.apps)
    return {
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "passes": len(timed),
        "traced_passes": len(passes) - len(timed),
        "samples": sum(len(r.apps) for r in timed),
        "pass_walls": [round(wall, 3) for wall in raw_walls],
        "slowdowns": [round(r.slowdown, 3) for r in passes],
        "raw": raw,
        "metrics": metrics,
    }


def main(argv: List[str]) -> int:
    workdir, workload, seed, seconds, trace = argv
    expected = workloads.load_expected()
    result = measure(
        workdir, workload, int(seed), float(seconds), trace == "1", expected
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
