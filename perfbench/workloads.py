"""The benchmark's workloads: inputs, timed passes and output checks.

* ``corpus-batch`` — the paper's 20 evaluation apps through
  ``run_batch(dirs, BatchOptions(jobs=2))`` with the default
  ``analyze_job``: ``repro batch`` as a user runs it on two cores.
  Load, validate, build, plain solve, Table 1/2 metrics and
  ``fingerprint_hash`` run per worker, plus the runner's fan-out and
  its stragglers (K9, FBReader, Astrid). Provenance, lint and the
  transition/taint clients never run here.
* ``lint-witness`` — ``repro lint PROJECT --format sarif`` with
  witnesses, serially, on six mid-size corpus apps (precise and
  imprecise ones, so every rule fires with witnesses) plus the two
  ``.alite`` example projects. Solve with provenance recording is its
  largest share; it is the only workload that runs the ``.alite``
  front end, the lint rules, witnesses and SARIF.
* ``scale-analyze`` — ``repro analyze PROJECT --tuples --transitions
  --taint`` on the synthetic ``scale8`` and ``scale16`` apps: the only
  workload where the clients run at size; the 2x step shows how each
  layer scales with graph size.

Set-up generates the corpus apps with ``repro.corpus`` and dumps them
as project directories; the timed passes see only those directories,
so loading goes through ``load_app_from_dir`` -> ``load_dumped_app``
like a user's run. Seed 0 uses every spec's own seed (the committed
corpus); any other seed re-draws ``AppSpec.seed``, which gives other
programs with the same Table 1 statistics.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import os
import random
import re
import resource
import shutil
import time
from typing import Dict, List, Optional, Tuple

from layers import LayerTrace, installed

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
EXPECTED_PATH = os.path.join(HERE, "expected.json")
EXPECTED_SCHEMA = "perfbench.expected/1"

WORKLOADS = ("corpus-batch", "lint-witness", "scale-analyze")
DEFAULT_SEED = 0
JOBS = 2  # batch worker processes: the machine's two cores
LINT_APPS = ("ConnectBot", "BarcodeScanner", "Beem", "VLC", "NPR", "Mileage")
LINT_EXAMPLES = ("notepad", "buggy")
SCALES = (8, 16)
TABLE1 = (
    "classes",
    "methods",
    "layout_ids",
    "view_ids",
    "views_inflated",
    "views_allocated",
    "listeners",
)

# Layers (span names) that must record on a workload's traced pass.
LAYERS_BY_WORKLOAD: Dict[str, Tuple[str, ...]] = {
    "corpus-batch": (
        "load", "load.dex", "load.xml", "validate", "build", "solve",
        "clients.metrics", "fingerprint",
    ),
    "lint-witness": (
        "load", "load.dex", "load.xml", "load.alite", "validate", "build",
        "solve", "lint.rules", "lint.witness", "lint.report",
    ),
    "scale-analyze": (
        "load", "load.dex", "load.xml", "validate", "build", "solve",
        "clients.transitions", "clients.taint", "clients.model",
        "clients.metrics",
    ),
}


@dataclasses.dataclass
class Target:
    """One generated project directory and what its output must satisfy."""

    name: str
    path: str
    table1: Optional[Dict[str, int]] = None  # spec's Table 1 counts


@dataclasses.dataclass
class AppRun:
    """One app's timed run inside a pass."""

    name: str
    seconds: float
    output: object = None  # payload, SARIF text or stdout text
    error: Optional[str] = None  # set when the run itself failed
    problem: Optional[str] = None  # set by the output check


@dataclasses.dataclass
class PassRecord:
    """One whole pass over a workload's targets."""

    wall: float  # program seconds: run_batch wall, or sum of app runs
    cpu: float  # user+sys seconds, worker processes included
    apps: List[AppRun]
    slots: int = 1  # processes doing analysis concurrently
    traced: bool = False
    slowdown: float = 1.0  # host slowdown around the pass (hostspeed)
    # Traced passes only: self seconds per span name and counters.
    layers: Dict[str, float] = dataclasses.field(default_factory=dict)
    counters: Dict[str, int] = dataclasses.field(default_factory=dict)


# -- inputs -------------------------------------------------------------------


def redraw(spec, seed: int):
    """``spec`` itself for the default seed, else with a re-drawn seed."""
    if seed == DEFAULT_SEED:
        return spec
    rng = random.Random(f"{seed}:{spec.name}")
    return dataclasses.replace(spec, seed=rng.randrange(1, 2 ** 31))


def workload_specs(workload: str, seed: int) -> list:
    from repro.bench.solverbench import scaled_spec
    from repro.corpus.apps import APP_SPECS, spec_by_name

    if workload == "corpus-batch":
        specs = list(APP_SPECS)
    elif workload == "lint-witness":
        specs = [spec_by_name(name) for name in LINT_APPS]
    elif workload == "scale-analyze":
        specs = [scaled_spec(scale) for scale in SCALES]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return [redraw(spec, seed) for spec in specs]


def prepare(workload: str, seed: int, root: str) -> List[Target]:
    """Generate and dump the workload's projects under ``root``."""
    if os.path.exists(root):
        shutil.rmtree(root)
    os.makedirs(root)
    targets = [dump_spec(spec, root) for spec in workload_specs(workload, seed)]
    if workload == "lint-witness":
        for name in LINT_EXAMPLES:
            path = os.path.join(root, name)
            shutil.copytree(os.path.join(ROOT, "examples", "projects", name), path)
            targets.append(Target(name, path))
    write_targets(root, targets)
    return targets


def dump_spec(spec, root: str) -> Target:
    """Generate ``spec``'s app and dump it as ``root/<name>``."""
    from repro.corpus.export import dump_app
    from repro.corpus.generator import generate_app

    path = os.path.join(root, spec.name)
    dump_app(generate_app(spec), path)
    return Target(spec.name, path, {k: getattr(spec, k) for k in TABLE1})


def write_targets(root: str, targets: List[Target]) -> None:
    with open(os.path.join(root, "targets.json"), "w", encoding="utf-8") as f:
        json.dump([dataclasses.asdict(t) for t in targets], f)


def read_targets(root: str) -> List[Target]:
    with open(os.path.join(root, "targets.json"), encoding="utf-8") as f:
        return [Target(**item) for item in json.load(f)]


def load_expected(path: str = EXPECTED_PATH) -> Dict[str, object]:
    with open(path, encoding="utf-8") as f:
        expected = json.load(f)
    if expected.get("schema") != EXPECTED_SCHEMA:
        raise ValueError(f"{path}: not a {EXPECTED_SCHEMA} document")
    return expected


# -- timed passes ---------------------------------------------------------------


def _cpu() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def traced_analyze_job(app, options, layer: LayerTrace) -> Dict[str, object]:
    """Batch job of the traced run: ``analyze_job`` plus the worker's layers.

    The worker was forked with the wrappers installed, so its copy of
    ``layer`` already holds the load and validate spans of this app.
    """
    from repro.runner import tasks

    payload = tasks.analyze_job(app, options)
    return {"payload": payload, "trace": layer.take()}


def _batch_pass(targets: List[Target], layer: Optional[LayerTrace]) -> PassRecord:
    from repro.runner import STATUS_OK, BatchOptions, run_batch

    dirs = [t.path for t in targets]
    options = BatchOptions(jobs=JOBS)
    cpu0 = _cpu()
    if layer is None:
        result = run_batch(dirs, options)
    else:
        with installed(layer):
            result = run_batch(
                dirs, options, job=traced_analyze_job, job_args=(layer,)
            )
    record = PassRecord(
        wall=result.elapsed_seconds,
        cpu=_cpu() - cpu0,
        apps=[],
        slots=JOBS,
        traced=layer is not None,
    )
    if layer is not None:
        record.counters["batch.retries"] = result.retries
    for outcome in result.outcomes:
        run = AppRun(outcome.name, outcome.seconds)
        if outcome.status != STATUS_OK:
            message = (outcome.error or {}).get("message", "")
            run.error = f"{outcome.status}: {message}"
        elif layer is None:
            run.output = outcome.payload
        else:
            run.output = outcome.payload["payload"]
            trace = outcome.payload["trace"]
            for name, seconds in trace["self"].items():
                record.layers[name] = record.layers.get(name, 0.0) + seconds
            for name, value in trace["counters"].items():
                record.counters[name] = record.counters.get(name, 0) + value
        record.apps.append(run)
    return record


def _cli_argv(workload: str, target: Target, out_path: str) -> List[str]:
    if workload == "lint-witness":
        return ["lint", target.path, "--format", "sarif", "--output", out_path]
    return ["analyze", target.path, "--tuples", "--transitions", "--taint"]


def _cli_run(workload: str, target: Target, out_path: str) -> AppRun:
    """One ``python -m repro`` command, in process, timed end to end."""
    from repro.__main__ import main as cli_main

    stdout = io.StringIO()
    started = time.perf_counter()
    try:
        with contextlib.redirect_stdout(stdout):
            code = cli_main(_cli_argv(workload, target, out_path))
    except Exception as exc:  # an app that raises is a failed run, not a crash
        return AppRun(
            target.name,
            time.perf_counter() - started,
            error=f"{type(exc).__name__}: {exc}",
        )
    seconds = time.perf_counter() - started
    # lint exits 1 when it has findings; 2 means it could not run.
    allowed = (0, 1) if workload == "lint-witness" else (0,)
    if code not in allowed:
        return AppRun(target.name, seconds, error=f"exit code {code}")
    if workload == "lint-witness":
        with open(out_path, encoding="utf-8") as f:
            return AppRun(target.name, seconds, output=f.read())
    return AppRun(target.name, seconds, output=stdout.getvalue())


def _cli_pass(
    workload: str, targets: List[Target], layer: Optional[LayerTrace], out_path: str
) -> PassRecord:
    runs: List[AppRun] = []
    cpu = 0.0
    with installed(layer) if layer is not None else contextlib.nullcontext():
        for target in targets:
            cpu0 = _cpu()
            runs.append(_cli_run(workload, target, out_path))
            cpu += _cpu() - cpu0
    record = PassRecord(
        wall=sum(run.seconds for run in runs),
        cpu=cpu,
        apps=runs,
        traced=layer is not None,
    )
    if layer is not None:
        taken = layer.take()
        record.layers = taken["self"]
        record.counters = taken["counters"]
    return record


def run_pass(
    workload: str,
    targets: List[Target],
    layer: Optional[LayerTrace],
    out_path: str,
) -> PassRecord:
    """One closed-loop pass; ``layer`` set means traced."""
    if workload == "corpus-batch":
        return _batch_pass(targets, layer)
    return _cli_pass(workload, targets, layer, out_path)


def warm_up(workload: str, targets: List[Target], out_path: str) -> None:
    """Pay the CLI's lazy imports before timing."""
    if workload != "corpus-batch":  # batch apps each run in a fresh worker
        _cli_run(workload, targets[0], out_path)


# -- output checks --------------------------------------------------------------

_SOLVE_TIME = re.compile(r"solve: [0-9.]+s")


def digest(text: str) -> str:
    """SHA-256 of an output with its one wall-clock figure blanked."""
    return hashlib.sha256(_SOLVE_TIME.sub("solve: ?s", text).encode()).hexdigest()


@dataclasses.dataclass
class Reference:
    """Checked truth for one app, from committed values or the oracle."""

    fingerprint: Optional[str] = None
    digest: Optional[str] = None  # serial workloads: the check run's output
    problem: Optional[str] = None  # the reference itself failed


def oracle_problem(result) -> Optional[str]:
    """Interpreter oracle: the static solution must cover every execution."""
    from repro.semantics import check_soundness, run_app

    if not result.converged:
        return "solver did not converge"
    report = check_soundness(result, run_app(result.app).trace)
    if report.violations:
        return f"unsound: {report.violations[0]}"
    return None


def oracle_job(app, options) -> Dict[str, object]:
    """Batch job of the check pass: fingerprint plus oracle verdict."""
    from repro.core.analysis import analyze
    from repro.runner.tasks import fingerprint_hash

    result = analyze(app, options)
    return {"fingerprint": fingerprint_hash(result), "problem": oracle_problem(result)}


@contextlib.contextmanager
def _captured():
    """Keep every analysis result and lint report the CLI produces."""
    import repro
    import repro.lint

    seen: Dict[str, list] = {"results": [], "reports": []}
    analyze, run_lint = repro.analyze, repro.lint.run_lint

    def analyze_capturing(*args, **kwargs):
        seen["results"].append(analyze(*args, **kwargs))
        return seen["results"][-1]

    def run_lint_capturing(*args, **kwargs):
        seen["reports"].append(run_lint(*args, **kwargs))
        return seen["reports"][-1]

    repro.analyze, repro.lint.run_lint = analyze_capturing, run_lint_capturing
    try:
        yield seen
    finally:
        repro.analyze, repro.lint.run_lint = analyze, run_lint


def references(
    workload: str,
    seed: int,
    targets: List[Target],
    expected: Dict[str, object],
    out_path: str,
) -> Dict[str, Reference]:
    """The untimed check pass.

    Seed 0 compares fingerprints with the committed ones; any other
    seed runs the interpreter oracle (static solution covers every
    dynamic fact) on the solution instead. Serial workloads also keep
    the check run's output, which every timed run must reproduce.
    """
    from repro.runner.tasks import fingerprint_hash

    committed = expected["fingerprints"] if seed == DEFAULT_SEED else None
    refs: Dict[str, Reference] = {}
    if workload == "corpus-batch":
        if committed is not None:
            return {t.name: Reference(committed.get(t.name)) for t in targets}
        from repro.runner import STATUS_OK, BatchOptions, run_batch

        result = run_batch(
            [t.path for t in targets], BatchOptions(jobs=JOBS), job=oracle_job
        )
        for outcome in result.outcomes:
            if outcome.status != STATUS_OK:
                refs[outcome.name] = Reference(problem=f"check run {outcome.status}")
            else:
                refs[outcome.name] = Reference(
                    outcome.payload["fingerprint"],
                    problem=outcome.payload["problem"],
                )
        return refs
    for target in targets:
        with _captured() as seen:
            run = _cli_run(workload, target, out_path)
        if run.error is not None:
            refs[target.name] = Reference(problem=f"check run: {run.error}")
            continue
        result = seen["results"][0]
        ref = Reference(fingerprint_hash(result), digest(run.output))
        if committed is not None:
            if committed.get(target.name) != ref.fingerprint:
                ref.problem = "solution fingerprint differs from expected.json"
        else:
            ref.problem = oracle_problem(result)
        for report in seen["reports"]:
            for finding in report.findings:
                if finding.fact is not None and not finding.witness:
                    ref.problem = f"finding {finding.uid} has no witness"
        refs[target.name] = ref
    return refs


def sarif_problem(text: str, expected_uids: Optional[List[str]]) -> Optional[str]:
    from repro.lint import validate_sarif

    doc = json.loads(text)
    problems = validate_sarif(doc)
    if problems:
        return f"invalid SARIF: {problems[0]}"
    if expected_uids is not None:
        uids = sorted(
            r["partialFingerprints"]["reproLintUid/v1"] for r in doc["runs"][0]["results"]
        )
        if uids != expected_uids:
            return "lint finding uids differ from expected.json"
    return None


def check_runs(
    workload: str,
    seed: int,
    targets: List[Target],
    passes: List[PassRecord],
    refs: Dict[str, Reference],
    expected: Dict[str, object],
) -> None:
    """Set ``problem`` on every timed run whose output is wrong."""
    by_name = {t.name: t for t in targets}
    lint_uids = expected.get("lint_uids", {}) if seed == DEFAULT_SEED else None
    sarif_verdicts: Dict[str, Optional[str]] = {}
    for record in passes:
        for run in record.apps:
            ref = refs.get(run.name, Reference(problem="no reference"))
            if run.error is not None:
                run.problem = run.error
            elif ref.problem is not None:
                run.problem = ref.problem
            elif workload == "corpus-batch":
                run.problem = _payload_problem(run.output, ref, by_name[run.name])
            elif digest(run.output) != ref.digest:
                run.problem = "output differs from the check run"
            elif workload == "lint-witness":
                key = ref.digest
                if key not in sarif_verdicts:
                    uids = None if lint_uids is None else lint_uids.get(run.name, [])
                    sarif_verdicts[key] = sarif_problem(run.output, uids)
                run.problem = sarif_verdicts[key]


def _payload_problem(payload, ref: Reference, target: Target) -> Optional[str]:
    if payload["fingerprint"] != ref.fingerprint:
        return "solution fingerprint differs from the reference"
    if not payload["solver"]["converged"]:
        return "solver did not converge"
    if target.table1 is not None and payload["stats"] != target.table1:
        return f"Table 1 statistics {payload['stats']} differ from the spec"
    return None
