"""Per-layer tracing for the benchmark's traced run.

The traced run times each layer from outside: :func:`installed` swaps
the public entry points of every layer for thin wrappers that open a
span on a benchmark-owned :class:`repro.obs.Tracer` (never the ambient
tracer, so no library-internal span is recorded) and bump the layer's
effort counters. A layer's *self time* is its span's duration minus
the time its child spans cover, so nested calls (``gui_tuples`` inside
``build_transition_graph``, ``parse_dex_text`` inside
``load_app_from_dir``) are charged once, to the innermost layer.

Each wrapper replaces a module attribute at the place the caller looks
it up. If a later change moves a call, the layer stops recording and
the traced run reports the missing layer as a failed check instead of
printing a silent zero (see ``LAYERS_BY_WORKLOAD`` in ``workloads``).
"""

from __future__ import annotations

import contextlib
import functools
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from repro.obs.tracer import Tracer

# Span name -> per-layer metric reported for its self time.
TIME_METRICS: Dict[str, str] = {
    "load": "load.s",
    "load.dex": "load.dex.s",
    "load.xml": "load.xml.s",
    "load.alite": "load.alite.s",
    "validate": "validate.s",
    "build": "build.s",
    "solve": "solve.s",
    "clients.transitions": "clients.transitions.s",
    "clients.taint": "clients.taint.s",
    "clients.model": "clients.model.s",
    "clients.metrics": "clients.metrics.s",
    "lint.rules": "lint.rules.s",
    "lint.witness": "lint.witness.s",
    "lint.report": "lint.report.s",
    "fingerprint": "fingerprint.s",
}

# Deterministic effort counters; every traced pass must repeat them exactly.
COUNTERS: Tuple[str, ...] = (
    "load.statements",
    "build.nodes",
    "build.flow_edges",
    "build.rel_edges",
    "build.ops",
    "solve.rounds",
    "solve.work_items",
    "solve.values_added",
    "solve.ops_scheduled",
    "solve.ops_skipped",
    "solve.prov_facts",
    "clients.tuples",
    "clients.transitions",
    "lint.findings",
    "lint.witness_steps",
    "batch.retries",
)


class LayerTrace:
    """Span and counter sink for one process's traced work.

    Wrappers look the tracer up on every call, so :meth:`take` can hand
    out what was recorded and start afresh between passes.
    """

    def __init__(self) -> None:
        self.tracer = Tracer()

    def take(self) -> Dict[str, Dict[str, float]]:
        """Self seconds per span name and counters; then reset."""
        tracer, self.tracer = self.tracer, Tracer()
        return {"self": self_seconds(tracer), "counters": dict(tracer.counters)}


def self_seconds(tracer: Tracer) -> Dict[str, float]:
    """Span duration minus direct-child durations, summed per name."""
    child = [0.0] * len(tracer.spans)
    for span in tracer.spans:
        if span.parent is not None:
            child[span.parent] += span.seconds
    totals: Dict[str, float] = {}
    for index, span in enumerate(tracer.spans):
        totals[span.name] = totals.get(span.name, 0.0) + span.seconds - child[index]
    return totals


def _timed(
    layer: LayerTrace,
    name: str,
    fn: Callable,
    count: Optional[Callable[[LayerTrace, object], None]] = None,
) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with layer.tracer.span(name):
            out = fn(*args, **kwargs)
        if count is not None:
            count(layer, out)
        return out

    return wrapper


def _count_load(layer: LayerTrace, app) -> None:
    layer.tracer.counter("load.statements", app.program.statement_count())


def _count_witness(layer: LayerTrace, steps) -> None:
    layer.tracer.counter("lint.witness_steps", len(steps))


def _count_lint(layer: LayerTrace, report) -> None:
    layer.tracer.counter("lint.findings", len(report.findings))


def _count_transitions(layer: LayerTrace, graph) -> None:
    layer.tracer.counter("clients.tuples", len(graph.tuples))
    layer.tracer.counter("clients.transitions", len(graph.transitions))


def _traced_analysis(layer: LayerTrace, base: type) -> type:
    """``GuiReferenceAnalysis`` with build (``__init__``) and solve timed."""
    from repro.core.graph import RelKind

    class TracedAnalysis(base):
        def __init__(self, app, options=None, tracer=None) -> None:
            with layer.tracer.span("build"):
                super().__init__(app, options, tracer)
            graph = self.graph
            counter = layer.tracer.counter
            counter("build.nodes", len(graph.nodes))
            counter("build.flow_edges", graph.flow_edge_count())
            counter(
                "build.rel_edges",
                sum(graph.rel_edge_count(kind) for kind in RelKind),
            )
            counter("build.ops", len(graph.ops()))

        def solve(self):
            with layer.tracer.span("solve"):
                result = super().solve()
            counter = layer.tracer.counter
            counter("solve.rounds", result.rounds)
            counter("solve.work_items", result.work_items)
            counter("solve.values_added", result.values_added)
            counter("solve.ops_scheduled", result.ops_scheduled)
            counter("solve.ops_skipped", result.ops_skipped)
            if result.provenance is not None:
                counter("solve.prov_facts", result.provenance.record_count())
            return result

    return TracedAnalysis


def _patches(layer: LayerTrace) -> List[Tuple[object, str, object]]:
    """(owner, attribute, replacement) for every traced entry point."""
    import repro.app
    import repro.clients
    import repro.core.analysis
    import repro.core.metrics
    import repro.core.results
    import repro.corpus.export
    import repro.frontend
    import repro.frontend.loader
    import repro.lint
    import repro.lint.engine
    import repro.runner.tasks

    loader = repro.frontend.loader
    export = repro.corpus.export
    tasks = repro.runner.tasks
    metrics = repro.core.metrics
    load = _timed(layer, "load", loader.load_app_from_dir, _count_load)
    patches: List[Tuple[object, str, object]] = [
        # load: the CLI imports it from repro.frontend, batch workers
        # from repro.frontend.loader.
        (repro.frontend, "load_app_from_dir", load),
        (loader, "load_app_from_dir", load),
        (loader, "compile_sources", _timed(layer, "load.alite", loader.compile_sources)),
        (export, "parse_dex_text", _timed(layer, "load.dex", export.parse_dex_text)),
        (repro.app, "validate_program", _timed(layer, "validate", repro.app.validate_program)),
        (
            repro.core.analysis,
            "GuiReferenceAnalysis",
            _traced_analysis(layer, repro.core.analysis.GuiReferenceAnalysis),
        ),
        (
            repro.clients,
            "build_transition_graph",
            _timed(
                layer,
                "clients.transitions",
                repro.clients.build_transition_graph,
                _count_transitions,
            ),
        ),
        (
            repro.clients,
            "run_taint_analysis",
            _timed(layer, "clients.taint", repro.clients.run_taint_analysis),
        ),
        (
            repro.core.results.AnalysisResult,
            "gui_tuples",
            _timed(layer, "clients.model", repro.core.results.AnalysisResult.gui_tuples),
        ),
        (repro.lint, "run_lint", _timed(layer, "lint.rules", repro.lint.run_lint, _count_lint)),
        (
            repro.lint.engine,
            "reconstruct_witness",
            _timed(
                layer,
                "lint.witness",
                repro.lint.engine.reconstruct_witness,
                _count_witness,
            ),
        ),
        (repro.lint, "to_sarif", _timed(layer, "lint.report", repro.lint.to_sarif)),
        (
            repro.lint,
            "validate_sarif",
            _timed(layer, "lint.report", repro.lint.validate_sarif),
        ),
        (
            tasks,
            "fingerprint_hash",
            _timed(layer, "fingerprint", tasks.fingerprint_hash),
        ),
    ]
    for owner in (loader, export):
        for attr in ("parse_layout_xml", "parse_menu_xml", "parse_manifest_xml"):
            patches.append(
                (owner, attr, _timed(layer, "load.xml", getattr(owner, attr)))
            )
    for owner in (metrics, tasks):
        for attr in ("compute_graph_stats", "compute_precision"):
            patches.append(
                (owner, attr, _timed(layer, "clients.metrics", getattr(owner, attr)))
            )
    return patches


@contextlib.contextmanager
def installed(layer: LayerTrace) -> Iterator[LayerTrace]:
    """Route every layer entry point through ``layer`` for the block.

    Batch workers forked inside the block inherit the wrappers and a
    copy of ``layer``, so their spans land in the worker's copy.
    """
    patches = _patches(layer)
    saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in patches]
    try:
        for owner, attr, replacement in patches:
            setattr(owner, attr, replacement)
        yield layer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
