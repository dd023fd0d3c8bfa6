"""Solver observability: structured tracing, counters, JSON telemetry.

A zero-dependency layer that explains where the analysis spends its
rounds and time, in the spirit of the paper's per-app evaluation
breakdowns. The pieces:

* :mod:`repro.obs.tracer` — the :class:`Tracer` (``span()`` /
  ``counter()`` / ``event()``) and the module-level enabled flag
  (``enable()`` / ``disable()`` / ``active()``, off by default) and
  ``null_span``, the no-op stand-in for ``span()``;
* :mod:`repro.obs.names` — the canonical span/counter/event names,
  including the per-inference-rule counters keyed by ``OpKind``;
* :mod:`repro.obs.export` — the ``repro.obs/1`` JSON exporter.

Entry points: ``python -m repro analyze PROJECT --profile
[--profile-json FILE]`` and ``python -m repro.bench table2 --profile``.
The schema is documented in ``docs/OBSERVABILITY.md``.
"""

from repro.obs import names
from repro.obs.export import snapshot, to_json
from repro.obs.tracer import (
    EventRecord,
    SpanRecord,
    Tracer,
    active,
    disable,
    enable,
    enabled,
    null_span,
)

__all__ = [
    "EventRecord",
    "SpanRecord",
    "Tracer",
    "active",
    "disable",
    "enable",
    "enabled",
    "names",
    "null_span",
    "snapshot",
    "to_json",
]
