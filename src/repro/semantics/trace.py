"""Dynamic-fact traces and the soundness check against a static solution.

Every executed GUI operation is recorded as an :class:`OpEvent` with
the creation tags of its receiver, argument, and result. The soundness
check maps each tag to its static abstraction and asserts containment
in the corresponding ``flowsTo`` set — the static analysis must
over-approximate every observed run-time behaviour.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro.core.nodes import (
    Node,
    OpArg,
    OpRecv,
    Site,
    ValueNode,
)
from repro.core.results import AnalysisResult
from repro.semantics.values import (
    ActivityTag,
    AllocTag,
    CreationTag,
    FrameworkTag,
    InflTag,
    MenuItemTag,
)


@dataclass(frozen=True)
class OpEvent:
    """One executed operation: site plus participating object tags."""

    kind: str
    site: Site
    receiver: Optional[CreationTag] = None
    argument: Optional[CreationTag] = None
    result: Optional[CreationTag] = None


@dataclass
class Trace:
    """All dynamic facts of one run."""

    events: List[OpEvent] = field(default_factory=list)
    handler_invocations: List[str] = field(default_factory=list)

    def record(self, event: OpEvent) -> None:
        self.events.append(event)

    def events_at(self, site: Site) -> List[OpEvent]:
        return [e for e in self.events if e.site == site]


def tag_to_value(result: AnalysisResult, tag: CreationTag) -> Optional[ValueNode]:
    """Map a runtime creation tag to its static abstraction node."""
    graph = result.graph
    if isinstance(tag, ActivityTag):
        return graph.lookup_activity(tag.class_name)
    if isinstance(tag, AllocTag):
        return graph.lookup_alloc(tag.site)
    if isinstance(tag, InflTag):
        return graph.lookup_infl_view(tag.op_site, tag.layout, tag.path)
    if isinstance(tag, MenuItemTag):
        return graph.lookup_menu_item(tag.op_site, tag.menu, tag.index)
    return None


@dataclass
class SoundnessReport:
    """Outcome of comparing a trace against a static solution."""

    checked: int = 0
    violations: List[str] = field(default_factory=list)

    @property
    def is_sound(self) -> bool:
        return not self.violations


def _check_membership(
    result: AnalysisResult,
    node: Node,
    tag: Optional[CreationTag],
    what: str,
    report: SoundnessReport,
) -> None:
    if tag is None or isinstance(tag, FrameworkTag):
        return  # framework helpers have no static abstraction by design
    value = tag_to_value(result, tag)
    if value is None:
        report.violations.append(f"{what}: no static abstraction for {tag}")
        return
    report.checked += 1
    if value not in result.values_at(node):
        report.violations.append(
            f"{what}: dynamic value {value} not in static set at {node}"
        )


def check_soundness(result: AnalysisResult, trace: Trace) -> SoundnessReport:
    """Verify the static solution over-approximates the trace.

    For every executed operation at site ``s`` with static operation
    node ``op``: the receiver tag must be in ``flowsTo(OpRecv(op))``,
    the argument tag in ``flowsTo(OpArg(op, 0))``, and the result tag
    in ``flowsTo(op)``.
    """
    report = SoundnessReport()
    for event in trace.events:
        op = result.graph.op_at(event.site)
        if op is None:
            report.violations.append(
                f"no static operation node at executed site {event.site}"
            )
            continue
        _check_membership(
            result, OpRecv(op), event.receiver, f"{op} receiver", report
        )
        _check_membership(
            result, OpArg(op, 0), event.argument, f"{op} argument", report
        )
        _check_membership(result, op, event.result, f"{op} result", report)
    return report
