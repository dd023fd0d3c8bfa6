"""Export of constraint graphs and solutions (DOT / JSON).

Downstream tools (visualisation, regression diffing, external
checkers) consume the analysis output in two portable forms:

* :func:`graph_to_dot` — the constraint graph as Graphviz DOT, flow
  edges solid and relationship edges labelled/dashed, mirroring the
  paper's Figure 3/4 rendering;
* :func:`result_to_json` — the solved ``flowsTo`` sets, relationship
  edges, GUI tuples, and metrics as a JSON-serialisable dict.
"""

from __future__ import annotations

import json
from typing import Dict, Iterable, List, Optional, Tuple

from repro.core.graph import ConstraintGraph, RelKind
from repro.core.metrics import (
    compute_graph_stats,
    compute_precision,
    compute_solver_stats,
)
from repro.core.nodes import (
    ActivityNode,
    AllocNode,
    FieldNode,
    InflViewNode,
    LayoutIdNode,
    Node,
    OpArg,
    OpNode,
    OpRecv,
    StaticFieldNode,
    VarNode,
    ViewIdNode,
)
from repro.core.results import AnalysisResult

_NODE_STYLES = {
    VarNode: ("ellipse", "white"),
    FieldNode: ("ellipse", "lightyellow"),
    StaticFieldNode: ("ellipse", "lightyellow"),
    AllocNode: ("box", "lightblue"),
    InflViewNode: ("box", "gray90"),
    ActivityNode: ("box", "lightpink"),
    LayoutIdNode: ("diamond", "white"),
    ViewIdNode: ("diamond", "white"),
    OpNode: ("hexagon", "palegreen"),
    OpRecv: ("point", "black"),
    OpArg: ("point", "black"),
}


def _by_name(edges: Iterable[Tuple[Node, Node]]) -> List[Tuple[Node, Node]]:
    return sorted(edges, key=lambda edge: (str(edge[0]), str(edge[1])))


def graph_to_dot(
    graph: ConstraintGraph,
    include_flow: bool = True,
    include_vars: bool = True,
) -> str:
    """Render the constraint graph as Graphviz DOT.

    The text depends on the graph alone: edges come out sorted by their
    rendered endpoints, and nodes are numbered ``n0``, ``n1``, ... in
    the order they are first emitted."""
    lines = ["digraph constraint_graph {", "  rankdir=LR;"]
    ids: Dict[Node, str] = {}

    def emit(node: Node) -> Optional[str]:
        if not include_vars and isinstance(
            node, (VarNode, FieldNode, StaticFieldNode, OpRecv, OpArg)
        ):
            return None
        nid = ids.get(node)
        if nid is None:
            nid = ids[node] = f"n{len(ids)}"
            shape, fill = _NODE_STYLES.get(type(node), ("ellipse", "white"))
            label = str(node).replace('"', "'")
            lines.append(
                f'  {nid} [label="{label}", shape={shape}, '
                f'style=filled, fillcolor={fill}];'
            )
        return nid

    if include_flow:
        for src, dst in _by_name(graph.flow_edges()):
            a, b = emit(src), emit(dst)
            if a and b:
                lines.append(f"  {a} -> {b};")
    for kind in RelKind:
        for src, dst in _by_name(graph.rel_edges(kind)):
            a, b = emit(src), emit(dst)
            if a and b:
                lines.append(
                    f'  {a} -> {b} [style=dashed, label="{kind.value}"];'
                )
    lines.append("}")
    return "\n".join(lines)


def result_to_json(result: AnalysisResult, indent: Optional[int] = None) -> str:
    """Serialise the solution as JSON."""
    graph = result.graph
    data: Dict[str, object] = {
        "app": result.app.name,
        "rounds": result.rounds,
        "converged": result.converged,
        "solve_seconds": result.solve_seconds,
        "solver": {
            k: v
            for k, v in compute_solver_stats(result).__dict__.items()
            if k != "app_name"
        },
        "statistics": compute_graph_stats(result).__dict__,
        "precision": {
            k: v
            for k, v in compute_precision(result).__dict__.items()
            if k != "app_name"
        },
        "operations": [
            {
                "kind": op.kind.value,
                "site": str(op.site),
                "receivers": sorted(str(v) for v in result.op_receivers(op)),
                "arguments": sorted(str(v) for v in result.op_args(op)),
                "results": sorted(str(v) for v in result.op_results(op)),
            }
            for op in sorted(graph.ops(), key=lambda o: str(o.site))
        ],
        "relationships": {
            kind.value: sorted(
                [str(a), str(b)] for a, b in graph.rel_edges(kind)
            )
            for kind in RelKind
        },
    }
    data["gui_tuples"] = sorted(
        (
            {
                "activity": t.activity_class,
                "view": str(t.view),
                "event": t.event.value,
                "handler": str(t.handler),
            }
            for t in result.gui_tuples()
        ),
        key=lambda d: (d["activity"], d["view"], d["event"], d["handler"]),
    )
    return json.dumps(data, indent=indent, sort_keys=False)
