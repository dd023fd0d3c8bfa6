"""Client analyses built on the GUI reference analysis (Section 6).

The paper positions its analysis as "a key component" for downstream
tools; this package implements three representative clients, and the
lint engine a fourth:

* :mod:`repro.clients.transitions` — the (activity, view, event,
  handler) tuples and the activity transition graph used by run-time
  exploration / test generation (A3E, concolic testing);
* :mod:`repro.clients.gui_model` — reverse engineering of the GUI
  model (Yang et al.): widgets, ids, handlers per activity, with DOT
  export;
* :mod:`repro.clients.taint` — a simple GUI-aware taint client:
  user-input views (EditText) flowing into sink calls via handlers;
* :mod:`repro.lint` — static error checking: unresolved find-view
  lookups, bad casts of find-view results, ambiguous duplicate-id
  lookups, and dead listeners.
"""

from repro.clients.transitions import ActivityTransitionGraph, build_transition_graph
from repro.clients.gui_model import GuiModel, WidgetInfo, build_gui_model
from repro.clients.taint import TaintFinding, run_taint_analysis

__all__ = [
    "ActivityTransitionGraph",
    "GuiModel",
    "TaintFinding",
    "WidgetInfo",
    "build_gui_model",
    "build_transition_graph",
    "run_taint_analysis",
]
