"""Cyclic garbage collector policy for whole commands.

An analysis allocates hundreds of thousands of long-lived, acyclic
objects (graph nodes, points-to sets, IR). CPython's generational
collector keeps rescanning that growing heap while finding almost
nothing to free, so it costs a large share of a command's run time.
Solutions are kept free of reference cycles (pinned by
``tests/test_collector.py``), which lets reference counting free them as
soon as a caller drops them; the cyclic collector can then be paused
for one unit of work without holding on to memory.

Only process owners pause it: the CLI entry point around one command,
and a batch worker around its one app. Library calls (``analyze``,
``load_app_from_dir``, ``run_lint``) never change collector state.
This is the only module under ``repro`` that imports :mod:`gc`.
"""

from __future__ import annotations

import contextlib
import gc
from typing import Iterator


@contextlib.contextmanager
def collector_paused() -> Iterator[None]:
    """Disable the cyclic collector for the body, then restore its state.

    Nesting-safe (an inner pause leaves the outer one in charge) and
    exception-safe (the state is restored however the body exits).
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()
