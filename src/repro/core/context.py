"""Call-site context sensitivity via 1-level method cloning.

The paper's case study attributes the XBMC outlier (receivers 8.81,
perfectly-precise 3.59) to the calling-context-insensitive treatment of
shared helper methods, and notes that "applying existing techniques for
context sensitivity would lead to an even more precise solution".

This module implements the classic cloning-based realisation of
1-call-site sensitivity: every application method that (a) contains GUI
operation call sites and (b) is invoked from more than one call site is
duplicated per call site, and each caller is redirected to its private
clone. Operation nodes then live in per-context methods, so receiver
sets no longer merge across callers. The refinement is sound and
bounded (one level, no recursive cloning).
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.app import AndroidApp
from repro.hierarchy.cha import ClassHierarchy
from repro.hierarchy.callgraph import CallSite, build_call_graph
from repro.ir.program import Clazz, Method, MethodSig, Program
from repro.ir.statements import Invoke, InvokeKind
from repro.platform.api import classify_invoke


@dataclass
class CloneInfo:
    """Outcome of the cloning transformation."""

    app: AndroidApp
    # clone signature -> original signature
    origin: Dict[MethodSig, MethodSig] = field(default_factory=dict)
    cloned_methods: List[MethodSig] = field(default_factory=list)


def _copy_method(method: Method, new_name: Optional[str] = None) -> Method:
    clone = Method(
        new_name or method.name,
        method.class_name,
        params=[(name, method.local_type(name)) for name in method.param_names],
        return_type=method.return_type,
        is_static=method.is_static,
        is_abstract=method.is_abstract,
    )
    clone.locals = {name: copy.copy(local) for name, local in method.locals.items()}
    clone.body = [copy.deepcopy(stmt) for stmt in method.body]
    return clone


def _copy_program(program: Program) -> Program:
    out = Program()
    for clazz in program.classes.values():
        new_class = Clazz(
            clazz.name,
            superclass=clazz.superclass,
            interfaces=clazz.interfaces,
            is_interface=clazz.is_interface,
            is_platform=clazz.is_platform,
        )
        for f in clazz.fields.values():
            new_class.add_field(copy.copy(f))
        for m in clazz.methods.values():
            new_class.add_method(_copy_method(m))
        out.add_class(new_class)
    return out


def _has_op_sites(
    hierarchy: ClassHierarchy, method: Method
) -> bool:
    return any(
        isinstance(stmt, Invoke)
        and classify_invoke(hierarchy, method, stmt) is not None
        for stmt in method.body
    )


def _is_safely_cloneable(
    program: Program, hierarchy: ClassHierarchy, method: Method
) -> bool:
    """Cloning redirects callers by *name*, which is only sound when the
    call cannot dynamically dispatch elsewhere: static methods, or
    instance methods never overridden in the hierarchy."""
    if method.is_static:
        return True
    overriders = 0
    for sub in hierarchy.subtypes(method.class_name):
        c = program.clazz(sub)
        if c is not None and c.method(method.name, len(method.param_names)):
            overriders += 1
    return overriders == 1


def clone_for_context_sensitivity(app: AndroidApp) -> CloneInfo:
    """Produce a transformed app with per-call-site helper clones.

    The input app is not modified; resources and manifest are shared
    (they are read-only for the analysis).
    """
    program = _copy_program(app.program)
    hierarchy = ClassHierarchy(program)
    call_graph = build_call_graph(program, hierarchy)

    # Candidates: operation-bearing methods with >= 2 call sites.
    candidates: List[Method] = []
    for method in program.application_methods():
        if not _has_op_sites(hierarchy, method):
            continue
        callers = call_graph.callers_of(method.sig)
        if len(callers) < 2:
            continue
        if _is_safely_cloneable(program, hierarchy, method):
            candidates.append(method)

    new_app_program = program
    info_origin: Dict[MethodSig, MethodSig] = {}
    cloned: List[MethodSig] = []
    for method in candidates:
        owner = new_app_program.require_class(method.class_name)
        callers = sorted(
            call_graph.callers_of(method.sig), key=lambda s: (str(s.caller), s.index)
        )
        for ctx_index, site in enumerate(callers):
            clone_name = f"{method.name}__ctx{ctx_index}"
            clone = _copy_method(method, new_name=clone_name)
            owner.add_method(clone)
            info_origin[clone.sig] = method.sig
            cloned.append(clone.sig)
            caller_method = new_app_program.method(
                site.caller.class_name, site.caller.name, site.caller.arity
            )
            assert caller_method is not None
            stmt = caller_method.body[site.index]
            assert isinstance(stmt, Invoke)
            stmt.method_name = clone_name
            stmt.class_name = method.class_name

    transformed = AndroidApp(
        name=f"{app.name}+1cs",
        program=new_app_program,
        resources=app.resources,
        manifest=app.manifest,
    )
    return CloneInfo(app=transformed, origin=info_origin, cloned_methods=cloned)
