"""Direct interpreter for ALite with the Android operation semantics.

Application method bodies execute statement by statement; call sites
classified as GUI operations (by the same API catalog the static
analysis uses) execute the concrete rules of Section 3.2 against the
heap's artificial fields, and every such execution is recorded in the
trace for the soundness oracle.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.app import AndroidApp
from repro.core.nodes import Site
from repro.hierarchy.cha import ClassHierarchy
from repro.ir.program import Method
from repro.ir.statements import (
    Assign,
    BinOp,
    Cast,
    ConstInt,
    ConstLayoutId,
    ConstMenuId,
    ConstNull,
    ConstString,
    ConstViewId,
    Goto,
    If,
    Invoke,
    InvokeKind,
    Label,
    Load,
    New,
    Return,
    StaticLoad,
    StaticStore,
    Store,
    UnaryOp,
)
from repro.platform.api import OpKind, OpSpec, classify_invoke
from repro.resources.layout import LayoutNode
from repro.semantics.trace import OpEvent, Trace
from repro.semantics.values import AllocTag, Heap, InflTag, MenuItemTag, Obj


class StepBudgetExceeded(Exception):
    """The interpreter exceeded its step or depth budget."""


@dataclass
class InterpreterLimits:
    """Execution budgets guaranteeing termination on arbitrary input."""

    max_steps: int = 500_000
    max_depth: int = 200


class Interpreter:
    """Executes ALite code over a concrete heap."""

    def __init__(
        self,
        app: AndroidApp,
        heap: Optional[Heap] = None,
        trace: Optional[Trace] = None,
        limits: Optional[InterpreterLimits] = None,
        seed: int = 0,
    ) -> None:
        self.app = app
        self.program = app.program
        self.hierarchy = ClassHierarchy(app.program)
        self.heap = heap if heap is not None else Heap()
        self.trace = trace if trace is not None else Trace()
        self.limits = limits or InterpreterLimits()
        self.rng = random.Random(seed)
        self.steps = 0
        self._depth = 0

    # -- public entry -----------------------------------------------------------

    def call(self, method: Method, this: Optional[Obj], args: List[object]) -> object:
        """Invoke an application method with concrete arguments."""
        if self._depth >= self.limits.max_depth:
            raise StepBudgetExceeded(f"call depth {self._depth} exceeded")
        self._depth += 1
        try:
            return self._run(method, this, args)
        finally:
            self._depth -= 1

    # -- execution ------------------------------------------------------------------

    def _run(self, method: Method, this: Optional[Obj], args: List[object]) -> object:
        env: Dict[str, object] = {name: None for name in method.locals}
        if not method.is_static:
            env["this"] = this
        for name, value in zip(method.param_names, args):
            env[name] = value
        labels = {
            stmt.name: index
            for index, stmt in enumerate(method.body)
            if isinstance(stmt, Label)
        }
        pc = 0
        body = method.body
        while pc < len(body):
            self.steps += 1
            if self.steps > self.limits.max_steps:
                raise StepBudgetExceeded(f"step budget {self.limits.max_steps} exceeded")
            stmt = body[pc]
            if isinstance(stmt, Return):
                return env.get(stmt.var) if stmt.var is not None else None
            if isinstance(stmt, Goto):
                pc = labels[stmt.target]
                continue
            if isinstance(stmt, If):
                if self._truthy(env.get(stmt.cond)):
                    pc = labels[stmt.target]
                    continue
                pc += 1
                continue
            self._execute(method, pc, stmt, env)
            pc += 1
        return None

    def _binop(self, op: str, a: object, b: object) -> object:
        if op == "==":
            return 1 if a == b or (a is b) else 0
        if op == "!=":
            return 0 if a == b or (a is b) else 1
        if op == "&&":
            return 1 if self._truthy(a) and self._truthy(b) else 0
        if op == "||":
            return 1 if self._truthy(a) or self._truthy(b) else 0
        if not isinstance(a, int) or not isinstance(b, int):
            return None
        if op == "+":
            return a + b
        if op == "-":
            return a - b
        if op == "*":
            return a * b
        if op == "/":
            return a // b if b else 0
        if op == "%":
            return a % b if b else 0
        if op == "<":
            return 1 if a < b else 0
        if op == "<=":
            return 1 if a <= b else 0
        if op == ">":
            return 1 if a > b else 0
        if op == ">=":
            return 1 if a >= b else 0
        raise TypeError(f"unknown operator {op!r}")

    @staticmethod
    def _truthy(value: object) -> bool:
        if value is None:
            return False
        if isinstance(value, int):
            return value != 0
        return True

    def _execute(self, method: Method, index: int, stmt, env: Dict[str, object]) -> None:
        if isinstance(stmt, Assign):
            env[stmt.lhs] = env.get(stmt.rhs)
        elif isinstance(stmt, Cast):
            value = env.get(stmt.rhs)
            if isinstance(value, Obj) and not self.hierarchy.is_subtype(
                value.class_name, stmt.type_name
            ):
                value = None  # a real run would throw ClassCastException
            env[stmt.lhs] = value
        elif isinstance(stmt, New):
            site = Site(method.sig, index, stmt.line)
            env[stmt.lhs] = self.heap.allocate(stmt.class_name, AllocTag(site))
        elif isinstance(stmt, Load):
            base = env.get(stmt.base)
            env[stmt.lhs] = base.fields.get(stmt.field_name) if isinstance(base, Obj) else None
        elif isinstance(stmt, Store):
            base = env.get(stmt.base)
            if isinstance(base, Obj):
                base.fields[stmt.field_name] = env.get(stmt.rhs)
        elif isinstance(stmt, StaticLoad):
            env[stmt.lhs] = self.heap.static_get(stmt.class_name, stmt.field_name)
        elif isinstance(stmt, StaticStore):
            self.heap.static_set(stmt.class_name, stmt.field_name, env.get(stmt.rhs))
        elif isinstance(stmt, ConstLayoutId):
            env[stmt.lhs] = self.app.resources.layout_id(stmt.layout_name)
        elif isinstance(stmt, ConstViewId):
            env[stmt.lhs] = self.app.resources.view_id(stmt.id_name)
        elif isinstance(stmt, ConstMenuId):
            env[stmt.lhs] = self.app.resources.menu_id(stmt.menu_name)
        elif isinstance(stmt, ConstInt):
            env[stmt.lhs] = stmt.value
        elif isinstance(stmt, ConstString):
            env[stmt.lhs] = stmt.value
        elif isinstance(stmt, ConstNull):
            env[stmt.lhs] = None
        elif isinstance(stmt, Label):
            pass
        elif isinstance(stmt, BinOp):
            env[stmt.lhs] = self._binop(stmt.op, env.get(stmt.a), env.get(stmt.b))
        elif isinstance(stmt, UnaryOp):
            value = env.get(stmt.a)
            if stmt.op == "!":
                env[stmt.lhs] = 0 if self._truthy(value) else 1
            elif stmt.op == "-":
                env[stmt.lhs] = -value if isinstance(value, int) else None
            else:  # pragma: no cover - lexer restricts operators
                raise TypeError(f"unknown unary operator {stmt.op!r}")
        elif isinstance(stmt, Invoke):
            self._invoke(method, index, stmt, env)
        else:  # pragma: no cover - exhaustive
            raise TypeError(f"unknown statement {type(stmt).__name__}")

    # -- calls ---------------------------------------------------------------------

    def _invoke(self, method: Method, index: int, stmt: Invoke, env: Dict[str, object]) -> None:
        spec = classify_invoke(self.hierarchy, method, stmt)
        if spec is not None:
            result = self._execute_op(method, index, stmt, spec, env)
            if stmt.lhs is not None:
                env[stmt.lhs] = result
            return
        # Ordinary call: concrete dispatch.
        receiver = env.get(stmt.base) if stmt.base is not None else None
        target: Optional[Method] = None
        if stmt.kind is InvokeKind.STATIC:
            target = self._resolve_static(stmt)
        elif stmt.kind is InvokeKind.SPECIAL:
            target = self.hierarchy.lookup(stmt.class_name, stmt.method_name, len(stmt.args))
        elif isinstance(receiver, Obj):
            target = self.hierarchy.lookup(
                receiver.class_name, stmt.method_name, len(stmt.args)
            )
        result: object = None
        if target is not None and self._is_application(target):
            args = [env.get(a) for a in stmt.args]
            result = self.call(target, receiver if isinstance(receiver, Obj) else None, args)
        if stmt.lhs is not None:
            env[stmt.lhs] = result

    def _resolve_static(self, stmt: Invoke) -> Optional[Method]:
        for cname in self.hierarchy.superclass_chain(stmt.class_name):
            c = self.program.clazz(cname)
            if c is None:
                break
            m = c.method(stmt.method_name, len(stmt.args))
            if m is not None and m.is_static:
                return m
        return None

    def _is_application(self, method: Method) -> bool:
        c = self.program.clazz(method.class_name)
        return c is not None and c.is_application

    # -- operations (the Section 3.2 rules, concretely) ------------------------------

    def _execute_op(
        self,
        method: Method,
        index: int,
        stmt: Invoke,
        spec: OpSpec,
        env: Dict[str, object],
    ) -> object:
        site = Site(method.sig, index, stmt.line)
        receiver = env.get(stmt.base) if stmt.base is not None else None
        argument: object = None
        if spec.arg_index is not None and spec.arg_index < len(stmt.args):
            argument = env.get(stmt.args[spec.arg_index])

        result: object = None
        kind = spec.kind
        if kind is OpKind.INFLATE1:
            if isinstance(argument, int):
                result = self._inflate(site, argument)
        elif kind is OpKind.INFLATE2:
            if isinstance(receiver, Obj) and isinstance(argument, int):
                receiver.root = self._inflate(site, argument)
        elif kind is OpKind.ADDVIEW1:
            if isinstance(receiver, Obj) and isinstance(argument, Obj):
                receiver.root = argument
        elif kind is OpKind.ADDVIEW2:
            if isinstance(receiver, Obj) and isinstance(argument, Obj):
                if receiver is not argument:
                    receiver.add_child(argument)
        elif kind is OpKind.SETID:
            if isinstance(receiver, Obj) and isinstance(argument, int):
                receiver.vid = argument
        elif kind is OpKind.SETLISTENER:
            if isinstance(receiver, Obj) and isinstance(argument, Obj) and spec.listener:
                if self.hierarchy.is_subtype(
                    argument.class_name, spec.listener.interface
                ):
                    receiver.add_listener(spec.listener.event.value, argument)
        elif kind is OpKind.FINDVIEW1:
            if isinstance(receiver, Obj) and isinstance(argument, int):
                result = receiver.find_view_by_id(argument)
        elif kind is OpKind.FINDVIEW2:
            if isinstance(receiver, Obj) and receiver.root is not None and isinstance(argument, int):
                result = receiver.root.find_view_by_id(argument)
        elif kind is OpKind.FINDVIEW3:
            if isinstance(receiver, Obj):
                if spec.children_only:
                    candidates = list(receiver.children)
                else:
                    candidates = list(receiver.descendants())
                if candidates:
                    result = candidates[self.rng.randrange(len(candidates))]
        elif kind is OpKind.GETPARENT:
            if isinstance(receiver, Obj):
                result = receiver.parent
        elif kind is OpKind.MENU_INFLATE:
            menu_obj = None
            if spec.arg_index2 is not None and spec.arg_index2 < len(stmt.args):
                menu_obj = env.get(stmt.args[spec.arg_index2])
            if isinstance(argument, int) and isinstance(menu_obj, Obj):
                menu_name = self.app.resources.menu_name_of(argument)
                if menu_name is not None:
                    items = menu_obj.fields.setdefault("__items", [])
                    menu_def = self.app.resources.menu(menu_name)
                    for index, item_def in enumerate(menu_def.items):
                        item = self.heap.allocate(
                            "android.view.MenuItem",
                            MenuItemTag(site, menu_name, index),
                        )
                        if item_def.id_name is not None:
                            item.vid = self.app.resources.view_id(item_def.id_name)
                        if item_def.on_click is not None:
                            item.fields["__xml_onclick"] = item_def.on_click
                        items.append(item)  # type: ignore[union-attr]
        elif kind is OpKind.SET_ADAPTER:
            if isinstance(receiver, Obj) and isinstance(argument, Obj):
                handler = None
                for arity in (0, 3):
                    handler = self.hierarchy.lookup(
                        argument.class_name, "getView", arity
                    )
                    if handler is not None:
                        break
                if handler is not None and self._is_application(handler):
                    row = self.call(
                        handler, argument, [None] * len(handler.param_names)
                    )
                    if isinstance(row, Obj) and row is not receiver:
                        receiver.add_child(row)
        elif kind is OpKind.FRAGMENT_MGR:
            result = receiver  # managers/transactions alias the activity
        elif kind is OpKind.FRAGMENT_TX:
            fragment = None
            if spec.arg_index2 is not None and spec.arg_index2 < len(stmt.args):
                fragment = env.get(stmt.args[spec.arg_index2])
            if (
                isinstance(receiver, Obj)
                and isinstance(argument, int)
                and isinstance(fragment, Obj)
                and receiver.root is not None
            ):
                container = receiver.root.find_view_by_id(argument)
                handler = None
                for arity in (0, 3):
                    handler = self.hierarchy.lookup(
                        fragment.class_name, "onCreateView", arity
                    )
                    if handler is not None:
                        break
                if container is not None and handler is not None and self._is_application(handler):
                    view = self.call(
                        handler, fragment, [None] * len(handler.param_names)
                    )
                    if isinstance(view, Obj):
                        container.add_child(view)
        else:  # pragma: no cover - exhaustive
            raise AssertionError(f"unhandled op kind {kind}")

        self.trace.record(
            OpEvent(
                kind=kind.value,
                site=site,
                receiver=receiver.tag if isinstance(receiver, Obj) else None,
                argument=argument.tag if isinstance(argument, Obj) else None,
                result=result.tag if isinstance(result, Obj) else None,
            )
        )
        return result

    def _inflate(self, op_site: Site, layout_id_value: int) -> Optional[Obj]:
        """Concrete layout inflation (rules INFLATE_N / INFLATE_E)."""
        layout_name = self.app.resources.layout_name_of(layout_id_value)
        if layout_name is None:
            return None
        tree = self.app.resources.layout(layout_name)
        return self._instantiate(op_site, layout_name, tree.root, ())

    def _instantiate(
        self, op_site: Site, layout_name: str, node: LayoutNode, path: Tuple[int, ...]
    ) -> Obj:
        """Allocate the view for ``node`` and, in preorder, its subtree."""
        obj = self.heap.allocate(node.view_class, InflTag(op_site, layout_name, path))
        if node.id_name is not None:
            obj.vid = self.app.resources.view_id(node.id_name)
        if node.on_click is not None:
            obj.fields["__xml_onclick"] = node.on_click
        for child_index, child in enumerate(node.children):
            obj.add_child(
                self._instantiate(op_site, layout_name, child, path + (child_index,))
            )
        return obj
