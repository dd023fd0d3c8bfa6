"""Assembler/loader: Dalvik text → ALite IR.

Parses the dialect emitted by :mod:`repro.dex.assemble`. The loader is
line-based: directives start with ``.``, labels with ``:``, everything
else is an instruction. ``invoke-*`` followed by ``move-result*``
merges into a single IR call with a result.

The decoder is table-driven (DESIGN.md, "Front end: Dalvik text
decoding"). Each parse keeps memos of the pure decodes it repeats —
type descriptors, field and method references, method descriptors —
and resolves each distinct opcode string to its handler once, through
``_OPCODES``. The memos live on the parser object, so nothing is kept
between parses.
"""

from __future__ import annotations

import re
from typing import Callable, Dict, List, Optional, Tuple

from repro.dex.descriptors import (
    descriptor_to_type,
    split_method_descriptor,
    unescape_string,
)
from repro.ir.program import Clazz, Field, Method, Program
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
    Statement,
    StaticStore,
    Store,
    UnaryOp,
)
from repro.platform.classes import install_platform


class DexSyntaxError(Exception):
    """Malformed Dalvik text.

    ``path`` names the file when the loader knows it (project-relative,
    set by :func:`repro.corpus.export.load_dumped_app`).
    """

    def __init__(self, message: str, line_no: int) -> None:
        super().__init__(f"line {line_no}: {message}")
        self.message = message
        self.line_no = line_no
        self.path: Optional[str] = None


_INVOKE_KINDS = {
    "invoke-virtual": InvokeKind.VIRTUAL,
    "invoke-direct": InvokeKind.SPECIAL,
    "invoke-static": InvokeKind.STATIC,
    "invoke-interface": InvokeKind.INTERFACE,
}

_RESOURCE_CONSTS = {
    "const-layout": ConstLayoutId,
    "const-view-id": ConstViewId,
    "const-menu": ConstMenuId,
}

_FIELD_REF_RE = re.compile(r"^(L[^;]+;)->([\w$<>]+):(.+)$")
_METHOD_REF_RE = re.compile(r"^(L[^;]+;)->([\w$<>]+)(\(.*\).+)$")
_METHOD_HEADER_RE = re.compile(r"^([\w$<>]+)(\(.*\).+)$")
_INVOKE_RE = re.compile(r"^\{([^}]*)\}\s*,\s*(.+)$")
_BINOP_RE = re.compile(r'^"([^"]+)"\s+(\S+),\s*(\S+),\s*(\S+)$')
_UNOP_RE = re.compile(r'^"([^"]+)"\s+(\S+),\s*(\S+)$')
_LINE_RE = re.compile(r"line\s+(\d+)")


def _split_comment(raw: str) -> Tuple[str, Optional[int]]:
    """``(code, source line)`` of one raw line.

    A ``#`` starts the comment unless it sits inside a double-quoted
    literal; ``line N`` in the comment is the statement's source line.
    The method loop in :meth:`_DexParser._parse_method` inlines the
    unquoted case.
    """
    hash_at = raw.find("#")
    if hash_at < 0:
        return raw.strip(), None
    if '"' in raw:
        hash_at = _comment_start(raw)
        if hash_at < 0:
            return raw.strip(), None
    match = _LINE_RE.search(raw, hash_at + 1)
    return raw[:hash_at].strip(), int(match.group(1)) if match is not None else None


def _comment_start(raw: str) -> int:
    """Index of the first ``#`` outside double quotes, or -1."""
    quoted = False
    i, n = 0, len(raw)
    while i < n:
        ch = raw[i]
        if ch == '"':
            quoted = not quoted
        elif quoted:
            if ch == "\\":
                i += 1  # an escaped character never closes the literal
        elif ch == "#":
            return i
        i += 1
    return -1


class _DexParser:
    def __init__(self, text: str) -> None:
        self.lines = text.splitlines()
        self.program = Program()
        install_platform(self.program)
        # Per-parse memos of pure decodes. Values are tuples, so a hit
        # can be shared by every statement that repeats the text.
        self.types: Dict[str, str] = {}  # descriptor -> type name
        self.field_refs: Dict[str, Tuple[str, str, str]] = {}  # -> owner, name, type
        self.method_refs: Dict[str, Tuple[str, str, int]] = {}  # -> class, name, arity
        self.signatures: Dict[str, Tuple[Tuple[str, ...], str]] = {}  # -> params, return
        self.handlers: Dict[str, Callable] = {}  # opcode -> handler from _OPCODES
        self.body: List[Statement] = []  # of the method being decoded

    def parse(self) -> Program:
        lines = self.lines
        i, n = 0, len(lines)
        while i < n:
            line, _src = _split_comment(lines[i])
            if not line:
                i += 1
                continue
            if line.startswith((".class", ".interface")):
                i = self._parse_class(line, i)
            else:
                raise DexSyntaxError(f"unexpected top-level {line!r}", i + 1)
        return self.program

    # -- memoised decodes ---------------------------------------------------------

    def _type(self, descriptor: str) -> str:
        name = self.types.get(descriptor)
        if name is None:
            name = self.types[descriptor] = descriptor_to_type(descriptor)
        return name

    def _signature(self, descriptor: str) -> Tuple[Tuple[str, ...], str]:
        signature = self.signatures.get(descriptor)
        if signature is None:
            params, return_type = split_method_descriptor(descriptor)
            signature = self.signatures[descriptor] = (tuple(params), return_type)
        return signature

    def _field_ref(self, text: str, line_no: int) -> Tuple[str, str, str]:
        ref = self.field_refs.get(text)
        if ref is None:
            stripped = text.strip()
            match = _FIELD_REF_RE.match(stripped)
            if match is None:
                raise DexSyntaxError(f"malformed field reference {stripped!r}", line_no)
            ref = self.field_refs[text] = (
                self._type(match.group(1)),
                match.group(2),
                self._type(match.group(3)),
            )
        return ref

    def _method_ref(self, text: str, line_no: int) -> Tuple[str, str, int]:
        ref = self.method_refs.get(text)
        if ref is None:
            stripped = text.strip()
            match = _METHOD_REF_RE.match(stripped)
            if match is None:
                raise DexSyntaxError(f"malformed method reference {stripped!r}", line_no)
            params, _return = self._signature(match.group(3))
            ref = self.method_refs[text] = (
                self._type(match.group(1)),
                match.group(2),
                len(params),
            )
        return ref

    def _handler(self, opcode: str, line_no: int):
        """Resolve ``opcode`` through ``_OPCODES`` and memoise it."""
        for pattern, handler in _OPCODES:
            if opcode != pattern and not (
                pattern[-1] == "*" and opcode.startswith(pattern[:-1])
            ):
                continue
            if handler is _DexParser._invoke and opcode not in _INVOKE_KINDS:
                raise DexSyntaxError(f"unknown invoke {opcode!r}", line_no)
            self.handlers[opcode] = handler
            return handler
        raise DexSyntaxError(f"unknown opcode {opcode!r}", line_no)

    # -- class level ------------------------------------------------------------

    def _parse_class(self, header: str, i: int) -> int:
        """Decode the class whose header is line ``i``; index after it."""
        lines = self.lines
        n = len(lines)
        line_no = i + 1
        is_interface = header.startswith(".interface")
        parts = header.split()
        if len(parts) != 2:
            raise DexSyntaxError("expected '.class <descriptor>'", line_no)
        try:
            name = self._type(parts[1])
        except ValueError as exc:
            raise DexSyntaxError(str(exc), line_no) from exc
        clazz = Clazz(name, superclass=None, is_interface=is_interface)
        interfaces: List[str] = []
        superclass = "java.lang.Object" if name != "java.lang.Object" else None
        i += 1
        while i < n:
            line, _src = _split_comment(lines[i])
            if not line:
                i += 1
                continue
            if line == ".end class":
                i += 1
                break
            if line.startswith(".method "):
                i = self._parse_method(clazz, line, i)
                continue
            try:
                if line.startswith(".super "):
                    superclass = self._type(line.split()[1])
                elif line.startswith(".implements "):
                    interfaces.append(self._type(line.split()[1]))
                elif line.startswith(".field "):
                    self._parse_field(clazz, line, i + 1)
                else:
                    raise DexSyntaxError(f"unexpected {line!r} in class body", i + 1)
            except ValueError as exc:
                raise DexSyntaxError(f"malformed {line!r}: {exc}", i + 1) from exc
            i += 1
        else:
            raise DexSyntaxError("missing .end class", line_no)
        clazz.superclass = superclass
        clazz.interfaces = tuple(interfaces)
        try:
            self.program.add_class(clazz)
        except ValueError as exc:
            raise DexSyntaxError(str(exc), line_no) from exc
        return i

    def _parse_field(self, clazz: Clazz, line: str, line_no: int) -> None:
        body = line[len(".field "):].strip()
        is_static = False
        if body.startswith("static "):
            is_static = True
            body = body[len("static "):]
        name, _colon, descriptor = body.partition(":")
        if not descriptor:
            raise DexSyntaxError(f"malformed field {line!r}", line_no)
        clazz.add_field(
            Field(name.strip(), self._type(descriptor.strip()), is_static=is_static)
        )

    # -- method level --------------------------------------------------------------

    def _parse_method(self, clazz: Clazz, header: str, i: int) -> int:
        """Decode the method whose header is line ``i``; index after it."""
        line_no = i + 1
        body = header[len(".method "):].strip()
        is_static = False
        if body.startswith("static "):
            is_static = True
            body = body[len("static "):]
        match = _METHOD_HEADER_RE.match(body)
        if not match:
            raise DexSyntaxError(f"malformed method header {header!r}", line_no)
        try:
            param_types, return_type = self._signature(match.group(2))
        except ValueError as exc:
            raise DexSyntaxError(f"malformed method header {header!r}: {exc}", line_no) from exc
        method = Method(
            match.group(1), clazz.name, params=[], return_type=return_type, is_static=is_static
        )
        statements = self.body = method.body
        append = statements.append
        lines = self.lines
        types = self.types
        handlers = self.handlers
        line_search = _LINE_RE.search
        move_result, invoke = _DexParser._move_result, _DexParser._invoke
        param_index = 0
        pending: Optional[Invoke] = None
        for i in range(i + 1, len(lines)):
            raw = lines[i]
            # Comment and source-line scan (``_split_comment``, inlined).
            hash_at = raw.find("#")
            if hash_at < 0:
                line = raw.strip()
                if not line:
                    continue
                src = None
            elif '"' in raw:
                line, src = _split_comment(raw)
                if not line:
                    continue
            else:
                line = raw[:hash_at].strip()
                if not line:
                    continue
                found = line_search(raw, hash_at + 1)
                src = int(found.group(1)) if found is not None else None
            opcode, _space, rest = line.partition(" ")
            # Wrong operand counts (unpacking), bad integers and bad
            # descriptors all surface as ValueError while decoding.
            try:
                handler = handlers.get(opcode)
                if handler is None:
                    # Directives and labels are never memoised opcodes.
                    first = line[0]
                    if first == ".":  # a directive never flushes a pending invoke
                        if line == ".end method":
                            if pending is not None:
                                append(pending)
                            try:
                                clazz.add_method(method)
                            except ValueError as exc:
                                raise DexSyntaxError(str(exc), line_no) from exc
                            return i + 1
                        if rest and opcode == ".local":
                            reg, _comma, descriptor = rest.partition(",")
                            descriptor = descriptor.strip()
                            method.add_local(
                                reg.strip(), types.get(descriptor) or self._type(descriptor)
                            )
                            continue
                        if rest and opcode == ".param":
                            reg, _comma, descriptor = rest.partition(",")
                            if param_index >= len(param_types):
                                raise DexSyntaxError("too many .param directives", i + 1)
                            descriptor = descriptor.strip()
                            declared = (
                                self._type(descriptor)
                                if descriptor
                                else param_types[param_index]
                            )
                            method.add_param(reg.strip(), declared)
                            param_index += 1
                            continue
                    elif first == ":":
                        if pending is not None:
                            append(pending)
                            pending = None
                        append(Label(line[1:], line=src))
                        continue
                    handler = self._handler(opcode, i + 1)
                if pending is not None:
                    if handler is move_result:
                        pending.lhs = rest.strip()
                        append(pending)
                        pending = None
                        continue
                    # An invoke not followed by move-result keeps a None lhs.
                    append(pending)
                    pending = None
                stmt = handler(self, opcode, rest, line, src, i + 1)
                if handler is invoke:
                    pending = stmt
                else:
                    append(stmt)
            except ValueError as exc:
                raise DexSyntaxError(f"malformed {line!r}: {exc}", i + 1) from exc
        raise DexSyntaxError("missing .end method", line_no)

    # -- instruction handlers ------------------------------------------------------
    #
    # ``handler(self, opcode, rest, line, src, line_no)`` decodes one
    # instruction: ``rest`` is its operand text (not yet stripped),
    # ``line`` the whole code text and ``src`` the source line from its
    # comment. The method loop has already flushed any pending invoke;
    # a ValueError it raises becomes a DexSyntaxError there.

    def _move_result(self, opcode, rest, line, src, line_no):
        # Reached only without a pending invoke; the loop merges the rest.
        raise DexSyntaxError("move-result without invoke", line_no)

    def _invoke(self, opcode, rest, line, src, line_no):
        match = _INVOKE_RE.match(rest.lstrip())
        if not match:
            raise DexSyntaxError(f"malformed invoke {line!r}", line_no)
        registers = [r.strip() for r in match.group(1).split(",") if r.strip()]
        class_name, mname, arity = (
            self.method_refs.get(match.group(2)) or self._method_ref(match.group(2), line_no)
        )
        kind = _INVOKE_KINDS[opcode]
        if kind is InvokeKind.STATIC:
            base, args = None, registers
        else:
            if not registers:
                raise DexSyntaxError("instance invoke needs a receiver", line_no)
            base, args = registers[0], registers[1:]
        if len(args) != arity:
            raise DexSyntaxError(
                f"argument count {len(args)} does not match descriptor "
                f"({arity} params)",
                line_no,
            )
        return Invoke(None, kind, base, class_name, mname, tuple(args), line=src)

    def _move(self, opcode, rest, line, src, line_no):
        lhs, rhs = rest.split(",")
        return Assign(lhs.strip(), rhs.strip(), line=src)

    def _check_cast(self, opcode, rest, line, src, line_no):
        reg, descriptor = rest.split(",")
        reg = reg.strip()
        descriptor = descriptor.strip()
        type_name = self.types.get(descriptor) or self._type(descriptor)
        # Peephole: `move x, y; check-cast x, T` is the assembly of
        # `x := (T) y`; merge it back so cast type-filtering (and the
        # original statement structure) survives the round trip.
        body = self.body
        if body and isinstance(body[-1], Assign) and body[-1].lhs == reg:
            return Cast(reg, type_name, body.pop().rhs, line=src)
        return Cast(reg, type_name, reg, line=src)

    def _new_instance(self, opcode, rest, line, src, line_no):
        reg, descriptor = rest.split(",")
        descriptor = descriptor.strip()
        return New(reg.strip(), self.types.get(descriptor) or self._type(descriptor), line=src)

    def _iget(self, opcode, rest, line, src, line_no):
        lhs, base, ref = rest.split(",", 2)
        field = (self.field_refs.get(ref) or self._field_ref(ref, line_no))[1]
        return Load(lhs.strip(), base.strip(), field, line=src)

    def _iput(self, opcode, rest, line, src, line_no):
        rhs, base, ref = rest.split(",", 2)
        field = (self.field_refs.get(ref) or self._field_ref(ref, line_no))[1]
        return Store(base.strip(), field, rhs.strip(), line=src)

    def _sget(self, opcode, rest, line, src, line_no):
        lhs, ref = rest.split(",", 1)
        owner, field, _type = self.field_refs.get(ref) or self._field_ref(ref, line_no)
        return StaticLoad(lhs.strip(), owner, field, line=src)

    def _sput(self, opcode, rest, line, src, line_no):
        rhs, ref = rest.split(",", 1)
        owner, field, _type = self.field_refs.get(ref) or self._field_ref(ref, line_no)
        return StaticStore(owner, field, rhs.strip(), line=src)

    def _const_id(self, opcode, rest, line, src, line_no):
        reg, name = rest.split(",", 1)
        return _RESOURCE_CONSTS[opcode](reg.strip(), name.strip(), line=src)

    def _const_string(self, opcode, rest, line, src, line_no):
        reg, literal = rest.split(",", 1)
        literal = literal.strip()
        if not (literal.startswith('"') and literal.endswith('"')):
            raise DexSyntaxError("malformed string literal", line_no)
        return ConstString(reg.strip(), unescape_string(literal[1:-1]), line=src)

    def _const(self, opcode, rest, line, src, line_no):
        reg, value = rest.split(",", 1)
        number = int(value.strip(), 0)
        if opcode == "const/4" and number == 0:
            return ConstNull(reg.strip(), line=src)
        return ConstInt(reg.strip(), number, line=src)

    def _return_void(self, opcode, rest, line, src, line_no):
        return Return(line=src)

    def _return(self, opcode, rest, line, src, line_no):
        return Return(rest.strip(), line=src)

    def _goto(self, opcode, rest, line, src, line_no):
        return Goto(rest.strip().lstrip(":"), line=src)

    def _if_nez(self, opcode, rest, line, src, line_no):
        reg, target = rest.split(",", 1)
        return If(reg.strip(), target.strip().lstrip(":"), line=src)

    def _binop(self, opcode, rest, line, src, line_no):
        match = _BINOP_RE.match(rest.lstrip())
        if not match:
            raise DexSyntaxError(f"malformed binop {line!r}", line_no)
        return BinOp(match.group(2), match.group(1), match.group(3), match.group(4), line=src)

    def _unop(self, opcode, rest, line, src, line_no):
        match = _UNOP_RE.match(rest.lstrip())
        if not match:
            raise DexSyntaxError(f"malformed unop {line!r}", line_no)
        return UnaryOp(match.group(2), match.group(1), match.group(3), line=src)


# Opcode -> handler, tried in order; a trailing ``*`` matches any
# opcode with that prefix, otherwise the opcode must match exactly.
# ``_DexParser._handler`` resolves each distinct opcode once per parse;
# an opcode that matches nothing is reported, never memoised.
_OPCODES = (
    ("move-result*", _DexParser._move_result),
    ("invoke-*", _DexParser._invoke),
    ("move", _DexParser._move),
    ("check-cast", _DexParser._check_cast),
    ("new-instance", _DexParser._new_instance),
    ("iget*", _DexParser._iget),
    ("iput*", _DexParser._iput),
    ("sget*", _DexParser._sget),
    ("sput*", _DexParser._sput),
    ("const-layout", _DexParser._const_id),
    ("const-view-id", _DexParser._const_id),
    ("const-menu", _DexParser._const_id),
    ("const-string", _DexParser._const_string),
    ("const/*", _DexParser._const),
    ("return-void", _DexParser._return_void),
    ("return*", _DexParser._return),
    ("goto", _DexParser._goto),
    ("if-nez", _DexParser._if_nez),
    ("binop", _DexParser._binop),
    ("unop", _DexParser._unop),
)


def parse_dex_text(text: str) -> Program:
    """Load a Dalvik-text program into ALite IR (platform installed)."""
    return _DexParser(text).parse()
