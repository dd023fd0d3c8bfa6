"""Dalvik type descriptors and string literals.

``Ljava/lang/String;`` ↔ ``java.lang.String``; primitives use their
single-letter codes. Nested classes keep their ``$`` (smali does too).
String literals escape ``\\``, ``"`` and every line break, so a
``const-string`` always fits on one line of Dalvik text.
"""

from __future__ import annotations

import re
from typing import Dict

_PRIMITIVE_TO_CODE: Dict[str, str] = {
    "void": "V",
    "boolean": "Z",
    "byte": "B",
    "short": "S",
    "char": "C",
    "int": "I",
    "long": "J",
    "float": "F",
    "double": "D",
}
_CODE_TO_PRIMITIVE = {v: k for k, v in _PRIMITIVE_TO_CODE.items()}


def type_to_descriptor(type_name: str) -> str:
    """``android.view.View`` → ``Landroid/view/View;``."""
    if type_name in _PRIMITIVE_TO_CODE:
        return _PRIMITIVE_TO_CODE[type_name]
    return "L" + type_name.replace(".", "/") + ";"


def descriptor_to_type(descriptor: str) -> str:
    """``Landroid/view/View;`` → ``android.view.View``."""
    if descriptor in _CODE_TO_PRIMITIVE:
        return _CODE_TO_PRIMITIVE[descriptor]
    if descriptor.startswith("L") and descriptor.endswith(";"):
        return descriptor[1:-1].replace("/", ".")
    raise ValueError(f"malformed type descriptor {descriptor!r}")


def split_method_descriptor(descriptor: str) -> tuple:
    """``(ILandroid/view/View;)V`` → (["int", "android.view.View"], "void")."""
    if not descriptor.startswith("("):
        raise ValueError(f"malformed method descriptor {descriptor!r}")
    close = descriptor.index(")")
    params_part = descriptor[1:close]
    return_part = descriptor[close + 1:]
    params = []
    i = 0
    while i < len(params_part):
        ch = params_part[i]
        if ch == "L":
            end = params_part.index(";", i)
            params.append(descriptor_to_type(params_part[i:end + 1]))
            i = end + 1
        elif ch in _CODE_TO_PRIMITIVE:
            params.append(_CODE_TO_PRIMITIVE[ch])
            i += 1
        else:
            raise ValueError(f"malformed parameter descriptor at {params_part[i:]!r}")
    return params, descriptor_to_type(return_part)


def join_method_descriptor(param_types, return_type: str) -> str:
    """Inverse of :func:`split_method_descriptor`."""
    return "(" + "".join(type_to_descriptor(t) for t in param_types) + ")" + (
        type_to_descriptor(return_type)
    )


# Every character str.splitlines() breaks on, plus the two the literal
# syntax needs. Escaping is one pass, so it has a one-pass inverse.
_STRING_ESCAPES: Dict[str, str] = {
    "\\": "\\\\",
    '"': '\\"',
    "\n": "\\n",
    "\r": "\\r",
    **{ch: f"\\u{ord(ch):04x}" for ch in "\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"},
}
_STRING_UNESCAPES = {v[1:]: k for k, v in _STRING_ESCAPES.items()}
_ESCAPE_TABLE = str.maketrans(_STRING_ESCAPES)
_ESCAPE_RE = re.compile(r"\\(u[0-9a-f]{4}|.)", re.DOTALL)


def escape_string(value: str) -> str:
    """Body of the ``const-string`` literal for ``value`` (no quotes)."""
    return value.translate(_ESCAPE_TABLE)


def unescape_string(body: str) -> str:
    """Inverse of :func:`escape_string`; unknown escapes stay as written."""
    if "\\" not in body:
        return body
    return _ESCAPE_RE.sub(
        lambda m: _STRING_UNESCAPES.get(m.group(1), m.group(0)), body
    )
