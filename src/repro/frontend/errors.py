"""Frontend diagnostics with source positions."""

from __future__ import annotations

from typing import Optional


class FrontendError(Exception):
    """Base class for all frontend errors.

    ``path`` names the source the error is in when the caller of
    :func:`repro.frontend.lowering.compile_sources` named its sources.
    """

    def __init__(self, message: str, line: int = 0, column: int = 0) -> None:
        self.message = message
        self.line = line
        self.column = column
        self.path: Optional[str] = None
        location = f" at {line}:{column}" if line else ""
        super().__init__(f"{message}{location}")


class LexError(FrontendError):
    """Invalid character or malformed literal."""


class ParseError(FrontendError):
    """Syntax error."""


class LowerError(FrontendError):
    """Name-resolution or typing error during lowering."""


class ProjectError(FrontendError):
    """The project directory is missing or holds no code."""
