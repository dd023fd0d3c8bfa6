"""Java-subset frontend for ALite.

Lets applications be written as ``.alite`` source (a Java subset
covering the constructs of Section 3.1) instead of being built
programmatically. The classic pipeline:

* :mod:`repro.frontend.lexer` — hand-written scanner;
* :mod:`repro.frontend.ast_nodes` — the abstract syntax tree;
* :mod:`repro.frontend.parser` — recursive-descent parser;
* :mod:`repro.frontend.lowering` — name/type resolution and lowering
  to three-address ALite IR (temporaries, short-circuit control flow,
  call classification left to the analysis);
* :mod:`repro.frontend.loader` — whole-app loading: sources + layout
  XML + manifest into an :class:`~repro.app.AndroidApp`.
"""

from repro.frontend.errors import FrontendError, LexError, LowerError, ParseError, ProjectError
from repro.frontend.lexer import Token, tokenize
from repro.frontend.parser import parse_compilation_unit
from repro.frontend.lowering import compile_sources
from repro.frontend.loader import load_app_from_dir, load_app_from_sources

__all__ = [
    "FrontendError",
    "LexError",
    "LowerError",
    "ParseError",
    "ProjectError",
    "Token",
    "compile_sources",
    "load_app_from_dir",
    "load_app_from_sources",
    "parse_compilation_unit",
    "tokenize",
]
