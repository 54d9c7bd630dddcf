"""A hierarchical region/lock language: checker, interpreter, harness."""

from .parser import ParseError, parse_expr, parse_program, pretty, pretty_program
from .typecheck import CheckResult, Diagnostic, TypedProgram, check_program

__all__ = [
    "CheckResult",
    "Diagnostic",
    "ParseError",
    "TypedProgram",
    "check_program",
    "parse_expr",
    "parse_program",
    "pretty",
    "pretty_program",
]
