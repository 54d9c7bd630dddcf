"""A reference lexer, for tests of `parser.lex` and the locations the parser
gives nodes.

It is the straightforward lexer `parser.lex` replaced: one regular
expression with an alternative for every blank, newline and comment as well
as every token, a line counter bumped at each newline, and a `Loc` made
for every token.  `lex` returns `(kind, text, Loc)` for each token, the
last of kind "eof", or raises the `ParseError` the parser's lexer must.
"""

from __future__ import annotations

import re

from reglock.parser import _PUNCT, ParseError
from reglock.syntax import Loc

# The token grammar, first alternative first.  `\w+` also admits a name
# that starts with a non-ASCII digit or a character such as `²`, which `lex`
# rejects: a name starts with a letter or `_`.
_TOKEN = re.compile("|".join([
    r"(?P<blank>[ \t\r]+)",
    r"(?P<comment>//[^\n]*)",
    r"(?P<newline>\n)",
    r"(?P<int>[0-9]+)",
    r"(?P<name>\w+)",
    "(?P<punct>" + "|".join(map(re.escape, _PUNCT)) + ")",
    r"(?P<error>.)",
]))


def lex(source: str) -> list[tuple[str, str, Loc]]:
    """The tokens of `source`.  A column counts characters, a tab as one; the
    end of input sits after the last character outside a comment."""
    tokens: list[tuple[str, str, Loc]] = []
    line, line_start, end = 1, 0, 0
    for m in _TOKEN.finditer(source):
        kind = m.lastgroup
        if kind == "comment":
            continue
        end = m.end()
        if kind == "newline":
            line, line_start = line + 1, end
            continue
        if kind == "blank":
            continue
        text, loc = m.group(), Loc(line, m.start() - line_start + 1)
        if kind == "error" or (kind == "name" and not (text[0].isalpha() or text[0] == "_")):
            raise ParseError("SyntaxError", f"unexpected character {text[0]!r}", loc)
        tokens.append((kind, text, loc))
    tokens.append(("eof", "", Loc(line, end - line_start + 1)))
    return tokens
