"""The lexer against its reference (`tests/lex_model.py`), and the source
locations the parser gives nodes.

`parser.lex` gives `(kind, text, offset)` and leaves the line and column to
the parser; the reference makes a `Loc` for every token.  Every token,
every end of input and every lexical error must agree.  The locations of
the nodes parsed from the corpus and from the benchmark's generated
programs are pinned in `tests/data/node_locs.json`; a term's `loc` is left
out of `==`, so they are compared on their own.  Regenerate the data file
only when a change to the locations is intended:

    PYTHONPATH=src python tests/test_lex.py
"""

from __future__ import annotations

import hashlib
import importlib.util
import json
import pathlib
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))

import lex_model  # noqa: E402
from reglock import syntax  # noqa: E402
from reglock.parser import _PUNCT, KEYWORDS, ParseError, lex, parse_program  # noqa: E402
from reglock.syntax import children  # noqa: E402
from conftest import CORPUS  # noqa: E402

DATA = pathlib.Path(__file__).resolve().parent / "data" / "node_locs.json"
WORKLOADS = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"


def line_col(source: str, offset: int) -> tuple[int, int]:
    return source.count("\n", 0, offset) + 1, offset - source.rfind("\n", 0, offset)


def lexed(lexer, source: str):
    """The tokens as (kind, text, line, col), or the error's code, message
    and location."""
    try:
        tokens = lexer(source)
    except ParseError as exc:
        return exc.code, exc.message, str(exc.loc)
    if lexer is lex:
        return [(kind, text, *line_col(source, offset)) for kind, text, offset in tokens]
    return [(kind, text, loc.line, loc.col) for kind, text, loc in tokens]


#: Pieces of source, joined with nothing between them, so neighbours also
#: merge into longer names and numbers or into other punctuation.
PIECES = (sorted(KEYWORDS) + _PUNCT
          + ["x", "rho1", "_", "_a", "é²", "a1²", "0", "42", "007"]
          + [" ", "  ", "\t", "\r", "\n", "\r\n", "// c\n", "//\n", "// a // b\n"]
          + ["$", "²", "٣", "\x00", "#", "/", "&", "|"])


@settings(max_examples=1000, deadline=None)
@given(st.lists(st.sampled_from(PIECES), max_size=30).map("".join),
       st.sampled_from(["", "\n", "// end", "//", "  // end", "\n// end"]))
def test_lex_agrees_with_the_reference(body, ending):
    source = body + ending
    assert lexed(lex, source) == lexed(lex_model.lex, source)


@pytest.mark.parametrize("source", [
    "", "x", "x ", "x\n", "x // c", "x // c\n", "x //", "// only", "\n\n  ", "x\r\n\ty",
    "(;\n  # ())", "1٣", "²x", "é²", "x\x00", "x /", "x / y", "a & b", "/\\//x", "x $ //",
], ids=repr)
def test_lex_agrees_on_edges(source):
    assert lexed(lex, source) == lexed(lex_model.lex, source)


def test_lexing_builds_no_loc(monkeypatch):
    built = []
    init = syntax.Loc.__init__

    def counting(self, line, col):
        built.append((line, col))
        init(self, line, col)

    monkeypatch.setattr(syntax.Loc, "__init__", counting)
    for path in sorted(CORPUS.glob("*.rgn")):
        tokens = lex(path.read_text())
        assert tokens[-1][0] == "eof" and all(type(t) is tuple for t in tokens)
    assert built == []


def load_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def programs() -> dict[str, str]:
    """The corpus, and the benchmark's generated programs at its sizes."""
    w = load_workloads()
    out = {path.name: path.read_text() for path in sorted(CORPUS.glob("*.rgn"))}
    for n in w.LONG_SEQ_N:
        out[f"long_seq_{n}"] = w.long_seq(n, "hjab")
    for depth, k in w.LOCK_TREES:
        out[f"lock_tree_d{depth}_k{k}"] = w.lock_tree(depth, k, list(range(3, 3 + depth)))
    return out


def node_locs(source: str) -> list:
    """Each definition's name and location, then its nodes' forms and
    locations in preorder."""
    out = []
    for d in parse_program(source).defs:
        out.append([d.name, str(d.loc)])
        stack = [d.body]
        while stack:
            e = stack.pop()
            out.append([type(e).__name__, str(e.loc)])
            stack.extend(reversed(children(e)))
    return out


def locs_digest(source: str) -> str:
    blob = json.dumps(node_locs(source), separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def test_node_locations_are_pinned():
    pinned = json.loads(DATA.read_text())
    sources = programs()
    assert sorted(pinned) == sorted(sources)
    for name, source in sources.items():
        assert locs_digest(source) == pinned[name], name


if __name__ == "__main__":
    DATA.parent.mkdir(exist_ok=True)
    rows = [f" {json.dumps(name)}: {json.dumps(locs_digest(source))}"
            for name, source in programs().items()]
    DATA.write_text("{\n" + ",\n".join(rows) + "\n}\n")
