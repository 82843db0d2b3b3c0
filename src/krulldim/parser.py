"""Text form of algebra expressions.

The grammar is declared once, in ``GRAMMAR``: ``parse_expr`` reads it
and ``to_source`` writes it.  Every form is a constructor call

    expr := NAME "(" arg { "," arg } ")"
    arg  := [ KEYWORD "=" ] ( nat | bool | expr )

with the arguments ``GRAMMAR[NAME]`` lists, in that order.  An argument
with a default may be left out.  Whitespace between tokens is ignored,
a nat is 1 to ``MAX_DIGITS`` ASCII digits and a bool is ``true`` or
``false``.  Expressions nest at most ``MAX_NESTING`` levels deep.  A
constraint error names the span of the innermost expression it is in.
"""
from __future__ import annotations

from dataclasses import MISSING, fields
from functools import lru_cache
from typing import Optional

from .errors import ConstraintError, ParseError
from .spectra import (
    MAX_DIGITS,
    SUMMARY_CACHE_SIZE,
    AfDomain,
    AlgebraExpr,
    Field,
    PolyRing,
    Pullback,
    Valuation,
)

# Parsing and every later walk over an expression recurse once per
# level; this keeps them all far below the interpreter's recursion limit.
MAX_NESTING = 200


def _arg(keyword: Optional[str], kind: str, default: object = MISSING) -> tuple:
    """One argument: its keyword (None if positional), its kind ("nat",
    "bool" or "expr") and, if it may be left out, its default."""
    return keyword, kind, default


# Each form's name, its class and its arguments in the class's field
# order; only a form's last arguments may have a default.  Pullback sets
# ``outside`` itself when T is a valuation domain, and otherwise refuses
# None.
GRAMMAR = {
    "field": (Field, (_arg(None, "nat"),)),
    "af": (AfDomain, (_arg(None, "nat"), _arg(None, "nat"), _arg("cat", "bool", True))),
    "poly": (PolyRing, (_arg(None, "expr"), _arg(None, "nat"))),
    "val": (Valuation, (_arg(None, "nat"), _arg(None, "nat"))),
    "pullback": (
        Pullback,
        (_arg("T", "expr"), _arg("m", "nat"), _arg("D", "expr"), _arg("outside", "nat", None)),
    ),
}
_NAMES = {cls: name for name, (cls, _) in GRAMMAR.items()}
_HEADS = ", ".join(list(GRAMMAR)[:-1]) + " or " + list(GRAMMAR)[-1]


class _Scanner:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def at_end(self) -> bool:
        self.skip_ws()
        return self.pos >= len(self.text)

    def expect(self, literal: str):
        # No literal starts with a blank, so a match needs no skip first.
        if not self.text.startswith(literal, self.pos):
            self.skip_ws()
            if not self.text.startswith(literal, self.pos):
                found = self.text[self.pos : self.pos + 1] or "end of input"
                raise ParseError(f"found {found!r}", self.pos, expected=repr(literal))
        self.pos += len(literal)

    def peek(self, literal: str) -> bool:
        self.skip_ws()
        return self.text.startswith(literal, self.pos)

    def word(self) -> str:
        self.skip_ws()
        start = end = self.pos
        while end < len(self.text) and self.text[end].isalpha():
            end += 1
        if end == start:
            raise ParseError("expected a name", start)
        self.pos = end
        return self.text[start:end]

    def nat(self) -> int:
        self.skip_ws()
        end = self.pos
        while end < len(self.text) and self.text[end] in "0123456789":
            end += 1
        if end == self.pos:
            found = self.text[self.pos : self.pos + 1] or "end of input"
            raise ParseError(f"found {found!r}", self.pos, expected="a number")
        if end - self.pos > MAX_DIGITS:
            raise ParseError(f"numeral longer than {MAX_DIGITS} digits", self.pos)
        value = int(self.text[self.pos : end])
        self.pos = end
        return value

    def boolean(self) -> bool:
        start = self.pos
        w = self.word()
        if w == "true":
            return True
        if w == "false":
            return False
        raise ParseError(f"found {w!r}", start, expected="'true' or 'false'")


# Parsed values are frozen, so every caller of one text can share one;
# failed parses are not kept.  A request reaches a cached summary only
# through a parse of its text, so the memo has the summary cache's
# bound: a smaller one would make every summary hit pay for a parse.
@lru_cache(maxsize=SUMMARY_CACHE_SIZE)
def parse_expr(text: str) -> AlgebraExpr:
    """Parse an algebra expression, validating constructor invariants.

    Syntax problems raise :class:`ParseError` with the offending
    position; invariant violations raise :class:`ConstraintError`
    naming the constraint and the source span.  The
    ``SUMMARY_CACHE_SIZE`` texts used most recently are memoised, so a
    repeated text returns the same expression object.
    """
    scanner = _Scanner(text)
    expr = _expr(scanner)
    if not scanner.at_end():
        raise ParseError(
            f"trailing input {scanner.text[scanner.pos:]!r}", scanner.pos
        )
    return expr


def _expr(sc: _Scanner, depth: int = 1) -> AlgebraExpr:
    start = sc.pos
    if depth > MAX_NESTING:
        raise ParseError(f"expression nests deeper than {MAX_NESTING} levels", start)
    head = sc.word()
    form = GRAMMAR.get(head)
    if form is None:
        raise ParseError(f"found {head!r}", start, expected=_HEADS)
    cls, args = form
    sc.expect("(")
    values = []
    for keyword, kind, default in args:
        if values:
            if default is not MISSING and not sc.peek(","):
                values.append(default)
                continue
            sc.expect(",")
        if keyword:
            sc.expect(keyword)
            sc.expect("=")
        if kind == "expr":
            values.append(_expr(sc, depth + 1))
        else:
            values.append(sc.nat() if kind == "nat" else sc.boolean())
    sc.expect(")")
    # Only this call is wrapped: an error from a nested expression
    # already names that expression's span.
    try:
        return cls(*values)
    except ConstraintError as exc:
        raise ConstraintError(f"{exc} (in expression at {start}..{sc.pos})") from exc


def to_source(expr: AlgebraExpr) -> str:
    """Canonical text for an expression; parsing it back gives an equal value."""
    name = _NAMES.get(type(expr))
    if name is None:
        raise TypeError(f"not an algebra expression: {expr!r}")
    parts = []
    for (keyword, kind, default), f in zip(GRAMMAR[name][1], fields(expr)):
        value = getattr(expr, f.name)
        if value == default:
            continue
        if kind == "expr":
            value = to_source(value)
        elif kind == "bool":
            value = "true" if value else "false"
        parts.append(f"{keyword}={value}" if keyword else f"{value}")
    return f"{name}({','.join(parts)})"
