"""Text form of algebra expressions.

Grammar (whitespace insensitive, cat defaults true; a nat is 1 to
``MAX_DIGITS`` ASCII digits):

    expr := "field" "(" nat ")"
          | "af" "(" nat "," nat ["," "cat" "=" bool] ")"
          | "poly" "(" expr "," nat ")"
          | "val" "(" nat "," nat ")"
          | "pullback" "(" "T" "=" expr "," "m" "=" nat ","
                           "D" "=" expr ["," "outside" "=" nat] ")"

``outside`` may be omitted when T is a valuation domain, where it is
forced to m - 1.  Expressions nest at most ``MAX_NESTING`` levels deep.
"""
from __future__ import annotations

from functools import lru_cache

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
        self.skip_ws()
        if not self.text.startswith(literal, self.pos):
            found = self.text[self.pos : self.pos + 1] or "end of input"
            raise ParseError(f"found {found!r}", self.pos, expected=repr(literal))
        self.pos += len(literal)

    def peek_word(self) -> str:
        self.skip_ws()
        end = self.pos
        while end < len(self.text) and self.text[end].isalpha():
            end += 1
        return self.text[self.pos : end]

    def word(self) -> str:
        w = self.peek_word()
        if not w:
            raise ParseError("expected a name", self.pos)
        self.pos += len(w)
        return w

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
    try:
        if head == "field":
            sc.expect("(")
            t = sc.nat()
            sc.expect(")")
            return Field(t)
        if head == "af":
            sc.expect("(")
            t = sc.nat()
            sc.expect(",")
            d = sc.nat()
            cat = True
            sc.skip_ws()
            if sc.text.startswith(",", sc.pos):
                sc.expect(",")
                sc.expect("cat")
                sc.expect("=")
                cat = sc.boolean()
            sc.expect(")")
            return AfDomain(t, d, cat)
        if head == "poly":
            sc.expect("(")
            base = _expr(sc, depth + 1)
            sc.expect(",")
            n = sc.nat()
            sc.expect(")")
            return PolyRing(base, n)
        if head == "val":
            sc.expect("(")
            t = sc.nat()
            sc.expect(",")
            d = sc.nat()
            sc.expect(")")
            return Valuation(t, d)
        if head == "pullback":
            sc.expect("(")
            sc.expect("T")
            sc.expect("=")
            ambient = _expr(sc, depth + 1)
            sc.expect(",")
            sc.expect("m")
            sc.expect("=")
            m = sc.nat()
            sc.expect(",")
            sc.expect("D")
            sc.expect("=")
            subring = _expr(sc, depth + 1)
            outside = None
            sc.skip_ws()
            if sc.text.startswith(",", sc.pos):
                sc.expect(",")
                sc.expect("outside")
                sc.expect("=")
                outside = sc.nat()
            sc.expect(")")
            return Pullback(ambient, m, subring, outside)
    except ConstraintError as exc:
        raise ConstraintError(f"{exc} (in expression at {start}..{sc.pos})") from exc
    raise ParseError(
        f"found {head!r}", start, expected="field, af, poly, val or pullback"
    )


def to_source(expr: AlgebraExpr) -> str:
    """Canonical text for an expression; parsing it back gives an equal value."""
    if isinstance(expr, Field):
        return f"field({expr.td})"
    if isinstance(expr, AfDomain):
        if expr.catenarian:
            return f"af({expr.td},{expr.dim})"
        return f"af({expr.td},{expr.dim},cat=false)"
    if isinstance(expr, PolyRing):
        return f"poly({to_source(expr.base)},{expr.n})"
    if isinstance(expr, Valuation):
        return f"val({expr.td},{expr.dim})"
    if isinstance(expr, Pullback):
        return (
            f"pullback(T={to_source(expr.ambient)},m={expr.m},"
            f"D={to_source(expr.subring)},outside={expr.outside})"
        )
    raise TypeError(f"not an algebra expression: {expr!r}")
