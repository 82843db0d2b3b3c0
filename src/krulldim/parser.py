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

A text is read as one list of tokens: ``(``, ``)``, ``,`` and ``=`` each
stand alone, and every other token is a run of the characters between
them and the blanks (those ``str.isspace`` accepts, on which
``str.split`` splits).  ``parse_expr`` descends through that list by
index, matching each token exactly against ``GRAMMAR``.  Character
offsets are worked out only when an error is raised, and name where a
character-by-character reader would have stopped: inside a token such
as ``af2`` at its first character that cannot continue the form, and
before the blanks at a form's name or a bool that is not one.
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


# The default of an argument that may not be left out.
REQUIRED = object()


def _form(cls, *args) -> tuple:
    """A form's class and its arguments, given one ``(keyword, kind)`` per
    field of the class, in order: the keyword (None if positional), the
    kind ("nat", "bool" or "expr") and then the field's default, or
    ``REQUIRED`` if it has none."""
    defaults = cls._field_defaults
    return cls, tuple(
        (keyword, kind, defaults.get(name, REQUIRED))
        for (keyword, kind), name in zip(args, cls._fields, strict=True)
    )


# Each form's name, its class and its arguments.  Only a class's last
# fields have defaults.  Pullback sets ``outside`` itself when T is a
# valuation domain, and otherwise refuses None.
GRAMMAR = {
    "field": _form(Field, (None, "nat")),
    "af": _form(AfDomain, (None, "nat"), (None, "nat"), ("cat", "bool")),
    "poly": _form(PolyRing, (None, "expr"), (None, "nat")),
    "val": _form(Valuation, (None, "nat"), (None, "nat")),
    "pullback": _form(Pullback, ("T", "expr"), ("m", "nat"), ("D", "expr"), ("outside", "nat")),
}
_NAMES = {cls: name for name, (cls, _) in GRAMMAR.items()}
_HEADS = ", ".join(list(GRAMMAR)[:-1]) + " or " + list(GRAMMAR)[-1]
_BOOLS = {"true": True, "false": False}


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
    tokens = (
        text.replace("(", " ( ").replace(")", " ) ").replace(",", " , ").replace("=", " = ").split()
    )
    # No token is empty, so an empty one marks the end of the text and
    # the parser reads past the last token without a bounds check.
    tokens.append("")
    expr, i = _expr(text, tokens, 0, 1)
    if tokens[i]:
        pos = _offsets(text, tokens, i)[1]
        raise ParseError(f"trailing input {text[pos:]!r}", pos)
    return expr


def _expr(text: str, tokens: list[str], i: int, depth: int) -> tuple[AlgebraExpr, int]:
    """The expression that starts at token i, and the index of the token after it."""
    form = GRAMMAR.get(tokens[i])
    if form is None or depth > MAX_NESTING:
        raise _head_error(text, tokens, i, depth)
    start = i
    cls, args = form
    if tokens[i + 1] != "(":
        raise _found(text, tokens, i + 1, "'('")
    i += 2
    values = []
    for keyword, kind, default in args:
        if values:
            if tokens[i] == ",":
                i += 1
            elif default is REQUIRED:
                raise _found(text, tokens, i, "','")
            else:
                values.append(default)
                continue
        if keyword:
            if tokens[i] != keyword or tokens[i + 1] != "=":
                raise _keyword_error(text, tokens, i, keyword)
            i += 2
        token = tokens[i]
        if kind == "expr":
            value, i = _expr(text, tokens, i, depth + 1)
        elif kind == "nat" and token.isdigit() and token.isascii() and len(token) <= MAX_DIGITS:
            value, i = int(token), i + 1
        elif kind == "bool" and token in _BOOLS:
            value, i = _BOOLS[token], i + 1
        else:
            raise _value_error(text, tokens, i, kind, args[len(values) + 1 :])
        values.append(value)
    if tokens[i] != ")":
        raise _found(text, tokens, i, "')'")
    # Only this call is wrapped: an error from a nested expression
    # already names that expression's span.
    try:
        return cls(*values), i + 1
    except ConstraintError as exc:
        span = f"{_offsets(text, tokens, start)[0]}..{_offsets(text, tokens, i + 1)[0]}"
        raise ConstraintError(f"{exc} (in expression at {span})") from exc


# The errors, built only when one is raised (see the module docstring).


def _offsets(text: str, tokens: list[str], i: int) -> tuple[int, int]:
    """Where the token before token i ends (0 for the first), and where token i starts.

    Only blanks lie between two tokens, so each token is the first match
    of its text after the token before it.  The final empty token starts
    at the end of the text.
    """
    end = 0
    for token in tokens[:i]:
        end = text.find(token, end) + len(token)
    return end, text.find(tokens[i], end) if tokens[i] else len(text)


def _found(text: str, tokens: list[str], i: int, expected: str, skip: int = 0) -> ParseError:
    """The error for meeting token i, ``skip`` characters in, where ``expected`` belongs."""
    pos = _offsets(text, tokens, i)[1] + skip
    found = text[pos : pos + 1] or "end of input"
    return ParseError(f"found {found!r}", pos, expected=expected)


def _letters(token: str) -> str:
    """The run of letters that ``token`` starts with."""
    for n, char in enumerate(token):
        if not char.isalpha():
            return token[:n]
    return token


def _head_error(text: str, tokens: list[str], i: int, depth: int) -> ParseError:
    before, at = _offsets(text, tokens, i)
    if depth > MAX_NESTING:
        return ParseError(f"expression nests deeper than {MAX_NESTING} levels", before)
    name = _letters(tokens[i])
    if not name:
        return ParseError("expected a name", at)
    if name not in GRAMMAR:
        return ParseError(f"found {name!r}", before, expected=_HEADS)
    return _found(text, tokens, i, "'('", len(name))


def _keyword_error(text: str, tokens: list[str], i: int, keyword: str) -> ParseError:
    token = tokens[i]
    if token == keyword:
        return _found(text, tokens, i + 1, "'='")
    if token.startswith(keyword):
        return _found(text, tokens, i, "'='", len(keyword))
    return _found(text, tokens, i, repr(keyword))


def _value_error(text: str, tokens: list[str], i: int, kind: str, rest: tuple) -> ParseError:
    """The error for token i where a nat or bool belongs; ``rest`` are the arguments after it."""
    token = tokens[i]
    before, at = _offsets(text, tokens, i)
    if kind == "nat":
        n = len(token) - len(token.lstrip("0123456789"))
        if not n:
            return _found(text, tokens, i, "a number")
        if n > MAX_DIGITS:
            return ParseError(f"numeral longer than {MAX_DIGITS} digits", at)
    else:
        n = len(_letters(token))
        if not n:
            return ParseError("expected a name", at)
        if token[:n] not in _BOOLS:
            return ParseError(f"found {token[:n]!r}", before, expected="'true' or 'false'")
    # The value is a prefix of the token; what follows it stands where
    # the next required argument's comma or the closing parenthesis belongs.
    after = "','" if rest and rest[0][2] is REQUIRED else "')'"
    return _found(text, tokens, i, after, n)


def to_source(expr: AlgebraExpr) -> str:
    """Canonical text for an expression; parsing it back gives an equal value."""
    name = _NAMES.get(type(expr))
    if name is None:
        raise TypeError(f"not an algebra expression: {expr!r}")
    parts = []
    for (keyword, kind, default), value in zip(GRAMMAR[name][1], expr):
        if value == default:
            continue
        if kind == "expr":
            value = to_source(value)
        elif kind == "bool":
            value = "true" if value else "false"
        parts.append(f"{keyword}={value}" if keyword else f"{value}")
    return f"{name}({','.join(parts)})"
