"""Expression grammar: parsing, validation and round trips."""
from dataclasses import fields

import pytest

from krulldim.errors import ConstraintError, ParseError
from krulldim.parser import GRAMMAR, MAX_NESTING, parse_expr, to_source
from krulldim.spectra import (
    MAX_DIGITS,
    SUMMARY_CACHE_SIZE,
    AfDomain,
    Field,
    PolyRing,
    Pullback,
    Valuation,
)


class TestParse:
    def test_field(self):
        assert parse_expr("field(2)") == Field(2)

    def test_af_default_catenarian(self):
        assert parse_expr("af(3,2)") == AfDomain(3, 2, True)

    def test_af_cat_flag(self):
        assert parse_expr("af(3,2,cat=false)") == AfDomain(3, 2, False)

    def test_val(self):
        assert parse_expr("val(2,1)") == Valuation(2, 1)

    def test_poly_nested(self):
        assert parse_expr("poly(poly(field(1),1),2)") == PolyRing(PolyRing(Field(1), 1), 2)

    def test_pullback(self):
        got = parse_expr("pullback(T=val(2,1), m=1, D=field(0), outside=0)")
        assert got == Pullback(Valuation(2, 1), 1, Field(0), 0)

    def test_pullback_outside_optional_for_valuation(self):
        got = parse_expr("pullback(T=val(3,2),m=2,D=field(0))")
        assert got.outside == 1

    def test_whitespace_insensitive(self):
        text = " pullback ( T = val( 2 , 1 ) , m = 1 , D = field(0) , outside = 0 ) "
        assert parse_expr(text) == Pullback(Valuation(2, 1), 1, Field(0), 0)


class TestErrors:
    @pytest.mark.parametrize(
        "text, position",
        [("fields(2)", 0), ("field(x)", 6), ("af(1 2)", 5), ("field(1) junk", 9), ("", 0)],
    )
    def test_syntax_errors_carry_positions(self, text, position):
        with pytest.raises(ParseError) as err:
            parse_expr(text)
        assert err.value.position == position

    def test_nesting_is_capped(self):
        def nested(depth):
            return "poly(" * (depth - 1) + "field(1)" + ",0)" * (depth - 1)

        assert isinstance(parse_expr(nested(MAX_NESTING)), PolyRing)
        with pytest.raises(ParseError) as err:
            parse_expr(nested(MAX_NESTING + 1))
        assert err.value.position == 5 * MAX_NESTING

    @pytest.mark.parametrize("text", ["field(\u00b2)", "field(\u0663)", "af(2,\uff11)"])
    def test_numerals_are_ascii_digits(self, text):
        with pytest.raises(ParseError) as err:
            parse_expr(text)
        assert "expected a number" in str(err.value)

    def test_numeral_length_is_capped(self):
        assert parse_expr("field(" + "0" * (MAX_DIGITS - 1) + "7)") == Field(7)
        with pytest.raises(ParseError) as err:
            parse_expr("field(" + "1" * (MAX_DIGITS + 1) + ")")
        assert err.value.position == 6

    def test_constraint_error_names_invariant_and_span(self):
        with pytest.raises(ConstraintError) as err:
            parse_expr("pullback(T=field(1), m=1, D=field(0), outside=0)")
        assert "m <= dim(T)" in str(err.value)
        assert "at 0.." in str(err.value)

    def test_nested_constraint_error_names_the_innermost_span_once(self):
        with pytest.raises(ConstraintError) as err:
            parse_expr("poly(poly(af(1,2),1),1)")
        assert str(err.value) == "AF-domain requires 0 <= dim <= td (in expression at 10..17)"

    def test_constraint_error_at_the_nesting_cap_has_one_span(self):
        levels = MAX_NESTING - 1
        text = "poly(" * levels + "af(1,2)" + ",0)" * levels
        with pytest.raises(ConstraintError) as err:
            parse_expr(text)
        assert str(err.value).count("(in expression at") == 1
        assert str(err.value).endswith(f"(in expression at {5 * levels}..{5 * levels + 7})")

    def test_outside_required_for_af_ambient(self):
        with pytest.raises(ConstraintError):
            parse_expr("pullback(T=af(3,2), m=1, D=field(0))")


class TestMemo:
    def test_repeated_text_returns_the_same_object(self):
        text = "pullback(T=val(3,2),m=2,D=af(1,1))"
        assert parse_expr(text) is parse_expr(text)

    def test_failed_parse_is_not_cached(self):
        parse_expr.cache_clear()
        for calls in range(1, 4):
            with pytest.raises(ParseError):
                parse_expr("field(")
            info = parse_expr.cache_info()
            assert (info.hits, info.misses, info.currsize) == (0, calls, 0)

    def test_memo_is_bounded(self):
        assert parse_expr.cache_info().maxsize == SUMMARY_CACHE_SIZE
        for t in range(SUMMARY_CACHE_SIZE + 10):
            parse_expr(f"field({t})")
        assert parse_expr.cache_info().currsize == SUMMARY_CACHE_SIZE

    def test_cycle_of_400_texts_hits_on_the_second_pass(self):
        # Cycling through more texts than a memo holds misses on every
        # parse, even while the summary cache still holds their summaries.
        texts = [f"af({t},{t % 7})" for t in range(7, 407)]
        parse_expr.cache_clear()
        for text in texts:
            parse_expr(text)
        assert parse_expr.cache_info().misses == len(texts)
        for text in texts:
            parse_expr(text)
        info = parse_expr.cache_info()
        assert (info.hits, info.misses) == (len(texts), len(texts))


ROUND_TRIP = [
    Field(0),
    Field(4),
    AfDomain(3, 1),
    AfDomain(3, 1, catenarian=False),
    Valuation(3, 2),
    PolyRing(AfDomain(2, 1), 2),
    Pullback(Valuation(2, 1), 1, Field(0)),
    Pullback(AfDomain(3, 3), 1, Field(1), outside=3),
    Pullback(PolyRing(Valuation(2, 1), 1), 2, Field(0), outside=1),
]


@pytest.mark.parametrize("name", GRAMMAR)
def test_grammar_has_one_argument_per_class_field_with_its_default(name):
    cls, args = GRAMMAR[name]
    assert [default for _, _, default in args] == [f.default for f in fields(cls)]


@pytest.mark.parametrize("expr", ROUND_TRIP, ids=to_source)
def test_round_trip(expr):
    assert parse_expr(to_source(expr)) == expr


# Each failure point of each form, with the exact text and position it
# reports.  A constraint error has no position: its text names the span.
_P = "pullback(T=val(2,1),"
_LONG = "1" * (MAX_DIGITS + 1)
ERROR_TEXT = [
    ("", ParseError, "syntax error at 0: expected a name", 0),
    ("   ", ParseError, "syntax error at 3: expected a name", 3),
    ("(1)", ParseError, "syntax error at 0: expected a name", 0),
    ("ring(1)", ParseError, "syntax error at 0: found 'ring' (expected field, af, poly, val or pullback)", 0),
    ("Field(1)", ParseError, "syntax error at 0: found 'Field' (expected field, af, poly, val or pullback)", 0),
    ("field(1) junk", ParseError, "syntax error at 9: trailing input 'junk'", 9),
    ("field(1))", ParseError, "syntax error at 8: trailing input ')'", 8),
    ("field 1)", ParseError, "syntax error at 6: found '1' (expected '(')", 6),
    ("field(x)", ParseError, "syntax error at 6: found 'x' (expected a number)", 6),
    ("field(1", ParseError, "syntax error at 7: found 'end of input' (expected ')')", 7),
    ("field(1,2)", ParseError, "syntax error at 7: found ',' (expected ')')", 7),
    (f"field({_LONG})", ParseError, f"syntax error at 6: numeral longer than {MAX_DIGITS} digits", 6),
    ("af 1,1)", ParseError, "syntax error at 3: found '1' (expected '(')", 3),
    ("af(x,1)", ParseError, "syntax error at 3: found 'x' (expected a number)", 3),
    ("af(1 1)", ParseError, "syntax error at 5: found '1' (expected ',')", 5),
    ("af(1,x)", ParseError, "syntax error at 5: found 'x' (expected a number)", 5),
    ("af(1,1", ParseError, "syntax error at 6: found 'end of input' (expected ')')", 6),
    ("af(1,1,)", ParseError, "syntax error at 7: found ')' (expected 'cat')", 7),
    ("af(1,1,cat true)", ParseError, "syntax error at 11: found 't' (expected '=')", 11),
    ("af(1,1,category=true)", ParseError, "syntax error at 10: found 'e' (expected '=')", 10),
    ("af(1,1,cat=maybe)", ParseError, "syntax error at 11: found 'maybe' (expected 'true' or 'false')", 11),
    ("af(1,1,cat=)", ParseError, "syntax error at 11: expected a name", 11),
    ("af(1,1,cat=true", ParseError, "syntax error at 15: found 'end of input' (expected ')')", 15),
    ("af(1,1 cat=true)", ParseError, "syntax error at 7: found 'c' (expected ')')", 7),
    (f"af(1,{_LONG})", ParseError, f"syntax error at 5: numeral longer than {MAX_DIGITS} digits", 5),
    ("poly field(1),1)", ParseError, "syntax error at 5: found 'f' (expected '(')", 5),
    ("poly(x,1)", ParseError, "syntax error at 5: found 'x' (expected field, af, poly, val or pullback)", 5),
    ("poly(field(1) 1)", ParseError, "syntax error at 14: found '1' (expected ',')", 14),
    ("poly(field(1),x)", ParseError, "syntax error at 14: found 'x' (expected a number)", 14),
    ("poly(field(1),1", ParseError, "syntax error at 15: found 'end of input' (expected ')')", 15),
    ("val 1,1)", ParseError, "syntax error at 4: found '1' (expected '(')", 4),
    ("val(x,1)", ParseError, "syntax error at 4: found 'x' (expected a number)", 4),
    ("val(1 1)", ParseError, "syntax error at 6: found '1' (expected ',')", 6),
    ("val(1,x)", ParseError, "syntax error at 6: found 'x' (expected a number)", 6),
    ("val(1,1", ParseError, "syntax error at 7: found 'end of input' (expected ')')", 7),
    ("pullback T=val(2,1),m=1,D=field(0))", ParseError, "syntax error at 9: found 'T' (expected '(')", 9),
    ("pullback(S=val(2,1),m=1,D=field(0))", ParseError, "syntax error at 9: found 'S' (expected 'T')", 9),
    ("pullback(T val(2,1),m=1,D=field(0))", ParseError, "syntax error at 11: found 'v' (expected '=')", 11),
    ("pullback(T=val(2,1) m=1,D=field(0))", ParseError, "syntax error at 20: found 'm' (expected ',')", 20),
    (_P + "n=1,D=field(0))", ParseError, "syntax error at 20: found 'n' (expected 'm')", 20),
    (_P + "m 1,D=field(0))", ParseError, "syntax error at 22: found '1' (expected '=')", 22),
    (_P + "m=x,D=field(0))", ParseError, "syntax error at 22: found 'x' (expected a number)", 22),
    (_P + "m=1 D=field(0))", ParseError, "syntax error at 24: found 'D' (expected ',')", 24),
    (_P + "m=1,E=field(0))", ParseError, "syntax error at 24: found 'E' (expected 'D')", 24),
    (_P + "m=1,D field(0))", ParseError, "syntax error at 26: found 'f' (expected '=')", 26),
    (_P + "m=1,D=field(0),)", ParseError, "syntax error at 35: found ')' (expected 'outside')", 35),
    (_P + "m=1,D=field(0),out=0)", ParseError, "syntax error at 35: found 'o' (expected 'outside')", 35),
    (_P + "m=1,D=field(0),outside 0)", ParseError, "syntax error at 43: found '0' (expected '=')", 43),
    (_P + "m=1,D=field(0),outside=x)", ParseError, "syntax error at 43: found 'x' (expected a number)", 43),
    (_P + "m=1,D=field(0),outside=0", ParseError, "syntax error at 44: found 'end of input' (expected ')')", 44),
    (_P + "m=1,D=field(0) outside=0)", ParseError, "syntax error at 35: found 'o' (expected ')')", 35),
    ("af(1,2)", ConstraintError, "AF-domain requires 0 <= dim <= td (in expression at 0..7)", None),
    ("val(1,0)", ConstraintError, "valuation domain requires dim >= 1 (in expression at 0..8)", None),
    ("val(1,2)", ConstraintError, "valuation domain requires dim <= td (in expression at 0..8)", None),
    (
        "poly(pullback(T=val(2,1),m=1,D=field(0)),1)",
        ConstraintError,
        "polynomial ring base must be an AF constructor (field, af, val or poly); "
        "pullbacks are not supported (in expression at 0..43)",
        None,
    ),
    (
        "pullback(T=af(3,2),m=1,D=field(0))",
        ConstraintError,
        "outside required for non-valuation T (in expression at 0..34)",
        None,
    ),
    (
        _P + "m=1,D=field(0),outside=1)",
        ConstraintError,
        "valuation T has chain spectrum: outside = m - 1 forced (in expression at 0..45)",
        None,
    ),
]


@pytest.mark.parametrize("text, kind, message, position", ERROR_TEXT)
def test_error_text(text, kind, message, position):
    with pytest.raises(kind) as err:
        parse_expr(text)
    assert type(err.value) is kind
    assert str(err.value) == message
    assert getattr(err.value, "position", None) == position
