"""Expression grammar: parsing, validation and round trips."""
import pytest

from krulldim.errors import ConstraintError, ParseError
from krulldim.parser import MAX_NESTING, parse_expr, to_source
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


@pytest.mark.parametrize("expr", ROUND_TRIP, ids=to_source)
def test_round_trip(expr):
    assert parse_expr(to_source(expr)) == expr
