"""The package's records: tuple subclasses of ``Record`` that behave as frozen values."""
from itertools import combinations

import pytest

from krulldim.checks import CheckFailure, CheckReport, run_suite
from krulldim.errors import ConstraintError
from krulldim.formulas import DimReport, Witness, dim_tensor
from krulldim.oracle import AnchoredChain, iter_chains
from krulldim.parser import GRAMMAR
from krulldim.spectra import (
    AfDomain,
    Field,
    PolyRing,
    Pullback,
    PullbackData,
    SpectrumSummary,
    Stratum,
    Valuation,
    summarize,
)

KM = Pullback(Valuation(2, 1), 1, Field(0))
# One expression of each class.
EXPRESSIONS = [
    Field(3),
    AfDomain(3, 1),
    Valuation(3, 1),
    PolyRing(AfDomain(3, 1), 1),
    Pullback(AfDomain(3, 3), 1, Field(1), outside=3),
]


def _records():
    """One instance of every record class."""
    s = summarize(KM)
    report = dim_tensor(KM, AfDomain(2, 2))
    return [
        *EXPRESSIONS,
        s,
        s.strata[0],
        s.pullback_data,
        report,
        report.witnesses[0],
        next(iter_chains(s, summarize(Field(1)))),
        run_suite("prop23"),
        CheckFailure("inputs", "1", "2"),
    ]


def test_every_record_class_is_covered():
    classes = {type(r) for r in _records()}
    assert classes == {
        Field, AfDomain, Valuation, PolyRing, Pullback, SpectrumSummary, Stratum,
        PullbackData, DimReport, Witness, AnchoredChain, CheckReport, CheckFailure,
    }


def test_an_expression_equals_no_plain_tuple():
    v = Valuation(3, 1)
    assert v != (3, 1) and (3, 1) != v
    assert not v == (3, 1) and not (3, 1) == v
    assert v == Valuation(3, 1) and hash(v) == hash(Valuation(3, 1))


@pytest.mark.parametrize("x, y", list(combinations(EXPRESSIONS, 2)))
def test_no_two_expression_classes_compare_equal(x, y):
    assert x != y and y != x
    # Not even with the same field values, built without the checks.
    same = tuple.__new__(type(y), x)
    assert tuple(same) == tuple(x)
    assert x != same and same != x and not x == same


def test_summarize_refuses_a_plain_tuple_equal_to_a_cached_expression():
    summarize(Valuation(3, 1))
    with pytest.raises(TypeError, match="not an algebra expression"):
        summarize((3, 1))


@pytest.mark.parametrize("record", _records(), ids=lambda r: type(r).__name__)
def test_no_field_or_attribute_can_be_assigned(record):
    name = record._fields[0]
    with pytest.raises(AttributeError):
        setattr(record, name, 0)
    with pytest.raises(AttributeError):
        record.extra = 0
    with pytest.raises(AttributeError):
        delattr(record, name)


def test_views_still_fill_in():
    s = summarize(AfDomain(4, 2))
    assert s.strata[2].label == "h2" and vars(s)["strata"] is s.strata
    report = dim_tensor(KM, AfDomain(2, 2))
    assert report.witnesses is report.witnesses


def test_replace_runs_the_constructor_checks():
    assert AfDomain(3, 1)._replace(dim=2) == AfDomain(3, 2)
    with pytest.raises(ConstraintError, match="AF-domain requires 0 <= dim <= td"):
        AfDomain(3, 1)._replace(dim=4)


def test_summary_equality_and_hash_ignore_source():
    s = summarize(AfDomain(2, 1))
    other = s._replace(source="elsewhere")
    assert s == other and hash(s) == hash(other)
    assert s != s._replace(td=3)
    assert repr(other).endswith("source='elsewhere')")


def test_report_equality_hash_and_repr_ignore_witnesses():
    report = dim_tensor(KM, AfDomain(2, 2))
    other = report._replace(build_witnesses=lambda: ())
    assert report.witnesses and not other.witnesses
    assert report == other and hash(report) == hash(other) and repr(report) == repr(other)
    assert report != report._replace(value=report.value + 1)
    # The text the dataclass printed, which the records, now tuple subclasses
    # of ``Record``, keep.
    assert repr(report) == (
        "DimReport(value=4, theorem='Thm2.8', "
        "term_breakdown=(('outside-M', 2), ('through-M', 4)), "
        "gates=('A:Thm2.8-catenarian', 'A:Cor2.9-htM<=2', 'A:Prop2.10-tdKD<=2', 'B:AF'), "
        "refusals=())"
    )


@pytest.mark.parametrize("name", GRAMMAR)
def test_constructor_defaults_are_the_field_defaults(name):
    cls = GRAMMAR[name][0]
    assert (cls.__new__.__defaults__ or ()) == tuple(cls._field_defaults.values())
