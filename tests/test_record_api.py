"""The record API every record class offers, and how records copy and pickle.

The golden texts are what the records printed when they were built on
``collections.namedtuple``; the ``Record`` base must keep all of it.
"""
import copy
import inspect
import pickle

import pytest

from krulldim.checks import CheckFailure, CheckReport
from krulldim.formulas import DimReport, Witness, dim_tensor
from krulldim.oracle import AnchoredChain
from krulldim.spectra import (
    AfDomain,
    Field,
    PolyRing,
    Pullback,
    PullbackData,
    Record,
    SpectrumSummary,
    Stratum,
    Valuation,
    summarize,
)


def no_witnesses():
    return ()


RUNS = ((1, 0, 2, 0, True), (2, 1, 1, 1, True))
DATA = (1, 1, 0, 0, 1, 0, True, True)
H0 = Stratum(0, "plain", 0, 1, 0, "h0")

# Each record class: its fields, its field defaults, the positional
# arguments of one instance and that instance's repr.
CASES = [
    (Field, ("td",), {}, (3,), "Field(td=3)"),
    (
        AfDomain, ("td", "dim", "catenarian"), {"catenarian": True}, (3, 1, False),
        "AfDomain(td=3, dim=1, catenarian=False)",
    ),
    (Valuation, ("td", "dim"), {}, (3, 1), "Valuation(td=3, dim=1)"),
    (
        PolyRing, ("base", "n"), {}, (AfDomain(3, 1), 2),
        "PolyRing(base=AfDomain(td=3, dim=1, catenarian=True), n=2)",
    ),
    (
        Pullback, ("ambient", "m", "subring", "outside"), {"outside": None},
        (AfDomain(3, 3), 1, Field(1), 3),
        "Pullback(ambient=AfDomain(td=3, dim=3, catenarian=True), m=1, "
        "subring=Field(td=1), outside=3)",
    ),
    (
        SpectrumSummary,
        ("td", "dim", "is_af", "runs", "product", "pullback_data", "gates", "source"),
        {"product": None, "pullback_data": None, "gates": (), "source": ""},
        (2, 1, False, RUNS, (1, 1, True), PullbackData(*DATA), ("Thm2.8-catenarian",), "pb"),
        "SpectrumSummary(td=2, dim=1, is_af=False, "
        "runs=((1, 0, 2, 0, True), (2, 1, 1, 1, True)), product=(1, 1, True), "
        "pullback_data=PullbackData(m=1, td_k=1, td_d=0, dim_d=0, td_kd=1, outside=0, "
        "ambient_catenarian=True, conductor_is_top=True), "
        "gates=('Thm2.8-catenarian',), source='pb')",
    ),
    (
        Stratum, ("index", "kind", "height", "residue_td", "cap", "label"), {},
        (2, "outsideM", 2, 0, 1, "out:2"),
        "Stratum(index=2, kind='outsideM', height=2, residue_td=0, cap=1, label='out:2')",
    ),
    (
        PullbackData,
        ("m", "td_k", "td_d", "dim_d", "td_kd", "outside", "ambient_catenarian",
         "conductor_is_top"),
        {}, DATA,
        "PullbackData(m=1, td_k=1, td_d=0, dim_d=0, td_kd=1, outside=0, "
        "ambient_catenarian=True, conductor_is_top=True)",
    ),
    (
        DimReport,
        ("value", "theorem", "term_breakdown", "build_witnesses", "gates", "refusals"),
        {"gates": (), "refusals": ()},
        (4, "Thm2.8", (("outside-M", 2),), no_witnesses, ("B:AF",), (("A", "why"),)),
        "DimReport(value=4, theorem='Thm2.8', term_breakdown=(('outside-M', 2),), "
        "gates=('B:AF',), refusals=(('A', 'why'),))",
    ),
    (
        Witness, ("term", "ref", "value"), {}, ("through-M", "B:h0<=h2", 4),
        "Witness(term='through-M', ref='B:h0<=h2', value=4)",
    ),
    (
        AnchoredChain, ("anchors", "segment_lengths"), {}, (((H0, H0),), (0, 1)),
        "AnchoredChain(anchors=((Stratum(index=0, kind='plain', height=0, residue_td=1, "
        "cap=0, label='h0'), Stratum(index=0, kind='plain', height=0, residue_td=1, "
        "cap=0, label='h0')),), segment_lengths=(0, 1))",
    ),
    (
        CheckFailure, ("inputs", "expected", "actual"), {}, ("x", "1", "2"),
        "CheckFailure(inputs='x', expected='1', actual='2')",
    ),
    (
        CheckReport, ("suite", "cases", "failures"), {},
        ("prop23", 2, (CheckFailure("x", "1", "2"),)),
        "CheckReport(suite='prop23', cases=2, "
        "failures=(CheckFailure(inputs='x', expected='1', actual='2'),))",
    ),
]
CLASSES = [case[0] for case in CASES]
by_class = pytest.mark.parametrize("case", CASES, ids=lambda case: case[0].__name__)


def test_every_record_class_is_listed():
    assert len(CLASSES) == 13 and set(CLASSES) == set(Record.__subclasses__())


@by_class
def test_fields_defaults_and_match_args(case):
    cls, fields, defaults, _, _ = case
    assert cls._fields == fields and cls.__match_args__ == fields
    assert cls._field_defaults == defaults


@by_class
def test_repr(case):
    cls, _, _, args, text = case
    assert repr(cls(*args)) == text


@by_class
def test_field_access_and_asdict(case):
    cls, fields, _, args, _ = case
    record = cls(*args)
    assert [getattr(record, name) for name in fields] == list(args)
    assert record._asdict() == dict(zip(fields, args))
    assert type(record._asdict()) is dict


@by_class
def test_make_and_replace(case):
    cls, fields, _, args, _ = case
    record = cls(*args)
    assert type(cls._make(args)) is cls and tuple(cls._make(args)) == args
    assert type(record._replace()) is cls and tuple(record._replace()) == args
    for name, value in zip(fields, args):
        again = record._replace(**{name: value})
        assert type(again) is cls and tuple(again) == args
    with pytest.raises(ValueError, match="unexpected field names: \\['nonesuch'\\]"):
        record._replace(nonesuch=0)


@by_class
def test_keyword_construction_equals_positional(case):
    cls, fields, _, args, _ = case
    assert tuple(cls(**dict(zip(fields, args)))) == args


@by_class
def test_a_missing_or_extra_argument_is_a_type_error(case):
    cls, fields, defaults, args, _ = case
    with pytest.raises(TypeError):
        cls(*args[: len(fields) - len(defaults) - 1])
    with pytest.raises(TypeError):
        cls(*args, 0)
    with pytest.raises(TypeError):
        cls(*args[:-1], nonesuch=0)
    with pytest.raises(TypeError):
        cls(*args, **{fields[0]: args[0]})


@by_class
def test_new_takes_exactly_the_fields(case):
    """Construction goes through a ``__new__`` that names each field, never
    through a generic ``*args``/``**kwargs`` path."""
    cls = case[0]
    params = list(inspect.signature(cls.__new__).parameters.values())[1:]
    assert tuple(p.name for p in params) == cls._fields
    assert all(p.kind is p.POSITIONAL_OR_KEYWORD for p in params)
    assert {p.name: p.default for p in params if p.default is not p.empty} == cls._field_defaults


def _instances():
    """One instance of each class, and a report and a summary as computed."""
    km = Pullback(Valuation(2, 1), 1, Field(0))
    return [cls(*args) for cls, _, _, args, _ in CASES] + [
        dim_tensor(km, AfDomain(2, 2)), summarize(km),
    ]


@pytest.mark.parametrize("record", _instances(), ids=lambda r: type(r).__name__)
@pytest.mark.parametrize("duplicate", [copy.copy, copy.deepcopy])
def test_copies_round_trip(record, duplicate):
    again = duplicate(record)
    assert type(again) is type(record) and tuple(again) == tuple(record)
    assert again == record and repr(again) == repr(record)


# A computed report's ``build_witnesses`` is a closure, which pickle refuses.
@pytest.mark.parametrize(
    "record",
    [r for r in _instances() if type(r) is not DimReport],
    ids=lambda r: type(r).__name__,
)
@pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
def test_pickles_round_trip(record, protocol):
    again = pickle.loads(pickle.dumps(record, protocol))
    assert type(again) is type(record) and tuple(again) == tuple(record)
    assert again == record and repr(again) == repr(record)
