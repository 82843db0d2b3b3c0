"""Formula evaluators, applicability gates and dispatch."""
import json
from itertools import product

import pytest

from krulldim import cli, formulas
from krulldim.checks import catalog, catalog_pullbacks
from krulldim.errors import (
    ApplicabilityError,
    ConsistencyError,
    ConstraintError,
    InexactPairError,
)
from krulldim.formulas import (
    GATE_AF,
    GATE_CATENARIAN,
    GATE_HT_M,
    GATE_TD_KD,
    TERM_OUTSIDE,
    TERM_THROUGH,
    THEOREM_SHARP,
    THEOREM_THM28,
    THEOREM_W37,
    THEOREM_W38,
    DimReport,
    af_pair_dim,
    composed_height_bound,
    d_value,
    dim_tensor,
    fiber_dim,
    lambda_bound,
    pullback_pair_dim,
    sct_height_af,
    sharp_dim,
    thm28_dim,
    thm28_ht,
)
from krulldim.parser import to_source
from krulldim.spectra import AfDomain, Field, PolyRing, Pullback, Valuation, summarize

KM = Pullback(Valuation(2, 1), 1, Field(0))
S_KM = summarize(KM)
S_KX = summarize(AfDomain(1, 1))  # the one-variable polynomial ring profile


class TestSharp:
    @pytest.mark.parametrize("s, t, want", [(2, 3, 2), (0, 7, 0), (4, 4, 4)])
    def test_values(self, s, t, want):
        assert sharp_dim(s, t) == want


class TestDValue:
    def test_field_operand(self):
        assert d_value(2, 0, summarize(Field(1))) == 1

    def test_af_pair_agreement(self):
        assert d_value(1, 1, summarize(AfDomain(1, 1))) == 2

    def test_tensoring_with_k(self):
        assert d_value(2, 2, summarize(Field(0))) == 2

    def test_precondition(self):
        with pytest.raises(ConstraintError):
            d_value(1, 2, summarize(Field(0)))


class TestAfPair:
    def test_affine_pair(self):
        assert af_pair_dim(summarize(AfDomain(2, 2)), summarize(AfDomain(1, 1))) == 3

    def test_fields_reduce_to_sharp(self):
        assert af_pair_dim(summarize(Field(2)), summarize(Field(5))) == sharp_dim(2, 5)

    def test_valuation_pair(self):
        got = af_pair_dim(summarize(Valuation(2, 1)), summarize(AfDomain(1, 1)))
        assert got == 2 == d_value(2, 1, summarize(AfDomain(1, 1)))

    def test_rejects_non_af(self):
        with pytest.raises(ApplicabilityError):
            af_pair_dim(S_KM, summarize(Field(1)))


class TestFiberDim:
    def test_fields(self):
        assert fiber_dim(summarize(Field(2)).zero_stratum, summarize(Field(3)).zero_stratum) == 2

    def test_closed_point(self):
        assert fiber_dim(S_KM.conductor_stratum, S_KX.top_stratum) == 0

    def test_zero_against_closed(self):
        assert fiber_dim(S_KM.zero_stratum, S_KX.top_stratum) == 0


class TestThm28Height:
    def test_zero_pair(self):
        assert thm28_ht(S_KM, S_KX, S_KM.zero_stratum, S_KX.zero_stratum, 0) == 0

    def test_conductor_over_maximal(self):
        assert thm28_ht(S_KM, S_KX, S_KM.conductor_stratum, S_KX.top_stratum, 0) == 3

    def test_outside_with_fiber_offset(self):
        # ht = ht(p) + ht(q[t.d.(A)]) + delta on the outside branch
        p, q = S_KM.zero_stratum, S_KX.zero_stratum
        assert thm28_ht(S_KM, S_KX, p, q, 1) == 0 + 0 + 1

    def test_delta_out_of_range(self):
        with pytest.raises(ConstraintError):
            thm28_ht(S_KM, S_KX, S_KM.conductor_stratum, S_KX.top_stratum, 1)

    def test_needs_pullback(self):
        with pytest.raises(ApplicabilityError):
            thm28_ht(S_KX, S_KM, S_KX.zero_stratum, S_KM.zero_stratum, 0)

    def test_inexact_pairs_rejected(self):
        bad_b = summarize(AfDomain(3, 3, catenarian=False))
        with pytest.raises(InexactPairError):
            thm28_ht(S_KM, bad_b, S_KM.conductor_stratum, bad_b.top_stratum, 0)

    @pytest.mark.parametrize("b_name", sorted(catalog()))
    def test_through_term_is_the_maximum_over_pairs_into_q(self, b_name):
        b = summarize(catalog()[b_name])
        for a in map(summarize, catalog_pullbacks().values()):
            pd, m = a.pullback_data, a.conductor_stratum
            for q in b.strata:
                brute = max(
                    b.heights[q1] + min(a.td, b.caps[q1]) + base + min(pd.td_d, cap)
                    + min(b.residues[q1], pd.td_kd)
                    for q1, j, (base, cap) in b.pairs
                    if j == q.index
                )
                assert thm28_ht(a, b, m, q, 0) == m.height + brute

    @pytest.mark.parametrize(
        "b_expr",
        [
            AfDomain(3, 3, catenarian=False),
            Pullback(AfDomain(4, 3, catenarian=False), 2, Field(0), outside=2),
            Pullback(Valuation(3, 1), 1, AfDomain(2, 2, catenarian=False)),
        ],
    )
    def test_non_catenarian_b_names_the_first_uncertified_pair_into_q(self, b_expr):
        b = summarize(b_expr)
        uncertified = [(i, j) for i, j, quot in b.iter_pairs() if quot is None]
        assert uncertified
        pd, m = S_KM.pullback_data, S_KM.conductor_stratum
        for q in b.strata:
            into_q = [i for i, j in uncertified if j == q.index]
            if into_q:
                label = b.pair_label(into_q[0], q.index)
                with pytest.raises(
                    InexactPairError,
                    match=f"^conductor height formula needs quotient heights for pair {label},",
                ):
                    thm28_ht(S_KM, b, m, q, 0)
            else:
                brute = max(
                    b.heights[q1] + min(S_KM.td, b.caps[q1]) + base + min(pd.td_d, cap)
                    + min(b.residues[q1], pd.td_kd)
                    for q1, j, quot in b.pairs
                    if j == q.index
                    for base, cap in [quot]
                )
                assert thm28_ht(S_KM, b, m, q, 0) == m.height + brute

    def test_first_uncertified_pair_into_q_is_pinned(self):
        b = summarize(Pullback(AfDomain(4, 3, catenarian=False), 2, Field(0), outside=2))
        m = S_KM.conductor_stratum
        with pytest.raises(InexactPairError, match="pair out:1<=in:0,"):
            thm28_ht(S_KM, b, m, b.select("in:0"), 0)
        assert thm28_ht(S_KM, b, m, b.select("out:1"), 0) == 3


class TestMixedIdealHeight:
    def test_conductor_over_maximal(self):
        assert thm28_ht(S_KM, S_KX, S_KM.conductor_stratum, S_KX.top_stratum, 0) == 3

    def test_conductor_over_zero(self):
        assert thm28_ht(S_KM, S_KX, S_KM.conductor_stratum, S_KX.zero_stratum, 0) == 2

    def test_zero_ideal(self):
        assert thm28_ht(S_KM, S_KX, S_KM.zero_stratum, S_KX.zero_stratum, 0) == 0


class TestSctHeight:
    def test_two_curves(self):
        a, b = summarize(AfDomain(1, 1)), summarize(AfDomain(1, 1))
        assert sct_height_af(a, b, a.top_stratum, b.top_stratum, 0) == 2

    def test_field_side(self):
        a, b = summarize(Field(2)), S_KM
        q = b.conductor_stratum
        # ht(q[2]) = ht(q) + min(2, cap) = 1 + 1
        assert sct_height_af(a, b, a.zero_stratum, q, 0) == q.height + min(2, q.cap) == 2

    def test_with_fiber_offset(self):
        a, b = summarize(AfDomain(2, 2)), summarize(Field(1))
        p = a.select("out:1")
        assert sct_height_af(a, b, p, b.zero_stratum, 1) == 0 + 1 + 1

    def test_rejects_non_af(self):
        with pytest.raises(ApplicabilityError):
            sct_height_af(S_KM, S_KX, S_KM.zero_stratum, S_KX.zero_stratum, 0)


class TestLambdaBound:
    def test_conductor_over_maximal(self):
        assert lambda_bound(S_KM, S_KX, S_KM.conductor_stratum, S_KX.top_stratum, 0) == 3

    def test_fields(self):
        a, b = summarize(Field(2)), summarize(Field(3))
        assert lambda_bound(a, b, a.zero_stratum, b.zero_stratum, 0) == 0

    def test_af_pair(self):
        a, b = summarize(AfDomain(2, 1)), summarize(AfDomain(2, 2))
        assert lambda_bound(a, b, a.select("out:1"), b.select("out:2"), 0) == 3

    def test_composed_bound_dominates_heights(self):
        for p in S_KM.strata:
            for q in S_KM.strata:
                assert thm28_ht(S_KM, S_KM, p, q, 0) <= composed_height_bound(S_KM, S_KM, p, q)


class TestMembership:
    """A stratum must come from the very summary it is evaluated against."""

    @pytest.mark.parametrize(
        "fn, a_expr",
        [(thm28_ht, KM), (sct_height_af, AfDomain(2, 1)), (lambda_bound, KM)],
        ids=["thm28_ht", "sct_height_af", "lambda_bound"],
    )
    @pytest.mark.parametrize("side", ["A", "B"])
    def test_stratum_of_an_equal_summary_is_refused(self, fn, a_expr, side):
        b_expr = AfDomain(1, 1)
        a, b = summarize(a_expr), summarize(b_expr)
        twin = summarize.__wrapped__(a_expr if side == "A" else b_expr)
        assert twin == (a if side == "A" else b) and twin is not a and twin is not b
        p, q = a.zero_stratum, b.zero_stratum
        if side == "A":
            p = twin.zero_stratum
        else:
            q = twin.zero_stratum
        with pytest.raises(ConstraintError, match=f"not part of summary {side}"):
            fn(a, b, p, q, 0)


class TestApplicability:
    """``SpectrumSummary.gates``: the hypothesis gates a model passes, strongest first."""

    def test_km_passes_all_gates(self):
        assert S_KM.gates == (GATE_CATENARIAN, GATE_HT_M, GATE_TD_KD)

    def test_af(self):
        assert summarize(AfDomain(3, 2)).gates == (GATE_AF,)

    def test_noncatenarian_small_conductor(self):
        s = summarize(Pullback(AfDomain(4, 2, catenarian=False), 2, Field(0), outside=2))
        assert s.gates == (GATE_HT_M, GATE_TD_KD)

    def test_unsupported(self):
        s = summarize(Pullback(AfDomain(7, 3, catenarian=False), 3, Field(0), outside=3))
        assert s.pullback_data.td_kd == 4
        assert s.gates == ()
        with pytest.raises(ApplicabilityError, match="passes no hypothesis gate"):
            thm28_dim(s, S_KX)


class TestThm28Dim:
    def test_km_against_curve(self):
        report = thm28_dim(S_KM, S_KX)
        assert report.value == 3
        assert dict(report.term_breakdown) == {"outside-M": 1, "through-M": 3}
        assert {w.ref for w in report.witnesses} == {"B:h0<=h1"}

    def test_km_against_km(self):
        assert thm28_dim(S_KM, S_KM).value == 3

    def test_trivial_pullback_against_k(self):
        s = summarize(Pullback(Valuation(2, 1), 1, Field(1)))
        assert thm28_dim(s, summarize(Field(0))).value == s.dim == 1

    def test_unsupported_gate(self):
        s = summarize(Pullback(AfDomain(7, 3, catenarian=False), 3, Field(0), outside=3))
        with pytest.raises(ApplicabilityError):
            thm28_dim(s, S_KX)


NON_CATENARIAN = (
    AfDomain(3, 3, catenarian=False),
    Pullback(AfDomain(4, 3, catenarian=False), 1, Field(0), outside=2),
    Pullback(AfDomain(6, 5, catenarian=False), 3, Field(0), outside=2),
    Pullback(Valuation(3, 1), 1, AfDomain(2, 2, catenarian=False)),
)


def _thm28_dim_over_pairs(a, b):
    """thm28_dim evaluated pair by pair over the ``pairs`` view of B.

    Returns the refusal message, or the value, the terms and the labels
    of the tied through-M pairs in ``pair_key`` order.
    """
    uncertified = [(i, j) for i, j, quot in b.pairs if quot is None]
    if uncertified:
        return (
            "tensor dimension formula needs quotient heights for pair "
            f"{b.pair_label(*uncertified[0])}, which the non-catenarian model does not certify"
        )
    pd = a.pullback_data
    through = {
        (q1, q): pd.m + b.heights[q1] + min(a.td, b.caps[q1]) + base + min(pd.td_d, cap)
        + min(b.residues[q1], pd.td_kd) + min(pd.td_d, pd.dim_d + b.residues[q])
        for q1, q, (base, cap) in b.pairs
    }
    term1, term2 = d_value(a.td, pd.outside, b), max(through.values())
    value = max(term1, term2)
    ties = sorted((p for p, v in through.items() if v == value), key=lambda p: b.pair_key(*p))
    return value, ((TERM_OUTSIDE, term1), (TERM_THROUGH, term2)), [b.pair_label(*p) for p in ties]


class TestBlockEvaluation:
    """The formulas read pair blocks; a pair-by-pair evaluation must agree."""

    def test_pairs_follow_pair_key_order(self):
        for b in map(summarize, [*catalog().values(), *NON_CATENARIAN]):
            assert list(b.pairs) == sorted(b.pairs, key=lambda p: b.pair_key(p[0], p[1]))

    def test_thm28_dim_matches_the_pairs_view(self):
        operands = [*catalog().values(), *NON_CATENARIAN]
        gated = [
            a for a in map(summarize, operands)
            if a.pullback_data is not None and a.gates
        ]
        assert len(gated) == len(catalog_pullbacks()) + 2
        refused = 0
        for a, b in product(gated, map(summarize, operands)):
            want = _thm28_dim_over_pairs(a, b)
            if isinstance(want, str):
                refused += 1
                with pytest.raises(InexactPairError) as err:
                    thm28_dim(a, b)
                assert str(err.value) == want
                continue
            report = thm28_dim(a, b)
            through = [w.ref[2:] for w in report.witnesses if w.term == TERM_THROUGH]
            assert (report.value, report.term_breakdown, through) == want, (a.source, b.source)
        assert refused == len(NON_CATENARIAN) * len(gated)


class TestPullbackPair:
    def test_km_km(self):
        assert pullback_pair_dim(S_KM, S_KM) == 3

    def test_trivial_pullbacks_match_af_formula(self):
        s = summarize(Pullback(Valuation(2, 1), 1, Field(1)))
        assert pullback_pair_dim(s, s) == af_pair_dim(s, s)

    def test_oracle_pinned_mixed_pair(self):
        other = summarize(Pullback(Valuation(3, 2), 2, Field(0)))
        assert pullback_pair_dim(S_KM, other) == 4

    def test_requires_full_height_conductor(self):
        partial = summarize(Pullback(AfDomain(3, 3), 1, Field(1), outside=3))
        with pytest.raises(ApplicabilityError):
            pullback_pair_dim(partial, S_KM)


class TestDimTensor:
    def test_fields(self):
        report = dim_tensor(Field(2), Field(3))
        assert (report.value, report.theorem) == (2, THEOREM_SHARP)

    def test_af_pair(self):
        report = dim_tensor(AfDomain(2, 2), AfDomain(1, 1))
        assert (report.value, report.theorem) == (3, THEOREM_W38)

    def test_km_km(self):
        report = dim_tensor(KM, KM)
        assert (report.value, report.theorem) == (3, THEOREM_THM28)

    def test_pullback_against_af_uses_conductor_formula(self):
        report = dim_tensor(KM, PolyRing(Field(0), 1))
        assert (report.value, report.theorem) == (3, THEOREM_THM28)

    def test_orientation_independent(self):
        assert dim_tensor(AfDomain(2, 2), KM).value == dim_tensor(KM, AfDomain(2, 2)).value == 4

    def test_witness_values_match_report(self):
        report = dim_tensor(KM, KM)
        assert report.witnesses
        assert max(w.value for w in report.witnesses) == report.value

    def test_unsupported_pullback_falls_back_to_one_sided(self):
        bad = Pullback(AfDomain(7, 3, catenarian=False), 3, Field(0), outside=3)
        report = dim_tensor(AfDomain(2, 2), bad)
        assert report.theorem == THEOREM_W37
        assert report.value == d_value(2, 2, summarize(bad))

    def test_unsupported_pair_raises(self):
        bad = Pullback(AfDomain(7, 3, catenarian=False), 3, Field(0), outside=3)
        with pytest.raises(ApplicabilityError):
            dim_tensor(bad, bad)

    def test_gates_are_reported(self):
        gates = dim_tensor(KM, AfDomain(1, 1)).gates
        assert "A:Thm2.8-catenarian" in gates and "B:AF" in gates


def _flip_side(tagged):
    return {"A": "B", "B": "A"}[tagged[0]] + tagged[1:]


class TestOrientation:
    """Exactly one side is a pullback: swapping the operands swaps A: and B:."""

    def test_af_against_km(self):
        refs = [w.ref for w in dim_tensor(AfDomain(2, 2), KM).witnesses]
        assert refs == ["A:h0<=h2", "A:h1<=h2"]

    def test_swapped_operands_swap_witness_sides(self):
        cat = catalog()
        pairs = [
            (x_name, y_name)
            for x_name, y_name in product(cat, cat)
            if summarize(cat[x_name]).pullback_data is not None
            and not summarize(cat[x_name]).is_af
            and summarize(cat[y_name]).pullback_data is None
        ]
        assert len(pairs) == 234
        for x_name, y_name in pairs:
            xy = dim_tensor(cat[x_name], cat[y_name])
            yx = dim_tensor(cat[y_name], cat[x_name])
            where = f"{y_name} ox {x_name}"
            assert (yx.value, yx.theorem, yx.term_breakdown) == (
                xy.value, xy.theorem, xy.term_breakdown
            ), where
            assert yx.witnesses == tuple(
                w._replace(ref=_flip_side(w.ref)) for w in xy.witnesses
            ), where
            assert sorted(yx.gates) == sorted(map(_flip_side, xy.gates)), where


PB_VAL32 = Pullback(Valuation(3, 2), 2, Field(0))
UNGATED = Pullback(AfDomain(7, 3, catenarian=False), 3, Field(0), outside=3)


def _no_witness(*args):
    raise AssertionError("a Witness was built")


class TestLazyWitnesses:
    """Witnesses are labelled when first read; answering the value builds none."""

    @pytest.mark.parametrize(
        "a, b, theorem",
        [
            (Field(2), Field(3), THEOREM_SHARP),
            (AfDomain(2, 2), AfDomain(1, 1), THEOREM_W38),
            (AfDomain(2, 2), UNGATED, THEOREM_W37),
            (KM, AfDomain(2, 2), THEOREM_THM28),
            (AfDomain(2, 2), KM, THEOREM_THM28),
            (KM, PB_VAL32, THEOREM_THM28),
            (PB_VAL32, KM, THEOREM_THM28),
        ],
        ids=["sharp", "w38", "w37", "pb-af", "af-pb", "pb-pb", "pb-pb-swapped"],
    )
    def test_value_builds_no_witness(self, monkeypatch, a, b, theorem):
        want = dim_tensor(a, b)
        monkeypatch.setattr(formulas, "Witness", _no_witness)
        report = dim_tensor(a, b)
        assert (report.value, report.theorem) == (want.value, theorem)
        with pytest.raises(AssertionError, match="a Witness was built"):
            report.witnesses

    def test_witnesses_match_explain_json(self, capsys):
        cat = catalog()
        for x, y in product(cat.values(), cat.values()):
            assert cli.main(["explain", to_source(x), to_source(y), "--json"]) == 0
            printed = json.loads(capsys.readouterr().out)["witnesses"]
            report = dim_tensor(x, y)
            first = report.witnesses
            assert report.witnesses is first
            assert [w._asdict() for w in first] == printed, (x, y)
            if summarize(y).pullback_data is None and not summarize(x).is_af:
                flipped = [{**w, "ref": _flip_side(w["ref"])} for w in printed]
                swapped = dim_tensor(y, x).witnesses
                assert [w._asdict() for w in swapped] == flipped, (y, x)


def _bumped(fn, when):
    """``fn`` answering one more than it should on the calls ``when`` selects."""

    def wrong(*args):
        got = fn(*args)
        if not when(*args):
            return got
        if isinstance(got, DimReport):  # a named tuple, so tested first
            return got._replace(value=got.value + 1)
        if isinstance(got, tuple):
            return (got[0] + 1, *got[1:])
        assert isinstance(got, int)
        return got + 1

    return wrong


class TestCrossChecks:
    """Each cross-check in dim_tensor raises, naming the formula, when it disagrees."""

    def test_af_min_form(self, monkeypatch):
        monkeypatch.setattr(formulas, "af_pair_dim", _bumped(af_pair_dim, lambda a, b: True))
        with pytest.raises(ConsistencyError, match="AF formulas disagree"):
            dim_tensor(AfDomain(2, 2), AfDomain(1, 1))

    def test_other_orientation(self, monkeypatch):
        b = summarize(PB_VAL32)
        monkeypatch.setattr(
            formulas, "thm28_dim", _bumped(formulas.thm28_dim, lambda x, y: x is b)
        )
        with pytest.raises(ConsistencyError, match="conductor formula orientation"):
            dim_tensor(KM, PB_VAL32)

    def test_one_sided_af(self, monkeypatch):
        a, b = summarize(KM), summarize(AfDomain(1, 1))
        monkeypatch.setattr(
            formulas,
            "_d_value_max",
            _bumped(formulas._d_value_max, lambda s, d, y: (s, d, y) == (b.td, b.dim, a)),
        )
        with pytest.raises(ConsistencyError, match=r"one-sided AF formula \(B\)"):
            dim_tensor(KM, AfDomain(1, 1))

    def test_two_sided_pullback(self, monkeypatch):
        monkeypatch.setattr(
            formulas, "pullback_pair_dim", _bumped(pullback_pair_dim, lambda a, b: True)
        )
        with pytest.raises(ConsistencyError, match="two-sided pullback formula"):
            dim_tensor(KM, PB_VAL32)
