"""Formula evaluators, applicability gates and dispatch."""
import json
from collections import Counter
from itertools import product

import pytest
from hypothesis import assume, given, settings, strategies as st

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
    Witness,
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
from krulldim.parser import parse_expr, to_source
from krulldim.spectra import (
    KIND_CONTAINS,
    AfDomain,
    Field,
    PolyRing,
    Pullback,
    Valuation,
    summarize,
)
from test_properties import built_models, large_exprs

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
        assert fiber_dim(summarize(Field(2)).strata[0], summarize(Field(3)).strata[0]) == 2

    def test_closed_point(self):
        assert fiber_dim(S_KM.select("M"), S_KX.strata[-1]) == 0

    def test_zero_against_closed(self):
        assert fiber_dim(S_KM.strata[0], S_KX.strata[-1]) == 0


class TestThm28Height:
    def test_zero_pair(self):
        assert thm28_ht(S_KM, S_KX, S_KM.strata[0], S_KX.strata[0], 0) == 0

    def test_conductor_over_maximal(self):
        assert thm28_ht(S_KM, S_KX, S_KM.select("M"), S_KX.strata[-1], 0) == 3

    def test_outside_with_fiber_offset(self):
        # ht = ht(p) + ht(q[t.d.(A)]) + delta on the outside branch
        p, q = S_KM.strata[0], S_KX.strata[0]
        assert thm28_ht(S_KM, S_KX, p, q, 1) == 0 + 0 + 1

    def test_delta_out_of_range(self):
        with pytest.raises(ConstraintError):
            thm28_ht(S_KM, S_KX, S_KM.select("M"), S_KX.strata[-1], 1)

    def test_needs_pullback(self):
        with pytest.raises(ApplicabilityError):
            thm28_ht(S_KX, S_KM, S_KX.strata[0], S_KM.strata[0], 0)

    def test_inexact_pairs_rejected(self):
        bad_b = summarize(AfDomain(3, 3, catenarian=False))
        with pytest.raises(InexactPairError):
            thm28_ht(S_KM, bad_b, S_KM.select("M"), bad_b.strata[-1], 0)

    @pytest.mark.parametrize("b_name", sorted(catalog()))
    def test_through_term_is_the_maximum_over_pairs_into_q(self, b_name):
        b = summarize(catalog()[b_name])
        for a in map(summarize, catalog_pullbacks().values()):
            pd, m = a.pullback_data, a.select("M")
            for q in b.strata:
                brute = max(
                    b.strata[q1].height + min(a.td, b.strata[q1].cap) + base + min(pd.td_d, cap)
                    + min(b.strata[q1].residue_td, pd.td_kd)
                    for q1, j, (base, cap) in b.iter_pairs()
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
        pd, m = S_KM.pullback_data, S_KM.select("M")
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
                    b.strata[q1].height + min(S_KM.td, b.strata[q1].cap) + base
                    + min(pd.td_d, cap) + min(b.strata[q1].residue_td, pd.td_kd)
                    for q1, j, quot in b.iter_pairs()
                    if j == q.index
                    for base, cap in [quot]
                )
                assert thm28_ht(S_KM, b, m, q, 0) == m.height + brute

    def test_first_uncertified_pair_into_q_is_pinned(self):
        b = summarize(Pullback(AfDomain(4, 3, catenarian=False), 2, Field(0), outside=2))
        m = S_KM.select("M")
        with pytest.raises(InexactPairError, match="pair out:1<=in:0,"):
            thm28_ht(S_KM, b, m, b.select("in:0"), 0)
        assert thm28_ht(S_KM, b, m, b.select("out:1"), 0) == 3


class TestMixedIdealHeight:
    def test_conductor_over_maximal(self):
        assert thm28_ht(S_KM, S_KX, S_KM.select("M"), S_KX.strata[-1], 0) == 3

    def test_conductor_over_zero(self):
        assert thm28_ht(S_KM, S_KX, S_KM.select("M"), S_KX.strata[0], 0) == 2

    def test_zero_ideal(self):
        assert thm28_ht(S_KM, S_KX, S_KM.strata[0], S_KX.strata[0], 0) == 0


class TestSctHeight:
    def test_two_curves(self):
        a, b = summarize(AfDomain(1, 1)), summarize(AfDomain(1, 1))
        assert sct_height_af(a, b, a.strata[-1], b.strata[-1], 0) == 2

    def test_field_side(self):
        a, b = summarize(Field(2)), S_KM
        q = b.select("M")
        # ht(q[2]) = ht(q) + min(2, cap) = 1 + 1
        assert sct_height_af(a, b, a.strata[0], q, 0) == q.height + min(2, q.cap) == 2

    def test_with_fiber_offset(self):
        a, b = summarize(AfDomain(2, 2)), summarize(Field(1))
        p = a.select("out:1")
        assert sct_height_af(a, b, p, b.strata[0], 1) == 0 + 1 + 1

    def test_rejects_non_af(self):
        with pytest.raises(ApplicabilityError):
            sct_height_af(S_KM, S_KX, S_KM.strata[0], S_KX.strata[0], 0)


class TestLambdaBound:
    def test_conductor_over_maximal(self):
        assert lambda_bound(S_KM, S_KX, S_KM.select("M"), S_KX.strata[-1], 0) == 3

    def test_fields(self):
        a, b = summarize(Field(2)), summarize(Field(3))
        assert lambda_bound(a, b, a.strata[0], b.strata[0], 0) == 0

    def test_af_pair(self):
        a, b = summarize(AfDomain(2, 1)), summarize(AfDomain(2, 2))
        assert lambda_bound(a, b, a.select("out:1"), b.select("out:2"), 0) == 3

    def test_delta_out_of_range(self):
        p, q = S_KM.strata[1], S_KX.strata[0]
        assert lambda_bound(S_KM, S_KX, p, q, 0) == 2
        for delta in (-1, 1, 99):
            with pytest.raises(ConstraintError, match=f"0..fiber_dim = 0, got {delta}$"):
                lambda_bound(S_KM, S_KX, p, q, delta)

    def test_composed_bound_dominates_heights(self):
        for p in S_KM.strata:
            for q in S_KM.strata:
                assert thm28_ht(S_KM, S_KM, p, q, 0) <= composed_height_bound(S_KM, S_KM, p, q)


class TestMembership:
    """A stratum must come from the very summary it is evaluated against."""

    @pytest.mark.parametrize(
        "fn, a_expr",
        [
            (thm28_ht, KM),
            (sct_height_af, AfDomain(2, 1)),
            (lambda_bound, KM),
            (lambda a, b, p, q, delta: composed_height_bound(a, b, p, q), KM),
        ],
        ids=["thm28_ht", "sct_height_af", "lambda_bound", "composed_height_bound"],
    )
    @pytest.mark.parametrize("side", ["A", "B"])
    def test_stratum_of_an_equal_summary_is_refused(self, fn, a_expr, side):
        b_expr = AfDomain(1, 1)
        a, b = summarize(a_expr), summarize(b_expr)
        twin = summarize.__wrapped__(a_expr if side == "A" else b_expr)
        assert twin == (a if side == "A" else b) and twin is not a and twin is not b
        p, q = a.strata[0], b.strata[0]
        if side == "A":
            p = twin.strata[0]
        else:
            q = twin.strata[0]
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


@st.composite
def af_models(draw, td):
    """An AF constructor of t.d. ``td``, flagged non-catenarian at random."""
    dim = draw(st.integers(0, td))
    kind = draw(st.sampled_from(["field", "af", "val", "poly"]))
    if kind == "field" or dim == 0:
        return Field(td)
    if kind == "val":
        return Valuation(td, dim)
    catenarian = draw(st.booleans())
    if kind == "poly":
        n = draw(st.integers(0, dim))
        return PolyRing(AfDomain(td - n, dim - n, catenarian), n)
    return AfDomain(td, dim, catenarian)


@st.composite
def pullbacks(draw, td_kd=None):
    """A pullback with t.d.(K:D) = ``td_kd`` if given; it may pass no gate."""
    m = draw(st.integers(1, 3))
    td_d = draw(st.integers(0, 3))
    if td_kd is None:
        td_kd = draw(st.integers(0, 4))
    td_t = m + td_d + td_kd
    subring = draw(af_models(td_d))
    if draw(st.booleans()):
        return Pullback(Valuation(td_t, m), m, subring)
    dim_t = draw(st.integers(m, td_t))
    outside = draw(st.integers(m - 1, dim_t))
    return Pullback(AfDomain(td_t, dim_t, draw(st.booleans())), m, subring, outside)


B_KINDS = ["af", "cap-below-td-d", "cap-above-td-d"]


def _draw_models(data, b_kind):
    """A gated pullback A, and B: AF, or a pullback whose product block's
    cap t.d.(K:D) lies below or above A's t.d.(D)."""
    a = summarize(data.draw(pullbacks()))
    assume(a.gates)
    td_d = a.pullback_data.td_d
    if b_kind == "af":
        return a, summarize(data.draw(af_models(data.draw(st.integers(0, 5)))))
    if b_kind == "cap-below-td-d":
        assume(td_d > 0)
        return a, summarize(data.draw(pullbacks(td_kd=data.draw(st.integers(0, td_d - 1)))))
    return a, summarize(data.draw(pullbacks(td_kd=data.draw(st.integers(td_d + 1, td_d + 3)))))


def _thm28_dim_over_pairs(a, b):
    """thm28_dim evaluated pair by pair over the ``pairs`` view of B.

    Returns the refusal message, or the value, the terms and the labels
    of the tied through-M pairs in ``pairs`` order.
    """
    uncertified = [(i, j) for i, j, quot in b.pairs if quot is None]
    if uncertified:
        return (
            "tensor dimension formula needs quotient heights for pair "
            f"{b.pair_label(*uncertified[0])}, which the non-catenarian model does not certify"
        )
    pd, x = a.pullback_data, b.strata
    through = {
        (q1, q): pd.m + x[q1].height + min(a.td, x[q1].cap) + base + min(pd.td_d, cap)
        + min(x[q1].residue_td, pd.td_kd) + min(pd.td_d, pd.dim_d + x[q].residue_td)
        for q1, q, (base, cap) in b.pairs
    }
    term1, term2 = d_value(a.td, pd.outside, b), max(through.values())
    value = max(term1, term2)
    ties = [p for p, v in through.items() if v == value]
    return value, ((TERM_OUTSIDE, term1), (TERM_THROUGH, term2)), [b.pair_label(*p) for p in ties]


class TestBlockEvaluation:
    """The formulas read pair blocks; a pair-by-pair evaluation must agree."""

    def test_pairs_follow_the_listing_order(self):
        # Pairs among strata outside M (or plain strata), then from outside
        # M up to M, then over M; each group by lower, then upper position.
        for b in map(summarize, [*catalog().values(), *NON_CATENARIAN]):
            over_m = [x.kind == KIND_CONTAINS for x in b.strata]
            key = lambda p: (over_m[p[0]] + over_m[p[1]], p[0], p[1])  # noqa: E731
            assert list(b.pairs) == sorted(b.pairs, key=key)

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

    @pytest.mark.parametrize("b_kind", B_KINDS)
    @settings(deadline=None)
    @given(data=st.data())
    def test_thm28_dim_matches_the_pairs_view_on_generated_models(self, b_kind, data):
        """B is AF, or a pullback whose product block's cap t.d.(K:D) lies
        below or above A's t.d.(D); T and D of either side may be
        non-catenarian, so B may be refused."""
        a, b = _draw_models(data, b_kind)
        want = _thm28_dim_over_pairs(a, b)
        if isinstance(want, str):
            with pytest.raises(InexactPairError) as err:
                thm28_dim(a, b)
            assert str(err.value) == want
            return
        report = thm28_dim(a, b)
        through = [w.ref[2:] for w in report.witnesses if w.term == TERM_THROUGH]
        assert (report.value, report.term_breakdown, through) == want

    @pytest.mark.parametrize("b_kind", B_KINDS)
    @settings(deadline=None)
    @given(data=st.data())
    def test_d_value_is_the_maximum_over_every_position(self, b_kind, data):
        _, b = _draw_models(data, b_kind)
        s = data.draw(st.integers(0, 8))
        d = data.draw(st.integers(0, s))
        assert d_value(s, d, b) == max(
            x.height + min(x.cap, s) + min(d + x.residue_td, s) for x in b.strata
        )

    @pytest.mark.parametrize("b_kind", B_KINDS)
    @settings(deadline=None)
    @given(data=st.data())
    def test_thm28_ht_is_the_maximum_over_pairs(self, b_kind, data):
        """Every (p, q) at delta 0 against the pair-by-pair formula; over M
        the formula refuses a q that an uncertified pair leads into."""
        a, b = _draw_models(data, b_kind)
        pd = a.pullback_data
        for q in b.strata:
            into_q = [(q1, quot) for q1, j, quot in b.pairs if j == q.index]
            for p in a.strata:
                if p.kind != KIND_CONTAINS:
                    want = p.height + q.height + min(a.td, q.cap)
                elif any(quot is None for _, quot in into_q):
                    with pytest.raises(InexactPairError):
                        thm28_ht(a, b, p, q)
                    continue
                else:
                    want = p.height + max(
                        b.strata[q1].height + min(a.td, b.strata[q1].cap) + base
                        + min(pd.td_d, cap) + min(b.strata[q1].residue_td, pd.td_kd)
                        for q1, (base, cap) in into_q
                    )
                assert thm28_ht(a, b, p, q) == want, (p.label, q.label)


# Two full-height pullbacks and an AF model, each of about MAX_STRATA strata.
LARGE = (
    Pullback(Valuation(2047, 1023), 1023, AfDomain(1023, 1023)),
    Pullback(Valuation(2047, 1024), 1024, AfDomain(1020, 1020)),
    AfDomain(2047, 2047),
)

def _may_build(_answer, *models):
    """The models on which the call that gave ``_answer`` may build ``strata``."""
    return models


class TestCostPerBlock:
    """The formulas read each block at its ends, from the runs, however many
    strata the models have.  On fresh models of about MAX_STRATA strata and
    kM, an answer, its witnesses read too, builds no view, and a height
    none but the ``strata`` that ``select`` builds.  Each may keep its
    side B's first uncertified pair, a pair of integers or None, which
    ``thm28_dim`` reads and the chain oracle reads on every call."""

    @pytest.fixture
    def models(self, monkeypatch):
        """Fresh copies of LARGE's models and kM's, which ``dim_tensor`` compiles to too."""
        fresh = {e: summarize(e)._replace() for e in (*LARGE, KM)}
        monkeypatch.setattr(formulas, "summarize", fresh.__getitem__)
        return [fresh[e] for e in (*LARGE, KM)]

    @pytest.mark.parametrize(
        "call",
        [
            lambda pb, pb2, af, km: _may_build(thm28_dim(pb, af).witnesses),
            lambda pb, pb2, af, km: _may_build(thm28_dim(km, pb).witnesses),
            lambda pb, pb2, af, km: _may_build(d_value(af.td, 1000, pb)),
            lambda pb, pb2, af, km: _may_build(d_value(pb.td, pb.dim, af)),
            lambda pb, pb2, af, km: _may_build(
                thm28_ht(pb, pb2, pb.select("M"), pb2.select("M")), pb, pb2
            ),
            lambda pb, pb2, af, km: _may_build(
                thm28_ht(km, af, km.select("M"), af.select("out:2047")), km, af
            ),
            lambda pb, pb2, af, km: _may_build(pullback_pair_dim(pb, pb2)),
            lambda pb, pb2, af, km: _may_build(
                sct_height_af(af, pb, af.select("out:1500"), pb.select("in:500")), af, pb
            ),
            lambda pb, pb2, af, km: _may_build(dim_tensor(LARGE[0], LARGE[1]).witnesses),
            lambda pb, pb2, af, km: _may_build(dim_tensor(LARGE[2], LARGE[0]).witnesses),
            lambda pb, pb2, af, km: _may_build(dim_tensor(KM, LARGE[2]).witnesses),
            lambda pb, pb2, af, km: _may_build(dim_tensor(LARGE[2], LARGE[2]).witnesses),
            lambda pb, pb2, af, km: _may_build(dim_tensor(LARGE[1], KM).value),
        ],
        ids=[
            "thm28_dim-pb-af", "thm28_dim-km-pb", "d_value-pb", "d_value-af",
            "thm28_ht-pb-pb", "thm28_ht-km-af", "pullback_pair_dim", "sct_height_af-af-pb",
            "dim_tensor-pb-pb", "dim_tensor-af-pb", "dim_tensor-km-af", "dim_tensor-af-af",
            "dim_tensor-value",
        ],
    )
    def test_reads_per_block(self, models, call):
        assert all(s.runs[-1][0] >= 2000 for s in models[:3])
        may_build = call(*models)
        for s in models:
            allowed = {"uncertified", *(["strata"] if any(s is x for x in may_build) else [])}
            assert set(vars(s)) <= allowed, s.source


# --------------------------------------------------------------------------
# The closed forms over the runs against a reference that reads the
# strata, position by position, over the pair blocks.


def _blocks(b):
    """B's pair blocks in ``pairs`` order, each ``(lower, upper, cap, exact)``.

    Each run's chain, and for a pullback the product block after the first.
    """
    (n, *_, exact), *over = b.runs
    blocks = [(range(n), range(n), 0, exact)]
    if over:
        ((stop, *_, inner_exact),) = over
        m, cap, product_exact = b.product
        inside = range(n, stop)
        blocks += [(range(m), inside, cap, product_exact), (inside, inside, 0, inner_exact)]
    return blocks


def _ref_d_value(s, d, b):
    return max(x.height + min(x.cap, s) + min(d + x.residue_td, s) for x in b.strata)


def _ref_d_value_winners(s, d, b, best):
    return [
        x.index for x in b.strata if x.height + min(x.cap, s) + min(d + x.residue_td, s) == best
    ]


def _ref_through_ties(pd, td_a, b, term2):
    """The tied through-M pairs (q1, q) in ``pairs`` order."""
    f = [pd.m + min(x.cap, td_a) + min(x.residue_td, pd.td_kd) for x in b.strata]
    g = [x.height + min(pd.td_d, pd.dim_d + x.residue_td) for x in b.strata]
    for lower, upper, cap, _ in _blocks(b):
        tied = term2 - min(pd.td_d, cap)
        by_g: dict[int, list[int]] = {}
        for q in upper:
            by_g.setdefault(g[q], []).append(q)
        for q1 in lower:
            for q in by_g.get(tied - f[q1], ()):
                if q1 <= q:
                    yield q1, q


def _ref_through_max_at(pd, td_a, b, q):
    pair = _ref_first_uncertified(b, q)
    if pair is not None:
        return pair
    x = b.strata
    best = -1
    for lower, upper, cap, _ in _blocks(b):
        if lower and q in upper:
            q1 = x[lower.start]
            best = max(best, min(td_a, q1.cap) + min(pd.td_d, cap) + min(q1.residue_td, pd.td_kd))
    return x[q].height + best


def _ref_uncertified(b):
    for lower, upper, _, exact in _blocks(b):
        i = lower.start + 1
        if exact or i not in lower:
            continue
        j = max(i + 1, upper.start)
        if j in upper:
            return i, j
    return None


def _ref_first_uncertified(b, upper):
    for lower, upper_range, _, exact in _blocks(b):
        i = lower.start + 1
        if not exact and i in lower and i < upper and upper in upper_range:
            return i, upper
    return None


def _ref_thm28_dim(a, b):
    """thm28_dim's value, terms and witnesses, or its refusal's message."""
    pair = _ref_uncertified(b)
    if pair is not None:
        return (
            f"tensor dimension formula needs quotient heights for pair {b.pair_label(*pair)}, "
            "which the non-catenarian model does not certify"
        )
    pd, x = a.pullback_data, b.strata
    term1 = _ref_d_value(a.td, pd.outside, b)
    term2 = pd.m + max(
        min(a.td, x[lower.start].cap) + min(x[lower.start].residue_td, pd.td_kd)
        + x[upper[-1]].height + min(pd.td_d, pd.dim_d + x[upper[-1]].residue_td)
        + min(cap, pd.td_d)
        for lower, upper, cap, _ in _blocks(b)
    )
    value = max(term1, term2)
    witnesses = []
    if term1 == value:
        witnesses += [
            Witness(TERM_OUTSIDE, f"B:{x[q].label}", term1)
            for q in _ref_d_value_winners(a.td, pd.outside, b, term1)
        ]
    if term2 == value:
        witnesses += [
            Witness(TERM_THROUGH, f"B:{x[q1].label}<={x[q].label}", term2)
            for q1, q in _ref_through_ties(pd, a.td, b, term2)
        ]
    return value, ((TERM_OUTSIDE, term1), (TERM_THROUGH, term2)), tuple(witnesses)


def _assert_model_matches_reference(b):
    """``uncertified``, ``first_uncertified`` at every position and ``d_value``
    with its winners over a grid of (s, d)."""
    assert b.uncertified == _ref_uncertified(b), b
    for q in range(-1, b.runs[-1][0] + 1):
        assert b.first_uncertified(q) == _ref_first_uncertified(b, q), (b, q)
    for s in sorted({0, 1, 2, 3, 5, 8, b.td, b.td + 3}):
        for d in sorted({0, 1, s // 2, s - 1, s} & set(range(s + 1))):
            best = d_value(s, d, b)
            assert best == _ref_d_value(s, d, b), (b, s, d)
            assert formulas._d_value_winners(s, d, b, best) == _ref_d_value_winners(s, d, b, best)


def _assert_pair_matches_reference(a, b):
    """``d_value`` with its winners at a's arguments against b, and, for a gated
    pullback a, ``thm28_dim`` and ``_through_max_at`` at every position of b."""
    pd = a.pullback_data
    args = [(a.td, a.dim)] + ([] if pd is None else [(a.td, pd.outside), (pd.td_d, pd.dim_d)])
    for s, d in args:
        best = d_value(s, d, b)
        assert best == _ref_d_value(s, d, b), (a, b, s, d)
        assert formulas._d_value_winners(s, d, b, best) == _ref_d_value_winners(s, d, b, best)
    if pd is None or not a.gates:
        return
    want = _ref_thm28_dim(a, b)
    try:
        report = thm28_dim(a, b)
    except InexactPairError as exc:
        assert str(exc) == want, (a, b)
    else:
        assert (report.value, report.term_breakdown, report.witnesses) == want, (a, b)
    for q in range(b.runs[-1][0]):
        want = _ref_through_max_at(pd, a.td, b, q)
        try:
            got = formulas._through_max_at(pd, a.td, b, q)
        except InexactPairError as exc:
            assert str(exc).startswith(
                f"conductor height formula needs quotient heights for pair {b.pair_label(*want)},"
            ), (a, b, q)
        else:
            assert got == want, (a, b, q)


class TestClosedFormsMatchTheReference:
    """Values and witnesses read from the runs equal the reference's, in order."""

    def test_catalog_pairs(self):
        models = [summarize(e) for e in (*catalog().values(), *NON_CATENARIAN)]
        for b in models:
            _assert_model_matches_reference(b)
        for a, b in product(models, models):
            _assert_pair_matches_reference(a, b)

    @settings(max_examples=300, deadline=None)
    @given(b=built_models())
    def test_built_models(self, b):
        _assert_model_matches_reference(b)
        for a in map(summarize, catalog_pullbacks().values()):
            _assert_pair_matches_reference(a, b)

    @settings(max_examples=60, deadline=None)
    @given(x=large_exprs(), y=large_exprs())
    def test_large_models(self, x, y):
        a, b = summarize(x), summarize(y)
        _assert_model_matches_reference(b)
        _assert_pair_matches_reference(a, b)
        _assert_pair_matches_reference(b, a)

    def test_certify_operands(self, certify_requests):
        pairs = {(parse_expr(r.a), parse_expr(r.b)) for r in certify_requests}
        operands = {e for pair in pairs for e in pair}
        assert len(operands) == 819
        for e in operands:
            _assert_model_matches_reference(summarize(e))
        for x, y in pairs:
            _assert_pair_matches_reference(summarize(x), summarize(y))
            _assert_pair_matches_reference(summarize(y), summarize(x))


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


def _attaining(term, af, side, other):
    """Witnesses of D(t.d.(af), dim(af), other): each stratum of ``other``
    attaining the maximum, in position order."""
    s, d = af.td, af.dim
    values = [q.height + min(q.cap, s) + min(d + q.residue_td, s) for q in other.strata]
    best = max(values)
    return tuple(
        Witness(term, f"{side}:{q.label}", best) for q, v in zip(other.strata, values) if v == best
    )


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

    def test_one_sided_witnesses_are_every_stratum_at_the_maximum(self):
        operands = [*catalog().values(), *NON_CATENARIAN, UNGATED]
        seen = Counter()
        for x, y in product(operands, operands):
            try:
                report = dim_tensor(x, y)
            except ApplicabilityError:
                continue
            sx, sy = summarize(x), summarize(y)
            if report.theorem == THEOREM_W38:
                want = _attaining("dim(A)+td(B)", sx, "B", sy)
                want += _attaining("td(A)+dim(B)", sy, "A", sx)
            elif report.theorem == THEOREM_W37 and report.gates == ("A:AF",):
                want = _attaining("D-max", sx, "B", sy)
            elif report.theorem == THEOREM_W37:
                want = _attaining("D-max", sy, "A", sx)
            else:
                continue
            seen[report.theorem] += 1
            first = report.witnesses
            assert first == want, (x, y)
            assert report.witnesses is first
        assert seen[THEOREM_W38] and seen[THEOREM_W37]

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
        if isinstance(got, DimReport):  # a tuple subclass, so tested first
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
            "d_value",
            _bumped(formulas.d_value, lambda s, d, y: (s, d, y) == (b.td, b.dim, a)),
        )
        with pytest.raises(ConsistencyError, match=r"one-sided AF formula \(B\)"):
            dim_tensor(KM, AfDomain(1, 1))

    def test_two_sided_pullback(self, monkeypatch):
        monkeypatch.setattr(
            formulas, "pullback_pair_dim", _bumped(pullback_pair_dim, lambda a, b: True)
        )
        with pytest.raises(ConsistencyError, match="two-sided pullback formula"):
            dim_tensor(KM, PB_VAL32)
