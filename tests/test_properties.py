"""Property-based tests for model invariants and formula agreements."""
import re
import sys

import pytest
from hypothesis import example, given, settings, strategies as st

from krulldim.checks import catalog_pullbacks
from krulldim.errors import InexactPairError
from krulldim.formulas import (
    dim_tensor,
    fiber_dim,
    sct_height_af,
    thm28_ht,
)
from krulldim.oracle import _row_pass, best_chain, chain_enumerate, iter_chains
from krulldim.parser import parse_expr, to_source
from krulldim.spectra import (
    KIND_CONTAINS,
    AfDomain,
    Field,
    PolyRing,
    Pullback,
    Valuation,
    is_af_poly,
    summarize,
)
from models import built_model, built_models, large_exprs


def certified(summary):
    """True if the model certifies every comparable pair."""
    return all(quot is not None for _, _, quot in summary.iter_pairs())


# ---------------------------------------------------------------------------
# Strategies


@st.composite
def af_exprs(draw, max_td=4):
    kind = draw(st.sampled_from(["field", "af", "val", "poly"]))
    if kind == "field":
        return Field(draw(st.integers(0, max_td)))
    if kind == "af":
        t = draw(st.integers(0, max_td))
        d = draw(st.integers(0, t))
        return AfDomain(t, d, draw(st.booleans()))
    if kind == "val":
        t = draw(st.integers(1, max(1, max_td)))
        d = draw(st.integers(1, t))
        return Valuation(t, d)
    base = draw(af_exprs(max_td=max(0, max_td - 1)))
    return PolyRing(base, draw(st.integers(0, 2)))


@st.composite
def catenarian_af_exprs(draw, max_td=4):
    expr = draw(af_exprs(max_td=max_td))
    if isinstance(expr, AfDomain):
        return AfDomain(expr.td, expr.dim, True)
    if isinstance(expr, PolyRing) and isinstance(expr.base, AfDomain):
        return PolyRing(AfDomain(expr.base.td, expr.base.dim, True), expr.n)
    return expr


@st.composite
def pullback_exprs(draw, max_m=3, max_td_kd=2):
    m = draw(st.integers(1, max_m))
    td_k = draw(st.integers(0, max_td_kd + 1))
    td_d = draw(st.integers(0, td_k))
    dim_d = draw(st.integers(0, td_d))
    subring = Field(td_d) if dim_d == 0 else AfDomain(td_d, dim_d)
    if draw(st.booleans()):
        return Pullback(Valuation(m + td_k, m), m, subring)
    dim_t = draw(st.integers(m, m + 1))
    ambient = AfDomain(m + td_k, dim_t) if dim_t <= m + td_k else Valuation(m + td_k, m)
    if isinstance(ambient, AfDomain):
        outside = draw(st.integers(m - 1, dim_t))
        return Pullback(ambient, m, subring, outside)
    return Pullback(ambient, m, subring)


def any_exprs():
    return st.one_of(catenarian_af_exprs(max_td=3), pullback_exprs(max_m=2, max_td_kd=2))


def small_exprs():
    """Operands of at most 7 strata, whose chains ``iter_chains`` lists in milliseconds.

    AF operands may be flagged non-catenarian.
    """
    return st.one_of(
        af_exprs(max_td=3).filter(lambda e: summarize(e).dim <= 3),
        pullback_exprs(max_m=2, max_td_kd=1),
    )


# Polynomial rings over domains of dimension <= 1 flagged non-catenarian,
# which catenarian_af_exprs can draw under two poly levels.
LOW_DIM_FLAGGED = (
    PolyRing(PolyRing(AfDomain(0, 0, False), 0), 2),
    PolyRing(PolyRing(AfDomain(1, 1, False), 0), 2),
)


# ---------------------------------------------------------------------------
# Summary invariants


class TestSummaryInvariants:
    @given(expr=st.one_of(af_exprs(), pullback_exprs()))
    def test_heights_and_residues(self, expr):
        """dim is the top height; every stratum respects ht + t.d. residue <= t.d."""
        s = summarize(expr)
        assert s.dim == max(x.height for x in s.strata)
        assert s.strata[0].residue_td == s.td
        assert [x.index for x in s.strata] == list(range(len(s.strata)))
        for x in s.strata:
            assert x.height + x.residue_td <= s.td
            # polynomial heights never overshoot the altitude inequality
            assert x.height + min(10, x.cap) + x.residue_td <= s.td

    @given(expr=st.one_of(af_exprs(), pullback_exprs()))
    def test_af_flag_matches_definition(self, expr):
        s = summarize(expr)
        assert s.is_af == all(
            x.height + x.residue_td == s.td and x.cap == 0 for x in s.strata
        )

    @given(expr=st.one_of(af_exprs(), pullback_exprs()))
    def test_pairs(self, expr):
        """Reflexive pairs exist and certified pairs add heights exactly."""
        s = summarize(expr)
        heights = [x.height for x in s.strata]
        assert {i for i, j, _ in s.pairs if i == j} == set(range(len(s.strata)))
        for i, j, quot in s.pairs:
            assert heights[i] <= heights[j]
            if quot is not None:
                assert heights[i] + quot[0] <= heights[j]

    @given(expr=st.one_of(catenarian_af_exprs(), pullback_exprs()))
    def test_transitive_coherence(self, expr):
        """Quotient bases add along certified chains of pairs."""
        s = summarize(expr)
        exact = {(i, j): quot for i, j, quot in s.pairs if quot is not None}
        for (a, b), ab in exact.items():
            for (b2, c), bc in exact.items():
                if b2 == b and (a, c) in exact:
                    assert ab[0] + bc[0] == exact[(a, c)][0]

    @given(t=st.integers(0, 4), n=st.integers(0, 3))
    def test_poly_over_field_is_af_profile(self, t, n):
        assert summarize(PolyRing(Field(t), n)) == summarize(AfDomain(t + n, n))

    @given(expr=pullback_exprs())
    def test_pullback_dim(self, expr):
        s = summarize(expr)
        assert s.dim == max(expr.outside, expr.m + summarize(expr.subring).dim)

    @given(expr=pullback_exprs(), n=st.integers(0, 5))
    def test_af_poly_threshold(self, expr, n):
        """A pullback's polynomial ring turns AF exactly at t.d.(K:D) variables."""
        s = summarize(expr)
        assert is_af_poly(s, n) == (n >= s.pullback_data.td_kd)


def assert_d_part_is_d_model(pb):
    """The strata of ``summarize(pb)`` over M are ``summarize(D)`` shifted up by m.

    The pullback reads D's constructor instead of compiling D; this holds
    it to D's own model: heights, residues, the pairs among them and
    which of those are certified, and the t.d. and dimension kept in
    ``pullback_data``.
    """
    s, d = summarize(pb), summarize(pb.subring)
    pd = s.pullback_data
    n = s.runs[0][0]
    inner = s.strata[n:]
    assert [x for x in s.strata if x.kind == KIND_CONTAINS] == list(inner)
    assert [(x.height - pd.m, x.residue_td) for x in inner] == [
        (x.height, x.residue_td) for x in d.strata
    ]
    over_m = [(i - n, j - n, quot) for i, j, quot in s.iter_pairs() if i >= n]
    assert over_m == list(d.iter_pairs())
    assert (pd.td_d, pd.dim_d) == (d.td, d.dim)


# Every AF constructor kind as D; af(0,0), af(1,1) and af(2,1) are
# catenarian whatever their flag says, af(3,2) and af(3,3) are not.
SUBRINGS = (
    Field(0),
    Field(3),
    AfDomain(3, 2),
    AfDomain(3, 2, False),
    AfDomain(3, 3, False),
    AfDomain(0, 0, False),
    AfDomain(1, 1, False),
    AfDomain(2, 1, False),
    Valuation(3, 2),
    PolyRing(Valuation(2, 1), 2),
    PolyRing(PolyRing(AfDomain(1, 1, False), 1), 1),
    PolyRing(PolyRing(AfDomain(2, 2, False), 1), 1),
)


class TestPullbackSubringModel:
    @pytest.mark.parametrize("d", SUBRINGS, ids=to_source)
    @pytest.mark.parametrize("ambient", ["val", "af"])
    def test_each_constructor_kind(self, d, ambient):
        td = summarize(d).td + 3
        if ambient == "val":
            pb = Pullback(Valuation(td, 2), 2, d)
        else:
            pb = Pullback(AfDomain(td, 3, False), 2, d, outside=3)
        assert_d_part_is_d_model(pb)

    @pytest.mark.parametrize(
        "pb", catalog_pullbacks().values(), ids=catalog_pullbacks().keys()
    )
    def test_catalog(self, pb):
        assert_d_part_is_d_model(pb)

    @given(pb=pullback_exprs())
    def test_pullback_strategy(self, pb):
        assert_d_part_is_d_model(pb)

    @given(d=af_exprs(), m=st.integers(1, 3), td_kd=st.integers(0, 2))
    def test_any_af_subring(self, d, m, td_kd):
        assert_d_part_is_d_model(Pullback(Valuation(m + summarize(d).td + td_kd, m), m, d))


# ---------------------------------------------------------------------------
# Formula agreements


class TestFormulaAgreements:
    @settings(max_examples=60, deadline=None)
    @given(a=any_exprs(), b=any_exprs())
    def test_dim_tensor_symmetry(self, a, b):
        assert dim_tensor(a, b).value == dim_tensor(b, a).value

    @settings(max_examples=60, deadline=None)
    @given(a=any_exprs(), b=any_exprs())
    @example(a=LOW_DIM_FLAGGED[0], b=Field(1))
    @example(a=Field(1), b=LOW_DIM_FLAGGED[1])
    def test_enumerator_is_a_sound_bound(self, a, b):
        assert chain_enumerate(summarize(a), summarize(b)) <= dim_tensor(a, b).value

    @settings(deadline=None)
    @given(a=small_exprs(), b=small_exprs())
    @example(
        a=Pullback(AfDomain(4, 3), 2, AfDomain(2, 2), outside=3),
        b=Pullback(Valuation(3, 1), 1, Field(1)),
    )
    @example(a=Pullback(Valuation(2, 1), 1, Field(0)), b=AfDomain(3, 3, False))
    def test_fused_pass_matches_the_literal_enumerator(self, a, b):
        """chain_enumerate's one pass and the move-by-move maximum agree, or both refuse.

        The pass agrees with either side walked as rows, whichever
        ``chain_enumerate`` chooses.
        """
        sa, sb = summarize(a), summarize(b)
        if not (certified(sa) and certified(sb)):
            for enumerate_chains in (chain_enumerate, best_chain):
                with pytest.raises(InexactPairError):
                    enumerate_chains(sa, sb)
        else:
            best = best_chain(sa, sb).total
            assert chain_enumerate(sa, sb) == _row_pass(sa, sb) == _row_pass(sb, sa) == best

    @settings(max_examples=300, deadline=None)
    @given(model=built_models(), b=small_exprs().map(summarize).filter(certified))
    # Against field(0), the product block raises the lower run's first
    # position only, so the row falls along that run: a fill that cut it
    # as if it rose would overwrite the raise.
    @example(
        model=built_model([(2, 0, 4, 0, True), (5, 1, 4, 0, True)]),
        b=summarize(Field(0)),
    )
    def test_fused_pass_matches_the_literal_enumerator_on_built_models(self, model, b):
        """The pass rests only on what ``_check_summary`` guards, not on the constructors' values.

        Both refuse a model with an uncertified pair.
        """
        if not certified(model):
            for enumerate_chains in (chain_enumerate, best_chain):
                with pytest.raises(InexactPairError):
                    enumerate_chains(model, b)
            return
        best = best_chain(model, b).total
        assert chain_enumerate(model, b) == _row_pass(model, b) == _row_pass(b, model) == best

    @settings(max_examples=150, deadline=None)
    @given(a=large_exprs(), b=large_exprs())
    # The row of af(1050,768) of residue 808, the pullback's cap, is the
    # last the walk computes: its product step adds 808 where the row
    # above it added 807.
    @example(
        a=AfDomain(1050, 768),
        b=Pullback(Valuation(1616, 808), 808, Field(0)),
    )
    # The rows outside M of the first pullback merge the finished row at
    # M, D's bottom, which dominates the rows of D above it.
    @example(
        a=Pullback(Valuation(3340, 1670), 1670, Valuation(29, 10)),
        b=Pullback(Valuation(1862, 1670), 1670, Field(0)),
    )
    def test_fused_pass_matches_dim_tensor_on_large_models(self, a, b):
        """Up to ``MAX_STRATA`` strata a side, the pass equals ``dim_tensor`` with either side as rows.

        There the walk jumps over long stretches of skipped rows, and
        rows below a long product block merge the finished row at M.
        Where a side has an uncertified pair the oracle refuses.
        """
        sa, sb = summarize(a), summarize(b)
        if sa.uncertified or sb.uncertified:
            with pytest.raises(InexactPairError):
                chain_enumerate(sa, sb)
            return
        value = dim_tensor(a, b).value
        assert chain_enumerate(sa, sb) == _row_pass(sa, sb) == _row_pass(sb, sa) == value

    @settings(deadline=None)
    @given(a=small_exprs(), b=small_exprs())
    def test_chains_from_the_zero_anchor_reach_the_maximum(self, a, b):
        """The best chain anchored at (0, 0) is a best chain: what chain_enumerate returns."""
        sa, sb = summarize(a), summarize(b)
        if not (certified(sa) and certified(sb)):
            return
        zero = (sa.strata[0], sb.strata[0])
        from_zero = max(c.total for c in iter_chains(sa, sb) if c.anchors[0] == zero)
        assert from_zero == best_chain(sa, sb).total

    @settings(max_examples=40, deadline=None)
    @given(a=pullback_exprs(max_m=2), b=any_exprs(), data=st.data())
    def test_gsct_split(self, a, b, data):
        """Every height splits as the mixed ideal height plus the fiber offset."""
        sa, sb = summarize(a), summarize(b)
        p = data.draw(st.sampled_from(sa.strata))
        q = data.draw(st.sampled_from(sb.strata))
        delta = data.draw(st.integers(0, fiber_dim(p, q)))
        assert thm28_ht(sa, sb, p, q, delta) == thm28_ht(sa, sb, p, q, 0) + delta

    @settings(max_examples=40, deadline=None)
    @given(b=any_exprs(), data=st.data())
    @example(b=LOW_DIM_FLAGGED[0], data=None)
    @example(b=LOW_DIM_FLAGGED[1], data=None)
    def test_trivial_pullback_heights_match_special_chain(self, b, data):
        """With D = K the conductor formula collapses to the AF special chain.

        An explicit example passes no ``data`` and checks every (p, q, delta).
        """
        a = Pullback(Valuation(3, 2), 2, Field(1))
        sa, sb = summarize(a), summarize(b)
        assert sa.is_af
        over_m = [s for s in sa.strata if s.kind == KIND_CONTAINS]
        if data is None:
            cases = [
                (p, q, delta)
                for p in over_m
                for q in sb.strata
                for delta in range(fiber_dim(p, q) + 1)
            ]
        else:
            p = data.draw(st.sampled_from(over_m))
            q = data.draw(st.sampled_from(sb.strata))
            cases = [(p, q, data.draw(st.integers(0, fiber_dim(p, q))))]
        for p, q, delta in cases:
            assert thm28_ht(sa, sb, p, q, delta) == sct_height_af(sa, sb, p, q, delta)


# ---------------------------------------------------------------------------
# Grammar round trip


@given(expr=st.one_of(af_exprs(), pullback_exprs()))
def test_parse_round_trip(expr):
    assert parse_expr(to_source(expr)) == expr


# Every character str.isspace accepts.
BLANKS = "".join(filter(str.isspace, map(chr, range(sys.maxunicode + 1))))


@given(expr=st.one_of(af_exprs(), pullback_exprs()), data=st.data())
def test_blanks_between_tokens_parse_back(expr, data):
    tokens = re.findall(r"[(),=]|[^(),=]+", to_source(expr))
    runs = st.text(st.sampled_from(BLANKS))
    blanks = data.draw(st.lists(runs, min_size=len(tokens) + 1, max_size=len(tokens) + 1))
    text = "".join(b + t for b, t in zip(blanks, [*tokens, ""]))
    assert parse_expr(text) == expr
