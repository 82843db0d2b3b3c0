"""Property-based tests for model invariants and formula agreements."""
import re
import sys
from itertools import accumulate, pairwise

import pytest
from hypothesis import example, given, settings, strategies as st

from krulldim.checks import catalog_pullbacks
from krulldim.errors import ConsistencyError, InexactPairError
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
    KIND_OUTSIDE,
    AfDomain,
    Field,
    PairBlock,
    PolyRing,
    Pullback,
    SpectrumSummary,
    Valuation,
    _check_summary,
    expr_dim,
    expr_td,
    is_af_poly,
    summarize,
)


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
        af_exprs(max_td=3).filter(lambda e: expr_dim(e) <= 3),
        pullback_exprs(max_m=2, max_td_kd=1),
    )


def built_model(heights, residues, caps, blocks):
    return SpectrumSummary(
        td=residues[0],
        dim=max(heights),
        is_af=False,
        kinds=tuple(KIND_CONTAINS if c else KIND_OUTSIDE for c in caps),
        heights=tuple(heights),
        residues=tuple(residues),
        caps=tuple(caps),
        blocks=tuple(blocks),
    )


@st.composite
def built_models(draw):
    """A model of 2 to 6 strata that passes ``_check_summary``, built by hand.

    Heights rise with positions, which are cut into chain blocks at
    random; each chain block but the first lies over a prefix of the
    first by a product block of the chain block's cap.  Up to three
    more product blocks, of caps 0 to 3, take a lower range off the zero
    ideal and an upper range from a later chain block on, so either may
    start inside a chain block.  A drawn range may also leave a chain
    block, which the guard refuses; each extra block is kept only where
    the model still passes the guard, and dropped otherwise.
    """
    n = draw(st.integers(2, 6))
    steps = draw(st.lists(st.integers(1, 2), min_size=n - 1, max_size=n - 1))
    heights = list(accumulate([0, *steps]))
    cuts = sorted(draw(st.sets(st.integers(1, n - 1))))
    chains = [range(i, j) for i, j in pairwise([0, *cuts, n])]
    td = heights[-1] + draw(st.integers(0, 2))
    residues, caps = [td], [0]
    for c, run in enumerate(chains):
        cap = draw(st.integers(0, 3)) if c else 0
        for i in run[not c:]:
            h, r0, dh = heights[i], residues[-1], heights[i] - heights[i - 1]
            # Inside a chain block residues never rise and height + residue
            # never falls; a chain block may start anywhere.
            if i == run.start:
                r = draw(st.integers(0, td - h))
            else:
                r = draw(st.integers(max(0, r0 - dh), min(r0, td - h)))
            residues.append(r)
            caps.append(cap)

    def storage_key(block):
        # A product block stores after the chain blocks its lower range
        # meets and before those its upper range meets.
        last = next(c for c, run in enumerate(chains) if block.lower[-1] in run)
        return last, block.lower != block.upper

    blocks = [PairBlock(run, run, 0, True) for run in chains]
    for run in chains[1:]:
        top = draw(st.integers(1, len(chains[0])))
        blocks.append(PairBlock(range(top), run, caps[run.start], True))
    blocks.sort(key=storage_key)
    # Lower ranges from 0 would change the pairs over the zero ideal.
    for _ in range(draw(st.integers(0, 3)) if len(chains) > 1 and chains[-2][-1] else 0):
        i = draw(st.integers(1, chains[-2][-1]))
        j = draw(st.integers(i, chains[-2][-1]))
        k = draw(st.integers(next(run.start for run in chains if run.start > j), n - 1))
        upper = range(k, draw(st.integers(k + 1, n)))
        extra = PairBlock(range(i, j + 1), upper, draw(st.integers(0, 3)), True)
        trial = sorted([*blocks, extra], key=storage_key)
        try:
            _check_summary(built_model(heights, residues, caps, trial))
        except ConsistencyError:
            continue
        blocks = trial
    return built_model(heights, residues, caps, blocks)


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
        assert s.zero_stratum.residue_td == s.td
        for x in s.strata:
            i = x.index
            assert (x.height, x.residue_td, x.cap) == (s.heights[i], s.residues[i], s.caps[i])
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
        assert {i for i, j, _ in s.pairs if i == j} == set(range(len(s.strata)))
        for i, j, quot in s.pairs:
            assert s.heights[i] <= s.heights[j]
            if quot is not None:
                assert s.heights[i] + quot[0] <= s.heights[j]

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
    it to D's own model: heights, residues, the inner chain's ``exact``,
    and the t.d. and dimension kept in ``pullback_data``.
    """
    s, d = summarize(pb), summarize(pb.subring)
    pd = s.pullback_data
    inner = s.blocks[-1]
    assert inner.lower == inner.upper
    assert [i for i, kind in enumerate(s.kinds) if kind == KIND_CONTAINS] == list(inner.lower)
    assert tuple(s.heights[i] - pd.m for i in inner.lower) == d.heights
    assert tuple(s.residues[i] for i in inner.lower) == d.residues
    assert inner.exact == d.blocks[0].exact
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
        td = expr_td(d) + 3
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
        assert_d_part_is_d_model(Pullback(Valuation(m + expr_td(d) + td_kd, m), m, d))


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
    # Against field(0), the product block raises the lower chain's first
    # position only, so the row falls along that chain: a fill that cut
    # it as if it rose would overwrite the raise.
    @example(
        model=built_model(
            (0, 1, 2, 3, 4),
            (4, 3, 2, 1, 0),
            (0,) * 5,
            (
                PairBlock(range(2), range(2), 0, True),
                PairBlock(range(1), range(2, 5), 0, True),
                PairBlock(range(2, 5), range(2, 5), 0, True),
            ),
        ),
        b=summarize(Field(0)),
    )
    def test_fused_pass_matches_the_literal_enumerator_on_built_models(self, model, b):
        """The pass rests only on what ``_check_summary`` guards, not on the constructors' layouts.

        Product blocks here have ranges that start inside a chain block,
        and a chain block may lie under or over several of them, which no
        compiled model has.
        """
        best = best_chain(model, b).total
        assert chain_enumerate(model, b) == _row_pass(model, b) == _row_pass(b, model) == best

    @settings(deadline=None)
    @given(a=small_exprs(), b=small_exprs())
    def test_chains_from_the_zero_anchor_reach_the_maximum(self, a, b):
        """The best chain anchored at (0, 0) is a best chain: what chain_enumerate returns."""
        sa, sb = summarize(a), summarize(b)
        if not (certified(sa) and certified(sb)):
            return
        zero = (sa.zero_stratum, sb.zero_stratum)
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
