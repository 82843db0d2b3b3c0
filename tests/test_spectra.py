"""Constructor validation and spectrum compilation."""
import pytest

from krulldim.checks import catalog
from krulldim.errors import ConsistencyError, ConstraintError
from krulldim.oracle import chain_enumerate
from krulldim.spectra import (
    KIND_CONTAINS,
    KIND_OUTSIDE,
    KIND_PLAIN,
    MAX_DIGITS,
    MAX_STRATA,
    SUMMARY_CACHE_SIZE,
    AfDomain,
    Field,
    PairBlock,
    PolyRing,
    Pullback,
    Valuation,
    _check_summary,
    _read_layout,
    expr_catenarian,
    expr_dim,
    expr_td,
    is_af_poly,
    summarize,
)

KM = Pullback(Valuation(2, 1), 1, Field(0))


def heights(summary):
    return sorted((s.kind, s.height, s.residue_td, s.cap) for s in summary.strata)


def uncertified(summary):
    """The pairs ``(i, j)`` the model does not certify, in ``pairs`` order."""
    return [(i, j) for i, j, quot in summary.iter_pairs() if quot is None]


class TestSummarize:
    def test_field(self):
        s = summarize(Field(2))
        assert s.td == 2 and s.dim == 0 and s.is_af
        assert heights(s) == [("plain", 0, 2, 0)]
        assert s.pairs == ((0, 0, (0, 0)),)

    def test_valuation_21(self):
        s = summarize(Valuation(2, 1))
        assert s.dim == 1 and s.is_af
        assert heights(s) == [("plain", 0, 2, 0), ("plain", 1, 1, 0)]

    def test_km_pullback(self):
        s = summarize(KM)
        assert s.td == 2 and s.dim == 1 and not s.is_af
        assert heights(s) == [("containsM", 1, 0, 1), ("outsideM", 0, 2, 0)]
        m_stratum = s.conductor_stratum
        assert (m_stratum.height, m_stratum.cap) == (1, 1)
        pd = s.pullback_data
        assert (pd.m, pd.td_k, pd.td_d, pd.dim_d, pd.td_kd, pd.outside) == (1, 1, 0, 0, 1, 0)
        assert pd.conductor_is_top

    def test_af_domain_full_profile(self):
        s = summarize(AfDomain(3, 2))
        assert heights(s) == [("plain", 0, 3, 0), ("plain", 1, 2, 0), ("plain", 2, 1, 0)]
        assert s.is_af
        # catenarian model: every comparable pair is certified with an exact base
        assert not uncertified(s)
        assert all(s.heights[i] + quot[0] == s.heights[j] for i, j, quot in s.pairs)

    def test_poly_over_field_matches_af_profile(self):
        assert summarize(PolyRing(Field(2), 1)) == summarize(AfDomain(3, 1))
        assert summarize(PolyRing(Valuation(2, 1), 1)) == summarize(AfDomain(3, 2))

    def test_pullback_dim_formula(self):
        pb = Pullback(AfDomain(3, 3), 1, Field(1), outside=3)
        assert summarize(pb).dim == max(3, 1 + 0) == expr_dim(pb)
        pb2 = Pullback(Valuation(4, 1), 1, AfDomain(1, 1))
        assert summarize(pb2).dim == 1 + 1

    def test_pullback_pairs(self):
        s = summarize(Pullback(Valuation(3, 2), 2, Field(0)))
        # out heights 0..1, single in stratum at m = 2
        by_label = {s.pair_label(i, j): quot for i, j, quot in s.pairs}
        assert by_label["out:0<=in:0"] == (2, 1)
        assert by_label["out:1<=in:0"] == (1, 1)
        assert by_label["out:0<=out:1"] == (1, 0)
        # out:1 has height m - 1; nothing outside M at height >= m is comparable
        assert None not in by_label.values()

    def test_noncatenarian_pairs_uncertified(self):
        s = summarize(AfDomain(3, 3, catenarian=False))
        flags = {(s.heights[i], s.heights[j]): quot is not None for i, j, quot in s.pairs}
        assert flags[(0, 2)] and flags[(1, 1)]
        assert not flags[(1, 2)] and not flags[(1, 3)] and not flags[(2, 3)]

    def test_low_dimension_domains_are_catenarian(self):
        # A domain of dimension <= 1 is catenarian whatever its flag says,
        # and so is the model of a polynomial ring over it.
        for base in (AfDomain(0, 0, False), AfDomain(1, 1, False)):
            assert expr_catenarian(base)
            assert not uncertified(summarize(PolyRing(PolyRing(base, 0), 2)))
        assert uncertified(summarize(PolyRing(AfDomain(2, 2, False), 1)))

    def test_cache_is_bounded(self):
        for t in range(SUMMARY_CACHE_SIZE + 100):
            summarize(Field(t))
        assert summarize.cache_info().currsize <= SUMMARY_CACHE_SIZE

    def test_pullback_compiles_one_model(self):
        # The strata over M are read from D's constructor: one cache miss,
        # one cache entry, and D's own summary stays uncached.
        d = AfDomain(5, 3, catenarian=False)
        pb = Pullback(Valuation(9, 2), 2, d)
        summarize.cache_clear()
        summarize(pb)
        info = summarize.cache_info()
        assert (info.misses, info.currsize) == (1, 1)
        summarize(d)
        assert summarize.cache_info().misses == 2

    def test_model_size_is_bounded(self):
        with pytest.raises(ConstraintError, match="strata"):
            summarize(AfDomain(MAX_STRATA, MAX_STRATA))
        # MAX_STRATA strata outside M and two over it.
        wide = Pullback(
            AfDomain(MAX_STRATA + 5, MAX_STRATA - 1), 1, AfDomain(2, 1), outside=MAX_STRATA - 1
        )
        with pytest.raises(ConstraintError, match="strata"):
            summarize(wide)

    def test_noncatenarian_ambient_marks_pullback_pairs(self):
        s = summarize(Pullback(AfDomain(4, 3, catenarian=False), 3, Field(0), outside=2))
        assert uncertified(s)
        assert not s.pullback_data.ambient_catenarian

    def test_trivial_pullback_is_af(self):
        s = summarize(Pullback(Valuation(2, 1), 1, Field(1)))
        assert s.is_af and s.pullback_data.td_kd == 0


class TestCheckSummary:
    """Coherence guards on a compiled summary; each breaks one piece of model data."""

    def broken(self, block):
        """``pb-val32`` (out:0, out:1 and M at height 2) with its product block replaced."""
        s = summarize(Pullback(Valuation(3, 2), 2, Field(0)))
        outside, product, inside = s.blocks
        assert (product.lower, product.upper) == (range(2), range(2, 3))
        return s._replace(blocks=(outside, block, inside))

    def test_compiled_summary_passes(self):
        _check_summary(summarize(AfDomain(2, 2)))
        _check_summary(self.broken(PairBlock(range(2), range(2, 3), 1, True)))

    def test_negative_quotient_cap(self):
        s = self.broken(PairBlock(range(2), range(2, 3), -1, True))
        with pytest.raises(ConsistencyError, match="negative quotient"):
            _check_summary(s)

    def test_second_reflexive_entry(self):
        s = summarize(AfDomain(2, 2))
        again = PairBlock(range(1, 2), range(1, 2), 0, True)
        with pytest.raises(ConsistencyError, match="reflexive"):
            _check_summary(s._replace(blocks=s.blocks + (again,)))

    def test_reflexive_pairs_need_cap_0(self):
        s = summarize(AfDomain(2, 2))
        capped = PairBlock(range(3), range(3), 1, True)
        with pytest.raises(ConsistencyError, match="reflexive"):
            _check_summary(s._replace(blocks=(capped,)))

    @pytest.mark.parametrize(
        "block",
        [PairBlock(range(2, 3), range(2), 1, True), PairBlock(range(2), range(1, 3), 1, True)],
        ids=["descending", "repeated"],
    )
    def test_upper_ends_must_rise_strictly(self, block):
        with pytest.raises(ConsistencyError, match="rise strictly"):
            _check_summary(self.broken(block))

    def test_blocks_out_of_order(self):
        # The product block stored first raises out:0 and out:1, which the
        # chain outside M, stored after it, reads; the chain oracle takes
        # the blocks in reverse storage order and would read them unfinished.
        s = summarize(Pullback(Valuation(3, 2), 2, Field(0)))
        outside, product, inside = s.blocks
        reordered = s._replace(blocks=(product, outside, inside))
        with pytest.raises(ConsistencyError, match="raises positions that .* stored after it"):
            _check_summary(reordered)

    @pytest.mark.parametrize(
        "order", [(1, 0, 2), (0, 2, 1)], ids=["product-before-chain", "chain-over-m-first"]
    )
    def test_layout_memo_keeps_refusing_a_reordered_model(self, order):
        # The good layout is memoised by the compile; reordering its blocks
        # keeps the heights but is a layout of its own, checked afresh.
        s = summarize(Pullback(Valuation(3, 2), 2, Field(0)))
        _check_summary(s)
        reordered = s._replace(blocks=tuple(s.blocks[k] for k in order))
        for _ in range(2):
            with pytest.raises(ConsistencyError, match="stored after it"):
                _check_summary(reordered)

    def test_layout_memo_keeps_refusing_a_block_that_does_not_rise(self):
        s = summarize(Pullback(Valuation(3, 2), 2, Field(0)))
        _check_summary(s)
        outside, product, inside = s.blocks
        for _ in range(2):
            with pytest.raises(ConsistencyError, match="rise strictly"):
                _check_summary(s._replace(blocks=(outside, product._replace(upper=range(1, 3)), inside)))

    def test_layout_memo_has_the_summary_cache_bound(self):
        assert _read_layout.cache_parameters()["maxsize"] == SUMMARY_CACHE_SIZE

    def test_second_height_0_stratum(self):
        # Two chains, 0 < 1 and a lone stratum 2 of height 0 that the zero
        # ideal does not lie under; the chain oracle, which walks (0, 0)
        # last and returns its tail, would end at the wrong anchor.
        s = summarize(AfDomain(2, 2))._replace(
            heights=(0, 1, 0),
            residues=(2, 1, 2),
            blocks=(
                PairBlock(range(2), range(2), 0, True),
                PairBlock(range(2, 3), range(2, 3), 0, True),
            ),
        )
        with pytest.raises(ConsistencyError, match="h0 must lie over the zero ideal"):
            _check_summary(s)

    def test_pair_from_zero_needs_the_stratum_cap(self):
        # M has cap 1 (t.d.(K:D) = 1), so the pair (0, M) must have cap 1 too.
        match = "in:0 must lie over the zero ideal by a pair of cap 1"
        with pytest.raises(ConsistencyError, match=match):
            _check_summary(self.broken(PairBlock(range(2), range(2, 3), 0, True)))

    def test_cap_only_over_m(self):
        # A stratum outside M with a cap > 0 could not be held fixed by the chain oracle.
        s = summarize(AfDomain(2, 2))._replace(caps=(0, 1, 0))
        with pytest.raises(ConsistencyError, match="cap > 0 outside M at h1"):
            _check_summary(s)


    # The formulas take each maximum at a block's ends, which the guard
    # holds a model to; each case below breaks one clause and nothing else.
    # pullback(T=val(4,2),m=2,D=af(1,1)): out:0 and out:1, then in:0 = M
    # and in:1, with residues 1 and 0 and cap 1 over M.
    PB = Pullback(Valuation(4, 2), 2, AfDomain(1, 1))

    def test_residue_rising_along_a_chain(self):
        s = summarize(self.PB)
        assert s.residues == (4, 3, 1, 0)
        with pytest.raises(ConsistencyError, match="residue_td rises from in:0 to in:1 along a chain"):
            _check_summary(s._replace(residues=(4, 3, 0, 1)))

    def test_cap_changing_along_a_chain(self):
        # Two product blocks over the zero ideal give in:0 and in:1 the
        # caps 1 and 0, so every pair (0, j) still has stratum j's cap.
        s = summarize(self.PB)
        outside, product, inside = s.blocks
        split = (
            product._replace(upper=range(2, 3)),
            product._replace(upper=range(3, 4), cap=0),
        )
        broken = s._replace(caps=(0, 0, 1, 0), blocks=(outside, *split, inside))
        with pytest.raises(ConsistencyError, match="cap changes from in:0 to in:1 along a chain"):
            _check_summary(broken)

    def test_height_plus_residue_falling_along_a_chain(self):
        s = summarize(self.PB)
        with pytest.raises(ConsistencyError, match="residue_td falls from out:0 to out:1 along a chain"):
            _check_summary(s._replace(residues=(4, 2, 1, 0)))

    def loose(self, side):
        """``PB`` with the chain under M or the chain over it cut in two.

        The product block's lower range (out:0, out:1) or upper range
        (in:0, in:1) then leaves a chain block; out:1 lies over the zero
        ideal by a block of its own.
        """
        s = summarize(self.PB)
        outside, product, inside = s.blocks
        if side == "lower":
            blocks = (
                PairBlock(range(1), range(1), 0, True),
                PairBlock(range(1), range(1, 2), 0, True),
                PairBlock(range(1, 2), range(1, 2), 0, True),
                product,
                inside,
            )
        else:
            blocks = (
                outside,
                product,
                PairBlock(range(2, 3), range(2, 3), 0, True),
                PairBlock(range(3, 4), range(3, 4), 0, True),
            )
        return s._replace(blocks=blocks)

    @pytest.mark.parametrize("side", ["lower", "upper"])
    def test_product_range_leaving_a_chain_block(self, side):
        # Every compiled product range lies inside one chain block, which
        # the formulas' block-end maxima and the chain oracle rely on; the
        # refusal is memoised with the layout and holds on a second call.
        model = self.loose(side)
        product = model.blocks[3 if side == "lower" else 1]
        message = f"the {side} range of {product} leaves a chain block"
        for _ in range(2):
            with pytest.raises(ConsistencyError) as err:
                _check_summary(model)
            assert str(err.value) == message

    @pytest.mark.parametrize("side", ["lower", "upper"])
    def test_chain_oracle_refuses_an_unchecked_loose_model(self, side):
        model, field = self.loose(side), summarize(Field(2))
        for a, b in ((model, field), (field, model)):
            with pytest.raises(ConsistencyError, match=f"the {side} range of .* leaves a chain"):
                chain_enumerate(a, b)

    def test_conductor_is_the_first_of_the_last_dim_d_plus_1_strata(self):
        s = summarize(KM)
        with pytest.raises(ConsistencyError, match="M must be the first of the last dim"):
            _check_summary(s._replace(kinds=("containsM", "containsM")))


class TestIsAfPoly:
    def test_km(self):
        s = summarize(KM)
        assert not is_af_poly(s, 0)
        assert is_af_poly(s, 1)
        assert is_af_poly(s, 2)

    @pytest.mark.parametrize("expr", [Field(3), AfDomain(2, 1), Valuation(3, 2)])
    @pytest.mark.parametrize("n", [0, 1, 4])
    def test_af_always(self, expr, n):
        assert is_af_poly(summarize(expr), n)


class TestConstraints:
    @pytest.mark.parametrize(
        "build, message",
        [
            (lambda: Field(-1), "transcendence degree"),
            (lambda: AfDomain(1, 2), "0 <= dim <= td"),
            (lambda: Valuation(2, 0), "dim >= 1"),
            (lambda: Valuation(1, 2), "dim <= td"),
            (lambda: PolyRing(KM, 1), "AF constructor"),
            (lambda: Pullback(Field(1), 1, Field(0), outside=0), "m <= dim(T)"),
            (lambda: Pullback(Valuation(2, 1), 0, Field(0)), "m >= 1"),
            (lambda: Pullback(Valuation(3, 2), 1, Field(0)), "m = dim(T)"),
            (lambda: Pullback(Valuation(2, 1), 1, Field(2)), "t.d.(D) <= t.d.(K)"),
            (lambda: Pullback(Valuation(2, 1), 1, Field(0), outside=1), "outside = m - 1"),
            (lambda: Pullback(AfDomain(3, 2), 2, Field(0)), "outside required"),
            (lambda: Pullback(AfDomain(3, 3), 3, Field(0), outside=1), "outside >= m - 1"),
            (lambda: Pullback(AfDomain(3, 2), 1, Field(0), outside=3), "outside <= dim(T)"),
            (lambda: Pullback(KM, 1, Field(0), outside=0), "AF constructor"),
            (lambda: Pullback(Valuation(3, 1), 1, KM, outside=0), "AF constructor"),
        ],
    )
    def test_rejects(self, build, message):
        with pytest.raises(ConstraintError) as err:
            build()
        assert message in str(err.value)

    def test_valuation_outside_autoderived(self):
        assert Pullback(Valuation(3, 2), 2, Field(0)).outside == 1

    def test_expr_helpers(self):
        pb = Pullback(PolyRing(Valuation(2, 1), 1), 2, Field(0), outside=1)
        assert expr_td(pb) == 3
        assert expr_dim(pb) == 2


class TestSelectors:
    def test_pullback_selectors(self):
        s = summarize(Pullback(Valuation(4, 1), 1, AfDomain(1, 1)))
        assert s.select("0").height == 0
        assert s.select("M").height == 1 and s.select("M").kind == "containsM"
        assert s.select("out:0") is s.select("0")
        assert s.select("in:1").height == 2

    def test_plain_selectors(self):
        s = summarize(AfDomain(3, 2))
        assert s.select("0").height == 0
        assert s.select("M").height == 2
        assert s.select("out:1").height == 1

    @pytest.mark.parametrize(
        "sel",
        [
            "in:0",
            "out:9",
            "x",
            "in:x",
            "out:\u00b2",
            "out:\u0661",
            pytest.param("out:" + "0" * MAX_DIGITS + "1", id="out:overlong"),
        ],
    )
    def test_bad_selectors(self, sel):
        with pytest.raises(ConstraintError):
            summarize(AfDomain(3, 2)).select(sel)

    def test_selectors_resolve_as_a_scan_does(self):
        # Every catalog model, AF models, and pullbacks whose strata outside
        # M end below, at, inside and above the top of D's chain over M.
        exprs = [
            *catalog().values(),
            *(AfDomain(4, d) for d in range(5)),
            Valuation(5, 3),
            PolyRing(AfDomain(2, 1), 2),
            *(
                Pullback(AfDomain(dim_t + 3, dim_t), m, AfDomain(2, dim_d), outside=outside)
                for dim_t in range(1, 5)
                for m in range(1, dim_t + 1)
                for outside in range(m - 1, dim_t + 1)
                for dim_d in range(3)
            ),
            *(Pullback(Valuation(6, m), m, AfDomain(3, dim_d)) for m in (1, 3) for dim_d in (0, 3)),
        ]
        for expr in exprs:
            s = summarize(expr)
            pd = s.pullback_data
            assert s.top_stratum is s.strata[s.heights.index(s.dim)], expr
            n = len(s.heights)
            wanted = [(f"out:{h}", KIND_OUTSIDE if pd else KIND_PLAIN, h) for h in range(n + 2)]
            if pd is not None:
                wanted += [(f"in:{e}", KIND_CONTAINS, pd.m + e) for e in range(n + 2)]
            for selector, kind, height in wanted:
                # The reference: the first position of that kind and height.
                found = [
                    st for st, k, h in zip(s.strata, s.kinds, s.heights)
                    if k == kind and h == height
                ]
                if found:
                    assert s.select(selector) is found[0], (expr, selector)
                else:
                    with pytest.raises(ConstraintError, match="no stratum matches selector"):
                        s.select(selector)
