"""Constructor validation and spectrum compilation."""
from itertools import islice, pairwise, zip_longest

import pytest
from hypothesis import example, given, settings

from krulldim.checks import catalog
from krulldim.errors import ConsistencyError, ConstraintError
from krulldim.parser import parse_expr, to_source
from krulldim.spectra import (
    GATE_AF,
    GATE_CATENARIAN,
    GATE_HT_M,
    GATE_TD_KD,
    KIND_CONTAINS,
    KIND_OUTSIDE,
    KIND_PLAIN,
    MAX_DIGITS,
    MAX_STRATA,
    SUMMARY_CACHE_SIZE,
    AfDomain,
    Field,
    PolyRing,
    Pullback,
    PullbackData,
    SpectrumSummary,
    Valuation,
    _check_summary,
    _finish,
    is_af_poly,
    run_spans,
    summarize,
)
from models import (
    SMALL,
    built_model,
    built_models,
    distinct_models,
    large_exprs,
    probe_positions,
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
        m_stratum = s.select("M")
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
        assert all(s.strata[i].height + quot[0] == s.strata[j].height for i, j, quot in s.pairs)

    def test_poly_over_field_matches_af_profile(self):
        assert summarize(PolyRing(Field(2), 1)) == summarize(AfDomain(3, 1))
        assert summarize(PolyRing(Valuation(2, 1), 1)) == summarize(AfDomain(3, 2))

    def test_pullback_dim_formula(self):
        pb = Pullback(AfDomain(3, 3), 1, Field(1), outside=3)
        assert summarize(pb).dim == max(3, 1 + 0) == ref_dim(pb)
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

    # Four strata outside M, at heights 0..3, and four over it.
    PB_4_4 = Pullback(AfDomain(9, 4), 2, Valuation(4, 3), outside=3)

    @pytest.mark.parametrize(
        "expr, positions, want",
        [
            (AfDomain(5, 4), range(2, 3), "h2"),
            (AfDomain(5, 4), range(1, 5), "h1..h4"),
            (PB_4_4, range(0, 4), "out:0..out:3"),
            (PB_4_4, range(5, 8), "in:1..in:3"),
            (PB_4_4, range(4, 5), "in:0"),
        ],
        ids=["one-position", "run", "pullback-outside", "pullback-over-M", "pullback-M"],
    )
    def test_span_label(self, expr, positions, want):
        # A span of one position is its label, a longer one its ends' labels.
        s = summarize(expr)
        first, last = s.strata[positions[0]].label, s.strata[positions[-1]].label
        assert s.span_label(positions) == want == (first if first == last else f"{first}..{last}")

    def test_noncatenarian_pairs_uncertified(self):
        s = summarize(AfDomain(3, 3, catenarian=False))
        heights = [x.height for x in s.strata]
        flags = {(heights[i], heights[j]): quot is not None for i, j, quot in s.pairs}
        assert flags[(0, 2)] and flags[(1, 1)]
        assert not flags[(1, 2)] and not flags[(1, 3)] and not flags[(2, 3)]

    def test_low_dimension_domains_are_catenarian(self):
        # A domain of dimension <= 1 is catenarian whatever its flag says,
        # and so is the model of a polynomial ring over it.
        for base in (AfDomain(0, 0, False), AfDomain(1, 1, False)):
            assert summarize(base).runs[0][-1] is True
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
    """Coherence guards on a model's values, each case breaking one value,
    and the layout rules that the runs hold by construction."""

    # pullback(T=val(3,2),m=2,D=field(0)): out:0 and out:1 under M = in:0, of cap 1.
    PB = Pullback(Valuation(3, 2), 2, Field(0))

    def broken(self, **fields):
        """``PB``'s model with some of its fields replaced."""
        s = summarize(self.PB)
        assert s.runs == ((2, 0, 3, 0, True), (3, 2, 2, 1, True))
        return s._replace(**fields)

    def test_compiled_summary_passes(self):
        _check_summary(summarize(AfDomain(2, 2)))
        _check_summary(self.broken())

    @pytest.mark.parametrize(
        "runs, message",
        [
            (((2, 1, 3, 0, True), (3, 2, 2, 1, True)), "stratum 0 must be the zero ideal"),
            (((2, 0, 3, 0, True), (2, 2, 2, 1, True)), "run 1 holds no position"),
            (((2, 0, 3, 0, True), (3, 2, 1, 1, True)), "negative height, residue or cap at in:0"),
            (((2, 0, 3, 0, True), (3, 2, 4, 1, True)), "height \\+ residue_td > td at in:0"),
        ],
        ids=["zero-ideal", "empty-run", "negative-residue", "above-td"],
    )
    def test_run_values(self, runs, message):
        with pytest.raises(ConsistencyError, match=message):
            _check_summary(self.broken(runs=runs))

    def test_one_product_block_joins_two_runs(self):
        # A model of no run, or of a third run, here a chain over M's
        # chain, which would need a second product block.
        for runs in ((), ((2, 0, 3, 0, True), (3, 2, 2, 1, True), (4, 3, 2, 1, True))):
            with pytest.raises(ConsistencyError, match="one run, or two joined by one product block"):
                _check_summary(self.broken(runs=runs))

    def test_second_height_0_stratum(self):
        # A second run at height 0 that the zero ideal does not lie under,
        # by an empty product range; the chain oracle, which walks (0, 0)
        # last and returns its tail, would end at the wrong anchor.
        s = summarize(AfDomain(2, 1))._replace(runs=((2, 0, 2, 0, True), (3, 0, 2, 0, True)))
        with pytest.raises(ConsistencyError, match="in:0 must lie over the zero ideal"):
            _check_summary(s)

    def test_cap_only_over_m(self):
        # A stratum outside M with a cap > 0 could not be held fixed by the chain oracle.
        s = summarize(AfDomain(2, 2))._replace(runs=((3, 0, 2, 1, True),))
        with pytest.raises(ConsistencyError, match="cap > 0 outside M at h0"):
            _check_summary(s)

    @pytest.mark.parametrize("side", ["lower", "upper"])
    def test_product_range_leaving_a_chain_block(self, side):
        # A product range is a prefix of the first run and the whole second
        # one, unless m passes the first run's end, or a third run cuts the
        # chain over M in two.
        if side == "lower":
            # M at height 3 over out:0 and out:1 puts a product range of
            # three positions over a first run of two.
            s = self.broken(runs=((2, 0, 3, 0, True), (3, 3, 3, 1, True)))
            message = "lower range of .* leaves the first run"
        else:
            s = summarize(Pullback(Valuation(4, 2), 2, AfDomain(1, 1)))
            assert s.runs == ((2, 0, 4, 0, True), (4, 2, 3, 1, True))
            s = s._replace(runs=((2, 0, 4, 0, True), (3, 2, 3, 1, True), (4, 3, 3, 1, True)))
            message = "one run, or two joined by one product block"
        with pytest.raises(ConsistencyError, match=message):
            _check_summary(s)

    def test_conductor_is_the_first_of_the_last_dim_d_plus_1_strata(self):
        s = summarize(KM)
        with pytest.raises(ConsistencyError, match="M must be the first of the last dim"):
            _check_summary(s._replace(runs=((1, 0, 2, 0, True), (3, 1, 2, 1, True))))

    @pytest.mark.parametrize(
        "changes",
        [
            {"m": 1, "ambient_catenarian": False},
            {"m": 1},
            {"td_k": 2},
            {"td_d": 1},
            {"td_kd": 0},
            {"outside": 2},
            {"ambient_catenarian": False},
        ],
        ids=["m-and-catenarian", "m", "td_k", "td_d", "td_kd", "outside", "catenarian"],
    )
    def test_pullback_data_is_the_runs(self, changes):
        # Each copy the gates and formulas read must be the runs' value:
        # m = 1 and a non-catenarian T would pass Cor 2.9's gate and drop
        # Thm 2.8's, though the runs are exact and M has height 2.
        s = self.broken()
        assert s.gates == ("Thm2.8-catenarian", "Cor2.9-htM<=2", "Prop2.10-tdKD<=2")
        with pytest.raises(ConsistencyError, match=r"pullback data \(m, td_k, "):
            _finish(s.td, s.runs, s.pullback_data._replace(**changes), "pullback")

    # The layout rules the chain oracle and the formulas rest on, which the
    # runs hold by construction: checked on the chain oracle's steps and
    # the strata of every catalog model and of CI's large operands.
    @staticmethod
    def models():
        return [summarize(e) for e in (*catalog().values(), *map(parse_expr, LARGE))]

    @staticmethod
    def chains(s):
        """Each chain block's positions, in storage order: the walk plan's steps of no upper range."""
        steps = s.walk_plan[3][::-1]
        return [range(start, stop) for upper, *_, start, stop in steps if upper is None]

    @classmethod
    def along_chains(cls, s):
        """Each pair of neighbouring positions in a chain block."""
        for positions in cls.chains(s):
            yield from pairwise(positions)

    def test_second_reflexive_entry(self):
        for s in self.models():
            covered = [i for positions in self.chains(s) for i in positions]
            assert covered == list(range(len(s.strata))), s.source

    def test_reflexive_pairs_need_cap_0(self):
        # Strata over M may have a cap > 0; their chain's pairs do not.  The
        # pairs are walked one by one, on the catalog's models and every
        # distinct model up to t.d. 4, not on models of ~2,048 strata.
        models = [*map(summarize, catalog().values()), *distinct_models(4)]
        assert any(x.cap for s in models for x in s.strata)
        for s in models:
            chain_of = {i: k for k, positions in enumerate(self.chains(s)) for i in positions}
            assert all(
                quot[1] == 0
                for i, j, quot in s.iter_pairs()
                if quot is not None and chain_of[i] == chain_of[j]
            ), s.source

    def test_blocks_out_of_order(self):
        # The chain oracle takes the blocks in reverse storage order, so no
        # step raises positions that a step taken before it reads: its own
        # range for a chain, the upper range's first position for the
        # product block.
        for s in self.models():
            steps = s.walk_plan[3]
            for k, (_, _, _, start, stop) in enumerate(steps):
                for upper, _, _, begin, end in steps[:k]:
                    read = range(begin, end) if upper is None else range(upper, upper + 1)
                    assert stop <= read.start or read.stop <= start, s.source

    def test_residue_rising_along_a_chain(self):
        for s in self.models():
            x = s.strata
            assert all(x[j].residue_td < x[i].residue_td for i, j in self.along_chains(s))

    def test_cap_changing_along_a_chain(self):
        for s in self.models():
            x = s.strata
            assert all(x[j].cap == x[i].cap for i, j in self.along_chains(s))

    def test_height_plus_residue_falling_along_a_chain(self):
        for s in self.models():
            hr = [x.height + x.residue_td for x in s.strata]
            assert all(hr[j] == hr[i] for i, j in self.along_chains(s))


# CI's large operands, each of about MAX_STRATA strata.
LARGE = (
    "af(2047,2047)",
    "pullback(T=af(2048,1),m=1,D=af(2046,10),outside=0)",
    "pullback(T=val(2047,1023),m=1023,D=af(1023,1023))",
    "pullback(T=val(2047,1024),m=1024,D=af(1020,1020))",
    "af(40,40)",
    "pullback(T=val(2047,1000),m=1000,D=field(0))",
)


# Models with inexact blocks, which neither the catalog nor the certify
# workload holds: each run's chain and the product block, alone and together.
INEXACT = (
    "af(3,3,cat=false)",
    "poly(af(4,2,cat=false),1)",
    "pullback(T=af(6,5,cat=false),m=3,D=field(0),outside=2)",
    "pullback(T=val(3,1),m=1,D=af(2,2,cat=false))",
    "pullback(T=af(5,3,cat=false),m=2,D=af(2,2,cat=false),outside=3)",
)


def reference(expr):
    """``expr``'s strata and pairs, position by position.

    The strata are ``(kind, height, residue_td, cap, label)`` rows.  The
    pairs come in ``pairs`` order: among the strata outside M (or plain
    strata), then from outside M up to M, then over M, each group by
    lower, then upper position.  Two strata of one group are comparable
    when the lower comes first, and a stratum outside M lies under every
    stratum over M when its height is below ht(M).  A pair's quotient
    base is the difference of the heights, with cap t.d.(K:D) from
    outside M up to M and 0 otherwise.  A non-catenarian ring certifies
    only the reflexive pairs and those from its zero ideal.
    """
    if isinstance(expr, Pullback):
        td, m = ref_td(expr), expr.m
        td_d, dim_d = ref_td(expr.subring), ref_dim(expr.subring)
        td_kd = td - m - td_d
        n_out = max(m - 1, expr.outside) + 1
        rows = [(KIND_OUTSIDE, h, td - h, 0, f"out:{h}") for h in range(n_out)]
        rows += [(KIND_CONTAINS, m + e, td_d - e, td_kd, f"in:{e}") for e in range(dim_d + 1)]
        outside, inside = range(n_out), range(n_out, len(rows))
        t_cat = ref_catenarian(expr.ambient)
        # (lower group, upper group, cap, catenarian)
        groups = (
            (outside, outside, 0, t_cat),
            (outside, inside, td_kd, t_cat),
            (inside, inside, 0, ref_catenarian(expr.subring)),
        )
    else:
        td, n = ref_td(expr), ref_dim(expr) + 1
        rows = [(KIND_PLAIN, h, td - h, 0, f"h{h}") for h in range(n)]
        groups = ((range(n), range(n), 0, ref_catenarian(expr)),)

    def comparable(lower, upper, i, j):
        # In one group the lower stratum comes first; across, it lies below M.
        return i <= j if lower == upper else rows[i][1] < rows[upper.start][1]

    pairs = (
        (i, j, (rows[j][1] - rows[i][1], cap) if exact or i == j or i == lower.start else None)
        for lower, upper, cap, exact in groups
        for i in lower
        for j in upper
        if comparable(lower, upper, i, j)
    )
    return rows, pairs


class TestRuns:
    def test_views_match_a_position_by_position_reference(self, certify_requests):
        # A model over SMALL strata has quadratically many pairs, of which
        # the first 4 * SMALL are compared.
        operands = sorted({text for r in certify_requests for text in (r.a, r.b)})
        exprs = [*catalog().values(), *map(parse_expr, [*operands, *LARGE, *INEXACT])]
        exprs += [group[0] for group in distinct_models(4).values()]
        assert len(exprs) > 1200
        missing = object()
        for expr in exprs:
            s = summarize(expr)
            rows, pairs = reference(expr)
            shown = [(x.kind, x.height, x.residue_td, x.cap, x.label) for x in s.strata]
            assert shown == rows, to_source(expr)
            assert [x.index for x in s.strata] == list(range(len(rows)))
            limit = None if len(rows) <= SMALL else 4 * SMALL
            got = zip_longest(islice(s.iter_pairs(), limit), islice(pairs, limit), fillvalue=missing)
            assert all(x == y for x, y in got), to_source(expr)

    def test_first_uncertified_pairs_match_the_reference(self):
        # ``reference`` lists the pairs position by position from the
        # expression, not from the model's blocks.  Every position and one
        # past each end is asked for the first uncertified pair into it.
        for exprs in distinct_models(4).values():
            for expr in exprs:
                s = summarize(expr)
                missing = [(i, j) for i, j, quot in reference(expr)[1] if quot is None]
                assert s.uncertified == next(iter(missing), None), to_source(expr)
                for q in range(-1, len(s.strata) + 1):
                    into_q = next(((i, j) for i, j in missing if j == q), None)
                    assert s.first_uncertified(q) == into_q, (to_source(expr), q)

    @pytest.mark.parametrize(
        "text", ["af(2047,2047)", "pullback(T=val(2047,1023),m=1023,D=af(1023,1023))", "af(15,15)"]
    )
    def test_a_compile_stores_o_of_blocks_data(self, text):
        # A compile builds no view, and holds per-position data in none of
        # its fields: every plain tuple is no longer than the model's
        # blocks, a chain per run and the product block between two, and
        # each run is a few integers.  Strings and the pullback's numeric
        # record are of fixed size.
        s = summarize.__wrapped__(parse_expr(text))
        assert vars(s) == {}
        blocks = 2 * len(s.runs) - 1
        assert all(len(value) <= blocks for value in s if type(value) is tuple)
        assert all(type(x) in (int, bool) for run in s.runs for x in run)

    @pytest.mark.parametrize(
        "text", ["af(2047,2047)", "pullback(T=val(2047,1023),m=1023,D=af(1023,1023))"]
    )
    def test_a_walk_plan_stores_o_of_runs_data(self, text):
        # The chain oracle's plan holds two integers, one entry per run and
        # one step per block, each a few integers or None.
        s = summarize.__wrapped__(parse_expr(text))
        m, cap, runs, steps = s.walk_plan
        assert type(m) is type(cap) is int
        assert len(runs) == len(s.runs) and len(steps) == 2 * len(s.runs) - 1 <= 3
        assert all(len(run) == 5 and all(type(x) is int for x in run) for run in runs)
        assert all(len(step) == 5 for step in steps)
        assert all(x is None or type(x) is int for step in steps for x in step)


# A plain restatement of the compile, the reference it is tested
# against: ``isinstance`` dispatch, one recursive call per constructor
# value, ``dim`` and ``is_af`` derived with ``max`` and ``all``, and the
# records built by keyword.
def ref_td(expr):
    if isinstance(expr, (Field, AfDomain, Valuation)):
        return expr.td
    if isinstance(expr, PolyRing):
        return ref_td(expr.base) + expr.n
    return ref_td(expr.ambient)


def ref_dim(expr):
    if isinstance(expr, Field):
        return 0
    if isinstance(expr, (AfDomain, Valuation)):
        return expr.dim
    if isinstance(expr, PolyRing):
        return ref_dim(expr.base) + expr.n
    return max(expr.outside, expr.m + ref_dim(expr.subring))


def ref_catenarian(expr):
    if isinstance(expr, AfDomain):
        return expr.catenarian or expr.dim <= 1
    if isinstance(expr, PolyRing):
        return ref_catenarian(expr.base)
    return True


def ref_summary(expr):
    td = ref_td(expr)
    if isinstance(expr, Pullback):
        m, subring = expr.m, expr.subring
        t_cat = ref_catenarian(expr.ambient)
        data = PullbackData(
            m=m,
            td_k=td - m,
            td_d=ref_td(subring),
            dim_d=ref_dim(subring),
            td_kd=td - m - ref_td(subring),
            outside=expr.outside,
            ambient_catenarian=t_cat,
            conductor_is_top=(m == ref_dim(expr.ambient)),
        )
        n_out = max(m - 1, expr.outside) + 1
        runs = (
            (n_out, 0, td, 0, t_cat),
            (n_out + data.dim_d + 1, m, m + data.td_d, data.td_kd, ref_catenarian(subring)),
        )
        return ref_finish(td, runs, data, "pullback")
    dim = ref_dim(expr)
    if isinstance(expr, Field):
        source = f"field({td})"
    elif isinstance(expr, AfDomain):
        source = f"af({td},{dim})"
    elif isinstance(expr, Valuation):
        source = f"val({td},{dim})"
    else:
        source = f"poly[{td},{dim}]"
    return ref_finish(td, ((dim + 1, 0, td, 0, ref_catenarian(expr)),), None, source)


def ref_finish(td, runs, pd, source):
    is_af = all(hr == td and not cap for _, _, hr, cap, _ in runs)
    gates = [GATE_AF] if is_af else []
    if pd is not None:
        passed = (
            (GATE_CATENARIAN, pd.ambient_catenarian),
            (GATE_HT_M, pd.m <= 2),
            (GATE_TD_KD, pd.td_kd <= 2),
        )
        gates += [gate for gate, passes in passed if passes]
    return SpectrumSummary(
        td=td,
        dim=max(h + stop - start - 1 for start, stop, h, *_ in run_spans(runs)),
        is_af=is_af,
        runs=runs,
        pullback_data=pd,
        gates=tuple(gates),
        source=source,
    )


class TestCompileReference:
    """Every compile equals ``ref_summary`` field by field, each of the same type, and in ``source``."""

    @staticmethod
    def assert_compiles_as_reference(exprs):
        for expr in exprs:
            s, ref = summarize(expr), ref_summary(expr)
            assert tuple(s) == tuple(ref) and s.source == ref.source, to_source(expr)
            assert [type(x) for x in s] == [type(x) for x in ref], to_source(expr)

    def test_catalog(self):
        self.assert_compiles_as_reference(catalog().values())

    def test_flagged_and_large_operands(self):
        # Flagged non-catenarian at every dimension, where the flag counts
        # only above dimension 1, alone, under a poly and on either side of
        # a pullback, and CI's large operands.
        flagged = (
            "af(0,0,cat=false)",
            "af(1,1,cat=false)",
            "poly(poly(af(1,1,cat=false),0),2)",
            "pullback(T=af(3,1,cat=false),m=1,D=af(1,1,cat=false),outside=1)",
        )
        self.assert_compiles_as_reference(map(parse_expr, (*flagged, *INEXACT, *LARGE)))

    def test_certify_operands(self, certify_requests):
        texts = sorted({text for r in certify_requests for text in (r.a, r.b)})
        self.assert_compiles_as_reference(map(parse_expr, texts))

    def test_query_cold_operands(self, cold_requests):
        exprs = [parse_expr(text) for r in cold_requests for text in (r.a, r.b)]
        assert len(exprs) == 4000 and sum(isinstance(e, Pullback) for e in exprs) > 1000
        self.assert_compiles_as_reference(exprs)

    @settings(max_examples=300, deadline=None)
    @given(expr=large_exprs())
    def test_large_operands(self, expr):
        self.assert_compiles_as_reference([expr])


class TestModelSpace:
    """The tests' enumeration of the distinct small models, and the positions probed on large ones."""

    def test_distinct_model_counts(self):
        counts = [(len(m), sum(map(len, m.values()))) for m in map(distinct_models, (2, 3, 4))]
        assert counts == [(37, 147), (147, 615), (429, 1956)]

    def test_every_expression_compiles_to_its_representatives_model(self):
        for model, exprs in distinct_models(4).items():
            assert model.source == summarize(exprs[0]).source
            for expr in exprs:
                assert ref_summary(expr) == model, to_source(expr)

    @pytest.mark.parametrize("text", LARGE)
    def test_probes_hold_the_run_ends(self, text):
        s = summarize(parse_expr(text))
        probes = probe_positions(s)
        ends = {
            i for start, stop, *_ in run_spans(s.runs) for i in (start, start + 1, stop - 2, stop - 1)
        }
        if len(s.runs) > 1:
            ends |= {s.runs[1][1] - 1, s.runs[1][1]}
        ends &= set(range(len(s.strata)))
        assert ends <= set(probes) and len(probes) <= len(ends) + 3
        assert probes == sorted(set(probes)) and 0 <= probes[0] and probes[-1] < len(s.strata)


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
        assert (summarize(pb).td, summarize(pb).dim) == (3, 2)


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
        assert s.select("h1") is s.select("out:1") and s.select("h2") is s.select("M")

    def test_a_pullback_refuses_plain_labels(self):
        s = summarize(Pullback(Valuation(4, 1), 1, AfDomain(1, 1)))
        with pytest.raises(ConstraintError, match="needs a summary without M"):
            s.select("h0")

    def test_a_model_without_m_refuses_in_selectors(self):
        with pytest.raises(ConstraintError, match="needs a pullback summary"):
            summarize(AfDomain(3, 3)).select("in:0")

    @staticmethod
    def assert_labels_select_their_positions(s):
        """Each position's label selects its stratum, and ``M`` a second run's first position."""
        strata = s.strata
        assert all(s.select(s.label(i)) is x for i, x in enumerate(strata)), s.runs
        if len(s.runs) > 1:
            assert s.select("M") is strata[s.runs[0][0]], s.runs

    @settings(max_examples=200, deadline=None)
    @given(model=built_models())
    # Two runs and no pullback data: the labels read out:0, out:1, in:0, in:1.
    @example(model=built_model([(2, 0, 3, 0, True), (4, 1, 3, 1, True)]))
    def test_labels_select_their_positions_on_built_models(self, model):
        self.assert_labels_select_their_positions(model)

    def test_labels_select_their_positions_on_distinct_models(self):
        for model in distinct_models(3):
            self.assert_labels_select_their_positions(model)

    @pytest.mark.parametrize(
        "sel",
        [
            "in:0",
            "out:9",
            "x",
            "in:x",
            "out:\u00b2",
            "out:\u0661",
            "h3",
            "h",
            "h+1",
            "h:1",
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
            # M: the conductor, the first stratum over M, or the first of height dim.
            top = [x for x in s.strata if x.kind == KIND_CONTAINS or pd is None and x.height == s.dim]
            assert s.select("M") is top[0], expr
            n = len(s.strata)
            wanted = [(f"out:{h}", KIND_OUTSIDE if pd else KIND_PLAIN, h) for h in range(n + 2)]
            if pd is not None:
                wanted += [(f"in:{e}", KIND_CONTAINS, pd.m + e) for e in range(n + 2)]
            for selector, kind, height in wanted:
                # The reference: the first position of that kind and height.
                found = [st for st in s.strata if st.kind == kind and st.height == height]
                if found:
                    assert s.select(selector) is found[0], (expr, selector)
                else:
                    with pytest.raises(ConstraintError, match="no stratum matches selector"):
                        s.select(selector)
