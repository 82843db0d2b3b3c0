"""Independent evaluators, the chain enumerator and the check suites."""
import ast
from bisect import bisect_right
import inspect
from functools import cached_property
from itertools import product
from pathlib import Path

import pytest

from krulldim import formulas, oracle
from krulldim.errors import ConstraintError, InexactPairError, KrulldimError
from krulldim.checks import MAX_GRID, catalog, run_suite, suite_names
from krulldim.formulas import dim_tensor, fiber_dim
from krulldim.oracle import (
    _computed,
    _row_pass,
    best_chain,
    brewer_poly_dim,
    chain_enumerate,
    ext_field_dim,
    iter_chains,
)
from krulldim.parser import parse_expr
from krulldim.spectra import (
    AfDomain,
    Field,
    PolyRing,
    Pullback,
    SpectrumSummary,
    Valuation,
    summarize,
)
from models import built_model

KM = Pullback(Valuation(2, 1), 1, Field(0))
S_KM = summarize(KM)


# Operands of 10 to 20 strata, the size certify runs at: three AF models
# and five pullbacks, with product blocks under M of height m = 2 to 5
# and quotient caps 1 to 9.  A cap above the other side's residue t.d.
# makes the min(t.d.(A/p), cap) of an advance matter.
CERTIFY_SIZE = [
    AfDomain(12, 9),
    Valuation(19, 19),
    PolyRing(AfDomain(8, 6), 6),
    Pullback(Valuation(14, 5), 5, AfDomain(6, 6)),
    Pullback(AfDomain(16, 12), 3, AfDomain(8, 5), outside=9),
    Pullback(PolyRing(Valuation(6, 4), 6), 4, PolyRing(Field(2), 5), outside=8),
    Pullback(AfDomain(18, 15), 2, Valuation(10, 8), outside=1),
    Pullback(AfDomain(15, 12), 4, AfDomain(2, 2), outside=6),
]

# Pairs of 500 to 700 strata a side, where a row's suffix maxima and
# product-block steps run long: a 401-stratum chain outside M under a
# 301-stratum chain over it, with a product block of height m = 200.
WIDE_PULLBACK = Pullback(AfDomain(900, 400), 200, AfDomain(500, 300), outside=400)
ROW_SIZE = [
    (AfDomain(600, 600), AfDomain(600, 600)),
    (WIDE_PULLBACK, AfDomain(700, 500)),
    (WIDE_PULLBACK, Pullback(Valuation(900, 300), 300, AfDomain(500, 300))),
]


class TestBrewer:
    @pytest.mark.parametrize("t, n", [(0, 0), (2, 1), (3, 4)])
    def test_field(self, t, n):
        assert brewer_poly_dim(summarize(Field(t)), n) == n

    def test_km_is_seidenberg_extremal(self):
        assert brewer_poly_dim(S_KM, 1) == 3 == 2 * S_KM.dim + 1

    @pytest.mark.parametrize("t, d, n", [(2, 1, 1), (3, 2, 2), (4, 4, 3)])
    def test_af_domain(self, t, d, n):
        assert brewer_poly_dim(summarize(AfDomain(t, d)), n) == d + n


class TestExtField:
    @pytest.mark.parametrize("t, s", [(2, 1), (1, 4), (0, 3)])
    def test_field(self, t, s):
        assert ext_field_dim(summarize(Field(t)), s) == min(t, s)

    def test_km(self):
        assert ext_field_dim(S_KM, 1) == 2

    @pytest.mark.parametrize("t, d, s", [(3, 1, 2), (4, 2, 1), (2, 2, 4)])
    def test_af_matches_min_form(self, t, d, s):
        assert ext_field_dim(summarize(AfDomain(t, d)), s) == min(d + s, t)


class TestChainEnumerate:
    def test_fields(self):
        assert chain_enumerate(summarize(Field(2)), summarize(Field(3))) == 2

    def test_km_against_curve(self):
        assert chain_enumerate(S_KM, summarize(AfDomain(1, 1))) == 3

    def test_af_pair(self):
        assert chain_enumerate(summarize(AfDomain(2, 2)), summarize(AfDomain(1, 1))) == 3

    def test_km_km_needs_conductor_moves(self):
        assert chain_enumerate(S_KM, S_KM) == 3

    def test_long_chain_needs_no_recursion(self):
        # 1250 strata: one anchor advance per height from the zero ideal.
        a, b = AfDomain(1249, 1249), Field(1)
        assert chain_enumerate(summarize(a), summarize(b)) == dim_tensor(a, b).value

    def test_rejects_uncertified_pairs(self):
        bad = summarize(AfDomain(3, 3, catenarian=False))
        with pytest.raises(InexactPairError):
            chain_enumerate(bad, S_KM)

    def test_refusal_names_the_callers_side(self):
        # The pass may walk either side as rows; the refusal still names
        # the side as the caller passed it, whether the smaller
        # partner (kM, 2 strata) or the larger (af(5,5), 6) is the other.
        bad = summarize(AfDomain(3, 3, catenarian=False))
        for other in (S_KM, summarize(AfDomain(5, 5))):
            for a, b, side in ((bad, other, "A"), (other, bad, "B")):
                with pytest.raises(InexactPairError, match=f"side {side} has uncertified pair h1<=h2"):
                    chain_enumerate(a, b)

    def test_refuses_an_inexact_product_block(self):
        # The inexact run 0 < 1 < 2 under position 3 by the product block,
        # inexact with it: only the pair (0, 3) from its bottom is
        # certified.  A product range is a prefix of a run, so a stepped one
        # such as range(0, 3, 2), which the refusal once missed, cannot be
        # stated.
        model = built_model(((3, 0, 3, 0, False), (4, 3, 3, 0, True)))
        assert [pair for pair in model.iter_pairs() if pair[1] == 3 and pair[0] < 3] == [
            (0, 3, (3, 0)), (1, 3, None), (2, 3, None)
        ]
        assert [(i, j) for i, j, quot in model.iter_pairs() if quot is None] == [
            (1, 2), (1, 3), (2, 3)
        ]
        assert model.uncertified == (1, 2) and model.first_uncertified(3) == (1, 3)
        field = summarize(Field(0))
        for a, b in ((model, field), (field, model)):
            with pytest.raises(InexactPairError, match="uncertified pair out:1<=out:2"):
                chain_enumerate(a, b)

    def test_builds_no_pair_view(self):
        # The catalog shares kM with other tests, which may have built its views.
        # The pass reads each side's plan and first uncertified pair, and
        # builds the column side's residues for one call only.
        summarize.cache_clear()
        big = AfDomain(300, 300)
        for x, y in ((big, big), (KM, big), (KM, KM)):
            sx, sy = summarize(x), summarize(y)
            assert chain_enumerate(sx, sy) == _row_pass(sx, sy) == _row_pass(sy, sx)
            for s in (sx, sy):
                assert set(vars(s)) == {"walk_plan", "uncertified"}, s.source

    def test_walk_plan_is_built_once_per_summary(self, monkeypatch):
        build = vars(SpectrumSummary)["walk_plan"].func
        built = []

        def counted(summary):
            built.append(summary.source)
            return build(summary)

        plan = cached_property(counted)
        plan.__set_name__(SpectrumSummary, "walk_plan")
        monkeypatch.setattr(SpectrumSummary, "walk_plan", plan)
        summarize.cache_clear()
        a = summarize(Pullback(Valuation(14, 5), 5, AfDomain(6, 6)))
        partners = [summarize(AfDomain(12, 9)), summarize(Valuation(19, 19))]
        # summarize builds no plan; the oracle's first call with a summary
        # does, side A's first, as it reads both plans to count the rows
        # each side would compute before it picks the row side.
        assert all("walk_plan" not in vars(s) for s in (a, *partners))
        chain_enumerate(a, partners[0])
        first = a.walk_plan
        chain_enumerate(a, partners[1])
        assert a.walk_plan is first
        assert built == [a.source, partners[0].source, partners[1].source]
        summarize.cache_clear()

    def test_walks_the_side_with_fewer_computed_rows(self, monkeypatch):
        walked = []

        def counted(a, b):
            walked.append(a.source)
            return _row_pass(a, b)

        monkeypatch.setattr(oracle, "_row_pass", counted)
        af = summarize(AfDomain(2047, 2047))
        pullback = summarize(Pullback(Valuation(2047, 1023), 1023, AfDomain(1023, 1023)))
        # Against the pullback's cap 1, af(2047,2047) computes its top row
        # and the row of residue 1 under it: 2 of its 2,048.  The
        # pullback, against cap 0, computes D's top and the top of its
        # 1,023 rows outside M, which is row m - 1 and merges the product
        # block, and none of the rest: 2 of its 2,047.
        for x, y, computed in ((af, pullback, 2), (pullback, af, 2)):
            assert _computed(x, y.walk_plan[1]) == computed
        assert chain_enumerate(af, pullback) == chain_enumerate(pullback, af) == 4094
        # Equal counts go to the side with fewer strata, then to side A.
        small, large = summarize(AfDomain(5, 5)), summarize(AfDomain(9, 9))
        assert chain_enumerate(small, large) == chain_enumerate(large, small) == 14
        assert chain_enumerate(small, small) == 10
        assert walked == [pullback.source] * 2 + [small.source] * 3

    def test_walk_plan_of_an_af_model(self):
        model = summarize(AfDomain(300, 300))
        m, cap, runs, steps = model.walk_plan
        # One run from the zero ideal, heights 0 to 300 at residue 300 - h,
        # with no product block, so no row m - 1: only its top and the
        # rows of residue at most the column side's cap are computed.
        assert (m, cap) == (0, 0)
        assert runs == ((0, 301, 0, 300, 0),)
        # Against a product cap c, the top and the c rows of residue 1 to
        # c under it are computed: the row of height h only while its
        # successor's residue, 300 - (h + 1), lies below c.
        assert [_computed(model, c) for c in range(302)] == [1 + min(c, 300) for c in range(302)]
        # The chain is one step, filled from its bottom up to its top,
        # whose fiber it carries: height 300, residue 0.  No product step
        # gives a cap.
        assert steps == ((None, 300, 0, 0, 301),)

    def test_walk_plan_of_a_pullback(self):
        # Outside M at 0..4 (residue 14 - h), M and D's chain over it at
        # 5..11 (residue 11 - h), cap 9 - 6 = 3; heights rise with positions.
        model = summarize(Pullback(Valuation(14, 5), 5, AfDomain(6, 6)))
        m, cap, runs, steps = model.walk_plan
        assert (m, cap) == (5, 3)
        # Outside M, residues 14 down to 10 at the top, position 4, which
        # is row m - 1; over M, residues 6 at M down to 0 at the top.
        assert runs == ((0, 5, 0, 14, 10), (5, 12, 5, 11, 0))
        # Each run's top is always computed, row m - 1 among them; against
        # a cap c, so are the rows under a top of residue at most c: over
        # M from c = 1, outside M from c = 11.
        assert [_computed(model, c) for c in range(17)] == [
            2 + min(c, 6) + min(max(c - 10, 0), 4) for c in range(17)
        ]
        # Each chain block carries its top's height and residue; the
        # product block fills its lower range, from the chain block's
        # start, and reads the row at M, position 5.
        assert steps == (
            (None, 11, 0, 5, 12),
            (5, None, 3, 0, 5),
            (None, 4, 10, 0, 5),
        )
        # kM: M over the zero ideal, each a chain block of one position,
        # which is a step of its own.
        assert S_KM.walk_plan[3] == (
            (None, 1, 0, 1, 2),
            (1, None, 1, 0, 1),
            (None, 0, 2, 0, 1),
        )

    def test_computes_the_rows_it_counts(self, monkeypatch, certify_requests):
        # A computed row takes one bisection per column step; count them.
        calls = []

        def counted(*args, **kwargs):
            calls.append(None)
            return bisect_right(*args, **kwargs)

        monkeypatch.setattr(oracle, "bisect_right", counted)
        summaries = [summarize(e) for e in catalog().values()]
        certify = [(summarize(parse_expr(r.a)), summarize(parse_expr(r.b))) for r in certify_requests]
        pairs = [*product(summaries, summaries), *certify]
        assert len(pairs) == 36 * 36 + 768
        for a, b in pairs:
            for x, y in ((a, b), (b, a)):
                calls.clear()
                _row_pass(x, y)
                rows, rest = divmod(len(calls), len(y.walk_plan[3]))
                # A position is computed if it is its run's top, is row
                # m - 1, which merges the product block, or has a residue
                # at most y's product cap.
                m = x.runs[1][1] if len(x.runs) > 1 else 0
                cap = y.runs[1][3] if len(y.runs) > 1 else 0
                tops = {stop - 1 for stop, *_ in x.runs}
                computed = [
                    q
                    for q in x.strata
                    if q.index in tops or q.index == m - 1 or q.residue_td <= cap
                ]
                assert (rows, rest) == (len(computed), 0), (x.source, y.source)
                assert rows == _computed(x, y.walk_plan[1])

    def test_equals_dim_tensor_at_certify_size(self):
        # iter_chains cannot reach these sizes; dim_tensor can.
        for x, y in product(CERTIFY_SIZE, CERTIFY_SIZE):
            got = chain_enumerate(summarize(x), summarize(y))
            assert got == dim_tensor(x, y).value, (x, y)

    def test_is_symmetric_at_certify_size(self):
        for x, y in product(CERTIFY_SIZE, CERTIFY_SIZE):
            sx, sy = summarize(x), summarize(y)
            assert chain_enumerate(sx, sy) == _row_pass(sx, sy) == _row_pass(sy, sx), (x, y)

    @pytest.mark.parametrize("x, y", ROW_SIZE, ids=["af-af", "pullback-af", "pullback-pullback"])
    def test_equals_dim_tensor_at_row_size(self, x, y):
        for a, b in ((x, y), (y, x)):
            assert chain_enumerate(summarize(a), summarize(b)) == dim_tensor(a, b).value


class TestChains:
    def test_invariants(self):
        sb = summarize(AfDomain(1, 1))
        for chain in iter_chains(S_KM, sb):
            assert chain.total == sum(chain.segment_lengths)
            assert len(chain.segment_lengths) == len(chain.anchors) + 1
            p, q = chain.anchors[-1]
            assert chain.fiber_length <= fiber_dim(p, q)
            for (p1, q1), (p2, q2) in zip(chain.anchors, chain.anchors[1:]):
                assert p1.height <= p2.height and q1.height <= q2.height
                assert (p1, q1) != (p2, q2)

    def test_best_chain_matches_enumerate(self):
        sb = summarize(AfDomain(1, 1))
        assert best_chain(S_KM, sb).total == chain_enumerate(S_KM, sb)

    def test_fused_pass_matches_the_literal_enumerator_on_the_catalog(self):
        summaries = [summarize(e) for e in catalog().values()]
        for a, b in product(summaries, summaries):
            best = best_chain(a, b).total
            assert chain_enumerate(a, b) == _row_pass(a, b) == _row_pass(b, a) == best, (
                a.source,
                b.source,
            )

    @pytest.mark.parametrize(
        "runs, value, plan",
        [
            # Two strata 2 < 3, one run of residues 1 and 0 over the run
            # 0 < 1 in one product block: the row of position 2, M, is the
            # last of its run walked, and positions 0 and 1 merge it.
            (
                ((2, 0, 4, 0, True), (4, 2, 3, 1, True)),
                4,
                (
                    2,
                    1,
                    ((0, 2, 0, 4, 3), (2, 4, 2, 3, 0)),
                    ((None, 3, 0, 2, 4), (2, None, 1, 0, 2), (None, 1, 3, 0, 2)),
                ),
            ),
        ],
        ids=["one-chain-over-one-block"],
    )
    def test_matches_the_literal_enumerator_on_built_models(self, runs, value, plan):
        model = built_model(runs)
        assert model.walk_plan == plan
        field = summarize(Field(2))
        # chain_enumerate walks the field as rows, one row to compute and
        # the fewer strata; the pass without that choice walks the model too.
        for a, b in ((model, field), (field, model)):
            assert chain_enumerate(a, b) == _row_pass(a, b) == best_chain(a, b).total == value

    @pytest.mark.parametrize(
        "model, partner, value, successors",
        [
            # Position 0 is a run of its own under position 1 by a product
            # block of cap 0, which it merges: its row starts as position
            # 1's finished row, not the finished row of a chain
            # successor, and position 0's fiber, min(3, 2), beats it.
            (
                built_model(((1, 0, 3, 0, True), (2, 1, 1, 0, True))),
                Field(2),
                2,
                (None, None),
            ),
            # One run of residues 3, 2, 1 against a product step of cap 2:
            # position 1's own residue reaches the cap but its successor's
            # does not, so its row gains min(2, 2) where position 2's gained
            # min(2, 1); position 0's successor residue, 2, reaches the cap.
            (
                built_model(((3, 0, 3, 0, True),)),
                Pullback(Valuation(3, 1), 1, Field(0)),
                5,
                (None, 1, 2),
            ),
            # A compiled pullback: out:0 to out:3, then M at height 2, under
            # out:0 and out:1 by a product block of cap 1.  The row of out:1,
            # row m - 1, merges that block, which the row of out:2, its
            # chain successor, does not: it is never skipped.  The row of
            # out:0 starts as out:1's finished row, which holds the block,
            # and may be skipped at out:1's residue, 3.
            (
                summarize(Pullback(AfDomain(4, 3), 2, Field(1), outside=3)),
                Field(0),
                3,
                (None, 1, None, None, 3),
            ),
        ],
        ids=["through-a-product-block", "successor-residue-below-the-cap", "merges-another-block"],
    )
    def test_skips_only_rows_their_successor_finished(self, model, partner, value, successors):
        # A row may be skipped only below its run's top and when it is not
        # row m - 1, which merges the product block.  It starts as its
        # chain successor's finished row and is skipped when the
        # successor's residue reaches the column side's product cap.
        # ``successors`` holds, by decreasing height, the successor's
        # residue of each such position and None for every other.
        m, _, runs, _ = model.walk_plan
        stretch = {i for start, stop, *_ in runs for i in range(start, stop - 1) if i != m - 1}
        strata = model.strata
        by_height = sorted(strata, key=lambda x: x.height, reverse=True)
        got = tuple(strata[x.index + 1].residue_td if x.index in stretch else None for x in by_height)
        assert got == successors
        other = summarize(partner)
        for a, b in ((model, other), (other, model)):
            assert chain_enumerate(a, b) == _row_pass(a, b) == best_chain(a, b).total == value

    @pytest.mark.parametrize(
        "model, m",
        [
            # Outside M at 0..3, residues 7 down to 4, every one under M:
            # row m - 1 is the first run's top.
            (built_model(((4, 0, 7, 0, True), (7, 4, 6, 2, True))), 4),
            # Outside M at 0..3, residues 6 down to 3, only position 0 under
            # M: row m - 1 is the last row walked.
            (summarize(Pullback(AfDomain(6, 4), 1, AfDomain(1, 1), outside=3)), 1),
            # Outside M at 0..2, residues 5 down to 3, 0 and 1 under M: row
            # m - 1 lies right under the first run's top.
            (summarize(Pullback(AfDomain(5, 3), 2, AfDomain(1, 1), outside=2)), 2),
            # Outside M at 0..4, residues 7 down to 3, 0..2 under M: row
            # m - 1 lies under row m, of residue 4.
            (summarize(Pullback(AfDomain(7, 5), 3, AfDomain(2, 1), outside=4)), 3),
        ],
        ids=[
            "merge-row-at-the-top",
            "merge-row-at-position-0",
            "merge-row-under-the-top",
            "merge-row-inside",
        ],
    )
    @pytest.mark.parametrize(
        "partner, cap",
        [
            (Field(2), 0),
            (AfDomain(3, 3), 0),
            (KM, 1),
            (Pullback(Valuation(6, 2), 2, Field(0)), 4),
            (Pullback(Valuation(9, 1), 1, Field(0)), 8),
        ],
        ids=["field-cap-0", "af-cap-0", "cap-1", "cap-4", "cap-above-every-residue"],
    )
    def test_row_m_minus_1_matches_the_literal_enumerator(self, monkeypatch, model, m, partner, cap):
        # Row m - 1 merges the finished row at M and is computed at any
        # residue, while the rows around it may be skipped.  Against each
        # partner as the column side, and as the rows against the model's
        # cap, the pass equals the move-by-move maximum and computes the
        # rows ``_computed`` counts: one bisection per column step.
        other = summarize(partner)
        assert (model.walk_plan[0], other.walk_plan[1]) == (m, cap)
        assert cap < 8 or all(q.residue_td <= cap for q in model.strata)
        calls = []

        def counted(*args, **kwargs):
            calls.append(None)
            return bisect_right(*args, **kwargs)

        monkeypatch.setattr(oracle, "bisect_right", counted)
        value = best_chain(model, other).total
        for a, b in ((model, other), (other, model)):
            calls.clear()
            assert _row_pass(a, b) == value, (a.source, b.source)
            assert len(calls) == _computed(a, b.walk_plan[1]) * len(b.walk_plan[3])
            assert chain_enumerate(a, b) == value

    def test_chains_from_the_zero_anchor_reach_the_maximum(self):
        # chain_enumerate returns tail(0, 0); the move-by-move reference
        # checks that no other initial jump does better.
        summaries = [summarize(e) for e in catalog().values()]
        for a, b in product(summaries, summaries):
            zero = (a.strata[0], b.strata[0])
            from_zero = max(c.total for c in iter_chains(a, b) if c.anchors[0] == zero)
            assert from_zero == best_chain(a, b).total, (a.source, b.source)

    def test_warm_plans_carry_nothing_between_partners(self):
        # Each plan is first built against the summary itself, whose t.d. is
        # not the next partner's, then read over the ordered catalog pairs
        # walked forward and in reverse.  Other tests may have built plans.
        summarize.cache_clear()
        summaries = [summarize(e) for e in catalog().values()]
        for s in summaries:
            chain_enumerate(s, s)
        pairs = list(product(summaries, summaries))
        for a, b in pairs + pairs[::-1]:
            assert chain_enumerate(a, b) == best_chain(a, b).total, (a.source, b.source)

    @pytest.mark.parametrize(
        "bad",
        [
            AfDomain(3, 3, catenarian=False),
            Pullback(AfDomain(4, 3, catenarian=False), 1, Field(0), outside=2),
            Pullback(Valuation(3, 1), 1, AfDomain(2, 2, catenarian=False)),
        ],
    )
    def test_both_refuse_a_non_catenarian_side(self, bad):
        s_bad = summarize(bad)
        for a, b in ((s_bad, S_KM), (S_KM, s_bad)):
            with pytest.raises(InexactPairError, match="chain enumeration"):
                chain_enumerate(a, b)
            with pytest.raises(InexactPairError, match="chain enumeration"):
                best_chain(a, b)


class TestSuites:
    @pytest.mark.parametrize("name", suite_names())
    def test_suite_passes(self, name):
        report = run_suite(name)
        assert report.passed, report.failures[:3]
        assert report.cases > 0

    def test_sharp_grid_case_count(self):
        assert run_suite("sharp-grid", 6).cases == 49

    def test_grid_scaling(self):
        assert run_suite("sharp-grid", 2).cases == 9

    def test_unknown_suite(self):
        with pytest.raises(KrulldimError):
            run_suite("no-such-suite")

    def test_grid_range(self):
        assert run_suite("sharp-grid", 0).cases == 1
        assert run_suite("sharp-grid", MAX_GRID).cases == (MAX_GRID + 1) ** 2
        for grid_max in (-1, MAX_GRID + 1):
            with pytest.raises(ConstraintError, match="grid_max"):
                run_suite("af-grid", grid_max)

    def test_all_aggregates(self):
        report = run_suite("all")
        assert report.passed
        assert report.cases == sum(run_suite(n).cases for n in suite_names())


class TestCatalogCrossChecks:
    def test_soundness_and_tightness_spot(self):
        cat = catalog()
        for name in ("field2", "af42", "val32", "kM", "pb-val41-d11", "pb-af33-wide"):
            expr = cat[name]
            bound = chain_enumerate(summarize(expr), S_KM)
            value = dim_tensor(expr, KM).value
            assert bound == value

    def test_oracle_pinned_mixed_pullback_pair(self):
        other = Pullback(Valuation(3, 2), 2, Field(0))
        assert chain_enumerate(S_KM, summarize(other)) == 4
        assert dim_tensor(KM, other).value == 4


# Values the oracle gives with the formulas switched off, each equal to
# dim_tensor on the same pair.
PINNED = {
    ("field2", "field3"): 2,
    ("af22", "af11"): 3,
    ("kM", "af11"): 3,
    ("kM", "kM"): 3,
    ("kM", "pb-val32"): 4,
    ("pb-val41-d11", "poly-f1-2"): 6,
    ("pb-af33-wide", "pb-val42-f1"): 6,
    ("val43", "pb-poly"): 6,
}


class TestIndependence:
    def test_pins_agree_with_the_formulas(self):
        cat = catalog()
        for (a_name, b_name), value in PINNED.items():
            assert dim_tensor(cat[a_name], cat[b_name]).value == value

    def test_oracle_imports_only_spectra_and_errors(self):
        imported = set()
        for node in ast.walk(ast.parse(Path(oracle.__file__).read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                base = "krulldim" + (f".{node.module}" if node.module else "")
                base = base if node.level else node.module
                names = [f"krulldim.{alias.name}" for alias in node.names]
                names = names if base == "krulldim" else [base]
            else:
                continue
            imported.update(n.split(".")[1] for n in names if n.startswith("krulldim."))
        assert imported == {"errors", "spectra"}

    def test_chain_enumerate_calls_no_formula_code(self, monkeypatch):
        names = [
            name
            for name, fn in vars(formulas).items()
            if inspect.isfunction(fn) and fn.__module__ == formulas.__name__
        ]
        assert {"dim_tensor", "thm28_ht"} <= set(names)

        def refuse(name):
            def raiser(*args, **kwargs):
                raise AssertionError(f"the oracle called formulas.{name}")
            return raiser

        for name in names:
            monkeypatch.setattr(formulas, name, refuse(name))

        cat = catalog()
        for (a_name, b_name), value in PINNED.items():
            a, b = summarize(cat[a_name]), summarize(cat[b_name])
            assert chain_enumerate(a, b) == value
            assert _row_pass(a, b) == _row_pass(b, a) == value
