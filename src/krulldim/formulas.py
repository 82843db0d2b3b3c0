"""Closed dimension and height formulas over spectrum summaries.

Each evaluator implements one classical formula for tensor products of
k-algebras and is named after the label it reports:

* ``Sharp``: dim(K ox L) = min(t.d.(K), t.d.(L)) for extension fields.
* ``Wadsworth3.8``: min(dim(A) + t.d.(B), t.d.(A) + dim(B)) for two
  AF-domains.
* ``Wadsworth3.7``: the one-sided formula D(t.d.(A), dim(A), B) valid
  for AF A against arbitrary B.
* ``Thm2.8``: the pullback-against-arbitrary formula with its inner
  maximum over comparable prime pairs of B.

``dim_tensor`` dispatches a pair of expressions to the strongest
applicable formula and cross-checks every other formula that also
applies.  Every maximum over the strata or comparable pairs of a model
is read at the ends of its pair blocks: along a block's ranges residues
and caps never rise and height + residue never falls, and a chain block
has one cap, which ``spectra._check_summary`` holds each model to.  So
``d_value``, ``thm28_dim``, ``thm28_ht`` and ``pullback_pair_dim`` read
a few entries per block, however many strata the models have.  Which
strata and pairs attain a maximum is worked out from the same
expressions, over every stratum or pair, and labelled as witnesses,
only when the report's witnesses are first read, so an answer that
only needs its value builds none.  The two-sided formula for two
pullbacks whose conductors have full height (``pullback_pair_dim``) is
only ever such a cross-check.
"""
from __future__ import annotations

from collections import namedtuple
from functools import cache, cached_property, partial

from .errors import ApplicabilityError, ConsistencyError, ConstraintError, InexactPairError
from .spectra import (  # the gates are derived, and named, where a summary is compiled
    GATE_AF,
    GATE_CATENARIAN,
    GATE_HT_M,
    GATE_TD_KD,
    KIND_CONTAINS,
    AlgebraExpr,
    Field,
    Record,
    SpectrumSummary,
    Stratum,
    summarize,
)

THEOREM_SHARP = "Sharp"
THEOREM_W38 = "Wadsworth3.8"
THEOREM_W37 = "Wadsworth3.7"
THEOREM_THM28 = "Thm2.8"

TERM_OUTSIDE = "outside-M"
TERM_THROUGH = "through-M"


class Witness(Record, namedtuple("Witness", "term ref value")):
    """A stratum or pair reference achieving one term's maximum."""

    __slots__ = ()


class DimReport(
    Record,
    namedtuple(
        "DimReport",
        "value theorem term_breakdown build_witnesses gates refusals",
        defaults=((), ()),
    ),
):
    """A dimension answer plus the formula that produced it.

    ``witnesses`` are built by calling ``build_witnesses`` when they are
    first read, and that tuple is kept for later reads; a caller that
    reads only the value builds none.  Neither takes part in ``==``, the
    hash or ``repr``.  ``term_breakdown`` holds ``(term, value)`` pairs.
    ``refusals`` gives, for each conductor-formula orientation that
    declined the pair, the side and the reason.
    """

    def _shown(self) -> tuple:
        """Every field but ``build_witnesses``."""
        return self[:3] + self[4:]

    def __eq__(self, other):
        return self.__class__ is other.__class__ and self._shown() == other._shown()

    def __hash__(self):
        return hash(self._shown())

    def __repr__(self):
        shown = zip(self._fields[:3] + self._fields[4:], self._shown())
        return f"DimReport({', '.join(f'{name}={value!r}' for name, value in shown)})"

    @cached_property
    def witnesses(self) -> tuple[Witness, ...]:
        """The strata or pairs attaining each maximum, in formula order."""
        return tuple(self.build_witnesses())


def sharp_dim(s: int, t: int) -> int:
    """dim of a tensor product of extension fields of t.d. s and t."""
    return min(s, t)


def fiber_dim(p: Stratum, q: Stratum) -> int:
    """Dimension of the fiber ring (A/p) ox (B/q): min of residue t.d."""
    return min(p.residue_td, q.residue_td)


def d_value(s: int, d: int, b: SpectrumSummary) -> int:
    """max over q in Spec(B) of ht(q[s]) + min(s, d + t.d.(B/q)).

    Along a chain block the cap is one value, height rises and height +
    residue never falls (``_check_summary``), so the term never falls
    either: its maximum is the largest value at a block's top position.
    """
    if d > s:
        raise ConstraintError("d_value requires d <= s")
    best = -1
    heights, residues, caps = b.heights, b.residues, b.caps
    for block in b.blocks:
        upper = block.upper
        if upper:
            # min() spelled out: this runs on every dim query.
            q = upper[-1]
            c, r = caps[q], d + residues[q]
            v = heights[q] + (c if c < s else s) + (r if r < s else s)
            if v > best:
                best = v
    return best


def _d_value_winners(s, d, b, best):
    """The positions of B's strata at which ``d_value``'s term equals ``best``."""
    return [
        q for q, (h, c, r) in enumerate(zip(b.heights, b.caps, b.residues))
        if h + min(c, s) + min(d + r, s) == best
    ]


def af_pair_dim(a: SpectrumSummary, b: SpectrumSummary) -> int:
    """min(dim(A) + t.d.(B), t.d.(A) + dim(B)) for two AF summaries."""
    if not (a.is_af and b.is_af):
        raise ApplicabilityError("af_pair_dim needs two AF summaries")
    return min(a.dim + b.td, a.td + b.dim)


def _require_pullback(a: SpectrumSummary):
    pd = a.pullback_data
    if pd is None:
        raise ApplicabilityError("a pullback summary is required here")
    return pd


def _require_gated(a: SpectrumSummary):
    """The pullback data of ``a`` and the gates it passes, at least one."""
    pd = _require_pullback(a)
    gates = a.gates
    if not gates:
        raise ApplicabilityError(
            "pullback passes no hypothesis gate (catenarian T, ht(M) <= 2 "
            "or t.d.(K:D) <= 2 needed)"
        )
    return pd, gates


def _inexact_error(summary, i, j, context):
    return InexactPairError(
        f"{context} needs quotient heights for pair {summary.pair_label(i, j)}, "
        "which the non-catenarian model does not certify"
    )


def _check_membership(summary, stratum, side):
    """The stratum's position in ``summary``, which must have built it."""
    i = stratum.index
    if not (0 <= i < len(summary.heights) and summary.strata[i] is stratum):
        raise ConstraintError(f"stratum {stratum.label!r} is not part of summary {side}")
    return i


def _check_delta(p, q, delta):
    if delta < 0 or delta > fiber_dim(p, q):
        raise ConstraintError(
            f"delta must lie in 0..fiber_dim = {fiber_dim(p, q)}, got {delta}"
        )


def thm28_ht(
    a: SpectrumSummary, b: SpectrumSummary, p: Stratum, q: Stratum, delta: int = 0
) -> int:
    """Height of a prime of A ox B over (p, q) at fiber offset ``delta``.

    For p outside the conductor: ht(p) + ht(q[t.d.(A)]) + delta.  For p
    containing it: ht(p) plus the maximum over pairs q1 <= q of
    ht(q1[t.d.(A)]) + ht((q/q1)[t.d.(D)]) + min(t.d.(B/q1), t.d.(K:D)),
    plus delta.
    """
    pd, _ = _require_gated(a)
    _check_membership(a, p, "A")
    j = _check_membership(b, q, "B")
    _check_delta(p, q, delta)
    if p.kind == KIND_CONTAINS:
        return p.height + _through_max_at(pd, a.td, b, j) + delta
    return p.height + q.height + min(a.td, q.cap) + delta


def _through_max_at(pd, td_a, b, q):
    """Inner maximum of the conductor formula for the upper prime at position q."""
    pair = b.first_uncertified(q)
    if pair is not None:
        raise _inexact_error(b, *pair, "conductor height formula")
    residues, caps = b.residues, b.caps
    best = -1
    # The quotient base of a pair (q1, q) is ht(q) - ht(q1), so ht(q1)
    # cancels and ht(q) is added once at the end.  What is left never
    # rises along a block's lower range, whose bottom lies at or below q
    # (``_check_summary``), so the bottom gives each block's best pair.
    for lower, upper, cap, _ in b.blocks:
        if lower and q in upper:
            q1 = lower.start
            best = max(best, min(td_a, caps[q1]) + min(pd.td_d, cap) + min(residues[q1], pd.td_kd))
    return b.heights[q] + best


def sct_height_af(
    a: SpectrumSummary, b: SpectrumSummary, p: Stratum, q: Stratum, delta: int = 0
) -> int:
    """Special chain height ht(q[t.d.(A)]) + ht(p) + delta, for AF A."""
    if not a.is_af:
        raise ApplicabilityError("sct_height_af needs an AF summary on the left")
    _check_membership(a, p, "A")
    _check_membership(b, q, "B")
    _check_delta(p, q, delta)
    return q.height + min(a.td, q.cap) + p.height + delta


def lambda_bound(
    a: SpectrumSummary, b: SpectrumSummary, p: Stratum, q: Stratum, delta: int = 0
) -> int:
    """Upper bound for chains that leave the B-side at the zero ideal.

    t.d.(A) - t.d.(A/p) + ht(q[t.d.(A/p)]) + delta.
    """
    _check_membership(a, p, "A")
    _check_membership(b, q, "B")
    _check_delta(p, q, delta)
    return a.td - p.residue_td + q.height + min(p.residue_td, q.cap) + delta


def composed_height_bound(
    a: SpectrumSummary, b: SpectrumSummary, p: Stratum, q: Stratum
) -> int:
    """Two-sided bound: both lambda prefixes plus the fiber dimension."""
    _check_membership(a, p, "A")
    _check_membership(b, q, "B")
    return (a.td - p.residue_td) + (b.td - q.residue_td) + fiber_dim(p, q)


def thm28_dim(a: SpectrumSummary, b: SpectrumSummary) -> DimReport:
    """dim(A ox B) for a gated pullback A against an arbitrary summary B.

    The value is the larger of the outside-M term D(t.d.(A), outside, B)
    and the through-M term ht(M) + max over pairs q1 <= q in Spec(B) of
    ht(q1[t.d.(A)]) + ht((q/q1)[t.d.(D)]) + min(t.d.(B/q1), t.d.(K:D))
    + min(t.d.(D), dim(D) + t.d.(B/q)).
    """
    pd, gates = _require_gated(a)
    pair = b.uncertified
    if pair is not None:
        raise _inexact_error(b, *pair, "tensor dimension formula")

    term1 = d_value(a.td, pd.outside, b)
    # The quotient base of a pair (q1, q) is ht(q) - ht(q1), so within a
    # block of cap c the pair's through-M value is f(q1) + g(q) +
    # min(t.d.(D), c), with f and g as in the witness builder below; f's
    # constant ht(M) is added once at the end.  Along a block's ranges
    # residues and caps never rise and height + residue never falls
    # (``_check_summary``), so f never rises and g never falls, and every
    # lower position lies below every upper one or is one of them: each
    # block's best pair is (its bottom, its top).  min() spelled out:
    # this runs on every dim query.
    td_a, td_kd, td_d, dim_d = a.td, pd.td_kd, pd.td_d, pd.dim_d
    heights, residues, caps = b.heights, b.residues, b.caps
    term2 = -1
    for lower, upper, cap, _ in b.blocks:
        if lower and upper:
            q1, q = lower.start, upper[-1]
            c, r, r_top = caps[q1], residues[q1], dim_d + residues[q]
            best = (
                (c if c < td_a else td_a) + (r if r < td_kd else td_kd)
                + heights[q] + (td_d if td_d < r_top else r_top) + (cap if cap < td_d else td_d)
            )
            if best > term2:
                term2 = best
    term2 += pd.m

    value = term1 if term1 > term2 else term2

    def witnesses(side="B"):
        if term1 == value:
            labels = b.labels
            for q in _d_value_winners(a.td, pd.outside, b, term1):
                yield Witness(TERM_OUTSIDE, f"{side}:{labels[q]}", term1)
        if term2 == value:
            f = [pd.m + min(c, td_a) + min(r, td_kd) for r, c in zip(residues, caps)]
            g = [h + min(td_d, dim_d + r) for h, r in zip(heights, residues)]
            # The tied pairs in pair_key order: by block, lower end, upper
            # end.  A block whose best falls short of term2 has none.
            for block in b.blocks:
                tied = term2 - min(td_d, block.cap)
                by_g: dict[int, list[int]] = {}
                for q in block.upper:
                    by_g.setdefault(g[q], []).append(q)
                for q1 in block.lower:
                    for q in by_g.get(tied - f[q1], ()):
                        if q1 <= q:
                            yield Witness(TERM_THROUGH, f"{side}:{b.pair_label(q1, q)}", term2)

    return DimReport(
        value, THEOREM_THM28, ((TERM_OUTSIDE, term1), (TERM_THROUGH, term2)), witnesses, gates
    )


def pullback_pair_dim(a: SpectrumSummary, b: SpectrumSummary) -> int:
    """dim(A ox B) for two pullbacks whose conductors have full height.

    max over both orientations of ht(M_1[t.d.(A_2)]) + D(t.d.(D_1),
    dim(D_1), A_2).
    """
    pa, pb = _require_pullback(a), _require_pullback(b)
    for side, pd in (("first", pa), ("second", pb)):
        if not pd.conductor_is_top:
            raise ApplicabilityError(
                f"pullback_pair_dim needs ht(M) = dim(T); fails on the {side} operand"
            )

    def term(x, x_pd, y):
        m = x.conductor_index
        return x.heights[m] + min(y.td, x.caps[m]) + d_value(x_pd.td_d, x_pd.dim_d, y)

    return max(term(a, pa, b), term(b, pb, a))


# --------------------------------------------------------------------------
# Dispatch


def dim_tensor(a: AlgebraExpr, b: AlgebraExpr) -> DimReport:
    """dim(A ox B) via the strongest applicable formula, with cross-checks.

    Dispatch: two fields go to Sharp; two AF summaries to the
    Wadsworth minimum formula (checked against both one-sided
    evaluations); any gated pullback side to the conductor formula,
    evaluated in every orientation that applies, all values asserted
    equal.  Two full-height pullbacks are additionally checked against
    the two-sided pullback formula.
    """
    sa, sb = summarize(a), summarize(b)

    if isinstance(a, Field) and isinstance(b, Field):
        value = sharp_dim(sa.td, sb.td)
        return DimReport(
            value,
            THEOREM_SHARP,
            (("td(A)", sa.td), ("td(B)", sb.td)),
            lambda: (Witness("min-td", f"A:{sa.labels[0]}|B:{sb.labels[0]}", value),),
            ("A:AF", "B:AF"),
        )

    if sa.is_af and sb.is_af:
        value = af_pair_dim(sa, sb)
        d_ab = d_value(sa.td, sa.dim, sb)
        d_ba = d_value(sb.td, sb.dim, sa)
        if not value == d_ab == d_ba:
            raise ConsistencyError(
                f"AF formulas disagree: min-form {value}, one-sided {d_ab} / {d_ba}"
            )

        def witnesses():
            for q in _d_value_winners(sa.td, sa.dim, sb, d_ab):
                yield Witness("dim(A)+td(B)", f"B:{sb.labels[q]}", d_ab)
            for p in _d_value_winners(sb.td, sb.dim, sa, d_ba):
                yield Witness("td(A)+dim(B)", f"A:{sa.labels[p]}", d_ba)

        return DimReport(
            value,
            THEOREM_W38,
            (("dim(A)+td(B)", sa.dim + sb.td), ("td(A)+dim(B)", sa.td + sb.dim)),
            witnesses,
            ("A:AF", "B:AF"),
        )

    # At least one side is now a pullback that is not AF, so at most one
    # side is AF.  thm28_dim names its other operand B in every witness
    # unless its witness builder is given another side.  The first report
    # answers; every other formula that applies is a cross-check, kept as
    # (formula, orientation, value) and formatted only if it fails.
    report, refusals, checks, one_sided = None, [], [], None
    for tag, x, y in (("A", sa, sb), ("B", sb, sa)):
        if x.pullback_data is not None:
            try:
                r = thm28_dim(x, y)
            except (ApplicabilityError, InexactPairError) as exc:
                refusals.append(f"{tag}: {exc}")
            else:
                if report is None:
                    answer, report = tag, r
                else:
                    checks.append(("conductor formula orientation", tag, r.value))
        if x.is_af:
            d_max = d_value(x.td, x.dim, y)
            one_sided = (tag, x, y, d_max)
            checks.append(("one-sided AF formula", tag, d_max))

    if report is None:
        if one_sided is None:
            raise ApplicabilityError("no formula applies to this pair: " + "; ".join(refusals))
        tag, x, y, value = one_sided
        other = "B" if tag == "A" else "A"
        return DimReport(
            value,
            THEOREM_W37,
            (("D-max", value),),
            lambda: (
                Witness("D-max", f"{other}:{y.labels[i]}", value)
                for i in _d_value_winners(x.td, x.dim, y, value)
            ),
            (f"{tag}:{GATE_AF}",),
            tuple(refusals),
        )

    value = report.value
    pa, pb = sa.pullback_data, sb.pullback_data
    if pa is not None and pb is not None and pa.conductor_is_top and pb.conductor_is_top:
        checks.append(("two-sided pullback formula", "A, B", pullback_pair_dim(sa, sb)))
    for formula, t, v in checks:
        if v != value:
            raise ConsistencyError(
                f"{formula} ({t}) gives {v}, conductor formula ({answer}) {value}"
            )
    return DimReport(
        value,
        THEOREM_THM28,
        report.term_breakdown,
        report.build_witnesses if answer == "A" else partial(report.build_witnesses, "A"),
        _tagged_gates(sa.gates, sb.gates),
        tuple(refusals),
    )


@cache
def _tagged_gates(gates_a: tuple[str, ...], gates_b: tuple[str, ...]) -> tuple[str, ...]:
    """The gates of both sides, each prefixed with its side.

    Kept per pair of gate tuples, of which a side has at most 16.
    """
    return tuple(f"A:{g}" for g in gates_a) + tuple(f"B:{g}" for g in gates_b)
