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
is computed from its runs (see ``spectra``): along a run the height
rises by 1 a position while height + residue and the cap stay fixed, so
each term is monotone along a block's ranges and its maximum is plain
arithmetic on a run's first position and its top.  So ``d_value``,
``thm28_dim``, ``thm28_ht`` and ``pullback_pair_dim`` read a few
integers per run and build no positional view, however many strata the
models have; ``thm28_dim`` is one straight pass over B's one or two
runs, with ``min()`` and ``max()`` spelled out, as it runs once per
pullback side of every Thm 2.8 request.  The ties have closed
forms too: a term that never falls along a run rises strictly up to one
height, its plateau, and is fixed from there, so the strata attaining a
maximum are the positions of a run from its plateau to its top, and a
block's tied pairs the comparable pairs from a prefix of its lower range
to such a stretch of its upper run.  Each tied run or block is one
witness, labelled from its offsets in its runs (``B:h2..h4``,
``B:out:0..out:2<=in:1..in:3``) only when the report's witnesses are
first read, so a report holds at most five witnesses and an answer
builds no positional view of either side.  The witnesses of
``thm28_dim`` are read from the terms and per-run ends its value pass
kept, so reading them lists no pair block.  The height formulas take
``Stratum`` objects, so ``ht`` builds each side's ``strata`` and nothing
more.
The two-sided formula for two pullbacks whose conductors have full
height (``pullback_pair_dim``) is only ever such a cross-check.
"""
from __future__ import annotations

from functools import cache, partial

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
    _tuple_new,
    summarize,
)

THEOREM_SHARP = "Sharp"
THEOREM_W38 = "Wadsworth3.8"
THEOREM_W37 = "Wadsworth3.7"
THEOREM_THM28 = "Thm2.8"

TERM_OUTSIDE = "outside-M"
TERM_THROUGH = "through-M"


class Witness(Record):
    """A run of strata or a block of pairs achieving one term's maximum.

    ``ref`` names a side and a span of its labels, ``A:h2..h4``, or a
    span for each end of a pair, ``B:out:0..out:2<=in:1..in:3``: every
    comparable pair from the first span up to the second.  A span of one
    position is its label alone.
    """

    __slots__ = ()

    def __new__(cls, term, ref, value):
        return _tuple_new(cls, (term, ref, value))


class DimReport(Record):
    """A dimension answer plus the formula that produced it.

    ``witnesses`` are built by calling ``build_witnesses`` when they are
    first read, and that tuple is kept for later reads; a caller that
    reads only the value builds none.  Neither takes part in ``==``, the
    hash or ``repr``.  ``term_breakdown`` holds ``(term, value)`` pairs.
    ``refusals`` gives, for each conductor-formula orientation that
    declined the pair, the side and the reason.
    """

    def __new__(cls, value, theorem, term_breakdown, build_witnesses, gates=(), refusals=()):
        return _tuple_new(
            cls, (value, theorem, term_breakdown, build_witnesses, gates, refusals)
        )

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

    @property
    def witnesses(self) -> tuple[Witness, ...]:
        """The strata or pairs attaining each maximum, in formula order."""
        kept = self.__dict__
        witnesses = kept.get("witnesses")
        if witnesses is None:
            witnesses = kept["witnesses"] = tuple(self.build_witnesses())
        return witnesses


def sharp_dim(s: int, t: int) -> int:
    """dim of a tensor product of extension fields of t.d. s and t."""
    return min(s, t)


def fiber_dim(p: Stratum, q: Stratum) -> int:
    """Dimension of the fiber ring (A/p) ox (B/q): min of residue t.d."""
    return min(p.residue_td, q.residue_td)


def d_value(s: int, d: int, b: SpectrumSummary) -> int:
    """max over q in Spec(B) of ht(q[s]) + min(s, d + t.d.(B/q)).

    Along a run the cap is one value, height rises and height + residue
    is fixed, so the term never falls either: its maximum is the largest
    value at a run's top.
    """
    if d > s:
        raise ConstraintError("d_value requires d <= s")
    best, start = -1, 0
    for stop, h, hr, c, _ in b.runs:
        # min() spelled out: this runs on every dim query.
        top = h + stop - 1 - start
        r = d + hr - top
        v = top + (c if c < s else s) + (r if r < s else s)
        if v > best:
            best = v
        start = stop
    return best


# A position's label is its run's prefix and its offset in that run (see
# ``SpectrumSummary.label``): each run's prefix, by the number of runs.
_LABEL_PREFIXES = {1: ("h",), 2: ("out:", "in:")}


def _span(prefix, first, last):
    """The label of the offsets ``first`` to ``last`` of the run of label ``prefix``.

    ``<first>..<last>``, as ``SpectrumSummary.span_label`` gives it, or
    the first alone if they are one.
    """
    if first == last:
        return f"{prefix}{first}"
    return f"{prefix}{first}..{prefix}{last}"


def _d_value_ties(term, side, s, d, b, best):
    """One ``Witness`` per run of B whose top reaches ``best`` in ``d_value``'s term.

    The term never falls along a run, so the positions tied at ``best``
    are those of such a run from its plateau to its top: below the height
    d + hr - s the term rises by 1 a position, and from it on it is fixed.
    A position's label is its run's prefix and its offset in the run, as
    ``SpectrumSummary.label`` gives it, so a tied stretch is labelled from
    its first and last offsets.  min() and max() spelled out: this runs
    on every reply whose witnesses are read.
    """
    runs = b.runs
    start = 0
    for (stop, h, hr, c, _), prefix in zip(runs, _LABEL_PREFIXES[len(runs)]):
        last = stop - 1 - start
        top = h + last
        r = d + hr - top
        if top + (c if c < s else s) + (r if r < s else s) == best:
            p = d + hr - s
            first = (last if p > top else p - h) if p > h else 0
            yield Witness(term, f"{side}:{_span(prefix, first, last)}", best)
        start = stop


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


def _check_pair(a, b, p, q, delta):
    """The positions of ``p`` in ``a`` and ``q`` in ``b``, which must have built them.

    ``delta`` must lie in 0..fiber_dim(p, q).
    """
    i, strata = p.index, a.strata
    if not (0 <= i < len(strata) and strata[i] is p):
        raise ConstraintError(f"stratum {p.label!r} is not part of summary A")
    j, strata = q.index, b.strata
    if not (0 <= j < len(strata) and strata[j] is q):
        raise ConstraintError(f"stratum {q.label!r} is not part of summary B")
    if delta < 0 or delta > fiber_dim(p, q):
        raise ConstraintError(f"delta must lie in 0..fiber_dim = {fiber_dim(p, q)}, got {delta}")
    return i, j


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
    _, j = _check_pair(a, b, p, q, delta)
    if p.kind == KIND_CONTAINS:
        return p.height + _through_max_at(pd, a.td, b, j) + delta
    return p.height + q.height + min(a.td, q.cap) + delta


def _through_max_at(pd, td_a, b, q):
    """Inner maximum of the conductor formula for the upper prime at position q."""
    pair = b.first_uncertified(q)
    if pair is not None:
        raise _inexact_error(b, *pair, "conductor height formula")
    # The quotient base of a pair (q1, q) is ht(q) - ht(q1), so ht(q1)
    # cancels and ht(q) is added once at the end.  What is left never
    # rises along a block's lower range, a run or a prefix of one, so each
    # block's best pair is from its bottom, a run's first position: the
    # first run's chain for q in it, else the product block and the
    # second run's chain.  A chain block's cap is 0, and the product
    # block's the second run's.
    td_kd = pd.td_kd
    (n, h, hr, c, _), *over = b.runs
    best = min(td_a, c) + min(hr - h, td_kd)
    if q < n:
        return h + q + best
    ((_, h1, hr1, c1, _),) = over
    best = max(best + min(pd.td_d, c1), min(td_a, c1) + min(hr1 - h1, td_kd))
    return h1 + q - n + best


def sct_height_af(
    a: SpectrumSummary, b: SpectrumSummary, p: Stratum, q: Stratum, delta: int = 0
) -> int:
    """Special chain height ht(q[t.d.(A)]) + ht(p) + delta, for AF A."""
    if not a.is_af:
        raise ApplicabilityError("sct_height_af needs an AF summary on the left")
    _check_pair(a, b, p, q, delta)
    return q.height + min(a.td, q.cap) + p.height + delta


def lambda_bound(
    a: SpectrumSummary, b: SpectrumSummary, p: Stratum, q: Stratum, delta: int = 0
) -> int:
    """Upper bound for chains that leave the B-side at the zero ideal.

    t.d.(A) - t.d.(A/p) + ht(q[t.d.(A/p)]) + delta.
    """
    _check_pair(a, b, p, q, delta)
    return a.td - p.residue_td + q.height + min(p.residue_td, q.cap) + delta


def composed_height_bound(
    a: SpectrumSummary, b: SpectrumSummary, p: Stratum, q: Stratum
) -> int:
    """Two-sided bound: both lambda prefixes plus the fiber dimension."""
    _check_pair(a, b, p, q, 0)
    return (a.td - p.residue_td) + (b.td - q.residue_td) + fiber_dim(p, q)


def thm28_dim(a: SpectrumSummary, b: SpectrumSummary) -> DimReport:
    """dim(A ox B) for a gated pullback A against an arbitrary summary B.

    The value is the larger of the outside-M term D(t.d.(A), outside, B)
    and the through-M term ht(M) + max over pairs q1 <= q in Spec(B) of
    ht(q1[t.d.(A)]) + ht((q/q1)[t.d.(D)]) + min(t.d.(B/q1), t.d.(K:D))
    + min(t.d.(D), dim(D) + t.d.(B/q)).
    """
    pd, gates = a.pullback_data, a.gates
    if pd is None or not gates:
        _require_gated(a)  # raises the refusal
    pair = b.uncertified
    if pair is not None:
        raise _inexact_error(b, *pair, "tensor dimension formula")

    # One straight pass over B's one or two runs, min() and max() spelled
    # out: this runs on every dim query.  The outside-M term is
    # ``d_value``'s, the largest value at a run's top.  For the through-M
    # term, the quotient base of a pair (q1, q) is ht(q) - ht(q1), so
    # within a block of cap c the pair's value is f(q1) + g(q) +
    # min(t.d.(D), c), with
    #   f(q1) = ht(M) + min(cap(q1), t.d.(A)) + min(t.d.(B/q1), t.d.(K:D)),
    #   g(q) = ht(q) + min(t.d.(D), dim(D) + t.d.(B/q));
    # f's constant ht(M) is added once at the end.  Along a run residues
    # fall by 1 a position and the cap is fixed, so f never rises along a
    # block's lower range, a run or a prefix of one, and g never falls
    # along its upper range, a run: each block's best pair is (its bottom,
    # its top), f at its lower run's first position, f0 or f1, and g at
    # its upper run's top, g0 or g1.  The blocks are the first run's
    # chain, then for two runs the product block, range(m) of the first
    # run under the second, of the second run's cap, and the second run's
    # chain; a chain block's cap is 0.  The first run starts at the zero
    # ideal: height 0, residue t.d.(B) and cap 0 (see ``_check_summary``).
    td_a = a.td
    m, _, td_d, dim_d, td_kd, outside, _, _ = pd
    runs, td_b = b.runs, b.td
    n = runs[0][0]
    top = n - 1
    r = td_b - top  # the residue at the run's top
    v = outside + r
    term1 = top + (v if v < td_a else td_a)
    f0 = td_b if td_b < td_kd else td_kd
    v = dim_d + r
    g0 = top + (td_d if td_d < v else v)
    term2 = f0 + g0
    f1 = g1 = None
    if len(runs) == 2:
        stop, h, hr, c, _ = runs[1]
        top = h + stop - 1 - n
        r = hr - top
        c_a = c if c < td_a else td_a
        v = outside + r
        v = top + c_a + (v if v < td_a else td_a)
        if v > term1:
            term1 = v
        v = hr - h
        f1 = c_a + (v if v < td_kd else td_kd)
        v = dim_d + r
        g1 = top + (td_d if td_d < v else v)
        v = f0 + g1 + (c if c < td_d else td_d)
        if v > term2:
            term2 = v
        v = f1 + g1
        if v > term2:
            term2 = v
    term2 += m
    value = term1 if term1 > term2 else term2

    kept = (b, td_a, pd, term1, term2, f0, g0, f1, g1)

    # A closure, not a partial, so that a report copies as itself; it keeps
    # one tuple, as each name it kept would cost a cell on every call.
    def witnesses(side="B"):
        return _thm28_ties(side, *kept)

    return DimReport(
        value, THEOREM_THM28, ((TERM_OUTSIDE, term1), (TERM_THROUGH, term2)), witnesses, gates
    )


def _thm28_ties(side, b, td_a, pd, term1, term2, f0, g0, f1, g1):
    """The witnesses of a ``thm28_dim`` report, from the terms and ends its value path kept.

    f0, g0 and f1, g1 are f at each run's first position and g at its top
    (see ``thm28_dim``), f1 and g1 None for a model of one run.  The tied
    runs of the outside-M term come first, then one witness per tied
    block of the through-M term, in ``pairs`` order; a block whose best
    falls short of term2 has none.  In one that reaches it, f is at its
    best on the prefix of the lower range whose residue is at least
    min(r, t.d.(K:D)), r the bottom's residue, and g on the upper run
    from its plateau, where dim(D) + t.d.(B/q) reaches t.d.(D): the tied
    pairs are the comparable pairs from that prefix up to that stretch.
    Spans are offsets in a run, labelled as in ``_d_value_ties``.
    """
    m, _, td_d, dim_d, td_kd, outside, _, _ = pd
    if term1 >= term2:
        yield from _d_value_ties(TERM_OUTSIDE, side, td_a, outside, b, term1)
    if term2 < term1:
        return
    best = term2 - m
    runs, td_b = b.runs, b.td
    prefixes = _LABEL_PREFIXES[len(runs)]
    out = prefixes[0]
    n = runs[0][0]
    last = n - 1
    r = td_b - (td_b if td_b < td_kd else td_kd)  # the lower prefix's last offset
    if f0 + g0 == best:
        lowers = _span(out, 0, r if r < last else last)
        p = dim_d + td_b - td_d
        first = (last if p > last else p) if p > 0 else 0
        yield Witness(TERM_THROUGH, f"{side}:{lowers}<={_span(out, first, last)}", term2)
    if f1 is None:
        return
    stop, h, hr, c, _ = runs[1]
    last = stop - 1 - n
    p = dim_d + hr - td_d
    first = (last if p > h + last else p - h) if p > h else 0
    uppers = _span(prefixes[1], first, last)
    if f0 + g1 + (c if c < td_d else td_d) == best:
        lowers = _span(out, 0, r if r < h - 1 else h - 1)
        yield Witness(TERM_THROUGH, f"{side}:{lowers}<={uppers}", term2)
    if f1 + g1 == best:
        r = hr - h
        r -= r if r < td_kd else td_kd
        lowers = _span(prefixes[1], 0, r if r < last else last)
        yield Witness(TERM_THROUGH, f"{side}:{lowers}<={uppers}", term2)


def pullback_pair_dim(a: SpectrumSummary, b: SpectrumSummary) -> int:
    """dim(A ox B) for two pullbacks whose conductors have full height.

    max over both orientations of ht(M_1[t.d.(A_2)]) + D(t.d.(D_1),
    dim(D_1), A_2).
    """
    pa, pb = _require_pullback(a), _require_pullback(b)
    if not (pa.conductor_is_top and pb.conductor_is_top):
        side = "second" if pa.conductor_is_top else "first"
        raise ApplicabilityError(
            f"pullback_pair_dim needs ht(M) = dim(T); fails on the {side} operand"
        )
    # M is the second run's first position: its height, then its cap.
    _, h, _, c, _ = a.runs[1]
    ab = h + (c if c < b.td else b.td) + d_value(pa.td_d, pa.dim_d, b)
    _, h, _, c, _ = b.runs[1]
    ba = h + (c if c < a.td else a.td) + d_value(pb.td_d, pb.dim_d, a)
    return ab if ab > ba else ba


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
            lambda: (Witness("min-td", f"A:{sa.label(0)}|B:{sb.label(0)}", value),),
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
            yield from _d_value_ties("dim(A)+td(B)", "B", sa.td, sa.dim, sb, d_ab)
            yield from _d_value_ties("td(A)+dim(B)", "A", sb.td, sb.dim, sa, d_ba)

        return DimReport(
            value,
            THEOREM_W38,
            (("dim(A)+td(B)", sa.dim + sb.td), ("td(A)+dim(B)", sa.td + sb.dim)),
            witnesses,
            ("A:AF", "B:AF"),
        )

    # At least one side is now a pullback that is not AF, so at most one
    # side is AF.  thm28_dim names its other operand B in every witness
    # unless its witness builder is given another side.  The first
    # orientation that answers gives the report; every other formula that
    # applies is a cross-check, formatted only if it fails.
    report = other = None
    refusals = ()
    if sa.pullback_data is not None:
        try:
            report = thm28_dim(sa, sb)
        except (ApplicabilityError, InexactPairError) as exc:
            refusals = (f"A: {exc}",)
    if sb.pullback_data is not None:
        try:
            other = thm28_dim(sb, sa)
        except (ApplicabilityError, InexactPairError) as exc:
            refusals += (f"B: {exc}",)
    # The one-sided formula D(t.d.(X), dim(X), Y) of the AF side X, if any.
    if sa.is_af:
        af, x, y = "A", sa, sb
    elif sb.is_af:
        af, x, y = "B", sb, sa
    else:
        af = None
    if af is not None:
        d_max = d_value(x.td, x.dim, y)

    if report is None:
        if other is None:
            if af is None:
                raise ApplicabilityError("no formula applies to this pair: " + "; ".join(refusals))
            return DimReport(
                d_max,
                THEOREM_W37,
                (("D-max", d_max),),
                partial(_d_value_ties, "D-max", "B" if af == "A" else "A", x.td, x.dim, y, d_max),
                (f"{af}:{GATE_AF}",),
                refusals,
            )
        answer, report, other = "B", other, None
    else:
        answer = "A"

    # The cross-checks, side A's before side B's.
    value = report.value
    if af == "A" and d_max != value:
        raise _disagreement("one-sided AF formula", "A", d_max, answer, value)
    if other is not None and other.value != value:
        raise _disagreement("conductor formula orientation", "B", other.value, answer, value)
    if af == "B" and d_max != value:
        raise _disagreement("one-sided AF formula", "B", d_max, answer, value)
    pa, pb = sa.pullback_data, sb.pullback_data
    if pa is not None and pb is not None and pa.conductor_is_top and pb.conductor_is_top:
        v = pullback_pair_dim(sa, sb)
        if v != value:
            raise _disagreement("two-sided pullback formula", "A, B", v, answer, value)
    return DimReport(
        value,
        THEOREM_THM28,
        report.term_breakdown,
        report.build_witnesses if answer == "A" else partial(report.build_witnesses, "A"),
        _tagged_gates(sa.gates, sb.gates),
        refusals,
    )


def _disagreement(formula, tag, got, answer, value):
    return ConsistencyError(
        f"{formula} ({tag}) gives {got}, conductor formula ({answer}) {value}"
    )


@cache
def _tagged_gates(gates_a: tuple[str, ...], gates_b: tuple[str, ...]) -> tuple[str, ...]:
    """The gates of both sides, each prefixed with its side.

    Kept per pair of gate tuples, of which a side has at most 16.
    """
    return tuple(f"A:{g}" for g in gates_a) + tuple(f"B:{g}" for g in gates_b)
