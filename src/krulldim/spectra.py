"""Algebra constructors and their stratified prime-spectrum models.

The constructor language builds k-algebras of finite transcendence
degree: extension fields, abstract AF-domains (domains satisfying the
altitude formula ht(p) + t.d.(A/p) = t.d.(A) at every prime),
polynomial rings over these, K+M valuation domains, and pullbacks
phi^-1(D) along the quotient map phi: T -> K = T/M.

``summarize`` compiles an expression into a finite model of its prime
spectrum: strata of primes sharing (height, residue transcendence
degree, polynomial-height behaviour), plus certified quotient data for
comparable pairs.  All dimension and height formulas evaluate against
these summaries, never against ring elements; the model is spectrum
level only.  A pullback's strata containing M are D's chain 0..dim(D),
read from D's constructor (t.d., dimension and catenarity), so
compiling a pullback compiles no separate model of D.

A summary stores its model as what a compile builds: chain runs.  Every
prime of an AF-domain satisfies the altitude formula, so along a chain
of its strata the height rises by 1 a position while height + residue
transcendence degree and the cap (ht(p[n]) = height + min(n, cap)) stay
fixed.  A run is the tuple ``(stop, height, hr, cap, exact)``: it holds
the positions from the previous run's stop (0 for the first) up to
``stop``, the first of them at ``height``, each with residue ``hr``
minus its height and with ``cap``, and its pairs are all certified when
``exact``.  An AF model is one run from the zero ideal, position 0.  A
pullback is two: T's strata outside M by height, from the zero ideal,
then D's chain over M by D-height, the conductor M itself first, joined
by one product block ``product = (m, cap, exact)`` that puts the first
run's positions below height m under every position of the second.  So
a step, gap or overlap in a range, a second product block, a chain
block that is not one run or blocks out of order cannot be stated, and
``_check_summary`` checks only values, once per run.

The comparable pairs come in at most three blocks, in storage order:
each run's chain and, for a pullback, the product block, stored after
the chain outside M.  A pair (i, j) has quotient height n -> ht(j) -
ht(i) + min(n, cap) with its block's cap, a chain block's being 0.  In a
block that is not exact only the reflexive pairs and the pairs from its
bottom position are certified.  The formulas compute every maximum from
the runs themselves, and ``label``, ``pair_label`` and ``provenance``
name a position from them in O(1).

Views built on first use, each derived from the runs: ``strata``, one
``Stratum`` per position, the only positional view; ``pairs``, every
comparable pair as ``(i, j, (quot_base, quot_cap))``, or ``(i, j,
None)`` if uncertified, which ``iter_pairs`` generates without keeping
them; ``walk_plan``, what the chain oracle reads of the model as either
side: the product block's range length and cap, each run's bounds,
heights and top residue, and one column step per block, O(runs) data
built on the oracle's first call; and ``uncertified``, the first
uncertified pair or None, which the oracle reads on every call, read
like ``first_uncertified(q)`` from the ``exact`` flags of the runs and
the product block.  Nothing in the
package builds ``pairs``: ``spectrum``, the check suites and the oracle's
literal enumerator walk ``iter_pairs``, and the formulas and the chain
oracle's pass read no pair at all.

A model of S strata has up to S(S+1)/2 pairs, which ``spectrum`` lists
one by one, so ``summarize`` refuses, with ``ConstraintError``, a model
of more than ``MAX_STRATA`` strata.
"""
from __future__ import annotations

from collections import _tuplegetter
from collections.abc import Iterator
from functools import cached_property, lru_cache

from .errors import ConsistencyError, ConstraintError

# Longest decimal numeral accepted in an expression or a selector, far
# below the interpreter's limit on converting digit strings to int.
MAX_DIGITS = 100

KIND_PLAIN = "plain"
KIND_OUTSIDE = "outsideM"
KIND_CONTAINS = "containsM"

# Hypothesis gates of the dimension formulas, strongest first (see
# ``SpectrumSummary.gates``).
GATE_AF = "AF"
GATE_CATENARIAN = "Thm2.8-catenarian"
GATE_HT_M = "Cor2.9-htM<=2"
GATE_TD_KD = "Prop2.10-tdKD<=2"


# A record's ``__new__`` ends in ``return _tuple_new(cls, (a, b, ...))``:
# a global bound once is read faster than ``tuple.__new__``.
_tuple_new = tuple.__new__


class Record(tuple):
    """Base of the package's records: tuples whose fields are named.

    A record class defines ``__new__(cls, a, b, ...)``, naming each field
    in order, with the last fields' defaults, and returning
    ``_tuple_new(cls, (a, b, ...))`` once it has checked them; the fields
    are read from that signature, so it takes no ``*args`` or
    ``**kwargs``.  A record is a frozen value: it equals only a record
    of its own class with equal fields, never a plain tuple, and hashes
    as its fields; no attribute can be assigned, though
    ``cached_property`` views still fill in; ``_make`` and ``_replace``
    build through the class, so a constructor's checks run.  A record
    class sets ``__slots__ = ()`` unless it keeps views in a
    ``__dict__``.  A record offers the API of the standard library's
    named tuples, and its class is built in a fraction of their time.
    """

    __slots__ = ()

    def __init_subclass__(cls):
        new = cls.__new__
        code = new.__code__
        fields = code.co_varnames[1 : code.co_argcount]
        defaults = new.__defaults__ or ()
        cls._fields = cls.__match_args__ = fields
        cls._field_defaults = dict(zip(fields[len(fields) - len(defaults) :], defaults))
        for i, name in enumerate(fields):
            setattr(cls, name, _tuplegetter(i, f"Alias for field number {i}"))

    # False, not NotImplemented, for another class: Python would then ask
    # the other operand, and a plain tuple compares equal by its items.
    def __eq__(self, other):
        return self.__class__ is other.__class__ and tuple.__eq__(self, other)

    def __ne__(self, other):
        return not self == other

    __hash__ = tuple.__hash__

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self):
        shown = ", ".join(f"{name}={value!r}" for name, value in zip(self._fields, self))
        return f"{self.__class__.__name__}({shown})"

    def __getnewargs__(self):
        return tuple(self)

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)

    def _replace(self, **changes):
        record = self._make(map(changes.pop, self._fields, self))
        if changes:
            raise ValueError(f"Got unexpected field names: {list(changes)!r}")
        return record

    def _asdict(self):
        return dict(zip(self._fields, self))


class Stratum(Record):
    """View of position ``index`` of a summary: primes of one height and residue t.d.

    Their heights in polynomial extensions are ht(p[n]) = height +
    min(n, cap).  ``kind`` records the position relative to the
    conductor ideal M of a pullback ("outsideM" / "containsM");
    non-pullback strata are "plain".  ``label`` is the display name.
    Each summary builds its strata once, and the height formulas accept
    only the objects of the summary they are given.
    """

    __slots__ = ()

    def __new__(cls, index, kind, height, residue_td, cap, label):
        return _tuple_new(cls, (index, kind, height, residue_td, cap, label))


class PullbackData(Record):
    """Numeric data of the pullback a summary was compiled from.

    ``m`` is the height of the conductor maximal ideal M, ``outside``
    the top height among primes of T not containing M, ``td_kd`` the
    transcendence degree of K over D.  ``conductor_is_top`` records
    whether ht(M) = dim(T), the hypothesis of the two-sided pullback
    formula; ``ambient_catenarian`` whether the T model is catenarian.
    """

    __slots__ = ()

    def __new__(cls, m, td_k, td_d, dim_d, td_kd, outside, ambient_catenarian, conductor_is_top):
        return _tuple_new(
            cls, (m, td_k, td_d, dim_d, td_kd, outside, ambient_catenarian, conductor_is_top)
        )


class SpectrumSummary(Record):
    """Finite stratified model of Spec of a constructor expression.

    The model is stored as one or two chain ``runs`` and, joining two,
    one ``product`` block (see the module docstring).  ``gates`` lists
    the hypothesis gates of the dimension formulas the model passes,
    strongest first, derived once when it is compiled: AF, then for a
    pullback catenarian T (Thm 2.8), ht(M) <= 2 (Cor 2.9) and
    t.d.(K:D) <= 2 (Prop 2.10).  ``source`` names the constructor for
    provenance strings only, so ``==`` and the hash leave it out.
    ``pullback_data`` is None unless the model is a pullback's.  A
    summary has a ``__dict__`` for its views.
    """

    def __new__(cls, td, dim, is_af, runs, product=None, pullback_data=None, gates=(), source=""):
        return _tuple_new(cls, (td, dim, is_af, runs, product, pullback_data, gates, source))

    def __eq__(self, other):
        return self.__class__ is other.__class__ and self[:-1] == other[:-1]

    def __hash__(self):
        return hash(self[:-1])

    def label(self, i: int) -> str:
        """Display label of position i: ``h<height>``, ``out:<height>`` or ``in:<D-height>``."""
        n = self.runs[0][0]
        if self.product is None:
            return f"h{i}"
        return f"out:{i}" if i < n else f"in:{i - n}"

    def pair_label(self, i: int, j: int) -> str:
        return f"{self.label(i)}<={self.label(j)}"

    def provenance(self, i: int) -> str:
        """Where stratum i comes from, for display.

        The first run sits at heights equal to its positions, and the
        second, over M, at D-heights counted from its start.
        """
        n = self.runs[0][0]
        if self.product is None:
            return f"{self.source}/ht={i}"
        if i < n:
            return f"pullback/outside M/ht={i}"
        return f"pullback/contains M/D-ht={i - n}"

    @cached_property
    def strata(self) -> tuple[Stratum, ...]:
        """One ``Stratum`` per position, built from the runs in one pass."""
        kinds = (KIND_PLAIN,) if self.product is None else (KIND_OUTSIDE, KIND_CONTAINS)
        label = self.label
        strata = []
        for (start, stop, h, hr, cap, _), kind in zip(run_spans(self.runs), kinds):
            strata += [
                Stratum(i, kind, h + i - start, hr - h - i + start, cap, label(i))
                for i in range(start, stop)
            ]
        return tuple(strata)

    def iter_pairs(self) -> Iterator[tuple[int, int, tuple[int, int] | None]]:
        """Generate the entries of ``pairs`` block by block, in storage order, keeping none.

        Heights rise by 1 a position along each run, so a pair's quotient
        base ht(j) - ht(i) is j - i plus its block's ``shift``: 0 in a
        chain block, and in the product block the second run's first
        height less its first position, as the first run sits at
        heights equal to its positions.
        """
        (n, *_, exact), *over = self.runs
        outside = range(n)
        blocks = [(outside, outside, 0, 0, exact)]  # (lower, upper, shift, cap, exact)
        if over:
            ((stop, h, *_, inner_exact),) = over
            m, cap, product_exact = self.product
            inside = range(n, stop)
            blocks += [
                (range(m), inside, h - n, cap, product_exact),
                (inside, inside, 0, 0, inner_exact),
            ]
        for lower, upper, shift, cap, exact in blocks:
            bottom = lower.start
            for i in lower:
                for j in range(max(i, upper.start), upper.stop):
                    certified = exact or i == j or i == bottom
                    yield i, j, (j - i + shift, cap) if certified else None

    @cached_property
    def pairs(self) -> tuple[tuple[int, int, tuple[int, int] | None], ...]:
        """Every comparable pair, as ``iter_pairs`` generates them.

        Pairs among strata outside M (or plain strata) come first, then
        pairs from outside M up to M, then pairs over M; each group by
        lower, then upper position.  A certified pair is ``(i, j,
        (quot_base, quot_cap))``, an uncertified one ``(i, j, None)``.
        """
        return tuple(self.iter_pairs())

    @cached_property
    def walk_plan(self) -> tuple[int, int, tuple[tuple[int, ...], ...], tuple[tuple, ...]]:
        """``(m, cap, runs, steps)``: the chain oracle's walk over this model, O(runs) data.

        ``m`` and ``cap`` are the product block's range length and cap, 0
        and 0 for a model of one run: the positions below ``m`` lie under
        every position of the second run, and ``cap`` is the largest cap
        of a product step this model gives as the column side.

        ``runs`` serves the model as the oracle's row side, one tuple
        ``(start, stop, height, hr, top)`` per run: its positions, its
        first height, its height + residue and ``top``, the residue at
        its top.

        ``steps`` serves the model as the column side, in reverse storage
        order of the blocks: steps ``(upper, height, cap, start, stop)``,
        each raising the row's entries below a value t on positions
        ``start`` to ``stop - 1`` to t.  A run's chain block, of one
        position too, is one step ``(None, height, residue, start, stop)``
        over the run, with its top's height and residue, from which the
        oracle takes t as the fiber at the top.  The product block is the
        step ``(n, None, cap, 0, m)`` over its lower range, the first
        run's positions below ``m``; t is the row's entry at n, the
        second run's first position and the maximum over that run, plus
        min(residue, cap).
        """
        m, cap = self.product[:2] if self.product else (0, 0)
        runs = tuple(
            (start, stop, h, hr, hr - h - (stop - 1 - start))
            for start, stop, h, hr, *_ in run_spans(self.runs)
        )
        steps = [(None, h + stop - 1 - start, top, start, stop) for start, stop, h, _, top in runs]
        if m:
            steps.insert(1, (runs[1][0], None, cap, 0, m))
        return m, cap, runs, tuple(reversed(steps))

    @cached_property
    def uncertified(self) -> tuple[int, int] | None:
        """The first uncertified pair in ``pairs`` order, or None when every pair is certified.

        An uncertified pair is a non-reflexive pair of an inexact block
        whose lower end is not the block's bottom, so the first starts
        just above it: (1, 2) in the first run's chain, (1, n) in the
        product block, n the second run's start, and (n + 1, n + 2) in
        the second run's chain, each where its block reaches it.
        """
        (n, *_, exact), *over = self.runs
        if not exact and n > 2:
            return 1, 2
        if over:
            ((stop, *_, inner_exact),) = over
            m, _, product_exact = self.product
            if not product_exact and m > 1:
                return 1, n
            if not inner_exact and stop - n > 2:
                return n + 1, n + 2
        return None

    def first_uncertified(self, upper: int) -> tuple[int, int] | None:
        """The first uncertified pair in ``pairs`` order whose upper end is ``upper``, or None.

        Its lower end is the one above the bottom of the first inexact
        block holding ``upper`` in its upper range, if it lies below ``upper``.
        """
        (n, *_, exact), *over = self.runs
        if upper < n:
            return (1, upper) if not exact and 1 < upper else None
        if over:
            ((stop, *_, inner_exact),) = over
            if upper < stop:
                m, _, product_exact = self.product
                if not product_exact and m > 1:
                    return 1, upper
                if not inner_exact and n + 1 < upper:
                    return n + 1, upper
        return None

    def select(self, selector: str) -> Stratum:
        """Resolve a stratum selector: ``0``, ``M``, ``out:<h>`` or ``in:<e>``.

        ``0`` is the zero ideal, position 0, and ``M`` the conductor
        stratum of a pullback, the second run's first position, or the
        top stratum otherwise, position ``dim`` of the one run.
        ``out:<h>`` picks the height-h stratum outside M, or the plain
        height-h stratum of a non-pullback summary; ``in:<e>`` the
        stratum at D-height e over M.  Heights rise by one per position
        along each run, the first from the zero ideal and the second
        from M, so those are position h of the first run and position e
        of the second.
        """
        pd = self.pullback_data
        if selector == "0":
            return self.strata[0]
        if selector == "M":
            return self.strata[self.runs[0][0] if pd is not None else self.dim]
        if selector.startswith("out:"):
            start, stop = 0, self.runs[0][0]
        elif selector.startswith("in:"):
            if pd is None:
                raise ConstraintError(
                    f"selector {selector!r} needs a pullback summary"
                )
            start, stop = self.runs[0][0], self.runs[1][0]
        else:
            raise ConstraintError(
                f"unknown stratum selector {selector!r} (use 0, M, out:<h> or in:<e>)"
            )
        i = start + _selector_index(selector)
        if i < stop:
            return self.strata[i]
        raise ConstraintError(f"no stratum matches selector {selector!r}")


def _selector_index(selector: str) -> int:
    return read_natural(selector.partition(":")[2], f"selector {selector!r}")


def read_natural(text: str, what: str) -> int:
    """``text`` as a natural number: ASCII digits only, at most ``MAX_DIGITS``.

    Unlike ``int``, refuses signs, underscores and non-ASCII digits;
    ``what`` names the input in the ``ConstraintError``.
    """
    if not (text.isascii() and text.isdigit() and len(text) <= MAX_DIGITS):
        raise ConstraintError(
            f"{what} needs a decimal numeral of at most {MAX_DIGITS} ASCII digits"
        )
    return int(text)


# --------------------------------------------------------------------------
# Constructor expressions


class Field(Record):
    """Extension field of k with transcendence degree ``td``."""

    __slots__ = ()

    def __new__(cls, td):
        if td < 0:
            raise ConstraintError("field transcendence degree must be >= 0")
        return _tuple_new(cls, (td,))


class AfDomain(Record):
    """Abstract AF-domain of transcendence degree ``td`` and dimension ``dim``.

    The model realizes the full canonical stratification: every height
    0..dim occurs, with residue transcendence degree td - h.  The
    ``catenarian`` flag gates which quotient pairs are certified.
    """

    __slots__ = ()

    def __new__(cls, td, dim, catenarian=True):
        if not 0 <= dim <= td:
            raise ConstraintError("AF-domain requires 0 <= dim <= td")
        return _tuple_new(cls, (td, dim, catenarian))


class PolyRing(Record):
    """Polynomial ring in ``n`` variables over an AF constructor."""

    __slots__ = ()

    def __new__(cls, base, n):
        if n < 0:
            raise ConstraintError("polynomial ring needs n >= 0 variables")
        if not is_af_constructor(base):
            raise ConstraintError(
                "polynomial ring base must be an AF constructor "
                "(field, af, val or poly); pullbacks are not supported"
            )
        return _tuple_new(cls, (base, n))


class Valuation(Record):
    """K+M valuation domain: an AF-domain with chain spectrum.

    ``td`` is the transcendence degree, ``dim`` the rank; the residue
    field has transcendence degree td - dim.
    """

    __slots__ = ()

    def __new__(cls, td, dim):
        if dim < 1:
            raise ConstraintError("valuation domain requires dim >= 1")
        if dim > td:
            raise ConstraintError("valuation domain requires dim <= td")
        return _tuple_new(cls, (td, dim))


class Pullback(Record):
    """The pullback phi^-1(D) of D <= K = T/M along phi: T -> K.

    ``m`` is the height of the maximal ideal M of T; ``outside`` the top
    height among primes of T not containing M.  For a valuation T the
    spectrum is a chain, so m must equal dim(T) and outside is forced to
    m - 1 (it may be omitted).  T and D must be AF constructors; nesting
    pullbacks is rejected because a pullback with t.d.(K:D) > 0 is never
    an AF-domain.
    """

    __slots__ = ()

    def __new__(cls, ambient, m, subring, outside=None):
        if not is_af_constructor(ambient):
            raise ConstraintError(
                "pullback T must be an AF constructor (field, af, val or poly)"
            )
        if not is_af_constructor(subring):
            raise ConstraintError(
                "pullback D must be an AF constructor (field, af, val or poly)"
            )
        td_t, dim_t, _ = _af_shape(ambient)
        if m < 1:
            raise ConstraintError("pullback requires m >= 1")
        if m > dim_t:
            raise ConstraintError("m <= dim(T) violated")
        td_k = td_t - m
        if _af_shape(subring)[0] > td_k:
            raise ConstraintError("t.d.(D) <= t.d.(K) violated")
        if isinstance(ambient, Valuation):
            if m != dim_t:
                raise ConstraintError(
                    "valuation T has a unique maximal ideal: m = dim(T) required"
                )
            forced = m - 1
            if outside is None:
                outside = forced
            elif outside != forced:
                raise ConstraintError(
                    "valuation T has chain spectrum: outside = m - 1 forced"
                )
        else:
            if outside is None:
                raise ConstraintError("outside required for non-valuation T")
            if outside < m - 1:
                raise ConstraintError("outside >= m - 1 violated")
            if outside > dim_t:
                raise ConstraintError("outside <= dim(T) violated")
        return _tuple_new(cls, (ambient, m, subring, outside))


AlgebraExpr = Field | AfDomain | PolyRing | Valuation | Pullback


def is_af_constructor(expr: AlgebraExpr) -> bool:
    return isinstance(expr, (Field, AfDomain, PolyRing, Valuation))


def expr_td(expr: AlgebraExpr) -> int:
    return _af_shape(expr.ambient if type(expr) is Pullback else expr)[0]


def expr_dim(expr: AlgebraExpr) -> int:
    if type(expr) is Pullback:
        return max(expr.outside, expr.m + _af_shape(expr.subring)[1])
    return _af_shape(expr)[1]


def expr_catenarian(expr: AlgebraExpr) -> bool:
    """Whether the model of an AF constructor certifies all quotient pairs."""
    if type(expr) is Pullback:
        raise TypeError(f"no catenarity model for {expr!r}")
    return _af_shape(expr)[2]


def _af_shape(expr: AlgebraExpr) -> tuple[int, int, bool]:
    """``(td, dim, catenarian)`` of an AF constructor, read in one walk down its poly bases.

    A polynomial ring in n variables adds n to its base's t.d. and
    dimension and keeps its catenarity.  A domain of dimension at most 1
    is catenarian whatever its flag says: every nonzero prime is maximal
    and has height 1, so no two saturated chains between the same primes
    can differ in length.
    """
    n = 0
    while type(expr) is PolyRing:
        expr, k = expr
        n += k
    kind = type(expr)
    if kind is AfDomain:
        td, dim, catenarian = expr
        return td + n, dim + n, catenarian or dim <= 1
    if kind is Valuation:
        td, dim = expr
        return td + n, dim + n, True
    if kind is Field:
        return expr[0] + n, n, True
    raise TypeError(f"not an algebra expression: {expr!r}")


# --------------------------------------------------------------------------
# Compilation to summaries

# More than the distinct operands of any benchmark workload, so that
# the cache only stops a long-running process from growing without end.
# A cached summary keeps the views built on it for as long as it stays
# cached: the O(S) ``strata``, the O(S^2) ``pairs`` and the chain
# oracle's O(runs) ``walk_plan``.  The parser's memo of texts has the
# same bound.
SUMMARY_CACHE_SIZE = 4096

# Largest model summarize builds.  A model stores a few integers per run
# and ``strata`` is O(S), but at 2048 strata an AF model has about 2.1M
# pairs, which ``spectrum`` and a fully tied witness list each walk one
# by one.  The chain oracle's work grows with the rows it computes times
# the column side's strata, not with the pairs: at most the product of
# the two sides' strata, and O(S) for two AF models.
MAX_STRATA = 2048


@lru_cache(maxsize=SUMMARY_CACHE_SIZE)
def summarize(expr: AlgebraExpr) -> SpectrumSummary:
    """Compile an algebra expression into its stratified spectrum model."""
    kind = type(expr)
    if kind is Pullback:
        return _summarize_pullback(expr)
    td, dim, catenarian = _af_shape(expr)
    if kind is AfDomain:
        source = f"af({td},{dim})"
    elif kind is Valuation:
        source = f"val({td},{dim})"
    elif kind is PolyRing:
        source = f"poly[{td},{dim}]"
    else:
        source = f"field({td})"
    n = dim + 1
    _check_size(n)
    return _finish(td, ((n, 0, td, 0, catenarian),), None, None, source)


def _check_size(n: int) -> None:
    if n > MAX_STRATA:
        raise ConstraintError(
            f"a spectrum model of {n} strata is over the limit of {MAX_STRATA}"
        )


def _summarize_pullback(expr: Pullback) -> SpectrumSummary:
    ambient, m, subring, outside = expr
    td, dim_t, t_cat = _af_shape(ambient)
    # D is an AF constructor, so its primes are the chain 0..dim(D) with
    # residues t.d.(D) - h, read from the constructor without compiling D.
    td_d, dim_d, d_cat = _af_shape(subring)
    td_k = td - m
    td_kd = td_k - td_d
    data = PullbackData(m, td_k, td_d, dim_d, td_kd, outside, t_cat, m == dim_t)

    # Strata outside M at heights 0..n_out-1, then one per stratum of D.
    # D's own size is refused first, with D's own count.
    n_out = max(m - 1, outside) + 1
    n_in = dim_d + 1
    _check_size(n_in)
    _check_size(n_out + n_in)
    runs = ((n_out, 0, td, 0, t_cat), (n_out + n_in, m, m + td_d, td_kd, d_cat))
    # Primes at height >= m outside M are incomparable with M.
    return _finish(td, runs, (m, td_kd, t_cat), data, "pullback")


def run_spans(runs) -> Iterator[tuple]:
    """``(start, stop, height, hr, cap, exact)`` per run: each starts where the one before stops."""
    start = 0
    for run in runs:
        yield start, *run
        start = run[0]


def _finish(td, runs, product, pullback_data, source) -> SpectrumSummary:
    """The checked summary of ``runs`` and ``product``: every model, compiled or built, is made here.

    ``dim`` is the greatest top height of a run and ``is_af`` whether
    every run has height + residue td and cap 0.
    """
    dim = start = 0
    is_af = True
    for stop, h, hr, cap, _ in runs:
        top = h + stop - start - 1
        if top > dim:
            dim = top
        if hr != td or cap:
            is_af = False
        start = stop
    summary = SpectrumSummary(
        td, dim, is_af, runs, product, pullback_data, _gates(is_af, pullback_data), source
    )
    _check_summary(summary)
    return summary


def _gates(is_af: bool, pd: PullbackData | None) -> tuple[str, ...]:
    gates = [GATE_AF] if is_af else []
    if pd is not None:
        if pd.ambient_catenarian:
            gates.append(GATE_CATENARIAN)
        if pd.m <= 2:
            gates.append(GATE_HT_M)
        if pd.td_kd <= 2:
            gates.append(GATE_TD_KD)
    return tuple(gates)


def _check_summary(summary: SpectrumSummary) -> None:
    """Internal coherence guards on a model's values, once per run; violations are bugs.

    The layout holds by construction.  The runs cover the positions in
    order, each chain block is one run, in which heights rise by 1 a
    position and height + residue and the cap stay fixed, a product
    range lies inside one run with step 1, and the blocks come in
    storage order.  What is left are values: position 0 is the zero
    ideal; no height, residue or cap is negative; height + residue is
    at most td; only the run over M has a cap > 0, so every stratum
    localizes (cap 0) or quotients (a quotient of D) to an AF model and
    the chain oracle may hold any stratum fixed; and the product range
    lies in the first run, below the second run's base height.

    The zero ideal lies under every prime, and A/(0) is A, so each pair
    (0, j) is certified with stratum j's own cap: the product block
    starts at position 0 and has the second run's cap.  Stratum 0 is
    then the only one of height 0, and the chain oracle walks (0, 0)
    last and returns its tail on the strength of this.
    """
    td, _, _, runs, product, pd, *_ = summary
    if len(runs) != (1 if product is None else 2):
        raise ConsistencyError("a model is one run, or two joined by one product block")
    if runs[0][1] != 0 or runs[0][2] != td:
        raise ConsistencyError("stratum 0 must be the zero ideal (0, td, 0+min(n,0))")
    start = k = 0
    for stop, h, hr, cap, _ in runs:
        if stop <= start:
            raise ConsistencyError(f"run {k} holds no position")
        # The residue is least at the run's top.
        if h < 0 or cap < 0 or hr - h < stop - start - 1:
            raise ConsistencyError(f"negative height, residue or cap at {summary.label(stop - 1)}")
        if hr > td:
            raise ConsistencyError(f"height + residue_td > td at {summary.label(start)}")
        if cap > 0 and not k:
            raise ConsistencyError(f"cap > 0 outside M at {summary.label(start)}")
        start = stop
        k += 1
    if product is not None:
        m, cap, _ = product
        (n, *_), (_, base, _, c, _) = runs
        if cap < 0:
            raise ConsistencyError(f"negative quotient cap in the product block {product}")
        if m < 1 or cap != c:
            raise ConsistencyError(
                f"{summary.label(n)} must lie over the zero ideal by a pair of cap {c}"
            )
        if m > n:
            raise ConsistencyError(
                f"the lower range of the product block {product} leaves the first run"
            )
        # Distinct comparable primes differ in height, which the chain
        # oracle's bottom-up order relies on.
        if m > base:
            raise ConsistencyError(f"heights do not rise strictly in the product block {product}")
    if pd is not None and runs[-1][0] - runs[0][0] != pd.dim_d + 1:
        raise ConsistencyError("M must be the first of the last dim(D) + 1 strata")


def is_af_poly(summary: SpectrumSummary, n: int) -> bool:
    """Whether the polynomial ring in n variables satisfies the altitude formula.

    True iff ht(p[n]) + t.d.(A/p) = t.d.(A) on every stratum, so on
    every run, whose height + residue and cap are fixed.
    """
    if n < 0:
        raise ConstraintError("polynomial variable count must be >= 0")
    return all(hr + min(n, cap) == summary.td for _, _, hr, cap, _ in summary.runs)
