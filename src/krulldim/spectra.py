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

A summary stores its model by position.  Stratum ``i`` is described by
``kinds[i]``, ``heights[i]``, ``residues[i]`` (residue transcendence
degree) and ``caps[i]`` (ht(p[n]) = height + min(n, cap)).  Position 0
is the zero ideal, the only stratum of height 0, and lies under every
other stratum.  An AF model lists its strata by height; a pullback
lists the strata outside M by height, then those containing M by
D-height, the conductor M itself first among them.  Comparable pairs
are stored as at most three ``PairBlock``s, in ``pair_key`` order: an
AF model's chain; or a pullback's chain outside M, its strata outside M
below height m under those containing M, and D's chain over M.  No
block's lower positions overlap the upper positions of a block stored
after it, and each product block's lower and upper range lies inside
one chain block, which the chain oracle's row steps rely on.  Along each
block's lower and upper range residues and caps never rise and height +
residue never falls, and a chain block has one cap, so the formulas
take each maximum at a block's ends.  A pair
(i, j) has quotient height n -> heights[j] - heights[i] + min(n, cap)
with its block's cap.  These arrays and blocks are the model; the
formulas and the oracle read them.  Views built on first use:
``strata``, one ``Stratum`` per position (the only object view);
``pairs``, every comparable pair as ``(i, j, (quot_base, quot_cap))``,
or ``(i, j, None)`` if uncertified; ``ups``, the certified pairs, with
``ups[i]`` holding ``(j, quot_base, quot_cap)`` by increasing j;
``walk_plan``, the chain oracle's rows in walk order, each with its
block lists and its chain successor's residue, one row step per
block, and the counts by which the oracle picks its row side, O(S)
references built from the arrays and ``blocks`` on the oracle's first
call; and
``uncertified``, the first uncertified pair or None, which the oracle
reads on every call.  ``iter_pairs`` generates the ``pairs`` entries
without keeping them.  The formulas, the chain
oracle, the ``spectrum`` command and the check suites' own loops build
neither pair view; only the oracle's literal enumerator ``iter_chains``
builds ``ups``.

A model of S strata has up to S(S+1)/2 pairs, which ``spectrum`` lists
one by one, so ``summarize`` refuses, with ``ConstraintError``, a model
of more than ``MAX_STRATA`` strata.
"""
from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterator
from functools import cached_property, lru_cache
from itertools import chain, combinations, count, pairwise

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


class Record:
    """Base of the package's records, each a ``collections.namedtuple`` class.

    A record is a frozen value: it equals only a record of its own class
    with equal fields, never a plain tuple, and hashes as its fields; no
    attribute can be assigned, though ``cached_property`` views still
    fill in; ``_make`` and ``_replace`` build through the class, so a
    constructor's checks run.  A record class lists the base first,
    ``class Name(Record, namedtuple("Name", "field ...")):``, and sets
    ``__slots__ = ()`` unless it keeps views in a ``__dict__``.
    """

    __slots__ = ()

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

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)


class Stratum(Record, namedtuple("Stratum", "index kind height residue_td cap label")):
    """View of position ``index`` of a summary: primes of one height and residue t.d.

    Their heights in polynomial extensions are ht(p[n]) = height +
    min(n, cap).  ``kind`` records the position relative to the
    conductor ideal M of a pullback ("outsideM" / "containsM");
    non-pullback strata are "plain".  ``label`` is the display name.
    Each summary builds its strata once, and the height formulas accept
    only the objects of the summary they are given.
    """

    __slots__ = ()


class PullbackData(
    Record,
    namedtuple(
        "PullbackData", "m td_k td_d dim_d td_kd outside ambient_catenarian conductor_is_top"
    ),
):
    """Numeric data of the pullback a summary was compiled from.

    ``m`` is the height of the conductor maximal ideal M, ``outside``
    the top height among primes of T not containing M, ``td_kd`` the
    transcendence degree of K over D.  ``conductor_is_top`` records
    whether ht(M) = dim(T), the hypothesis of the two-sided pullback
    formula; ``ambient_catenarian`` whether the T model is catenarian.
    """

    __slots__ = ()


Pair = tuple[int, int, int]


class PairBlock(namedtuple("PairBlock", "lower upper cap exact")):
    """The comparable pairs (i, j) with i in ``lower``, j in ``upper`` and i <= j.

    A chain block has ``lower == upper`` and holds the reflexive pairs of
    its positions; in a product block every lower position lies below
    every upper one.  Every pair's quotient cap is ``cap``.  In a block
    that is not ``exact`` only the reflexive pairs and the pairs from
    its bottom position ``lower.start`` are certified.  A plain named
    tuple: a block equals the tuple of its fields.
    """

    __slots__ = ()


class SpectrumSummary(
    Record,
    namedtuple(
        "SpectrumSummary",
        "td dim is_af kinds heights residues caps blocks pullback_data gates source",
        defaults=(None, (), ""),
    ),
):
    """Finite stratified model of Spec of a constructor expression.

    The model is stored by position and by pair block (see the module
    docstring).  ``gates`` lists the hypothesis gates of the dimension
    formulas the model passes, strongest first, derived once when it is
    compiled: AF, then for a pullback catenarian T (Thm 2.8), ht(M) <= 2
    (Cor 2.9) and t.d.(K:D) <= 2 (Prop 2.10).  ``source`` names the
    constructor for provenance strings only, so ``==`` and the hash
    leave it out.  ``pullback_data`` is None unless the model is a
    pullback's.  A summary has a ``__dict__`` for its views.
    """

    def __eq__(self, other):
        return self.__class__ is other.__class__ and self[:-1] == other[:-1]

    def __hash__(self):
        return hash(self[:-1])

    @cached_property
    def labels(self) -> tuple[str, ...]:
        """Display label per position: ``h<height>``, ``out:<height>`` or ``in:<D-height>``."""
        m = self.pullback_data.m if self.pullback_data is not None else 0
        return tuple(
            f"h{h}" if kind == KIND_PLAIN else f"out:{h}" if kind == KIND_OUTSIDE
            else f"in:{h - m}"
            for kind, h in zip(self.kinds, self.heights)
        )

    def pair_label(self, i: int, j: int) -> str:
        return f"{self.labels[i]}<={self.labels[j]}"

    def pair_key(self, i: int, j: int) -> tuple[int, int, int]:
        """Sort key giving the listing order of ``pairs``.

        Pairs among strata outside M (or plain strata) come first, then
        pairs from outside M up to M, then pairs over M; each group by
        lower, then upper position.
        """
        kinds = self.kinds
        return ((kinds[i] == KIND_CONTAINS) + (kinds[j] == KIND_CONTAINS), i, j)

    def provenance(self, i: int) -> str:
        """Where stratum i comes from, for display."""
        kind, h = self.kinds[i], self.heights[i]
        if kind == KIND_PLAIN:
            return f"{self.source}/ht={h}"
        if kind == KIND_OUTSIDE:
            return f"pullback/outside M/ht={h}"
        return f"pullback/contains M/D-ht={h - self.pullback_data.m}"

    @cached_property
    def strata(self) -> tuple[Stratum, ...]:
        return tuple(
            map(Stratum, count(), self.kinds, self.heights, self.residues, self.caps, self.labels)
        )

    def iter_pairs(self) -> Iterator[tuple[int, int, tuple[int, int] | None]]:
        """Generate the entries of ``pairs`` from the blocks, keeping none."""
        heights = self.heights
        for block in self.blocks:
            bottom, upper = block.lower.start, block.upper
            for i in block.lower:
                for j in range(max(i, upper.start), upper.stop):
                    certified = block.exact or i == j or i == bottom
                    yield i, j, (heights[j] - heights[i], block.cap) if certified else None

    @cached_property
    def pairs(self) -> tuple[tuple[int, int, tuple[int, int] | None], ...]:
        """Every comparable pair in ``pair_key`` order.

        A certified pair is ``(i, j, (quot_base, quot_cap))``, an
        uncertified one ``(i, j, None)``.
        """
        return tuple(self.iter_pairs())

    @cached_property
    def ups(self) -> tuple[tuple[Pair, ...], ...]:
        """``ups[i]``: ``(j, quot_base, quot_cap)`` per certified pair i <= j, by increasing j."""
        rows: list[list[Pair]] = [[] for _ in self.heights]
        for i, j, quot in self.iter_pairs():
            if quot is not None:
                rows[i].append((j, *quot))
        return tuple(map(tuple, rows))

    @cached_property
    def walk_plan(self) -> tuple[tuple[tuple, ...], tuple, int, int, tuple[int, ...]]:
        """``(rows, row_steps, cap, fixed, successors)``: the chain oracle's walk over this model.

        ``rows`` serves the model as the oracle's row side: one tuple
        ``(height, residue, through, starts, ends, successor)`` per
        position i, by decreasing height.  ``through`` is the first block
        k of cap 0 with a pair (i, i2), i < i2, or None: the row starts as
        a copy of that block's running maximum, or as zeros.  ``starts``
        holds ``(k, cap)`` for every other such block, and ``ends`` holds
        each k whose upper range holds i.  The oracle's row at i then
        becomes k's running maximum: it dominates every row of k's upper
        range walked before it, as that range lies inside one chain block
        (``_read_layout`` refuses any other), which the row at any
        position of the range but the chain's top steps through.
        ``successor`` is the residue of position i + 1 when ``through`` is
        i's own chain block and ``starts`` is empty, and None otherwise.
        Such a row starts as the finished row of i + 1, its chain
        successor, and the oracle skips it when ``successor`` is at least
        the column side's ``cap`` or equals i's own residue (see
        ``oracle``).  ``fixed`` counts the rows whose ``successor`` is
        None, and ``successors`` lists the others' ``successor`` by
        increasing value, leaving out those equal to the row's own
        residue: against a column side of ``cap`` c the oracle computes
        ``fixed + bisect_left(successors, c)`` rows.

        ``row_steps`` serves the model as the column side, in reverse
        storage order of the blocks: steps ``(upper, height, cap, start,
        stop)``, each raising the row's entries below a value t on
        positions ``start`` to ``stop - 1`` to t.  A chain block, of one
        position too, is one step ``(None, height, residue, start, stop)``
        over all its positions, with its top's height and residue, from
        which the oracle takes t as the fiber at the top.  A product block
        is one step ``(upper slice, None, cap, start, stop)``, from the
        start of the chain block holding its lower range to the range's
        last position; t is the maximum over the upper slice plus
        min(residue, cap).  ``cap`` is the largest cap of the product
        steps, 0 if there are none.

        Equal entries are one shared tuple, so a plan holds O(S) references.
        A model whose layout ``_read_layout`` refuses raises
        ``ConsistencyError``.
        """
        heights, residues, blocks = self.heights, self.residues, self.blocks
        fault, chain_starts = _read_layout(heights, *[block[:2] for block in blocks])
        if fault:
            raise ConsistencyError(fault.format(*blocks))
        starts: list[list[tuple[int, int]]] = [[] for _ in heights]
        ends: list[list[int]] = [[] for _ in heights]
        row_steps = []
        step_cap = 0
        for k, block in enumerate(blocks):
            lower, upper = block.lower, block.upper
            if lower == upper and lower:
                top = upper[-1]
                row_steps.append((None, heights[top], residues[top], lower.start, top + 1))
            if not (lower and upper and lower.start < upper[-1]):
                continue
            for i in lower:
                if i < upper[-1]:
                    starts[i].append((k, block.cap))
            for i in upper:
                ends[i].append(k)
            if lower != upper:
                step_cap = max(step_cap, block.cap)
                reads = slice(upper.start, upper.stop, upper.step)
                start = max(s for s in chain_starts if s <= lower.start)
                row_steps.append((reads, None, block.cap, start, lower[-1] + 1))
        shared: dict[tuple, tuple] = {}
        rows = []
        successors = []
        for i in sorted(range(len(heights)), key=heights.__getitem__, reverse=True):
            through = next((k for k, cap in starts[i] if not cap), None)
            others = tuple(start for start in starts[i] if start[0] != through)
            reached = tuple(ends[i])
            # A chain block with a pair (i, i2) is i's own, and holds i + 1.
            own_chain = through is not None and blocks[through].lower == blocks[through].upper
            successor = residues[i + 1] if own_chain and not others else None
            if successor is not None and successor != residues[i]:
                successors.append(successor)
            rows.append((
                heights[i],
                residues[i],
                through,
                shared.setdefault(others, others),
                shared.setdefault(reached, reached),
                successor,
            ))
        fixed = sum(row[5] is None for row in rows)
        return tuple(rows), tuple(reversed(row_steps)), step_cap, fixed, tuple(sorted(successors))

    @cached_property
    def uncertified(self) -> tuple[int, int] | None:
        """The first uncertified pair in ``pairs`` order, or None when every pair is certified.

        An uncertified pair is a non-reflexive pair of an inexact block
        whose lower end is not the block's bottom, so the first starts
        just above it.
        """
        for block in self.blocks:
            i = block.lower.start + 1
            if block.exact or i not in block.lower:
                continue
            j = max(i + 1, block.upper.start)
            if j in block.upper:
                return i, j
        return None

    def first_uncertified(self, upper: int) -> tuple[int, int] | None:
        """The first uncertified pair in ``pairs`` order whose upper end is ``upper``, or None."""
        for block in self.blocks:
            i = block.lower.start + 1
            if not block.exact and i in block.lower and i < upper and upper in block.upper:
                return i, upper
        return None

    @property
    def zero_stratum(self) -> Stratum:
        return self.strata[0]

    @property
    def top_stratum(self) -> Stratum:
        """The first stratum of height ``dim``.

        No stratum's height exceeds its position: the strata outside M
        (or the plain ones) sit at their heights, and D's chain over M
        starts at a position of at least m.  So that is position ``dim``
        when its height is ``dim``, and otherwise the last, the top of D's
        chain.
        """
        last = len(self.heights) - 1
        return self.strata[self.dim if self.heights[self.dim] == self.dim else last]

    @property
    def conductor_index(self) -> int:
        """Position of the conductor ideal M itself (pullbacks only).

        The strata containing M are D's chain 0..dim(D), listed last, M
        first; ``_check_summary`` holds a model to that.
        """
        pd = self.pullback_data
        if pd is None:
            raise ConstraintError("conductor stratum requested on a non-pullback summary")
        return len(self.kinds) - 1 - pd.dim_d

    @property
    def conductor_stratum(self) -> Stratum:
        return self.strata[self.conductor_index]

    def select(self, selector: str) -> Stratum:
        """Resolve a stratum selector: ``0``, ``M``, ``out:<h>`` or ``in:<e>``.

        ``0`` is the zero ideal, ``M`` the conductor stratum of a
        pullback (the top stratum otherwise).  ``out:<h>`` picks the
        height-h stratum outside M, or the plain height-h stratum of a
        non-pullback summary; ``in:<e>`` the stratum at D-height e over M.
        Heights rise by one per position along the strata outside M (or
        the plain ones) from the zero ideal, and along D's chain from M,
        so those are positions h and ``conductor_index + e``; the kind
        and height there are checked.
        """
        pd = self.pullback_data
        if selector == "0":
            return self.zero_stratum
        if selector == "M":
            return self.conductor_stratum if pd is not None else self.top_stratum
        if selector.startswith("out:"):
            kind = KIND_OUTSIDE if pd is not None else KIND_PLAIN
            i = height = _selector_index(selector)
        elif selector.startswith("in:"):
            if pd is None:
                raise ConstraintError(
                    f"selector {selector!r} needs a pullback summary"
                )
            kind = KIND_CONTAINS
            e = _selector_index(selector)
            i, height = self.conductor_index + e, pd.m + e
        else:
            raise ConstraintError(
                f"unknown stratum selector {selector!r} (use 0, M, out:<h> or in:<e>)"
            )
        if i < len(self.kinds) and self.kinds[i] == kind and self.heights[i] == height:
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


class Field(Record, namedtuple("Field", "td")):
    """Extension field of k with transcendence degree ``td``."""

    __slots__ = ()

    def __new__(cls, td):
        if td < 0:
            raise ConstraintError("field transcendence degree must be >= 0")
        return tuple.__new__(cls, (td,))


class AfDomain(Record, namedtuple("AfDomain", "td dim catenarian", defaults=(True,))):
    """Abstract AF-domain of transcendence degree ``td`` and dimension ``dim``.

    The model realizes the full canonical stratification: every height
    0..dim occurs, with residue transcendence degree td - h.  The
    ``catenarian`` flag gates which quotient pairs are certified.
    """

    __slots__ = ()

    def __new__(cls, td, dim, catenarian=True):
        if not 0 <= dim <= td:
            raise ConstraintError("AF-domain requires 0 <= dim <= td")
        return tuple.__new__(cls, (td, dim, catenarian))


class PolyRing(Record, namedtuple("PolyRing", "base n")):
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
        return tuple.__new__(cls, (base, n))


class Valuation(Record, namedtuple("Valuation", "td dim")):
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
        return tuple.__new__(cls, (td, dim))


class Pullback(Record, namedtuple("Pullback", "ambient m subring outside", defaults=(None,))):
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
        td_t, dim_t = expr_td(ambient), expr_dim(ambient)
        if m < 1:
            raise ConstraintError("pullback requires m >= 1")
        if m > dim_t:
            raise ConstraintError("m <= dim(T) violated")
        td_k = td_t - m
        if expr_td(subring) > td_k:
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
        return tuple.__new__(cls, (ambient, m, subring, outside))


AlgebraExpr = Field | AfDomain | PolyRing | Valuation | Pullback


def is_af_constructor(expr: AlgebraExpr) -> bool:
    return isinstance(expr, (Field, AfDomain, PolyRing, Valuation))


def expr_td(expr: AlgebraExpr) -> int:
    if isinstance(expr, (Field, AfDomain, Valuation)):
        return expr.td
    if isinstance(expr, PolyRing):
        return expr_td(expr.base) + expr.n
    if isinstance(expr, Pullback):
        return expr_td(expr.ambient)
    raise TypeError(f"not an algebra expression: {expr!r}")


def expr_dim(expr: AlgebraExpr) -> int:
    if isinstance(expr, Field):
        return 0
    if isinstance(expr, (AfDomain, Valuation)):
        return expr.dim
    if isinstance(expr, PolyRing):
        return expr_dim(expr.base) + expr.n
    if isinstance(expr, Pullback):
        return max(expr.outside, expr.m + expr_dim(expr.subring))
    raise TypeError(f"not an algebra expression: {expr!r}")


def expr_catenarian(expr: AlgebraExpr) -> bool:
    """Whether the model of the expression certifies all quotient pairs.

    A domain of dimension at most 1 is catenarian whatever its flag
    says: every nonzero prime is maximal and has height 1, so no two
    saturated chains between the same primes can differ in length.
    """
    if isinstance(expr, (Field, Valuation)):
        return True
    if isinstance(expr, AfDomain):
        return expr.catenarian or expr.dim <= 1
    if isinstance(expr, PolyRing):
        return expr_catenarian(expr.base)
    raise TypeError(f"no catenarity model for {expr!r}")


# --------------------------------------------------------------------------
# Compilation to summaries

# More than the distinct operands of any benchmark workload, so that
# the cache only stops a long-running process from growing without end.
# A cached summary keeps the views built on it, such as the chain
# oracle's O(S) ``walk_plan``, for as long as it stays cached.  The
# parser's memo of texts has the same bound.
SUMMARY_CACHE_SIZE = 4096

# Largest model summarize builds.  A model stores O(S) data, but at 2048
# strata an AF model has about 2.1M pairs, which ``spectrum`` and a fully
# tied witness list each walk one by one.  The chain oracle's work grows
# with the product of its two sides' strata, not with their pairs.
MAX_STRATA = 2048


@lru_cache(maxsize=SUMMARY_CACHE_SIZE)
def summarize(expr: AlgebraExpr) -> SpectrumSummary:
    """Compile an algebra expression into its stratified spectrum model."""
    if isinstance(expr, Field):
        return _summarize_af(expr.td, 0, True, f"field({expr.td})")
    if isinstance(expr, AfDomain):
        return _summarize_af(
            expr.td, expr.dim, expr_catenarian(expr), f"af({expr.td},{expr.dim})"
        )
    if isinstance(expr, Valuation):
        return _summarize_af(expr.td, expr.dim, True, f"val({expr.td},{expr.dim})")
    if isinstance(expr, PolyRing):
        td = expr_td(expr)
        dim = expr_dim(expr)
        return _summarize_af(td, dim, expr_catenarian(expr), f"poly[{td},{dim}]")
    if isinstance(expr, Pullback):
        return _summarize_pullback(expr)
    raise TypeError(f"not an algebra expression: {expr!r}")


def _check_size(n: int) -> None:
    if n > MAX_STRATA:
        raise ConstraintError(
            f"a spectrum model of {n} strata is over the limit of {MAX_STRATA}"
        )


def _summarize_af(td, dim, catenarian, source) -> SpectrumSummary:
    n = dim + 1
    _check_size(n)
    return _finish(
        td,
        kinds=(KIND_PLAIN,) * n,
        heights=tuple(range(n)),
        residues=tuple(td - h for h in range(n)),
        caps=(0,) * n,
        blocks=(PairBlock(range(n), range(n), 0, catenarian),),
        pullback_data=None,
        source=source,
    )


def _summarize_pullback(expr: Pullback) -> SpectrumSummary:
    td = expr_td(expr.ambient)
    m = expr.m
    td_k = td - m
    # D is an AF constructor, so its primes are the chain 0..dim(D) with
    # residues t.d.(D) - h, read from the constructor without compiling D.
    td_d, dim_d = expr_td(expr.subring), expr_dim(expr.subring)
    td_kd = td_k - td_d
    t_cat = expr_catenarian(expr.ambient)
    data = PullbackData(
        m=m,
        td_k=td_k,
        td_d=td_d,
        dim_d=dim_d,
        td_kd=td_kd,
        outside=expr.outside,
        ambient_catenarian=t_cat,
        conductor_is_top=(m == expr_dim(expr.ambient)),
    )

    # Strata outside M at heights 0..n_out-1, then one per stratum of D.
    # D's own size is refused first, with D's own count.
    n_out = max(m - 1, expr.outside) + 1
    n_in = dim_d + 1
    _check_size(n_in)
    _check_size(n_out + n_in)
    outside, inside = range(n_out), range(n_out, n_out + n_in)
    blocks = (
        PairBlock(outside, outside, 0, t_cat),
        # Primes at height >= m outside M are incomparable with M.
        PairBlock(range(m), inside, td_kd, t_cat),
        PairBlock(inside, inside, 0, expr_catenarian(expr.subring)),
    )
    return _finish(
        td,
        kinds=(KIND_OUTSIDE,) * n_out + (KIND_CONTAINS,) * n_in,
        heights=tuple(outside) + tuple(range(m, m + n_in)),
        residues=tuple(td - h for h in outside) + tuple(td_d - h for h in range(n_in)),
        caps=(0,) * n_out + (td_kd,) * n_in,
        blocks=blocks,
        pullback_data=data,
        source="pullback",
    )


def _finish(td, kinds, heights, residues, caps, blocks, pullback_data, source) -> SpectrumSummary:
    is_af = all(h + r == td and c == 0 for h, r, c in zip(heights, residues, caps))
    summary = SpectrumSummary(
        td=td,
        dim=max(heights),
        is_af=is_af,
        kinds=kinds,
        heights=heights,
        residues=residues,
        caps=caps,
        blocks=blocks,
        pullback_data=pullback_data,
        gates=_gates(is_af, pullback_data),
        source=source,
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
    """Internal coherence guards; violations are bugs, not user errors.

    The layout (``heights`` and the blocks' ranges) is checked once per
    distinct layout, by ``_read_layout``; the values on every call.

    The formulas take each maximum at a block's ends, which holds when,
    along each block's lower and upper range, residues and caps never
    rise and height + residue never falls, and each chain block has one
    cap.  Chain blocks are checked position by position.  The layout
    check refuses a product range that leaves a chain block, so the
    chain's own check vouches for every product range.
    """
    fault, chain_starts = _read_layout(summary.heights, *[block[:2] for block in summary.blocks])
    if fault:
        raise ConsistencyError(fault.format(*summary.blocks))

    heights, residues, caps, td = summary.heights, summary.residues, summary.caps, summary.td
    if (heights[0], residues[0], caps[0]) != (0, td, 0):
        raise ConsistencyError("stratum 0 must be the zero ideal (0, td, 0+min(n,0))")
    # Position 0 starts a chain block, so what r0, c0 and hr0 start as never counts.
    run_fault, r0, c0, hr0 = None, 0, 0, 0
    for i, (kind, h, r, c) in enumerate(zip(summary.kinds, heights, residues, caps)):
        if min(h, r, c) < 0:
            raise ConsistencyError(f"negative height, residue or cap at {summary.labels[i]}")
        hr = h + r
        if hr > td:
            raise ConsistencyError(f"height + residue_td > td at {summary.labels[i]}")
        # Every stratum then localizes (cap 0) or quotients (containsM: a
        # quotient of D) to an AF model, so the chain oracle may hold any
        # stratum fixed.
        if c > 0 and kind != KIND_CONTAINS:
            raise ConsistencyError(f"cap > 0 outside M at {summary.labels[i]}")
        if run_fault is None and i not in chain_starts and (r > r0 or c != c0 or hr < hr0):
            what = (
                "residue_td rises" if r > r0 else "cap changes" if c != c0
                else "height + residue_td falls"
            )
            labels = summary.labels
            run_fault = f"{what} from {labels[i - 1]} to {labels[i]} along a chain block"
        r0, c0, hr0 = r, c, hr
    for block in summary.blocks:
        if block.cap < 0:
            raise ConsistencyError(f"negative quotient cap in {block}")
        if block.lower == block.upper and block.cap:
            raise ConsistencyError(f"reflexive pairs of {block} need quotient cap 0")

    # The zero ideal lies under every prime, and A/(0) is A, so each pair
    # (0, j) is certified with stratum j's own cap; stratum 0 is then the
    # only one of height 0.  The chain oracle walks (0, 0) last and
    # returns its tail on the strength of this.
    caps_over_zero = {}
    for block in summary.blocks:
        if 0 in block.lower:
            caps_over_zero.update(dict.fromkeys(block.upper, block.cap))
    for j, c in enumerate(caps):
        if caps_over_zero.get(j) != c:
            raise ConsistencyError(
                f"{summary.labels[j]} must lie over the zero ideal by a pair of cap {c}"
            )

    if run_fault is not None:
        raise ConsistencyError(run_fault)

    if summary.pullback_data is not None:
        kinds = summary.kinds
        if KIND_CONTAINS not in kinds or kinds.index(KIND_CONTAINS) != summary.conductor_index:
            raise ConsistencyError("M must be the first of the last dim(D) + 1 strata")


# Keyed by exactly what it reads, and not by caps, which differ between
# almost all pullbacks: few layouts recur across many compiled models.
@lru_cache(maxsize=SUMMARY_CACHE_SIZE)
def _read_layout(heights: tuple[int, ...], *spans: tuple) -> tuple[str | None, frozenset]:
    """``(fault, chain_starts)``: what ``_check_summary`` and ``walk_plan`` need of a layout.

    ``spans`` holds each block's ``(lower, upper)`` ranges in storage
    order.  ``fault`` is the first fault in the layout, or None: a
    message in which ``{k}`` stands for block k.  ``chain_starts`` holds
    the first position of each chain block.
    """
    chains = [lower for lower, upper in spans if lower == upper]
    starts = frozenset(run.start for run in chains if run)
    if list(chain.from_iterable(chains)) != list(range(len(heights))):
        return "chain blocks must hold each reflexive pair once, by position", starts
    for k, (lower, upper) in enumerate(spans):
        # Distinct comparable primes differ in height, which the chain
        # oracle's bottom-up order relies on; the pair rule i <= j needs
        # the positions to rise as well.
        run = lower if lower == upper else chain(lower, upper)
        if any(j <= i or heights[j] <= heights[i] for i, j in pairwise(run)):
            return f"positions and heights do not rise strictly in {{{k}}}", starts
        # The formulas' block-end maxima and the chain oracle's row steps
        # take a product block's range as part of one chain block.  Chain
        # blocks hold the positions in order, so a range lies in one of
        # them unless a chain starts after its first position, at or
        # before its last.
        if lower != upper:
            for name, part in ("lower", lower), ("upper", upper):
                if part and any(part[0] < start <= part[-1] for start in starts):
                    return f"the {name} range of {{{k}}} leaves a chain block", starts
    # The chain oracle takes a row's advances block by block in reverse
    # storage order, reading each block's upper positions and raising its
    # lower ones; each block then reads finished values only if no block
    # stored before it raises a position it reads.  So the span of each
    # block's lower range must miss the upper range of every later block.
    for (k, (lower, _)), (later, (_, upper)) in combinations(enumerate(spans), 2):
        if lower and upper and lower[0] <= upper[-1] and upper[0] <= lower[-1]:
            return f"{{{k}}} raises positions that {{{later}}}, stored after it, reads", starts
    return None, starts


def is_af_poly(summary: SpectrumSummary, n: int) -> bool:
    """Whether the polynomial ring in n variables satisfies the altitude formula.

    True iff ht(p[n]) + t.d.(A/p) = t.d.(A) on every stratum.
    """
    if n < 0:
        raise ConstraintError("polynomial variable count must be >= 0")
    return all(
        h + min(n, c) + r == summary.td
        for h, r, c in zip(summary.heights, summary.residues, summary.caps)
    )
