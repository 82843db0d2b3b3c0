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
level only.

A summary stores its model by position.  Stratum ``i`` is described by
``kinds[i]``, ``heights[i]``, ``residues[i]`` (residue transcendence
degree), ``caps[i]`` (ht(p[n]) = height + min(n, cap)) and
``fixable[i]``.  Position 0 is the zero ideal.  An AF model lists its
strata by height; a pullback lists the strata outside M by height, then
those containing M by D-height, the conductor M itself first among them.
Comparable pairs are adjacency lists of int tuples: ``ups[i]`` holds
``(j, quot_base, quot_cap)`` for every certified pair i <= j, including
the reflexive one, each pair stored once.  The quotient height of a
pair is n -> quot_base + min(n, quot_cap).  Pairs present but not
certified are listed in ``inexact`` as ``(i, j)``.  These arrays are the
model; the formulas and the oracle read them.  Two views are built on
first use: ``strata``, one ``Stratum`` per position (the only object
view), and ``pairs``, every comparable pair as a triple
``(i, j, (quot_base, quot_cap))``, or ``(i, j, None)`` if uncertified.

A model of S strata holds up to S(S+1)/2 pairs, so ``summarize``
refuses, with ``ConstraintError``, an expression whose model would have
more than ``MAX_STRATA`` strata.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from itertools import chain, count
from typing import Optional, Union

from .errors import ConsistencyError, ConstraintError

# Longest decimal numeral accepted in an expression or a selector, far
# below the interpreter's limit on converting digit strings to int.
MAX_DIGITS = 100

KIND_PLAIN = "plain"
KIND_OUTSIDE = "outsideM"
KIND_CONTAINS = "containsM"


@dataclass(frozen=True)
class Stratum:
    """View of position ``index`` of a summary: primes of one height and residue t.d.

    Their heights in polynomial extensions are ht(p[n]) = height +
    min(n, cap).  ``kind`` records the position relative to the
    conductor ideal M of a pullback ("outsideM" / "containsM");
    non-pullback strata are "plain".  ``label`` is the display name.
    Each summary builds its strata once, and the height formulas accept
    only the objects of the summary they are given.
    """

    index: int
    kind: str
    height: int
    residue_td: int
    cap: int
    label: str


@dataclass(frozen=True)
class PullbackData:
    """Numeric data of the pullback a summary was compiled from.

    ``m`` is the height of the conductor maximal ideal M, ``outside``
    the top height among primes of T not containing M, ``td_kd`` the
    transcendence degree of K over D.  ``conductor_is_top`` records
    whether ht(M) = dim(T), the hypothesis of the two-sided pullback
    formula; ``ambient_catenarian`` whether the T model is catenarian.
    """

    m: int
    td_k: int
    td_d: int
    dim_d: int
    td_kd: int
    outside: int
    ambient_catenarian: bool
    conductor_is_top: bool


Pair = tuple[int, int, int]


@dataclass(frozen=True)
class SpectrumSummary:
    """Finite stratified model of Spec of a constructor expression.

    The model is stored by position (see the module docstring).
    ``fixable[i]`` says that the localization at stratum i (cap 0) or
    the quotient by it (containsM: a quotient of D) is an AF model.
    ``source`` names the constructor for provenance strings only.
    """

    td: int
    dim: int
    is_af: bool
    kinds: tuple[str, ...]
    heights: tuple[int, ...]
    residues: tuple[int, ...]
    caps: tuple[int, ...]
    fixable: tuple[bool, ...]
    ups: tuple[tuple[Pair, ...], ...]
    inexact: tuple[tuple[int, int], ...]
    pullback_data: Optional[PullbackData] = None
    source: str = field(default="", compare=False)

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

    @cached_property
    def pairs(self) -> tuple[tuple[int, int, Optional[tuple[int, int]]], ...]:
        """Every comparable pair in ``pair_key`` order.

        A certified pair is ``(i, j, (quot_base, quot_cap))``, an
        uncertified one ``(i, j, None)``.
        """
        found = [
            (i, j, (base, cap)) for i, row in enumerate(self.ups) for j, base, cap in row
        ]
        found += [(i, j, None) for i, j in self.inexact]
        found.sort(key=lambda pair: self.pair_key(pair[0], pair[1]))
        return tuple(found)

    @property
    def zero_stratum(self) -> Stratum:
        return self.strata[0]

    @property
    def top_stratum(self) -> Stratum:
        return self.strata[self.heights.index(self.dim)]

    @property
    def conductor_index(self) -> int:
        """Position of the conductor ideal M itself (pullbacks only)."""
        if self.pullback_data is None:
            raise ConstraintError("conductor stratum requested on a non-pullback summary")
        return self.kinds.index(KIND_CONTAINS)

    @property
    def conductor_stratum(self) -> Stratum:
        return self.strata[self.conductor_index]

    def select(self, selector: str) -> Stratum:
        """Resolve a stratum selector: ``0``, ``M``, ``out:<h>`` or ``in:<e>``.

        ``0`` is the zero ideal, ``M`` the conductor stratum of a
        pullback (the top stratum otherwise).  ``out:<h>`` picks the
        height-h stratum outside M, or the plain height-h stratum of a
        non-pullback summary; ``in:<e>`` the stratum at D-height e over M.
        """
        pd = self.pullback_data
        if selector == "0":
            return self.zero_stratum
        if selector == "M":
            return self.conductor_stratum if pd is not None else self.top_stratum
        if selector.startswith("out:"):
            kind = KIND_OUTSIDE if pd is not None else KIND_PLAIN
            height = _selector_index(selector)
        elif selector.startswith("in:"):
            if pd is None:
                raise ConstraintError(
                    f"selector {selector!r} needs a pullback summary"
                )
            kind = KIND_CONTAINS
            height = pd.m + _selector_index(selector)
        else:
            raise ConstraintError(
                f"unknown stratum selector {selector!r} (use 0, M, out:<h> or in:<e>)"
            )
        for i, (k, h) in enumerate(zip(self.kinds, self.heights)):
            if k == kind and h == height:
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


@dataclass(frozen=True)
class Field:
    """Extension field of k with transcendence degree ``td``."""

    td: int

    def __post_init__(self):
        if self.td < 0:
            raise ConstraintError("field transcendence degree must be >= 0")


@dataclass(frozen=True)
class AfDomain:
    """Abstract AF-domain of transcendence degree ``td`` and dimension ``dim``.

    The model realizes the full canonical stratification: every height
    0..dim occurs, with residue transcendence degree td - h.  The
    ``catenarian`` flag gates which quotient pairs are certified.
    """

    td: int
    dim: int
    catenarian: bool = True

    def __post_init__(self):
        if not 0 <= self.dim <= self.td:
            raise ConstraintError("AF-domain requires 0 <= dim <= td")


@dataclass(frozen=True)
class PolyRing:
    """Polynomial ring in ``n`` variables over an AF constructor."""

    base: "AlgebraExpr"
    n: int

    def __post_init__(self):
        if self.n < 0:
            raise ConstraintError("polynomial ring needs n >= 0 variables")
        if not is_af_constructor(self.base):
            raise ConstraintError(
                "polynomial ring base must be an AF constructor "
                "(field, af, val or poly); pullbacks are not supported"
            )


@dataclass(frozen=True)
class Valuation:
    """K+M valuation domain: an AF-domain with chain spectrum.

    ``td`` is the transcendence degree, ``dim`` the rank; the residue
    field has transcendence degree td - dim.
    """

    td: int
    dim: int

    def __post_init__(self):
        if self.dim < 1:
            raise ConstraintError("valuation domain requires dim >= 1")
        if self.dim > self.td:
            raise ConstraintError("valuation domain requires dim <= td")


@dataclass(frozen=True)
class Pullback:
    """The pullback phi^-1(D) of D <= K = T/M along phi: T -> K.

    ``m`` is the height of the maximal ideal M of T; ``outside`` the top
    height among primes of T not containing M.  For a valuation T the
    spectrum is a chain, so m must equal dim(T) and outside is forced to
    m - 1 (it may be omitted).  T and D must be AF constructors; nesting
    pullbacks is rejected because a pullback with t.d.(K:D) > 0 is never
    an AF-domain.
    """

    ambient: "AlgebraExpr"
    m: int
    subring: "AlgebraExpr"
    outside: Optional[int] = None

    def __post_init__(self):
        if not is_af_constructor(self.ambient):
            raise ConstraintError(
                "pullback T must be an AF constructor (field, af, val or poly)"
            )
        if not is_af_constructor(self.subring):
            raise ConstraintError(
                "pullback D must be an AF constructor (field, af, val or poly)"
            )
        td_t, dim_t = expr_td(self.ambient), expr_dim(self.ambient)
        if self.m < 1:
            raise ConstraintError("pullback requires m >= 1")
        if self.m > dim_t:
            raise ConstraintError("m <= dim(T) violated")
        td_k = td_t - self.m
        if expr_td(self.subring) > td_k:
            raise ConstraintError("t.d.(D) <= t.d.(K) violated")
        if isinstance(self.ambient, Valuation):
            if self.m != dim_t:
                raise ConstraintError(
                    "valuation T has a unique maximal ideal: m = dim(T) required"
                )
            forced = self.m - 1
            if self.outside is None:
                object.__setattr__(self, "outside", forced)
            elif self.outside != forced:
                raise ConstraintError(
                    "valuation T has chain spectrum: outside = m - 1 forced"
                )
        else:
            if self.outside is None:
                raise ConstraintError("outside required for non-valuation T")
            if self.outside < self.m - 1:
                raise ConstraintError("outside >= m - 1 violated")
            if self.outside > dim_t:
                raise ConstraintError("outside <= dim(T) violated")


AlgebraExpr = Union[Field, AfDomain, PolyRing, Valuation, Pullback]


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
SUMMARY_CACHE_SIZE = 4096

# Largest model summarize builds.  An AF model of S strata holds
# S(S+1)/2 pairs: at 2048 strata that is about 2.1M pairs, built in
# about a second.
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


class _PairLists:
    """Comparable pairs of n strata, sorted into adjacency lists as found.

    ``quot`` is (base, cap) for a certified pair and None otherwise.
    """

    def __init__(self, n: int):
        if n > MAX_STRATA:
            raise ConstraintError(
                f"a spectrum model of {n} strata is over the limit of {MAX_STRATA}"
            )
        self.ups: list[list[Pair]] = [[] for _ in range(n)]
        self.inexact: list[tuple[int, int]] = []

    def add(self, i: int, j: int, quot: Optional[tuple[int, int]]) -> None:
        if quot is None:
            self.inexact.append((i, j))
        else:
            self.ups[i].append((j, *quot))

    def add_chain(self, n: int, catenarian: bool) -> None:
        """Pairs among strata 0..n-1 at heights 0..n-1 of an AF model.

        Without catenarity only pairs from the zero ideal and reflexive
        pairs are certified.
        """
        for i in range(n):
            for j in range(i, n):
                exact = catenarian or i == j or i == 0
                self.add(i, j, (j - i, 0) if exact else None)


def _summarize_af(td, dim, catenarian, source) -> SpectrumSummary:
    n = dim + 1
    pairs = _PairLists(n)
    pairs.add_chain(n, catenarian)
    return _finish(
        td,
        kinds=(KIND_PLAIN,) * n,
        heights=tuple(range(n)),
        residues=tuple(td - h for h in range(n)),
        caps=(0,) * n,
        pairs=pairs,
        pullback_data=None,
        source=source,
    )


def _summarize_pullback(expr: Pullback) -> SpectrumSummary:
    td = expr_td(expr.ambient)
    m = expr.m
    td_k = td - m
    sub = summarize(expr.subring)
    td_kd = td_k - sub.td
    t_cat = expr_catenarian(expr.ambient)
    data = PullbackData(
        m=m,
        td_k=td_k,
        td_d=sub.td,
        dim_d=sub.dim,
        td_kd=td_kd,
        outside=expr.outside,
        ambient_catenarian=t_cat,
        conductor_is_top=(m == expr_dim(expr.ambient)),
    )

    # Strata outside M at heights 0..n_out-1, then one per stratum of D.
    n_out = max(m - 1, expr.outside) + 1
    n_in = len(sub.heights)
    pairs = _PairLists(n_out + n_in)
    pairs.add_chain(n_out, t_cat)
    # Primes at height >= m outside M are incomparable with M.
    for i in range(m):
        exact = t_cat or i == 0
        for e, d_height in enumerate(sub.heights):
            pairs.add(i, n_out + e, (m - i + d_height, td_kd) if exact else None)
    for i, row in enumerate(sub.ups):
        for j, base, cap in row:
            pairs.add(n_out + i, n_out + j, (base, cap))
    for i, j in sub.inexact:
        pairs.add(n_out + i, n_out + j, None)

    return _finish(
        td,
        kinds=(KIND_OUTSIDE,) * n_out + (KIND_CONTAINS,) * n_in,
        heights=tuple(range(n_out)) + tuple(m + h for h in sub.heights),
        residues=tuple(td - h for h in range(n_out)) + sub.residues,
        caps=(0,) * n_out + (td_kd,) * n_in,
        pairs=pairs,
        pullback_data=data,
        source="pullback",
    )


def _finish(
    td, kinds, heights, residues, caps, pairs: _PairLists, pullback_data, source
) -> SpectrumSummary:
    summary = SpectrumSummary(
        td=td,
        dim=max(heights),
        is_af=all(h + r == td and c == 0 for h, r, c in zip(heights, residues, caps)),
        kinds=kinds,
        heights=heights,
        residues=residues,
        caps=caps,
        fixable=tuple(c == 0 or k == KIND_CONTAINS for c, k in zip(caps, kinds)),
        ups=tuple(map(tuple, pairs.ups)),
        inexact=tuple(pairs.inexact),
        pullback_data=pullback_data,
        source=source,
    )
    _check_summary(summary)
    return summary


def _check_summary(summary: SpectrumSummary) -> None:
    """Internal coherence guards; violations are bugs, not user errors."""
    heights = summary.heights
    if (heights[0], summary.residues[0], summary.caps[0]) != (0, summary.td, 0):
        raise ConsistencyError("stratum 0 must be the zero ideal (0, td, 0+min(n,0))")
    for i, (h, r, c) in enumerate(zip(heights, summary.residues, summary.caps)):
        if min(h, r, c) < 0:
            raise ConsistencyError(f"negative height, residue or cap at {summary.labels[i]}")
        if h + r > summary.td:
            raise ConsistencyError(f"height + residue_td > td at {summary.labels[i]}")
        if (i, 0, 0) not in summary.ups[i]:
            raise ConsistencyError(f"missing reflexive pair for {summary.labels[i]}")
    certified = (
        (i, j, base, cap) for i, row in enumerate(summary.ups) for j, base, cap in row
    )
    uncertified = ((i, j, 0, 0) for i, j in summary.inexact)
    for i, j, base, cap in chain(certified, uncertified):
        if base < 0 or cap < 0:
            raise ConsistencyError(f"negative quotient data at pair {summary.pair_label(i, j)}")
        if i == j and (base, cap) != (0, 0):
            raise ConsistencyError(
                f"reflexive pair {summary.pair_label(i, j)} needs quotient (0, 0)"
            )
        # Distinct comparable primes differ in height; the chain oracle's
        # bottom-up order relies on it.
        if i != j and heights[i] >= heights[j]:
            raise ConsistencyError(f"pair {summary.pair_label(i, j)} does not rise in height")
        if heights[i] + base > heights[j]:
            raise ConsistencyError(
                f"quotient base {base} exceeds height gap of pair {summary.pair_label(i, j)}"
            )


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
