"""Independent evaluators and an exhaustive chain enumerator.

Everything here validates the closed formulas from primitive facts
rather than from the formulas under test:

* ``brewer_poly_dim`` computes dim(A[n]) from the special chain
  decomposition ht(P) = ht(q[n]) + ht(P / q[n]).
* ``ext_field_dim`` computes dim(A ox k(s transcendentals)) as a
  localization of A[s].
* ``chain_enumerate`` searches exhaustively over anchored chains built
  from a small set of legal moves, each justified by a primitive fact
  about contractions and fibers.  Its maximum is a certified lower
  bound for dim(A ox B); the check suites assert it is tight on the
  whole catalog, so a formula bug shows up either as a violated bound
  or as a tightness failure, never as a silent pass.

Legal moves, for a chain of primes of A ox B organized by the anchor
(p, q) = (contraction to A, contraction to B):

1. initial jump to (p, q): length ht(q[t.d.(A)]) + ht(p) when the
   localization model at p is AF (cap 0), or symmetrically
   ht(p[t.d.(B)]) + ht(q) when the q side has cap 0;
2. advance q -> q' at fixed p: length ht((q'/q)[t.d.(A/p)]), legal
   when the fixed side localizes (cap 0) or quotients (contains the
   conductor, so A/p is a quotient of D) to an AF model;
3. the symmetric advance p -> p' at fixed q;
4. one final fiber segment at the last anchor, of length at most
   min(t.d.(A/p), t.d.(B/q)).

The moves read the summaries' position arrays directly and call no
formula code, so the enumerator stays independent of what it checks.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Callable, Iterator, Optional

from . import formulas
from .errors import ConstraintError, InexactPairError, KrulldimError
from .formulas import dim_tensor, fiber_dim, lambda_bound, thm28_ht
from .spectra import (
    KIND_CONTAINS,
    AfDomain,
    AlgebraExpr,
    Field,
    PolyRing,
    Pullback,
    SpectrumSummary,
    Stratum,
    Valuation,
    is_af_poly,
    summarize,
)

# Largest grid_max a check suite accepts: ``check all --grid-max 16``
# runs in about a second, and the grids grow as grid_max**4.
MAX_GRID = 16


@dataclass(frozen=True)
class AnchoredChain:
    """A chain of primes organized by contraction anchors.

    ``segment_lengths`` lists the initial jump, one entry per anchor
    advance, and the final fiber segment, in that order.
    """

    anchors: tuple[tuple[Stratum, Stratum], ...]
    segment_lengths: tuple[int, ...]

    @property
    def total(self) -> int:
        return sum(self.segment_lengths)

    @property
    def fiber_length(self) -> int:
        return self.segment_lengths[-1]


@dataclass(frozen=True)
class CheckFailure:
    inputs: str
    expected: str
    actual: str


@dataclass(frozen=True)
class CheckReport:
    suite: str
    cases: int
    failures: tuple[CheckFailure, ...]

    @property
    def passed(self) -> bool:
        return not self.failures


def brewer_poly_dim(a: SpectrumSummary, n: int) -> int:
    """dim(A[n]) = max over q of ht(q[n]) + n.

    The fiber of A[n] over q is a polynomial fiber of dimension n,
    realized by a maximal chain in the residue polynomial ring.
    """
    if n < 0:
        raise ConstraintError("polynomial variable count must be >= 0")
    return max(h + min(n, c) + n for h, c in zip(a.heights, a.caps))


def ext_field_dim(a: SpectrumSummary, s: int) -> int:
    """dim(A ox k(s transcendentals)) = max over q of ht(q[s]) + min(s, t.d.(A/q)).

    Computed as a localization of A[s]; the residue fiber contributes
    min(s, t.d.(A/q)) by the field-against-field formula.
    """
    if s < 0:
        raise ConstraintError("transcendence degree must be >= 0")
    return max(
        h + min(s, c) + min(s, r) for h, r, c in zip(a.heights, a.residues, a.caps)
    )


# --------------------------------------------------------------------------
# Chain enumeration


# Anchors are pairs (i, j) of stratum positions in A and in B.  A side
# held fixed during an advance must be ``fixable``: its localization
# (cap 0) or its quotient (containsM: a quotient of D) is an AF model.


def _initial_jump(a, b, i, j) -> Optional[int]:
    best = None
    if a.caps[i] == 0:
        best = b.heights[j] + min(a.td, b.caps[j]) + a.heights[i]
    if b.caps[j] == 0:
        v = a.heights[i] + min(b.td, a.caps[i]) + b.heights[j]
        best = v if best is None else max(best, v)
    return best


def _advances(a, b, i, j) -> Iterator[tuple[int, int, int]]:
    """(next i, next j, segment length) for every advance from anchor (i, j)."""
    if a.fixable[i]:
        r = a.residues[i]
        for j2, base, cap in b.ups[j]:
            if j2 != j:
                yield i, j2, base + min(r, cap)
    if b.fixable[j]:
        r = b.residues[j]
        for i2, base, cap in a.ups[i]:
            if i2 != i:
                yield i2, j, base + min(r, cap)


def _fiber(a, b, i, j) -> int:
    return min(a.residues[i], b.residues[j])


def _require_exact_sides(a, b):
    for side, summary in (("A", a), ("B", b)):
        if summary.inexact:
            raise InexactPairError(
                f"chain enumeration needs exact pair data; side {side} has "
                f"uncertified pair {summary.pair_label(*summary.inexact[0])}"
            )


def _by_height_desc(summary) -> list[int]:
    heights = summary.heights
    return sorted(range(len(heights)), key=heights.__getitem__, reverse=True)


def chain_enumerate(a: SpectrumSummary, b: SpectrumSummary) -> int:
    """Maximum total over all legal anchored chains: a lower bound for dim.

    ``tail[i * nb + j]`` is the longest run of advances plus the final
    fiber segment from anchor (i, j).  An advance moves one side to a
    distinct comparable stratum, which is higher, and keeps the other,
    so visiting A's strata by decreasing height, and B's by decreasing
    height within each, fills every anchor's successors first.
    """
    _require_exact_sides(a, b)
    na, nb = len(a.heights), len(b.heights)
    tail = [0] * (na * nb)
    order_b = _by_height_desc(b)
    for i in _by_height_desc(a):
        for j in order_b:
            best = _fiber(a, b, i, j)
            for i2, j2, gain in _advances(a, b, i, j):
                v = gain + tail[i2 * nb + j2]
                if v > best:
                    best = v
            tail[i * nb + j] = best

    best = 0
    for i, j in product(range(na), range(nb)):
        jump = _initial_jump(a, b, i, j)
        if jump is not None:
            best = max(best, jump + tail[i * nb + j])
    return best


def iter_chains(a: SpectrumSummary, b: SpectrumSummary) -> Iterator[AnchoredChain]:
    """Every legal anchored chain, each already carrying its fiber segment."""
    _require_exact_sides(a, b)
    sa, sb = a.strata, b.strata

    def walk(anchors, segments):
        i, j = anchors[-1]
        yield AnchoredChain(
            tuple((sa[x], sb[y]) for x, y in anchors),
            tuple(segments + [_fiber(a, b, i, j)]),
        )
        for i2, j2, gain in _advances(a, b, i, j):
            yield from walk(anchors + [(i2, j2)], segments + [gain])

    for i, j in product(range(len(sa)), range(len(sb))):
        jump = _initial_jump(a, b, i, j)
        if jump is not None:
            yield from walk([(i, j)], [jump])


def best_chain(a: SpectrumSummary, b: SpectrumSummary) -> AnchoredChain:
    return max(iter_chains(a, b), key=lambda c: c.total)


# --------------------------------------------------------------------------
# Catalog


def catalog() -> dict[str, AlgebraExpr]:
    """The named algebra expressions the check suites run over.

    Fields up to t.d. 3, the full AF grid up to t.d. 4, valuation
    towers up to dimension 3, polynomial rings, and pullbacks with
    conductor height up to 3 and t.d.(K:D) up to 2.
    """
    entries: dict[str, AlgebraExpr] = {}
    for t in range(4):
        entries[f"field{t}"] = Field(t)
    for t in range(5):
        for d in range(t + 1):
            entries[f"af{t}{d}"] = AfDomain(t, d)
    for t, d in [(2, 1), (3, 1), (3, 2), (4, 3)]:
        entries[f"val{t}{d}"] = Valuation(t, d)
    entries["poly1"] = PolyRing(Field(0), 1)
    entries["poly-f1-2"] = PolyRing(Field(1), 2)
    entries["poly-val21"] = PolyRing(Valuation(2, 1), 1)
    entries["kM"] = Pullback(Valuation(2, 1), 1, Field(0))
    entries["pb-val32"] = Pullback(Valuation(3, 2), 2, Field(0))
    entries["pb-val31"] = Pullback(Valuation(3, 1), 1, Field(0))
    entries["pb-val43"] = Pullback(Valuation(4, 3), 3, Field(0))
    entries["pb-val41-d11"] = Pullback(Valuation(4, 1), 1, AfDomain(1, 1))
    entries["pb-val42-f1"] = Pullback(Valuation(4, 2), 2, Field(1))
    entries["pb-af33-wide"] = Pullback(AfDomain(3, 3), 1, Field(1), outside=3)
    entries["pb-af32"] = Pullback(AfDomain(3, 2), 2, Field(0), outside=2)
    entries["pb-poly"] = Pullback(PolyRing(Valuation(2, 1), 1), 2, Field(0), outside=1)
    entries["pb-trivial"] = Pullback(Valuation(2, 1), 1, Field(1))
    return entries


def catalog_pullbacks() -> dict[str, AlgebraExpr]:
    return {k: v for k, v in catalog().items() if isinstance(v, Pullback)}


# Small operand set for the cubic-cost suites.
_GSCT_B_NAMES = ("field0", "field2", "af11", "af21", "af22", "val21", "kM", "pb-val41-d11")


# --------------------------------------------------------------------------
# Check suites


def _grid_default(grid_max, fallback):
    return fallback if grid_max is None else grid_max


def _report(suite, cases, failures):
    return CheckReport(suite=suite, cases=cases, failures=tuple(failures))


def _suite_sharp_grid(grid_max=None) -> CheckReport:
    g = _grid_default(grid_max, 6)
    cases, failures = 0, []
    for s in range(g + 1):
        for t in range(g + 1):
            cases += 1
            got = dim_tensor(Field(s), Field(t))
            if got.value != min(s, t) or got.theorem != formulas.THEOREM_SHARP:
                failures.append(
                    CheckFailure(f"field({s}) ox field({t})", str(min(s, t)), str(got.value))
                )
    return _report("sharp-grid", cases, failures)


def _af_grid_exprs(g):
    return [AfDomain(t, d) for t in range(g + 1) for d in range(t + 1)]


def _suite_af_grid(grid_max=None) -> CheckReport:
    g = _grid_default(grid_max, 4)
    cases, failures = 0, []
    exprs = _af_grid_exprs(g)
    for ea, eb in product(exprs, exprs):
        cases += 1
        sa, sb = summarize(ea), summarize(eb)
        want = formulas.af_pair_dim(sa, sb)
        d_ab = formulas.d_value(sa.td, sa.dim, sb)
        d_ba = formulas.d_value(sb.td, sb.dim, sa)
        got = dim_tensor(ea, eb).value
        if not want == d_ab == d_ba == got:
            failures.append(
                CheckFailure(
                    f"af({sa.td},{sa.dim}) ox af({sb.td},{sb.dim})",
                    str(want),
                    f"d_value {d_ab}/{d_ba}, dim_tensor {got}",
                )
            )
    return _report("af-grid", cases, failures)


def _suite_prop23(grid_max=None) -> CheckReport:
    cases, failures = 0, []
    for name, expr in catalog_pullbacks().items():
        summary = summarize(expr)
        c = summary.pullback_data.td_kd
        if c < 1:
            continue
        for n in range(c + 2):
            cases += 1
            want = n >= c
            got = is_af_poly(summary, n)
            if got != want:
                failures.append(
                    CheckFailure(f"is_af_poly({name}, {n})", str(want), str(got))
                )
    return _report("prop23", cases, failures)


def _suite_anchors(grid_max=None) -> CheckReport:
    """The pinned classical k+M values reached by three independent paths."""
    cases, failures = 0, []
    km = Pullback(Valuation(2, 1), 1, Field(0))
    poly1 = PolyRing(Field(0), 1)
    checks = [
        ("dim_tensor(kM, k[x])", lambda: dim_tensor(km, poly1).value, 3),
        ("theorem(kM, k[x])", lambda: dim_tensor(km, poly1).theorem, formulas.THEOREM_THM28),
        ("brewer_poly_dim(kM, 1)", lambda: brewer_poly_dim(summarize(km), 1), 3),
        ("chain_enumerate(kM, k[x])", lambda: chain_enumerate(summarize(km), summarize(poly1)), 3),
        ("dim_tensor(kM, kM)", lambda: dim_tensor(km, km).value, 3),
        ("theorem(kM, kM)", lambda: dim_tensor(km, km).theorem, formulas.THEOREM_THM28),
        (
            "pullback_pair_dim(kM, kM)",
            lambda: formulas.pullback_pair_dim(summarize(km), summarize(km)),
            3,
        ),
        ("chain_enumerate(kM, kM)", lambda: chain_enumerate(summarize(km), summarize(km)), 3),
    ]
    for label, fn, want in checks:
        cases += 1
        got = fn()
        if got != want:
            failures.append(CheckFailure(label, str(want), str(got)))
    return _report("anchors", cases, failures)


def _suite_gsct_identity(grid_max=None) -> CheckReport:
    """ht over (p, q) always splits as the mixed ideal height plus the fiber part.

    Also checks that every height stays below the tensor dimension and
    below the two-sided residue bound.
    """
    cases, failures = 0, []
    cat = catalog()
    for a_name, a_expr in catalog_pullbacks().items():
        sa = summarize(a_expr)
        for b_name in _GSCT_B_NAMES:
            sb = summarize(cat[b_name])
            ceiling = dim_tensor(a_expr, cat[b_name]).value
            for p, q in product(sa.strata, sb.strata):
                base = thm28_ht(sa, sb, p, q, 0)
                for delta in range(fiber_dim(p, q) + 1):
                    cases += 1
                    got = thm28_ht(sa, sb, p, q, delta)
                    where = f"{a_name} ox {b_name}, p={p.label}, q={q.label}, delta={delta}"
                    if got != base + delta:
                        failures.append(CheckFailure(where, str(base + delta), str(got)))
                    cap = min(ceiling, formulas.composed_height_bound(sa, sb, p, q))
                    if got > cap:
                        failures.append(CheckFailure(where, f"<= {cap}", str(got)))
    return _report("gsct-identity", cases, failures)


def _suite_prop24(grid_max=None) -> CheckReport:
    """Every certified pair satisfies lower height + quotient base <= upper height."""
    cases, failures = 0, []
    for name, expr in catalog().items():
        s = summarize(expr)
        for i, j, quot in s.pairs:
            if quot is None:
                continue
            cases += 1
            lhs = s.heights[i] + quot[0]
            if lhs > s.heights[j]:
                failures.append(
                    CheckFailure(f"{name}: {s.pair_label(i, j)}", f"<= {s.heights[j]}", str(lhs))
                )
    return _report("prop24", cases, failures)


def _suite_oracle_tightness(grid_max=None) -> CheckReport:
    """chain_enumerate <= dim_tensor everywhere, with equality on the catalog."""
    cases, failures = 0, []
    cat = catalog()
    for (a_name, ea), (b_name, eb) in product(cat.items(), cat.items()):
        cases += 1
        bound = chain_enumerate(summarize(ea), summarize(eb))
        value = dim_tensor(ea, eb).value
        if bound > value:
            failures.append(
                CheckFailure(f"{a_name} ox {b_name}", f"<= {value}", f"unsound bound {bound}")
            )
        elif bound < value:
            failures.append(
                CheckFailure(f"{a_name} ox {b_name}", str(value), f"loose bound {bound}")
            )
    return _report("oracle-tightness", cases, failures)


def _suite_brewer(grid_max=None) -> CheckReport:
    g = _grid_default(grid_max, 4)
    cases, failures = 0, []
    for name, expr in catalog().items():
        summary = summarize(expr)
        for n in range(g + 1):
            cases += 1
            want = brewer_poly_dim(summary, n)
            got = dim_tensor(expr, PolyRing(Field(0), n)).value
            if got != want:
                failures.append(CheckFailure(f"dim {name}[{n}]", str(want), str(got)))
    return _report("brewer", cases, failures)


def _suite_extfield(grid_max=None) -> CheckReport:
    g = _grid_default(grid_max, 4)
    cases, failures = 0, []
    for name, expr in catalog().items():
        summary = summarize(expr)
        for s in range(g + 1):
            cases += 1
            want = ext_field_dim(summary, s)
            via_d = formulas.d_value(s, 0, summary)
            got = dim_tensor(expr, Field(s)).value
            if not want == via_d == got:
                failures.append(
                    CheckFailure(
                        f"{name} ox field({s})", str(want), f"d_value {via_d}, dim_tensor {got}"
                    )
                )
    return _report("extfield", cases, failures)


def _suite_towers(grid_max=None) -> CheckReport:
    cases, failures = 0, []
    for d in range(1, 4):
        for t in range(d, 6):
            cases += 1
            summary = summarize(Valuation(t, d))
            if summary.dim != d or not summary.is_af:
                failures.append(
                    CheckFailure(f"val({t},{d})", f"dim {d}, AF", f"dim {summary.dim}, AF {summary.is_af}")
                )
    return _report("towers", cases, failures)


_LAMBDA_PAIR_NAMES = ("field2", "af21", "af22", "val21", "kM", "pb-val32", "pb-val41-d11")


def _suite_lambda(grid_max=None) -> CheckReport:
    """The zero-anchored bound dominates every chain that leaves B at (0).

    Covered shape: the chain starts over the zero ideal of B and keeps
    its B-contraction there at every anchor except possibly the last,
    so only one final advance and the fiber sit over a bigger prime of
    B.  Chains that climb B earlier legitimately exceed the bound.
    """
    cases, failures = 0, []
    cat = catalog()
    for a_name, b_name in product(_LAMBDA_PAIR_NAMES, _LAMBDA_PAIR_NAMES):
        sa, sb = summarize(cat[a_name]), summarize(cat[b_name])
        zero_b = sb.zero_stratum
        for chain in iter_chains(sa, sb):
            if chain.anchors[0][1] is not zero_b:
                continue
            if any(q is not zero_b for _, q in chain.anchors[:-1]):
                continue
            cases += 1
            p, q = chain.anchors[-1]
            bound = lambda_bound(sa, sb, p, q, fiber_dim(p, q))
            if chain.total > bound:
                failures.append(
                    CheckFailure(
                        f"{a_name} ox {b_name}, anchors "
                        + "->".join(f"({x.label},{y.label})" for x, y in chain.anchors),
                        f"<= {bound}",
                        str(chain.total),
                    )
                )
    return _report("lambda", cases, failures)


def _suite_specialization(grid_max=None) -> CheckReport:
    """The inner conductor maximum dominates both special chain products."""
    cases, failures = 0, []
    cat = catalog()
    for a_name, a_expr in catalog_pullbacks().items():
        sa = summarize(a_expr)
        for b_name in _GSCT_B_NAMES:
            sb = summarize(cat[b_name])
            for p in sa.strata:
                if p.kind != KIND_CONTAINS:
                    continue
                for q in sb.strata:
                    cases += 1
                    ht = thm28_ht(sa, sb, p, q, 0)
                    # ht(q[t.d.(A)]) + ht(p[t.d.(B/q)]) and ht(p[t.d.(B)]) + ht(q[t.d.(A/p)])
                    lhs1 = q.height + min(sa.td, q.cap) + p.height + min(q.residue_td, p.cap)
                    lhs2 = p.height + min(sb.td, p.cap) + q.height + min(p.residue_td, q.cap)
                    if max(lhs1, lhs2) > ht:
                        failures.append(
                            CheckFailure(
                                f"{a_name} ox {b_name}, p={p.label}, q={q.label}",
                                f">= {max(lhs1, lhs2)}",
                                str(ht),
                            )
                        )
    return _report("specialization", cases, failures)


def _suite_symmetry(grid_max=None) -> CheckReport:
    cases, failures = 0, []
    cat = catalog()
    names = list(cat)
    for i, a_name in enumerate(names):
        for b_name in names[i:]:
            cases += 1
            ab = dim_tensor(cat[a_name], cat[b_name]).value
            ba = dim_tensor(cat[b_name], cat[a_name]).value
            if ab != ba:
                failures.append(CheckFailure(f"{a_name} ox {b_name}", str(ab), str(ba)))
    return _report("symmetry", cases, failures)


def _monotone_families():
    yield "td via af", [AfDomain(t, 1) for t in range(1, 5)]
    yield "dim via af", [AfDomain(4, d) for d in range(5)]
    yield "td via pullback", [Pullback(Valuation(t, 1), 1, Field(0)) for t in range(2, 5)]
    yield "m via pullback", [Pullback(Valuation(m + 1, m), m, Field(0)) for m in range(1, 4)]
    yield "dim(D) via pullback", [
        Pullback(Valuation(4, 1), 1, AfDomain(1, e)) for e in range(2)
    ]


def _suite_monotonicity(grid_max=None) -> CheckReport:
    cases, failures = 0, []
    cat = catalog()
    partners = [cat[name] for name in ("field1", "af11", "kM")]
    for family_name, family in _monotone_families():
        for b in partners:
            values = [dim_tensor(a, b).value for a in family]
            cases += 1
            if any(x > y for x, y in zip(values, values[1:])):
                failures.append(
                    CheckFailure(f"{family_name} against {b!r}", "nondecreasing", str(values))
                )
    return _report("monotonicity", cases, failures)


_SUITES: dict[str, Callable[[Optional[int]], CheckReport]] = {
    "sharp-grid": _suite_sharp_grid,
    "af-grid": _suite_af_grid,
    "prop23": _suite_prop23,
    "anchors": _suite_anchors,
    "gsct-identity": _suite_gsct_identity,
    "prop24": _suite_prop24,
    "oracle-tightness": _suite_oracle_tightness,
    "brewer": _suite_brewer,
    "extfield": _suite_extfield,
    "towers": _suite_towers,
    "lambda": _suite_lambda,
    "specialization": _suite_specialization,
    "symmetry": _suite_symmetry,
    "monotonicity": _suite_monotonicity,
}


def suite_names() -> tuple[str, ...]:
    return tuple(_SUITES)


def run_suite(name: str, grid_max: Optional[int] = None) -> CheckReport:
    """Run one named check suite (or ``all``) over its deterministic grid.

    ``grid_max`` sizes the grid suites and must lie in 0..MAX_GRID.
    """
    if grid_max is not None and not 0 <= grid_max <= MAX_GRID:
        raise ConstraintError(f"grid_max must lie in 0..{MAX_GRID}, got {grid_max}")
    if name == "all":
        cases, failures = 0, []
        for sub in _SUITES:
            report = _SUITES[sub](grid_max)
            cases += report.cases
            failures.extend(
                CheckFailure(f"{sub}: {f.inputs}", f.expected, f.actual)
                for f in report.failures
            )
        return _report("all", cases, failures)
    if name not in _SUITES:
        known = ", ".join([*_SUITES, "all"])
        raise KrulldimError(f"unknown suite {name!r} (known: {known})")
    return _SUITES[name](grid_max)
