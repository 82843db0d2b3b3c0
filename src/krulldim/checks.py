"""The catalog and the check suites that hold the formulas to the oracle.

Each suite is a generator of cases, one ``(inputs, expected, actual,
passed)`` per case; a grid suite takes its grid size.  ``run_suite``
alone counts the cases and turns each one that did not pass into a
``CheckFailure``.  The suites compare the closed formulas with the
independent evaluators and the chain enumerator of ``oracle``, which
imports none of the formula code this module does.
"""
from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterator
from itertools import product

from . import formulas
from .errors import ConstraintError, KrulldimError
from .formulas import dim_tensor, fiber_dim, lambda_bound, thm28_ht
from .oracle import brewer_poly_dim, chain_enumerate, ext_field_dim, iter_chains
from .spectra import (
    KIND_CONTAINS,
    AfDomain,
    AlgebraExpr,
    Field,
    PolyRing,
    Pullback,
    Record,
    Valuation,
    is_af_poly,
    summarize,
)

# Largest grid_max a check suite accepts: ``check all --grid-max 16``
# runs in about a second, and the grids grow as grid_max**4.
MAX_GRID = 16

# One case of a suite: (inputs, expected, actual, passed).
Case = tuple[str, object, object, bool]


class CheckFailure(Record, namedtuple("CheckFailure", "inputs expected actual")):
    __slots__ = ()


class CheckReport(Record, namedtuple("CheckReport", "suite cases failures")):
    __slots__ = ()

    @property
    def passed(self) -> bool:
        return not self.failures


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


def _suite_sharp_grid(g: int) -> Iterator[Case]:
    for s in range(g + 1):
        for t in range(g + 1):
            got = dim_tensor(Field(s), Field(t))
            want = min(s, t)
            passed = got.value == want and got.theorem == formulas.THEOREM_SHARP
            yield f"field({s}) ox field({t})", want, got.value, passed


def _suite_af_grid(g: int) -> Iterator[Case]:
    exprs = [AfDomain(t, d) for t in range(g + 1) for d in range(t + 1)]
    for ea, eb in product(exprs, exprs):
        sa, sb = summarize(ea), summarize(eb)
        want = formulas.af_pair_dim(sa, sb)
        d_ab = formulas.d_value(sa.td, sa.dim, sb)
        d_ba = formulas.d_value(sb.td, sb.dim, sa)
        got = dim_tensor(ea, eb).value
        yield (
            f"af({sa.td},{sa.dim}) ox af({sb.td},{sb.dim})",
            want,
            f"d_value {d_ab}/{d_ba}, dim_tensor {got}",
            want == d_ab == d_ba == got,
        )


def _suite_prop23() -> Iterator[Case]:
    for name, expr in catalog_pullbacks().items():
        summary = summarize(expr)
        c = summary.pullback_data.td_kd
        if c < 1:
            continue
        for n in range(c + 2):
            got = is_af_poly(summary, n)
            yield f"is_af_poly({name}, {n})", n >= c, got, got == (n >= c)


def _suite_anchors() -> Iterator[Case]:
    """The pinned classical k+M values reached by three independent paths."""
    km = Pullback(Valuation(2, 1), 1, Field(0))
    poly1 = PolyRing(Field(0), 1)
    s_km, s_poly1 = summarize(km), summarize(poly1)
    km_poly1, km_km = dim_tensor(km, poly1), dim_tensor(km, km)
    for label, got, want in (
        ("dim_tensor(kM, k[x])", km_poly1.value, 3),
        ("theorem(kM, k[x])", km_poly1.theorem, formulas.THEOREM_THM28),
        ("brewer_poly_dim(kM, 1)", brewer_poly_dim(s_km, 1), 3),
        ("chain_enumerate(kM, k[x])", chain_enumerate(s_km, s_poly1), 3),
        ("dim_tensor(kM, kM)", km_km.value, 3),
        ("theorem(kM, kM)", km_km.theorem, formulas.THEOREM_THM28),
        ("pullback_pair_dim(kM, kM)", formulas.pullback_pair_dim(s_km, s_km), 3),
        ("chain_enumerate(kM, kM)", chain_enumerate(s_km, s_km), 3),
    ):
        yield label, want, got, got == want


def _suite_gsct_identity() -> Iterator[Case]:
    """ht over (p, q) always splits as the mixed ideal height plus the fiber part.

    Each case also checks that the height stays below the tensor
    dimension and below the two-sided residue bound.
    """
    cat = catalog()
    for a_name, a_expr in catalog_pullbacks().items():
        sa = summarize(a_expr)
        for b_name in _GSCT_B_NAMES:
            sb = summarize(cat[b_name])
            ceiling = dim_tensor(a_expr, cat[b_name]).value
            for p, q in product(sa.strata, sb.strata):
                base = thm28_ht(sa, sb, p, q, 0)
                cap = min(ceiling, formulas.composed_height_bound(sa, sb, p, q))
                for delta in range(fiber_dim(p, q) + 1):
                    got = thm28_ht(sa, sb, p, q, delta)
                    yield (
                        f"{a_name} ox {b_name}, p={p.label}, q={q.label}, delta={delta}",
                        f"{base + delta}, <= {cap}",
                        got,
                        got == base + delta and got <= cap,
                    )


def _suite_prop24() -> Iterator[Case]:
    """Every certified pair satisfies lower height + quotient base <= upper height."""
    for name, expr in catalog().items():
        s = summarize(expr)
        for i, j, quot in s.iter_pairs():
            if quot is not None:
                lhs, top = s.heights[i] + quot[0], s.heights[j]
                yield f"{name}: {s.pair_label(i, j)}", f"<= {top}", lhs, lhs <= top


def _suite_oracle_tightness() -> Iterator[Case]:
    """chain_enumerate <= dim_tensor everywhere, with equality on the catalog."""
    cat = catalog()
    for (a_name, ea), (b_name, eb) in product(cat.items(), cat.items()):
        bound = chain_enumerate(summarize(ea), summarize(eb))
        value = dim_tensor(ea, eb).value
        if bound > value:
            yield f"{a_name} ox {b_name}", f"<= {value}", f"unsound bound {bound}", False
        else:
            yield f"{a_name} ox {b_name}", value, f"loose bound {bound}", bound == value


def _suite_brewer(g: int) -> Iterator[Case]:
    for name, expr in catalog().items():
        summary = summarize(expr)
        for n in range(g + 1):
            want = brewer_poly_dim(summary, n)
            got = dim_tensor(expr, PolyRing(Field(0), n)).value
            yield f"dim {name}[{n}]", want, got, got == want


def _suite_extfield(g: int) -> Iterator[Case]:
    for name, expr in catalog().items():
        summary = summarize(expr)
        for s in range(g + 1):
            want = ext_field_dim(summary, s)
            via_d = formulas.d_value(s, 0, summary)
            got = dim_tensor(expr, Field(s)).value
            yield (
                f"{name} ox field({s})",
                want,
                f"d_value {via_d}, dim_tensor {got}",
                want == via_d == got,
            )


def _suite_towers() -> Iterator[Case]:
    for d in range(1, 4):
        for t in range(d, 6):
            summary = summarize(Valuation(t, d))
            yield (
                f"val({t},{d})",
                f"dim {d}, AF",
                f"dim {summary.dim}, AF {summary.is_af}",
                summary.dim == d and summary.is_af,
            )


_LAMBDA_PAIR_NAMES = ("field2", "af21", "af22", "val21", "kM", "pb-val32", "pb-val41-d11")


def _suite_lambda() -> Iterator[Case]:
    """The zero-anchored bound dominates every chain that leaves B at (0).

    Covered shape: the chain starts over the zero ideal of B and keeps
    its B-contraction there at every anchor except possibly the last,
    so only one final advance and the fiber sit over a bigger prime of
    B.  Chains that climb B earlier legitimately exceed the bound.
    """
    cat = catalog()
    for a_name, b_name in product(_LAMBDA_PAIR_NAMES, _LAMBDA_PAIR_NAMES):
        sa, sb = summarize(cat[a_name]), summarize(cat[b_name])
        zero_b = sb.zero_stratum
        for chain in iter_chains(sa, sb):
            if chain.anchors[0][1] is not zero_b:
                continue
            if any(q is not zero_b for _, q in chain.anchors[:-1]):
                continue
            p, q = chain.anchors[-1]
            bound = lambda_bound(sa, sb, p, q, fiber_dim(p, q))
            yield (
                f"{a_name} ox {b_name}, anchors "
                + "->".join(f"({x.label},{y.label})" for x, y in chain.anchors),
                f"<= {bound}",
                chain.total,
                chain.total <= bound,
            )


def _suite_specialization() -> Iterator[Case]:
    """The inner conductor maximum dominates both special chain products."""
    cat = catalog()
    for a_name, a_expr in catalog_pullbacks().items():
        sa = summarize(a_expr)
        for b_name in _GSCT_B_NAMES:
            sb = summarize(cat[b_name])
            for p in sa.strata:
                if p.kind != KIND_CONTAINS:
                    continue
                for q in sb.strata:
                    ht = thm28_ht(sa, sb, p, q, 0)
                    # ht(q[t.d.(A)]) + ht(p[t.d.(B/q)]) and ht(p[t.d.(B)]) + ht(q[t.d.(A/p)])
                    lhs1 = q.height + min(sa.td, q.cap) + p.height + min(q.residue_td, p.cap)
                    lhs2 = p.height + min(sb.td, p.cap) + q.height + min(p.residue_td, q.cap)
                    low = max(lhs1, lhs2)
                    where = f"{a_name} ox {b_name}, p={p.label}, q={q.label}"
                    yield where, f">= {low}", ht, low <= ht


def _suite_symmetry() -> Iterator[Case]:
    cat = catalog()
    names = list(cat)
    for i, a_name in enumerate(names):
        for b_name in names[i:]:
            ab = dim_tensor(cat[a_name], cat[b_name]).value
            ba = dim_tensor(cat[b_name], cat[a_name]).value
            yield f"{a_name} ox {b_name}", ab, ba, ab == ba


def _monotone_families():
    yield "td via af", [AfDomain(t, 1) for t in range(1, 5)]
    yield "dim via af", [AfDomain(4, d) for d in range(5)]
    yield "td via pullback", [Pullback(Valuation(t, 1), 1, Field(0)) for t in range(2, 5)]
    yield "m via pullback", [Pullback(Valuation(m + 1, m), m, Field(0)) for m in range(1, 4)]
    yield "dim(D) via pullback", [
        Pullback(Valuation(4, 1), 1, AfDomain(1, e)) for e in range(2)
    ]


def _suite_monotonicity() -> Iterator[Case]:
    cat = catalog()
    partners = [cat[name] for name in ("field1", "af11", "kM")]
    for family_name, family in _monotone_families():
        for b in partners:
            values = [dim_tensor(a, b).value for a in family]
            yield (
                f"{family_name} against {b!r}",
                "nondecreasing",
                values,
                all(x <= y for x, y in zip(values, values[1:])),
            )


# Suite name -> (suite, default grid size, or None for a suite without a grid).
_SUITES = {
    "sharp-grid": (_suite_sharp_grid, 6),
    "af-grid": (_suite_af_grid, 4),
    "prop23": (_suite_prop23, None),
    "anchors": (_suite_anchors, None),
    "gsct-identity": (_suite_gsct_identity, None),
    "prop24": (_suite_prop24, None),
    "oracle-tightness": (_suite_oracle_tightness, None),
    "brewer": (_suite_brewer, 4),
    "extfield": (_suite_extfield, 4),
    "towers": (_suite_towers, None),
    "lambda": (_suite_lambda, None),
    "specialization": (_suite_specialization, None),
    "symmetry": (_suite_symmetry, None),
    "monotonicity": (_suite_monotonicity, None),
}


def suite_names() -> tuple[str, ...]:
    return tuple(_SUITES)


def run_suite(name: str, grid_max: int | None = None) -> CheckReport:
    """Run one named check suite (or ``all``) over its deterministic grid.

    ``grid_max`` sizes the grid suites and must lie in 0..MAX_GRID.
    Under ``all`` each failure's inputs start with ``"<suite>: "``.
    """
    if grid_max is not None and not 0 <= grid_max <= MAX_GRID:
        raise ConstraintError(f"grid_max must lie in 0..{MAX_GRID}, got {grid_max}")
    if name != "all" and name not in _SUITES:
        known = ", ".join([*_SUITES, "all"])
        raise KrulldimError(f"unknown suite {name!r} (known: {known})")
    cases, failures = 0, []
    for sub in _SUITES if name == "all" else (name,):
        suite, default = _SUITES[sub]
        prefix = f"{sub}: " if name == "all" else ""
        rows = suite() if default is None else suite(default if grid_max is None else grid_max)
        for inputs, expected, actual, passed in rows:
            cases += 1
            if not passed:
                failures.append(CheckFailure(prefix + inputs, str(expected), str(actual)))
    return CheckReport(name, cases, tuple(failures))
