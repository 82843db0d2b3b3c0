"""The tests' shared model space: the distinct small models, probes of large ones, built models.

A model is at most two arithmetic runs joined by one product block, so
many expressions share one, and the models up to a small t.d. are few:
37, 147 and 429 up to t.d. 2, 3 and 4.  ``distinct_models`` lists them,
so that a reference that walks every position or every pair can run on
all of them.  Along a run every closed form is arithmetic on the run's
ends, so on a model over ``SMALL`` strata those references run only at
``probe_positions``, where its runs and terms change, and at a few
seeded positions; what is O(S) may still run at every position.
"""
from random import Random

from hypothesis import strategies as st

from krulldim.spectra import (
    MAX_STRATA,
    AfDomain,
    Field,
    PolyRing,
    Pullback,
    Valuation,
    _finish,
    summarize,
)

# The most strata of a model whose positions and pairs the references walk.
SMALL = 64


def _af_constructors(max_td):
    """Every field, af (either flag) and val of t.d. at most ``max_td``."""
    for td in range(max_td + 1):
        yield Field(td)
        for dim in range(td + 1):
            yield AfDomain(td, dim)
            yield AfDomain(td, dim, catenarian=False)
        for dim in range(1, td + 1):
            yield Valuation(td, dim)


def distinct_models(max_td):
    """``{model: expressions}``: every distinct model of t.d. at most ``max_td``.

    The expressions are every field, af (either flag) and val, and every
    pullback over them: each af or val as T, every m, outside and D.
    ``poly`` is left out, as its models are af's.  The models are
    deduplicated by summary equality, which leaves out ``source``; each
    lists its expressions in enumeration order, so the first is its
    representative.
    """
    afs = list(_af_constructors(max_td))
    exprs = list(afs)
    for t in afs:
        if type(t) is Field:
            continue
        # A valuation ring's m is its dimension, and its outside is derived.
        val = type(t) is Valuation
        for m in [t.dim] if val else range(1, t.dim + 1):
            for d in _af_constructors(t.td - m):
                for outside in [None] if val else range(m - 1, t.dim + 1):
                    exprs.append(Pullback(t, m, d, outside))
    models = {}
    for e in exprs:
        models.setdefault(summarize(e), []).append(e)
    return models


def probe_positions(summary, residues=()):
    """The positions at which a model's runs and terms change, and three seeded ones.

    Each run's first two and last two positions; m - 1 and m, the ends
    of the product block's lower range; and, for each value in
    ``residues``, the position of each run whose residue takes it, with
    its neighbours: the plateau of a term h + min(s, d + residue), for
    s - d in ``residues``, or the end of a stretch whose residue is at
    least a cap.  The seeded positions are drawn from the model's runs.
    """
    probes = set()
    start = 0
    for stop, h, hr, _, _ in summary.runs:
        probes |= {start, start + 1, stop - 2, stop - 1}
        for r in residues:
            # Residues fall by 1 a position from hr - h at the run's start.
            i = start + hr - h - r
            probes |= {i - 1, i, i + 1}
        start = stop
    if len(summary.runs) > 1:
        m = summary.runs[1][1]
        probes |= {m - 1, m}
    rng = Random(str(summary.runs))
    probes |= {rng.randrange(start) for _ in range(3)}
    return sorted(p for p in probes if 0 <= p < start)


def built_model(runs):
    """The model of ``runs``, built by hand and checked as a compile is."""
    return _finish(runs[0][2], tuple(runs), None, "built")


@st.composite
def built_models(draw):
    """A model of one or two runs and 1 to 6 strata, with free parameters.

    The first run starts at the zero ideal, so its length, its t.d. and
    its exactness are free.  A second run has a free length, base height
    m, which ends the product block's range, height + residue, cap and
    exactness; the product block is exact when the first run is.  No
    compile builds most of these: the second run's height + residue need
    not be the t.d., and either run may be inexact.
    """
    td = draw(st.integers(0, 5))
    n = draw(st.integers(1, min(td + 1, 4)))
    runs = [(n, 0, td, 0, draw(st.booleans()))]
    if td == 0 or draw(st.booleans()):
        return built_model(runs)
    m = draw(st.integers(1, min(n, td)))
    stop = n + draw(st.integers(1, min(td - m + 1, 6 - n)))
    hr = draw(st.integers(m + stop - n - 1, td))
    cap = draw(st.integers(0, 3))
    runs.append((stop, m, hr, cap, draw(st.booleans())))
    return built_model(runs)


@st.composite
def af_operands(draw, td, dim):
    """An AF constructor of t.d. ``td`` and dimension ``dim``: a field, af, val or poly over an af."""
    kind = draw(st.sampled_from(["af", "poly", "field" if dim == 0 else "val"]))
    if kind == "field":
        return Field(td)
    if kind == "val":
        return Valuation(td, dim)
    n = draw(st.integers(0, dim)) if kind == "poly" else 0
    # Catenarian three times in four: an inexact side makes the oracle refuse.
    base = AfDomain(td - n, dim - n, draw(st.sampled_from([True, True, True, False])))
    return base if kind == "af" else PolyRing(base, n)


@st.composite
def large_exprs(draw):
    """Operands of up to ``MAX_STRATA`` strata: AF models, and pullbacks of any m, outside and D.

    Each af, also under a poly, draws its catenarian flag, so either
    side of a pullback may be inexact.
    """
    if draw(st.booleans()):
        dim = draw(st.integers(0, MAX_STRATA - 1))
        return draw(af_operands(dim + draw(st.integers(0, MAX_STRATA)), dim))
    # T's strata outside M take at most MAX_STRATA - 1 positions, leaving D one.
    dim_t = draw(st.integers(1, MAX_STRATA - 2))
    td_t = dim_t + draw(st.integers(0, MAX_STRATA))
    ambient = draw(af_operands(td_t, dim_t))
    if isinstance(ambient, Valuation):
        m, outside = dim_t, dim_t - 1
    else:
        m = draw(st.integers(1, dim_t))
        outside = draw(st.integers(m - 1, dim_t))
    td_d = draw(st.integers(0, td_t - m))
    dim_d = draw(st.integers(0, min(td_d, MAX_STRATA - 2 - max(m - 1, outside))))
    return Pullback(ambient, m, draw(af_operands(td_d, dim_d)), outside)
