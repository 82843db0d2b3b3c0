"""Seeded input generator for the benchmark workloads.

Pure Python with no import of the program: the program receives only
the text this module produces.  Every operand carries the shape of its
spectrum model (strata with their residue transcendence degree), worked
out here from the constructor parameters, so that ``ht`` selectors and
fiber offsets can be drawn without compiling anything in the program.

The same seed gives the same inputs, byte for byte.  Cost-relevant
shapes (stratum and pair counts) follow fixed tables, and the seed
chooses how each shape is realised (constructor kind, transcendence
degrees, selectors, request order), so runs with different seeds do the
same amount of work and their figures can be compared.
"""
from __future__ import annotations

import bisect
import itertools
import json
import random
from dataclasses import dataclass
from typing import Optional

WORKLOADS = ("query-hot", "query-cold", "certify")

HOT_REQUESTS = 1 << 15
HOT_TD = (6, 24)
CERTIFY_TD = (14, 26)
CERTIFY_CYCLES = 16
COLD_TD_BASE = 8


@dataclass(frozen=True)
class Operand:
    """Expression text plus the shape of its spectrum model.

    ``strata`` lists (selector, residue t.d.) per stratum; ``pairs`` is
    the number of comparable stratum pairs the model holds.
    """

    text: str
    td: int
    dim: int
    strata: tuple[tuple[str, int], ...]
    pairs: int
    pullback: bool


@dataclass(frozen=True, slots=True)
class Request:
    """One client request: ``dim``, ``ht`` or ``certify`` on a pair of texts.

    ``sizes`` holds (strata, pairs) of operand A, then of operand B.
    """

    cmd: str
    a: str
    b: str
    sizes: tuple[int, int, int, int]
    p: Optional[str] = None
    q: Optional[str] = None
    delta: int = 0

    def key(self) -> tuple:
        return (self.cmd, self.a, self.b, self.p, self.q, self.delta)


def request(cmd: str, a: Operand, b: Operand, **ht) -> Request:
    sizes = (len(a.strata), a.pairs, len(b.strata), b.pairs)
    return Request(cmd, a.text, b.text, sizes, **ht)


# --------------------------------------------------------------------------
# Operands


def _chain_pairs(n: int) -> int:
    return n * (n + 1) // 2


def _af_strata(td: int, dim: int) -> tuple[tuple[str, int], ...]:
    return tuple((f"out:{h}", td - h) for h in range(dim + 1))


def af_like(text: str, td: int, dim: int) -> Operand:
    """A field, AF-domain, valuation domain or polynomial ring over one."""
    return Operand(text, td, dim, _af_strata(td, dim), _chain_pairs(dim + 1), False)


def field(td: int) -> Operand:
    return af_like(f"field({td})", td, 0)


def af(td: int, dim: int) -> Operand:
    return af_like(f"af({td},{dim})", td, dim)


def val(td: int, dim: int) -> Operand:
    return af_like(f"val({td},{dim})", td, dim)


def poly(base: Operand, n: int) -> Operand:
    return af_like(f"poly({base.text},{n})", base.td + n, base.dim + n)


def pullback(t: Operand, m: int, d: Operand, outside: Optional[int]) -> Operand:
    """phi^-1(D) for an AF ambient T; ``outside`` is None for a valuation T."""
    top_out = m - 1 if outside is None else max(m - 1, outside)
    text = f"pullback(T={t.text},m={m},D={d.text}"
    text += ")" if outside is None else f",outside={outside})"
    outs = tuple((f"out:{h}", t.td - h) for h in range(top_out + 1))
    ins = tuple((f"in:{e}", r) for e, (_, r) in enumerate(d.strata))
    pairs = _chain_pairs(len(outs)) + m * len(ins) + d.pairs
    return Operand(text, t.td, max(top_out, m + d.dim), outs + ins, pairs, True)


def af_shape(rng: random.Random, dim: int, td_lo: int, td_hi: int) -> Operand:
    """A field (dim 0), AF-domain or valuation domain; the two have one model."""
    td = rng.randint(max(td_lo, dim), td_hi)
    if dim == 0:
        return field(td)
    return val(td, dim) if rng.random() < 0.5 else af(td, dim)


def poly_shape(rng: random.Random, dim: int, n: int, td_lo: int, td_hi: int) -> Operand:
    """A polynomial ring in ``n`` variables over an AF-domain, of dimension ``dim``."""
    td = rng.randint(max(td_lo, dim), td_hi)
    return poly(af(td - n, dim - n), n)


def pullback_shape(
    rng: random.Random, outs: int, m: int, d_dim: int, td_lo: int, td_hi: int
) -> Operand:
    """A catenarian pullback with ``outs`` strata outside M, ht(M) = m and dim(D) = d_dim.

    t.d.(K:D) is at least 1, so the pullback is never AF and always
    dispatches to the conductor formula, and dim(T) = max(outs - 1, m), so
    whether the conductor has full height depends on the shape alone.
    When ``outs == m`` the seed may pick a valuation ambient, whose model
    is the same as that of an AF-domain of equal dimension.
    """
    t_dim = max(outs - 1, m)
    td = rng.randint(max(td_lo, t_dim, m + d_dim + 1), td_hi)
    if outs == m and rng.random() < 0.5:
        t, outside = val(td, m), None
    else:
        t, outside = af(td, t_dim), outs - 1
    d = af_shape(rng, d_dim, d_dim, td - m - 1)
    return pullback(t, m, d, outside)


def _selector(rng: random.Random, operand: Operand, index: int) -> str:
    """Selector text for stratum ``index``, using the 0 and M aliases at times."""
    sel = operand.strata[index][0]
    if sel == "out:0" and rng.random() < 0.5:
        return "0"
    conductor = "in:0" if operand.pullback else f"out:{operand.dim}"
    if sel == conductor and rng.random() < 0.5:
        return "M"
    return sel


def ht_request(rng: random.Random, a: Operand, b: Operand) -> Request:
    i = rng.randrange(len(a.strata))
    j = rng.randrange(len(b.strata))
    fiber = min(a.strata[i][1], b.strata[j][1])
    return request(
        "ht", a, b, p=_selector(rng, a, i), q=_selector(rng, b, j), delta=rng.randint(0, fiber)
    )


def _is_ht(index: int) -> bool:
    # Three dim requests to one ht request, in a fixed pattern.
    return index % 4 == 3


# --------------------------------------------------------------------------
# query-hot: a skewed draw from a fixed-size working set


# Shape of the working-set entry at each popularity rank: ("af", dim),
# ("poly", dim, variables) or ("pb", strata outside M, m, dim(D)).  Fixed
# so that every seed puts the same parsing and formula work on each rank.
HOT_SHAPES = (
    ("af", 5), ("pb", 3, 2, 2), ("af", 0), ("af", 9), ("poly", 3, 1), ("pb", 2, 2, 1),
    ("af", 12), ("af", 7), ("pb", 5, 3, 3), ("af", 0), ("af", 15), ("poly", 4, 2),
    ("pb", 4, 4, 2), ("af", 10), ("af", 6), ("af", 18), ("pb", 6, 2, 4), ("af", 2),
    ("poly", 11, 3), ("af", 0), ("pb", 3, 3, 5), ("af", 8), ("af", 14), ("af", 1),
    ("pb", 7, 4, 3), ("af", 20), ("poly", 5, 5), ("pb", 2, 1, 6), ("af", 13), ("af", 16),
    ("pb", 8, 5, 2), ("af", 22),
)


def _shape(rng: random.Random, shape: tuple, td_lo: int, td_hi: int) -> Operand:
    make = {"af": af_shape, "poly": poly_shape, "pb": pullback_shape}[shape[0]]
    return make(rng, *shape[1:], td_lo, td_hi)


def hot_working_set(seed: int) -> list[Operand]:
    rng = random.Random(f"query-hot/working-set/{seed}")
    ops: list[Operand] = []
    for shape in HOT_SHAPES:
        while True:
            cand = _shape(rng, shape, *HOT_TD)
            if cand.text not in {o.text for o in ops}:
                ops.append(cand)
                break
    return ops


def hot_requests(seed: int) -> list[Request]:
    """HOT_REQUESTS requests over the working set, operands drawn Zipf(1) by rank."""
    work = hot_working_set(seed)
    rng = random.Random(f"query-hot/requests/{seed}")
    cum = list(itertools.accumulate(1.0 / (r + 1) for r in range(len(work))))

    def draw() -> Operand:
        return work[bisect.bisect(cum, rng.random() * cum[-1])]

    reqs = []
    for i in range(HOT_REQUESTS):
        a, b = draw(), draw()
        reqs.append(ht_request(rng, a, b) if _is_ht(i) else request("dim", a, b))
    return reqs


# --------------------------------------------------------------------------
# query-cold: every operand new to the run


def _cold_operand(rng: random.Random, td: int) -> Operand:
    kind = rng.random()
    if kind < 0.3:
        return af_shape(rng, rng.randint(0, 5), td, td)
    if kind < 0.4:
        dim = rng.randint(1, 5)
        return poly_shape(rng, dim, rng.randint(1, dim), td, td)
    m = rng.randint(1, 3)
    return pullback_shape(rng, rng.randint(m, m + 2), m, rng.randint(0, 2), td, td)


def cold_request(seed: int, index: int) -> Request:
    """Request ``index`` of an endless stream whose operands never repeat.

    Request i takes operands 2i and 2i+1, and operand k has t.d.
    COLD_TD_BASE + k, so no two operands are equal however long the run.
    Each request draws from its own seeded generator, so any request can
    be rebuilt from (seed, index) without keeping the stream.  Their
    spectra are small (at most 9 strata), so the oracle check stays cheap
    next to the request.
    """
    rng = random.Random(f"query-cold/{seed}/{index}")
    td = COLD_TD_BASE + 2 * index
    a, b = _cold_operand(rng, td), _cold_operand(rng, td + 1)
    return ht_request(rng, a, b) if _is_ht(index) else request("dim", a, b)


# --------------------------------------------------------------------------
# certify: large pairs for the chain-enumeration oracle


# Pair shapes of one certify cycle; each cycle runs all of them in a
# seeded order, so the oracle's work per cycle is the same for every seed.
CERTIFY_SHAPES = (
    (("af", 10), ("af", 12)),
    (("af", 14), ("af", 9)),
    (("af", 16), ("af", 13)),
    (("af", 8), ("af", 18)),
    (("af", 12), ("pb", 5, 3, 4)),
    (("pb", 7, 4, 3), ("af", 11)),
    (("af", 15), ("pb", 4, 2, 6)),
    (("pb", 6, 3, 5), ("af", 9)),
    (("pb", 5, 5, 4), ("pb", 6, 2, 3)),
    (("pb", 8, 4, 2), ("pb", 4, 3, 5)),
    (("af", 13), ("af", 13)),
    (("af", 6), ("pb", 9, 5, 4)),
    (("pb", 3, 2, 8), ("af", 14)),
    (("af", 11), ("af", 15)),
    (("pb", 7, 3, 3), ("pb", 5, 4, 4)),
    (("af", 18), ("af", 7)),
)


def certify_requests(seed: int) -> list[Request]:
    rng = random.Random(f"certify/{seed}")
    reqs = []
    for _ in range(CERTIFY_CYCLES):
        order = list(CERTIFY_SHAPES)
        rng.shuffle(order)
        for sa, sb in order:
            a, b = _shape(rng, sa, *CERTIFY_TD), _shape(rng, sb, *CERTIFY_TD)
            reqs.append(request("certify", a, b))
    return reqs


# --------------------------------------------------------------------------


def dump(workload: str, seed: int) -> bytes:
    """Canonical bytes of a workload's inputs (the first 2000 cold requests)."""
    if workload == "query-hot":
        items = [r.key() for r in hot_requests(seed)]
    elif workload == "query-cold":
        items = [cold_request(seed, i).key() for i in range(2000)]
    elif workload == "certify":
        items = [r.key() for r in certify_requests(seed)]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return json.dumps(items, separators=(",", ":")).encode()
