"""Independent evaluators and a chain enumerator.

Everything here validates the closed formulas from primitive facts
rather than from the formulas under test:

* ``brewer_poly_dim`` computes dim(A[n]) from the special chain
  decomposition ht(P) = ht(q[n]) + ht(P / q[n]).
* ``ext_field_dim`` computes dim(A ox k(s transcendentals)) as a
  localization of A[s].
* ``chain_enumerate`` finds the longest anchored chain built from a
  small set of legal moves, each justified by a primitive fact about
  contractions and fibers.  It does so in one bottom-up pass over the
  anchors that reads the pair blocks: the best advance through a block
  is a running maximum kept per block, so an anchor costs O(blocks).
  The pass returns the best run from the zero anchor (0, 0), the last
  anchor it walks, and needs only the initial jump to (0, 0): the zero
  ideal lies under every stratum, so a chain that climbs from (0, 0)
  gains at least what any other jump does.  Each side's walk order and
  per-position block lists are its summary's ``walk_plan``, built in
  O(S) once per summary; a call then costs O(na * nb * blocks).
  ``iter_chains`` enumerates the same chains move by move over the
  ``ups`` view, with every legal initial jump; it is the literal
  reference the pass is tested against.  The maximum is a certified
  lower bound for dim(A ox B).

Legal moves, for a chain of primes of A ox B organized by the anchor
(p, q) = (contraction to A, contraction to B):

1. initial jump to (p, q): length ht(q[t.d.(A)]) + ht(p) when the
   localization model at p is AF (cap 0), or symmetrically
   ht(p[t.d.(B)]) + ht(q) when the q side has cap 0;
2. advance q -> q' at fixed p: length ht((q'/q)[t.d.(A/p)]), legal
   when the fixed side localizes (cap 0) or quotients (contains the
   conductor, so A/p is a quotient of D) to an AF model.  Every stratum
   does one or the other, since a summary may give a cap > 0 only to a
   stratum containing M (``spectra._check_summary``), so any stratum
   can be held fixed;
3. the symmetric advance p -> p' at fixed q;
4. one final fiber segment at the last anchor, of length at most
   min(t.d.(A/p), t.d.(B/q)).

The moves read the summaries' position arrays and pair blocks directly.
The module imports only ``spectra`` and ``errors`` and calls no formula
code, so the enumerator stays independent of what it checks; the check
suites that compare the two live in ``checks``.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Iterator, Optional

from .errors import ConstraintError, InexactPairError
from .spectra import SpectrumSummary, Stratum


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


# Anchors are pairs (i, j) of stratum positions in A and in B.


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
    r = a.residues[i]
    for j2, base, cap in b.ups[j]:
        if j2 != j:
            yield i, j2, base + min(r, cap)
    r = b.residues[j]
    for i2, base, cap in a.ups[i]:
        if i2 != i:
            yield i2, j, base + min(r, cap)


def _fiber(a, b, i, j) -> int:
    return min(a.residues[i], b.residues[j])


def _require_exact_sides(a, b):
    for side, summary in (("A", a), ("B", b)):
        pair = summary.first_uncertified()
        if pair is not None:
            raise InexactPairError(
                f"chain enumeration needs exact pair data; side {side} has "
                f"uncertified pair {summary.pair_label(*pair)}"
            )


def chain_enumerate(a: SpectrumSummary, b: SpectrumSummary) -> int:
    """Maximum total over all legal anchored chains: a lower bound for dim.

    One bottom-up pass over the anchors (i, j) computes the maximum that
    ``iter_chains`` enumerates move by move, reading the pair blocks
    rather than the pairs.  tail(i, j) is the longest run of advances
    plus the final fiber segment from (i, j).  A B-advance through block
    k of B moves j to a strict successor j2 and gains heights_b[j2] -
    heights_b[j] + min(t.d.(A/p), cap_k) + tail(i, j2), so the best one
    is ``row[k] - heights_b[j] + min(r_a, cap_k)``, where ``row[k]`` is
    the maximum of heights_b[j2] + tail(i, j2) over those successors.
    A-advances read ``col[k][j]``, the same maximum per block k of A and
    position j of B.

    A's strata are walked by decreasing height, and B's by decreasing
    height within each row.  Inside a chain block positions and heights
    rise together, and in a product block every upper position lies
    above every lower one, so the positions of a block already walked
    are exactly the strict successors of the current one: each maximum,
    updated once an anchor's tail is known, is complete when read and
    holds no position it must not.  So an anchor costs O(blocks), and
    the pass O(na * nb * blocks) time, against O(na * nb * (na + nb))
    for a scan over the comparable pairs.

    The answer is tail(0, 0), the last anchor walked: the initial jump
    to (0, 0) has length 0, and no other jump beats a chain from there.
    The zero ideal lies under every other stratum, by a certified pair
    of base h and the stratum's own cap (``spectra._check_summary``),
    and every stratum can be held fixed.  So the chain (0, 0) -> (0, j)
    -> (i, j) gains ht(q[t.d.(A)]) + h_i + min(t.d.(B/q), cap), at least
    A's jump to (i, j), ht(q[t.d.(A)]) + ht(p) when p's cap is 0, and
    goes on from (i, j) as the jump's chain would; B's jump is the
    mirror image, through (i, 0).

    The walk order and the per-position block lists depend on one side
    only: each summary's ``walk_plan`` builds them in O(S) on its first
    call and keeps them, so a call builds only its maxima and B's walk
    and costs O(na * nb * blocks).
    """
    _require_exact_sides(a, b)
    heights_a, residues_a = a.heights, a.residues
    order_a, starts_a, ends_a = a.walk_plan
    order_b, starts_b, ends_b = b.walk_plan
    # The maxima start at 0, below every heights + tail, and a step reads
    # a block only from a position with a successor in it, walked first.
    col = [[0] * len(b.heights) for _ in a.blocks]
    walk_b = [
        (j, b.heights[j], b.residues[j], starts_b[j], ends_b[j]) for j in order_b
    ]
    for i in order_a:
        h_a, r_a = heights_a[i], residues_a[i]
        row = [0] * len(b.blocks)
        steps_a = [(col[k], cap) for k, cap in starts_a[i]]
        into_a = [col[k] for k in ends_a[i]]
        for j, h_b, r_b, steps_b, into_b in walk_b:
            best = r_a if r_a < r_b else r_b
            for k, cap in steps_b:
                v = row[k] + (cap if cap < r_a else r_a) - h_b
                if v > best:
                    best = v
            for col_k, cap in steps_a:
                v = col_k[j] + (cap if cap < r_b else r_b) - h_a
                if v > best:
                    best = v
            v = h_b + best
            for k in into_b:
                if v > row[k]:
                    row[k] = v
            v = h_a + best
            for col_k in into_a:
                if v > col_k[j]:
                    col_k[j] = v
    # Both walks end at position 0, the only stratum of height 0.
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
