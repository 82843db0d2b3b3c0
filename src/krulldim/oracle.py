"""Independent evaluators and a chain enumerator.

Everything here validates the closed formulas from primitive facts
rather than from the formulas under test:

* ``brewer_poly_dim`` computes dim(A[n]) from the special chain
  decomposition ht(P) = ht(q[n]) + ht(P / q[n]).
* ``ext_field_dim`` computes dim(A ox k(s transcendentals)) as a
  localization of A[s].
* ``chain_enumerate`` finds the longest anchored chain built from a
  small set of legal moves, each justified by a primitive fact about
  contractions and fibers.  It does so in one bottom-up pass that reads
  the pair blocks, one row of anchors (a stratum of A against every
  stratum of B) at a time, in values Z = height of A + height of B +
  best run.  In Z an advance gains only min(residue t.d., cap), so a
  chain block (cap 0) of B is a suffix maximum along the row and a
  product block one maximum over its upper positions; the best
  A-advance through a block is a running maximum per block, kept as one
  row.  The pass returns the best run from the zero anchor (0, 0), in
  the last row it walks, and needs only the initial jump to (0, 0): the
  zero ideal lies under every stratum, so a chain that climbs from
  (0, 0) gains at least what any other jump does.  Each side's walk
  order, block lists and row steps are its summary's ``walk_plan``,
  built in O(S) once per summary; a call then costs O(na * nb * blocks).
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

from collections import namedtuple
from collections.abc import Iterator
from itertools import product

from .errors import ConstraintError, InexactPairError
from .spectra import Record, SpectrumSummary, Stratum


class AnchoredChain(Record, namedtuple("AnchoredChain", "anchors segment_lengths")):
    """A chain of primes organized by contraction anchors.

    ``segment_lengths`` lists the initial jump, one entry per anchor
    advance, and the final fiber segment, in that order.  ``anchors``
    holds ``(p, q)`` pairs of strata of A and B.
    """

    __slots__ = ()

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


def _initial_jump(a, b, i, j) -> int | None:
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

    One bottom-up pass computes the maximum that ``iter_chains``
    enumerates move by move, reading the pair blocks rather than the
    pairs, one row of anchors (i, j), all positions j of B, at a time.
    tail(i, j) is the longest run of advances plus the final fiber
    segment from (i, j); the pass works on Z(i, j) = heights_a[i] +
    heights_b[j] + tail(i, j), in which an advance gains no height
    difference.  A B-advance through block k of B from (i, j) to a
    strict successor j2 gives Z(i, j2) + min(t.d.(A/p), cap_k), and an
    A-advance through block k of A gives Z(i2, j) + min(t.d.(B/q),
    cap_k); the fiber gives heights_a[i] + heights_b[j] +
    min(r_a, r_b).  Every chain block has cap 0
    (``spectra._check_summary``), so a step inside one adds nothing.

    A's strata are walked by decreasing height, one row each.
    ``col[k]`` holds, per position j of B, the maximum of Z(i2, j) over
    the positions i2 of block k of A already walked.  Inside a chain
    block positions and heights rise together, and in a product block
    every upper position lies above every lower one, so those positions
    are exactly the strict successors of the current one.

    A row starts from the fiber and takes the A-advances from ``col``,
    one block of A at a time, then the B-advances over B's blocks in
    reverse storage order.  In a chain block of B every higher position
    of the block is a strict successor and a step adds min(r_a, 0) = 0,
    so the block is a suffix maximum, taken from its top down.  In a
    product block every upper position is a successor of every lower
    one, so each lower position rises to the maximum over the upper ones
    plus min(r_a, cap).  Each block reads finished values: the blocks
    taken after it are those stored before it, and no block raises a
    position that a block stored after it reads (``spectra._check_summary``
    refuses any other model).  Last the row enters ``col[k]`` for each
    block k of A whose upper range holds i.  Where the row stepped
    through k (a chain block) it already dominates ``col[k]``, and where
    i is k's top position, walked first, ``col[k]`` is still empty, so
    the row itself becomes ``col[k]``; otherwise the two are merged
    elementwise.  So a row costs O(nb) per block of either side, and the
    pass O(na * nb * blocks).

    The answer is Z(0, 0) = tail(0, 0), in the last row: the initial
    jump to (0, 0) has length 0, and no other jump beats a chain from
    there.  The zero ideal lies under every other stratum, by a
    certified pair of base h and the stratum's own cap
    (``spectra._check_summary``), and every stratum can be held fixed.
    So the chain (0, 0) -> (0, j) -> (i, j) gains ht(q[t.d.(A)]) + h_i +
    min(t.d.(B/q), cap), at least A's jump to (i, j), ht(q[t.d.(A)]) +
    ht(p) when p's cap is 0, and goes on from (i, j) as the jump's chain
    would; B's jump is the mirror image, through (i, 0).

    A's walk order and block lists and B's row steps depend on one side
    only: each summary's ``walk_plan`` builds them in O(S) on its first
    call and keeps them, so a call builds only ``col``, one list per
    cap of A's blocks and its rows.
    """
    _require_exact_sides(a, b)
    order_a, starts_a, ends_a, _ = a.walk_plan
    steps_b = b.walk_plan[3]
    heights_a, residues_a = a.heights, a.residues
    heights_b, residues_b = b.heights, b.residues
    # min(cap, r_b) per position of B, for the A-advances through a block
    # of cap > 0.
    capped = {
        cap: [cap if cap < r else r for r in residues_b]
        for cap in {block.cap for block in a.blocks}
        if cap
    }
    # An A-step reads a block only from a position with a successor in
    # it, walked first, so no entry is read before it is written.
    col: list = [None] * len(a.blocks)
    for i in order_a:
        h_a, r_a = heights_a[i], residues_a[i]
        z = [h_a + h + (r_a if r_a < r else r) for h, r in zip(heights_b, residues_b)]
        for k, cap in starts_a[i]:
            up = col[k]
            if cap:
                up = [u + c for u, c in zip(up, capped[cap])]
            z = [v if v > u else u for v, u in zip(z, up)]
        for lower, upper, cap in steps_b:
            if upper is None:
                best = 0
                for j in lower:
                    v = z[j]
                    if v < best:
                        z[j] = best
                    else:
                        best = v
            else:
                p = max(z[upper]) + (cap if cap < r_a else r_a)
                z[lower] = [v if v > p else p for v in z[lower]]
        for k, fresh in ends_a[i]:
            col[k] = z if fresh else [v if v > u else u for v, u in zip(z, col[k])]
    # The last row is A's position 0, the only stratum of height 0.
    return z[0]


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
