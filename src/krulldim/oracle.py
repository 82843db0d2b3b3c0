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
  the pair blocks, one row of anchors (a stratum of one side against
  every stratum of the other) at a time, in values Z = height of A +
  height of B + best run.  In Z an advance gains only min(residue t.d.,
  cap), and along a chain block (cap 0) of the column side the fiber
  never falls and a finished row never rises, so that block takes the
  maximum of the row and the fiber at the block's top, one cut and one
  fill; a product block takes one maximum over its upper positions.
  The best advance on the row side through a block is a running
  maximum per block, kept as one row, and a row starts as a copy of the
  first one it steps through.  Most rows need nothing more: a row that
  steps through its own chain block and merges no other block starts as
  its chain successor's finished row, and the column side's steps leave
  that row as it is unless the successor's residue lies below both the
  largest cap of the column side's product steps and the row's own
  residue.  Along a chain block heights rise, residues never rise and
  height + residue never falls, so each chain step's fiber is at most
  the successor's, and a product step then adds what the successor's
  did.  Such a row is skipped.  The moves are symmetric in A and B, so
  the rows are taken over the side with fewer rows left to compute,
  which one bisection a side counts.  The pass returns the best run
  from the zero anchor (0, 0), in the last row it walks, and needs only
  the initial jump to (0, 0): the zero ideal lies under every stratum,
  so a chain that climbs from (0, 0) gains at least what any other
  jump does.  Each side's rows, row steps and counts are its summary's
  ``walk_plan``, built in O(S) once per summary; a call then costs
  O(nb * blocks) per computed row, and a skipped one only enters its
  running maxima.
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

from bisect import bisect_left, bisect_right
from collections import namedtuple
from collections.abc import Iterator
from itertools import product
from operator import neg

from .errors import ConstraintError, InexactPairError
from .spectra import Record, SpectrumSummary


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
        pair = summary.uncertified
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

    Every legal move has a mirror image with A and B swapped, so the
    maximum does not depend on the order of the sides.  After checking
    both sides as the caller named them, the pass takes its rows over
    the side with fewer rows left to compute (see the skip rule below),
    then over the side with fewer strata, then over A as named: fewer,
    longer rows pay a row's fixed cost fewer times.  Below, A is the
    side walked as rows.

    A's strata are walked by decreasing height, one row each.
    ``col[k]`` holds, per position j of B, the maximum of Z(i2, j) over
    the positions i2 of block k of A already walked.  Inside a chain
    block positions and heights rise together, and in a product block
    every upper position lies above every lower one, so those positions
    are exactly the strict successors of the current one.

    A row starts as a copy of ``col`` of the first block of cap 0 that
    the row's stratum steps through (its chain block, unless it is the
    chain's top), or as zeros, and takes the other A-advances from
    ``col`` one block of A at a time, each block of cap > 0 with its
    min(r_b, cap) added in the merge.  Then come the fiber and the
    B-advances over B's blocks in reverse storage order.  Each block
    reads finished values: the blocks taken after it are those stored
    before it, and no block raises a position that a block stored after
    it reads (``spectra._check_summary`` refuses any other model).

    Along a chain block of B heights rise, residues never rise and
    height + residue never falls (``spectra._check_summary``), so the
    fiber h_a + h + min(r_a, r) never falls along it and min(r_b, cap)
    never rises.  Every finished row never rises along it, as the step
    below leaves it so and no later step of the row touches it; then
    neither does a row entering the block's step, a maximum of such rows
    and zeros, with min(r_b, cap) added and raised on prefixes of the
    block.  In the block every higher position is a strict successor
    and a step adds min(r_a, 0) = 0, so the block's suffix maximum, with
    the fiber, is the maximum of each entry and t, the fiber at the
    block's top.  The entries below t are a tail of the block: one
    bisection finds where it starts and one slice assignment fills it
    with t.  In a product block every upper position is a successor of
    every lower one, so each lower position rises to p, the maximum over
    the upper ones plus min(r_a, cap), and the suffix maximum of the
    chain block holding it spreads p down to that block's start.  A
    product block's lower range lies inside one chain block
    (``spectra._check_summary``), so the step raises the positions from
    that chain block's start to the range's last position, by the same
    cut and fill, and the block still never rises.
    Every chain block is a step, one of one position too, as it carries
    the fiber.  A row then costs O(1) Python steps per block of B, each
    a bisection and a fill of at most nb entries, and one comprehension
    per other block of A it merges.

    Last the row becomes ``col[k]`` for each block k of A whose upper
    range holds i.  Where i is k's top position, walked first, ``col[k]``
    is still empty.  Otherwise the row stepped through the chain block of
    A that holds k's upper range (``spectra._check_summary``), whose
    maximum holds every row of the range walked so far, so the row
    already dominates ``col[k]``.  A computed row costs O(nb * blocks),
    with O(blocks) Python steps for B's blocks.

    A row at i that steps through its own chain block and merges no
    other block starts as ``col`` of that block: the finished row of
    i + 1, its chain successor, the last of the chain walked.  It is
    skipped, doing only its ``ends``, when r_a(i+1) is at least cmax,
    the largest cap among B's product steps, or equals r_a(i); then its
    steps leave that row as it is.  Take them in order on row(i+1), the
    row that i + 1's own steps leave, whether computed or itself
    skipped.  Along a chain block of A heights rise, residues never rise
    and height + residue never falls (``spectra._check_summary``).  So a
    chain step's t = h_a + h + min(r, r_a) is at most the t row i + 1
    took there: if r_a(i+1) <= r, h_a(i) + r_a(i) <= h_a(i+1) + r_a(i+1);
    otherwise both residues exceed r and h_a(i) < h_a(i+1).  Row i + 1's
    step left every entry of the block at or above its t, and no step
    lowers an entry, so the bisection cuts nothing.  A product step reads
    upper positions that no later step raises, so it finds the maximum
    row i + 1 found and adds min(cap, r_a(i)), which is min(cap,
    r_a(i+1)) when r_a(i+1) >= cap or r_a(i+1) = r_a(i); so it fills
    nothing either.  Each side's plan counts its rows that are never
    skipped and lists the others' successor residues by value, so one
    bisection at the other side's cmax counts the rows a side computes.

    The answer is Z(0, 0) = tail(0, 0), in the last row: the initial
    jump to (0, 0) has length 0, and no other jump beats a chain from
    there.  The zero ideal lies under every other stratum, by a
    certified pair of base h and the stratum's own cap
    (``spectra._check_summary``), and every stratum can be held fixed.
    So the chain (0, 0) -> (0, j) -> (i, j) gains ht(q[t.d.(A)]) + h_i +
    min(t.d.(B/q), cap), at least A's jump to (i, j), ht(q[t.d.(A)]) +
    ht(p) when p's cap is 0, and goes on from (i, j) as the jump's chain
    would; B's jump is the mirror image, through (i, 0).

    A's rows, each its stratum's height, residue, block lists and
    successor residue in walk order, A's counts, and B's row steps and
    cmax depend on one side only: each summary's ``walk_plan`` builds
    them in O(S) on its first call and keeps them, and the check that
    every pair is certified reads each summary's kept ``uncertified``.
    So a call builds only ``col``, its computed rows, and one list of
    min(r_b, cap) per cap of a block of A that a computed row merges.
    """
    _require_exact_sides(a, b)
    rows_a, _, cap_a, fixed_a, successors_a = a.walk_plan
    rows_b, _, cap_b, fixed_b, successors_b = b.walk_plan
    computed_a = fixed_a + bisect_left(successors_a, cap_b)
    computed_b = fixed_b + bisect_left(successors_b, cap_a)
    if (computed_b, len(rows_b)) < (computed_a, len(rows_a)):
        a, b = b, a
    return _row_pass(a, b)


def _row_pass(a: SpectrumSummary, b: SpectrumSummary) -> int:
    """``chain_enumerate``'s pass with A's strata as the rows, whatever their number."""
    rows_a = a.walk_plan[0]
    _, steps_b, cap_b, _, _ = b.walk_plan
    residues_b = b.residues
    # min(cap, r_b) per position of B, for the A-advances through a block
    # of cap > 0, built when a computed row first merges such a block.
    capped: dict = {}
    # An A-step reads a block only from a position with a successor in
    # it, walked first, so no entry is read before it is written.
    col: list = [None] * len(a.blocks)
    for h_a, r_a, through, starts, ends, successor in rows_a:
        if successor is not None and (successor >= cap_b or successor == r_a):
            # The finished row of the chain successor, which this row's
            # steps would leave as it is; no list in col changes once
            # there, so the two rows may share it.
            z = col[through]
        else:
            z = [0] * len(residues_b) if through is None else col[through].copy()
            for k, cap in starts:
                if cap:
                    add = capped.get(cap)
                    if add is None:
                        add = capped[cap] = [cap if cap < r else r for r in residues_b]
                    z = [v if v > u + c else u + c for v, u, c in zip(z, col[k], add)]
                else:
                    z = [v if v > u else u for v, u in zip(z, col[k])]
            # z never rises along a fill, so the entries below t are its tail.
            for upper, h, c, start, stop in steps_b:
                t = (h_a + h if upper is None else max(z[upper])) + (c if c < r_a else r_a)
                cut = bisect_right(z, -t, start, stop, key=neg)
                z[cut:stop] = [t] * (stop - cut)
        for k in ends:
            col[k] = z
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
