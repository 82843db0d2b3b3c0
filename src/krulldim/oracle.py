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
  the runs, one row of anchors (a stratum of one side against every
  stratum of the other) at a time, in values Z = height of A + height of
  B + best run.  In Z an advance gains only min(residue t.d., cap), and
  along a chain block (cap 0) of the column side the fiber never falls
  and a finished row never rises, so that block takes the maximum of the
  row and the fiber at the block's top, one cut and one fill; the
  product block reads the maximum over its upper positions at the first
  of them, one entry.  The row side is walked run by run from each top
  down, the run over M first: a row starts as the finished row above it
  in its run, and row m - 1, the top row under the product block, merges
  the finished row at M, which holds the maximum over the run over M;
  every row below it starts from a row that holds it.  Most rows need
  nothing more: down a run the residue rises by 1 a position, so a row
  under its run's top whose residue exceeds the column side's product
  cap is left as it starts, each chain step's fiber being at most the
  one above it and the product step adding what it added there.  Such
  rows are the bottom of each run, and the pass jumps over them all but
  row m - 1, which merges and is computed at any residue.  So a side
  computes its runs' tops, the rows of residue at most the other side's
  product cap and row m - 1, a count read per run in closed form.  The
  moves are symmetric in A and B, so the rows are taken over the side
  with fewer rows to compute.  The pass returns the best run from the
  zero anchor (0, 0), in the last row it walks, and needs only the
  initial jump to (0, 0): the zero ideal lies under every stratum, so a
  chain that climbs from (0, 0) gains at least what any other jump does.
  What the pass reads of each side is its summary's ``walk_plan``,
  O(runs) data built once per summary; a computed row costs at most
  three fills of O(nb) each, row m - 1 one merge more, and a skipped one
  nothing.  ``iter_chains`` enumerates the same chains move by move over
  each side's certified pairs, from ``iter_pairs``, with every legal
  initial jump; it is the literal reference the pass is tested against.
  The maximum is a certified lower bound for dim(A ox B).

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

The moves read the summaries' ``strata`` and ``iter_pairs``, and the
pass each side's runs, through its ``walk_plan``.
The module imports only ``spectra`` and ``errors`` and calls no formula
code, so the enumerator stays independent of what it checks; the check
suites that compare the two live in ``checks``.
"""
from __future__ import annotations

from bisect import bisect_right
from collections.abc import Iterator
from itertools import chain, product
from operator import neg

from .errors import ConstraintError, InexactPairError
from .spectra import Record, SpectrumSummary, _tuple_new


class AnchoredChain(Record):
    """A chain of primes organized by contraction anchors.

    ``segment_lengths`` lists the initial jump, one entry per anchor
    advance, and the final fiber segment, in that order.  ``anchors``
    holds ``(p, q)`` pairs of strata of A and B.
    """

    __slots__ = ()

    def __new__(cls, anchors, segment_lengths):
        return _tuple_new(cls, (anchors, segment_lengths))

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
    return max(q.height + min(n, q.cap) + n for q in a.strata)


def ext_field_dim(a: SpectrumSummary, s: int) -> int:
    """dim(A ox k(s transcendentals)) = max over q of ht(q[s]) + min(s, t.d.(A/q)).

    Computed as a localization of A[s]; the residue fiber contributes
    min(s, t.d.(A/q)) by the field-against-field formula.
    """
    if s < 0:
        raise ConstraintError("transcendence degree must be >= 0")
    return max(q.height + min(s, q.cap) + min(s, q.residue_td) for q in a.strata)


# --------------------------------------------------------------------------
# Chain enumeration


# Anchors are pairs (p, q) of strata of A and of B.


def _initial_jump(a, b, p, q) -> int | None:
    best = None
    if p.cap == 0:
        best = q.height + min(a.td, q.cap) + p.height
    if q.cap == 0:
        v = p.height + min(b.td, p.cap) + q.height
        best = v if best is None else max(best, v)
    return best


def _ups(summary: SpectrumSummary) -> list[list[tuple[int, int, int]]]:
    """Per position i, ``(j, quot_base, quot_cap)`` per certified pair i < j, by increasing j."""
    ups = [[] for _ in summary.strata]
    for i, j, quot in summary.iter_pairs():
        if quot is not None and i != j:
            ups[i].append((j, *quot))
    return ups


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
    enumerates move by move, reading the runs rather than the pairs,
    one row of anchors (i, j), all positions j of B, at a time.
    tail(i, j) is the longest run of advances plus the final fiber
    segment from (i, j); the pass works on Z(i, j) = heights_a[i] +
    heights_b[j] + tail(i, j), in which an advance gains no height
    difference.  A B-advance through a block of B of cap c from (i, j)
    to a strict successor j2 gives Z(i, j2) + min(t.d.(A/p), c), and an
    A-advance through a block of A of cap c gives Z(i2, j) +
    min(t.d.(B/q), c); the fiber gives heights_a[i] + heights_b[j] +
    min(r_a, r_b).  Every chain block has cap 0, so a step inside one
    adds nothing.

    Every legal move has a mirror image with A and B swapped, so the
    maximum does not depend on the order of the sides.  After checking
    both sides as the caller named them, the pass takes its rows over
    the side with fewer rows to compute (see the skip rule below), then
    over the side with fewer strata, then over A as named: fewer,
    longer rows pay a row's fixed cost fewer times.  Below, A is the
    side walked as rows.

    A's runs are walked one at a time, each from its top down, the run
    over M first.  The strict successors of a position i are the higher
    positions of its run, through its chain block, and, for i below m in
    the first run, every position of the second run, through the product
    block of cap c.  A row starts as the finished row of i + 1, or as
    zeros at a run's top.  That row holds the maximum over every higher
    position of the run, as each row of the run started from the one
    above it and no step lowers an entry.  So the finished row at M, the
    second run's bottom, walked before the first run, holds the maximum
    over the second run, and row m - 1 merges it, with min(r_b, c)
    added, in one elementwise maximum.  Each row below it starts from a
    row that already holds that merge, and no step lowers an entry, so
    merging it again would change nothing.  Then come the fiber and the
    B-advances over B's blocks in reverse storage order: the second
    run's chain, the product block, the first run's chain.  Each reads
    finished values: no block raises a position that a block taken
    before it reads.  No finished row but the one above and the one at M
    is read again, so a row is the list of the row above it, raised in
    place.

    Along a chain block of B, one run, heights rise by 1 and residues
    fall by 1 a position, so the fiber h_a + h + min(r_a, r) never falls
    along it and min(r_b, cap) never rises.  Every finished row never
    rises along it, as the step below leaves it so and no later step of
    the row touches it; then neither does a row entering the block's
    step, a maximum of such rows and zeros, with min(r_b, cap) added and
    raised on prefixes of the block.  In the block every higher position
    is a strict successor and a step adds min(r_a, 0) = 0, so the
    block's suffix maximum, with the fiber, is the maximum of each entry
    and t, the fiber at the block's top.  The entries below t are a tail
    of the block: one bisection finds where it starts and one slice
    assignment fills it with t.  In the product block every upper
    position is a successor of every lower one, so each lower position
    rises to p, the maximum over the upper ones plus min(r_a, cap), and
    the suffix maximum of the first run's chain spreads p down to
    position 0.  The upper positions are B's second run, whose step is
    taken first, so the row never rises along them and their maximum is
    the entry at the first, n: one read.  The lower range is a prefix of
    the first run, so the step raises positions 0 to m - 1, by the same
    cut and fill, and the block still never rises.  Every chain block is
    a step, one of one position too, as it carries the fiber.  A
    computed row then costs at most three bisections and fills, each
    O(nb), and row m - 1 one merge more.

    A row at i below its run's top, other than row m - 1, is skipped
    when r_a(i) exceeds cmax, the largest cap among B's product steps (0
    without one): it starts as the finished row of i + 1, as a row below
    m - 1 would merge only what row m - 1 merged, and its steps leave it
    as it is.  Take them in order on row(i+1), the row that i + 1's own
    steps leave, whether computed or itself skipped.  Along A's run
    h_a(i) = h_a(i+1) - 1 and r_a(i) = r_a(i+1) + 1, so a chain step's t
    = h_a + h + min(r, r_a) is at most the t row i + 1 took there.  Row
    i + 1's step left every entry of the block at or above its t, and no
    step lowers an entry, so the bisection cuts nothing.  A product step
    reads an upper position that no later step raises, so it finds the
    maximum row i + 1 found and adds min(cap, r_a(i)), which is min(cap,
    r_a(i+1)) as r_a(i+1) >= cmax >= cap; so it fills nothing either.
    Residues rise down a run, so the skipped rows are the bottom of the
    run but row m - 1: the pass walks a run from its top down and jumps
    from the first row of residue above cmax to row m - 1, if that lies
    under it, and past the run otherwise.  ``_computed`` counts the rows
    it walks, per run in closed form, and row m - 1 when it lies among
    the skipped.

    The answer is Z(0, 0) = tail(0, 0), in the last row: the initial
    jump to (0, 0) has length 0, and no other jump beats a chain from
    there.  The zero ideal lies under every other stratum, by a
    certified pair of base h and the stratum's own cap
    (``spectra._check_summary``), and every stratum can be held fixed.
    So the chain (0, 0) -> (0, j) -> (i, j) gains ht(q[t.d.(A)]) + h_i +
    min(t.d.(B/q), cap), at least A's jump to (i, j), ht(q[t.d.(A)]) +
    ht(p) when p's cap is 0, and goes on from (i, j) as the jump's chain
    would; B's jump is the mirror image, through (i, 0).

    A's runs, each with its top's residue, B's steps and cmax depend on
    one side only: each summary's ``walk_plan`` builds them, O(runs)
    data, on its first call and keeps them, and the check that every
    pair is certified reads each summary's kept ``uncertified``.  So a
    call builds only its computed rows, and row m - 1 reads B's residues
    from B's runs, along which they fall by 1 a position.
    """
    _require_exact_sides(a, b)
    cap_a, cap_b = a.walk_plan[1], b.walk_plan[1]
    if (_computed(b, cap_a), b.runs[-1][0]) < (_computed(a, cap_b), a.runs[-1][0]):
        a, b = b, a
    return _row_pass(a, b)


def _computed(a: SpectrumSummary, cap: int) -> int:
    """How many rows a pass with A's strata as the rows computes against a column side of ``cap``.

    Per run: its top and the rows under it whose residue is at most
    ``cap``.  Residues rise by 1 a position down the run from ``top``,
    so those are the cap - top rows under the top, or the whole run if
    it is shorter.  Then row m - 1, when it lies under its run's top at
    a residue above ``cap``.
    """
    m, _, runs, _ = a.walk_plan
    n = 0
    for start, stop, _, _, top in runs:
        n += 1
        if cap > top:
            k, below = cap - top, stop - 1 - start
            n += k if k < below else below
    if m:
        _, stop, _, _, top = runs[0]
        if m < stop and top + stop - m > cap:
            n += 1
    return n


def _row_pass(a: SpectrumSummary, b: SpectrumSummary) -> int:
    """``chain_enumerate``'s pass with A's strata as the rows, whatever their number."""
    m, cap, runs_a, _ = a.walk_plan
    _, cap_b, runs_b, steps_b = b.walk_plan
    nb = runs_b[-1][1]
    z = None
    # The run over M first, so that its finished row at M is known when
    # row m - 1 merges it.
    for start, stop, h, hr, _ in reversed(runs_a):
        at_m = z
        z = [0] * nb
        i = stop - 1
        while i >= start:
            h_a = h + i - start
            r_a = hr - h_a
            if i == m - 1:
                # The finished row at M with the product block's
                # min(r_b, cap) added, B's residues falling by 1 a
                # position along each of its runs.
                residues = chain(
                    *[range(hr_b - h_b, top - 1, -1) for _, _, h_b, hr_b, top in runs_b]
                )
                z = [
                    v if v > (w := u + (cap if cap < r else r)) else w
                    for v, u, r in zip(z, at_m, residues)
                ]
            # z never rises along a fill, so the entries below t are its
            # tail, and the upper run's first entry is its maximum.
            for upper, h_b, c, begin, end in steps_b:
                t = (h_a + h_b if upper is None else z[upper]) + (c if c < r_a else r_a)
                cut = bisect_right(z, -t, begin, end, key=neg)
                z[cut:end] = [t] * (end - cut)
            i -= 1
            # The next row, of residue r_a + 1, above cap_b, leaves z as it
            # is, and so does each row under it but row m - 1: jump to that
            # row, or past the run.
            if r_a >= cap_b and i != m - 1:
                i = m - 1 if i >= m else start - 1
    # The last row is A's position 0, the only stratum of height 0.
    return z[0]


def iter_chains(a: SpectrumSummary, b: SpectrumSummary) -> Iterator[AnchoredChain]:
    """Every legal anchored chain, each already carrying its fiber segment."""
    _require_exact_sides(a, b)
    sa, sb = a.strata, b.strata
    ups_a, ups_b = _ups(a), _ups(b)

    def walk(anchors, segments):
        p, q = anchors[-1]
        yield AnchoredChain(tuple(anchors), tuple(segments + [min(p.residue_td, q.residue_td)]))
        # Advance q at fixed p, then p at fixed q.
        for j, base, cap in ups_b[q.index]:
            yield from walk(anchors + [(p, sb[j])], segments + [base + min(p.residue_td, cap)])
        for i, base, cap in ups_a[p.index]:
            yield from walk(anchors + [(sa[i], q)], segments + [base + min(q.residue_td, cap)])

    for p, q in product(sa, sb):
        jump = _initial_jump(a, b, p, q)
        if jump is not None:
            yield from walk([(p, q)], [jump])


def best_chain(a: SpectrumSummary, b: SpectrumSummary) -> AnchoredChain:
    return max(iter_chains(a, b), key=lambda c: c.total)
