"""Acceptance criteria, one test per criterion, all tolerances zero.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one pass/fail
line per criterion.
"""
import time

import pytest

from krulldim.checks import run_suite, suite_names
from krulldim.formulas import (
    THEOREM_THM28,
    af_pair_dim,
    d_value,
    dim_tensor,
    pullback_pair_dim,
)
from krulldim.oracle import brewer_poly_dim, chain_enumerate
from krulldim.spectra import (
    AfDomain,
    Field,
    PolyRing,
    Pullback,
    Valuation,
    is_af_poly,
    summarize,
)

KM = Pullback(Valuation(2, 1), 1, Field(0))


def _passes(n, label, report):
    assert report.passed, f"criterion {n} ({label}): {report.failures[:3]}"
    print(f"ACCEPTANCE {n} ({label}): PASS [{report.cases} cases]")


def test_criterion_01_sharp_grid():
    """dim(field(s) ox field(t)) = min(s, t) for all s, t in 0..6."""
    start = time.time()
    report = run_suite("sharp-grid", 6)
    assert report.cases == 49
    assert time.time() - start < 1.0
    _passes(1, "sharp grid", report)


def test_criterion_02_af_agreement_grid():
    """Both one-sided evaluations and the minimum formula agree on AF pairs, t <= 4."""
    report = run_suite("af-grid", 4)
    assert report.cases == 15 * 15
    # spot check the three-way agreement once more, independently of the suite
    sa, sb = summarize(AfDomain(4, 2)), summarize(AfDomain(3, 1))
    assert af_pair_dim(sa, sb) == d_value(4, 2, sb) == d_value(3, 1, sa) == 5
    _passes(2, "AF agreement grid", report)


def test_criterion_03_af_poly_threshold():
    """For catalog pullbacks with t.d.(K:D) = c >= 1, A[n] is AF exactly from n = c."""
    report = run_suite("prop23")
    for expr in [KM, Pullback(Valuation(3, 1), 1, Field(0))]:
        s = summarize(expr)
        c = s.pullback_data.td_kd
        assert not is_af_poly(s, c - 1) and is_af_poly(s, c)
    _passes(3, "polynomial AF threshold", report)


def test_criterion_04_km_anchor_values():
    """Three independent paths give dim(kM ox k[x]) = 3."""
    report = dim_tensor(KM, PolyRing(Field(0), 1))
    assert (report.value, report.theorem) == (3, THEOREM_THM28)
    assert brewer_poly_dim(summarize(KM), 1) == 3
    assert chain_enumerate(summarize(KM), summarize(PolyRing(Field(0), 1))) == 3
    print("ACCEPTANCE 4 (k+M anchor values): PASS [3 independent paths]")


def test_criterion_05_pullback_pair():
    """dim(kM ox kM) = 3 in both orientations and via the two-sided formula."""
    ab, ba = dim_tensor(KM, KM), dim_tensor(KM, KM)
    assert (ab.value, ab.theorem) == (3, THEOREM_THM28)
    assert ba.value == 3
    assert pullback_pair_dim(summarize(KM), summarize(KM)) == 3
    print("ACCEPTANCE 5 (pullback pair): PASS")


def test_criterion_06_gsct_identity():
    """Heights split as mixed ideal height plus fiber offset, exhaustively."""
    start = time.time()
    report = run_suite("gsct-identity")
    elapsed = time.time() - start
    assert report.cases >= 500
    assert elapsed < 10.0, f"gsct suite took {elapsed:.1f}s"
    _passes(6, "GSCT identity", report)


def test_criterion_07_pair_height_inequality():
    """lower height + quotient base <= upper height on every certified pair."""
    _passes(7, "pair height inequality", run_suite("prop24"))


def test_criterion_08_oracle_soundness_and_tightness():
    """chain_enumerate <= dim_tensor everywhere on the catalog, with equality."""
    _passes(8, "oracle soundness and tightness", run_suite("oracle-tightness"))


def test_criterion_09_valuation_towers():
    """val(t, d) has dimension d and is AF for d <= 3, t <= 5."""
    report = run_suite("towers")
    for d in range(1, 4):
        for t in range(d, 6):
            s = summarize(Valuation(t, d))
            assert s.dim == d and s.is_af
    _passes(9, "valuation towers", report)


def test_criterion_10_full_suite_under_a_minute():
    """All check suites complete in under sixty seconds."""
    start = time.time()
    for name in suite_names():
        report = run_suite(name)
        assert report.passed, f"{name}: {report.failures[:3]}"
    elapsed = time.time() - start
    assert elapsed < 60.0, f"full suite took {elapsed:.1f}s"
    print(f"ACCEPTANCE 10 (wall clock): PASS [{elapsed:.1f}s]")
