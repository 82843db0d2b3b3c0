"""The check suites' runner: what it counts and what it reports."""
from krulldim import formulas
from krulldim.checks import CheckFailure, catalog, run_suite, suite_names
from krulldim.spectra import summarize

# Cases per suite at its default grid, and of ``all`` by grid_max
# (None for each suite's default).
CASES = {
    "sharp-grid": 49,
    "af-grid": 225,
    "prop23": 29,
    "anchors": 8,
    "gsct-identity": 864,
    "prop24": 175,
    "oracle-tightness": 1296,
    "brewer": 180,
    "extfield": 180,
    "towers": 12,
    "lambda": 496,
    "specialization": 176,
    "symmetry": 666,
    "monotonicity": 15,
}
ALL_CASES = {None: 4371, 0: 3811, 3: 4141, 16: 28659}


def test_case_counts_are_pinned():
    assert suite_names() == tuple(CASES)
    assert {name: run_suite(name).cases for name in CASES} == CASES
    assert {g: run_suite("all", g).cases for g in ALL_CASES} == ALL_CASES


def test_a_planted_formula_bug_fails_every_suite_that_sees_it(monkeypatch):
    sharp_dim = formulas.sharp_dim
    monkeypatch.setattr(formulas, "sharp_dim", lambda s, t: sharp_dim(s, t) + ((s, t) == (3, 2)))

    report = run_suite("all")
    assert report.suite == "all" and report.cases == ALL_CASES[None]
    assert not report.passed
    assert report.failures == (
        CheckFailure("sharp-grid: field(3) ox field(2)", "2", "3"),
        CheckFailure("oracle-tightness: field3 ox field2", "3", "loose bound 2"),
        CheckFailure("extfield: field3 ox field(2)", "2", "d_value 2, dim_tensor 3"),
        CheckFailure("symmetry: field2 ox field3", "2", "3"),
    )
    # A single suite's failures carry no suite prefix.
    assert run_suite("sharp-grid").failures == (CheckFailure("field(3) ox field(2)", "2", "3"),)


def test_a_height_above_the_composed_bound_fails_gsct_identity(monkeypatch):
    # kM ox af22 at (out:0, h0): ht = delta for delta 0..2 and the bound is 2,
    # so a bound one lower holds every case but delta = 2.
    cat = catalog()
    sa, sb = summarize(cat["kM"]), summarize(cat["af22"])
    bound = formulas.composed_height_bound

    def lowered(a, b, p, q):
        planted = a is sa and b is sb and (p.label, q.label) == ("out:0", "h0")
        return bound(a, b, p, q) - planted

    monkeypatch.setattr(formulas, "composed_height_bound", lowered)
    report = run_suite("gsct-identity")
    assert report.cases == CASES["gsct-identity"]
    assert report.failures == (CheckFailure("kM ox af22, p=out:0, q=h0, delta=2", "2, <= 1", "2"),)
