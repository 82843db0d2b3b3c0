"""Command line behaviour: outputs, schemas and exit codes."""
import argparse
import hashlib
import json
import os
import subprocess
import sys
from itertools import product
from pathlib import Path

import pytest

import krulldim
from krulldim import checks, cli, formulas
from krulldim.checks import CheckFailure, CheckReport
from krulldim.parser import parse_expr, to_source
from krulldim.spectra import summarize

KM = "pullback(T=val(2,1),m=1,D=field(0),outside=0)"
# Gated (ht(M) = 1), but its non-catenarian T leaves pairs uncertified, so
# the conductor formula refuses it as the other operand.
PB_NONCAT = "pullback(T=af(4,3,cat=false),m=1,D=field(0),outside=2)"
# Passes no hypothesis gate.
PB_UNGATED = "pullback(T=af(6,5,cat=false),m=3,D=field(0),outside=2)"
UNCERTIFIED = (
    "tensor dimension formula needs quotient heights for pair out:1<=out:2, "
    "which the non-catenarian model does not certify"
)
NO_GATE = (
    "pullback passes no hypothesis gate (catenarian T, ht(M) <= 2 or t.d.(K:D) <= 2 needed)"
)


def _pair(lower, upper, quot):
    base, cap = quot if quot is not None else (None, None)
    return {"lower": lower, "upper": upper, "exact": quot is not None,
            "quot_base": base, "quot_cap": cap}


HT_AF = ["ht", "af(2,2)", "af(2,1)", "--p", "out:1", "--q", "0"]
AF33_NONCAT = "af(3,3,cat=false)"
# m = 2, dim(D) = 2, a product cap of 1 and both runs inexact.
PB_INEXACT = "pullback(T=af(5,3,cat=false),m=2,D=af(2,2,cat=false),outside=3)"

SPECTRUM_TEXT = {
    KM: """\
td=2 dim=1 af=false pullback(m=1, td_K=1, td_D=0, dim_D=0, td_KD=1, outside=0)
strata:
  out:0   ht=0  res=2  ht(p[n])=0+min(n,0)  [pullback/outside M/ht=0]
  in:0    ht=1  res=0  ht(p[n])=1+min(n,1)  [pullback/contains M/D-ht=0]
pairs:
  out:0<=out:0     quot=0+min(n,0)
  out:0<=in:0      quot=1+min(n,1)
  in:0<=in:0       quot=0+min(n,0)
""",
    AF33_NONCAT: """\
td=3 dim=3 af=true
strata:
  h0      ht=0  res=3  ht(p[n])=0+min(n,0)  [af(3,3)/ht=0]
  h1      ht=1  res=2  ht(p[n])=1+min(n,0)  [af(3,3)/ht=1]
  h2      ht=2  res=1  ht(p[n])=2+min(n,0)  [af(3,3)/ht=2]
  h3      ht=3  res=0  ht(p[n])=3+min(n,0)  [af(3,3)/ht=3]
pairs:
  h0<=h0           quot=0+min(n,0)
  h0<=h1           quot=1+min(n,0)
  h0<=h2           quot=2+min(n,0)
  h0<=h3           quot=3+min(n,0)
  h1<=h1           quot=0+min(n,0)
  h1<=h2           quot=uncertified
  h1<=h3           quot=uncertified
  h2<=h2           quot=0+min(n,0)
  h2<=h3           quot=uncertified
  h3<=h3           quot=0+min(n,0)
""",
    PB_INEXACT: """\
td=5 dim=4 af=false pullback(m=2, td_K=3, td_D=2, dim_D=2, td_KD=1, outside=3)
strata:
  out:0   ht=0  res=5  ht(p[n])=0+min(n,0)  [pullback/outside M/ht=0]
  out:1   ht=1  res=4  ht(p[n])=1+min(n,0)  [pullback/outside M/ht=1]
  out:2   ht=2  res=3  ht(p[n])=2+min(n,0)  [pullback/outside M/ht=2]
  out:3   ht=3  res=2  ht(p[n])=3+min(n,0)  [pullback/outside M/ht=3]
  in:0    ht=2  res=2  ht(p[n])=2+min(n,1)  [pullback/contains M/D-ht=0]
  in:1    ht=3  res=1  ht(p[n])=3+min(n,1)  [pullback/contains M/D-ht=1]
  in:2    ht=4  res=0  ht(p[n])=4+min(n,1)  [pullback/contains M/D-ht=2]
pairs:
  out:0<=out:0     quot=0+min(n,0)
  out:0<=out:1     quot=1+min(n,0)
  out:0<=out:2     quot=2+min(n,0)
  out:0<=out:3     quot=3+min(n,0)
  out:1<=out:1     quot=0+min(n,0)
  out:1<=out:2     quot=uncertified
  out:1<=out:3     quot=uncertified
  out:2<=out:2     quot=0+min(n,0)
  out:2<=out:3     quot=uncertified
  out:3<=out:3     quot=0+min(n,0)
  out:0<=in:0      quot=2+min(n,1)
  out:0<=in:1      quot=3+min(n,1)
  out:0<=in:2      quot=4+min(n,1)
  out:1<=in:0      quot=uncertified
  out:1<=in:1      quot=uncertified
  out:1<=in:2      quot=uncertified
  in:0<=in:0       quot=0+min(n,0)
  in:0<=in:1       quot=1+min(n,0)
  in:0<=in:2       quot=2+min(n,0)
  in:1<=in:1       quot=0+min(n,0)
  in:1<=in:2       quot=uncertified
  in:2<=in:2       quot=0+min(n,0)
""",
}

SPECTRUM_JSON = {
    KM: {
        "strata": [
            {"label": "out:0", "kind": "outsideM", "height": 0, "residue_td": 2,
             "poly_base": 0, "poly_cap": 0},
            {"label": "in:0", "kind": "containsM", "height": 1, "residue_td": 0,
             "poly_base": 1, "poly_cap": 1},
        ],
        "pairs": [
            _pair("out:0", "out:0", (0, 0)),
            _pair("out:0", "in:0", (1, 1)),
            _pair("in:0", "in:0", (0, 0)),
        ],
        "flags": {"td": 2, "dim": 1, "is_af": False, "is_domain": True, "is_pullback": True},
    },
    AF33_NONCAT: {
        "strata": [
            {"label": f"h{h}", "kind": "plain", "height": h, "residue_td": 3 - h,
             "poly_base": h, "poly_cap": 0}
            for h in range(4)
        ],
        "pairs": [
            _pair(f"h{i}", f"h{j}", (j - i, 0) if i in (0, j) else None)
            for i in range(4)
            for j in range(i, 4)
        ],
        "flags": {"td": 3, "dim": 3, "is_af": True, "is_domain": True, "is_pullback": False},
    },
}
# The exact bytes printed: json.dumps with its default separators, one line.
SPECTRUM_JSON = {expr: json.dumps(payload) + "\n" for expr, payload in SPECTRUM_JSON.items()}


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestDim:
    def test_sharp(self, capsys):
        code, out, _ = run(capsys, "dim", "field(2)", "field(3)")
        assert code == 0 and out.strip() == "2 (Sharp)"

    def test_pullback_against_curve(self, capsys):
        code, out, _ = run(capsys, "dim", KM, "af(1,1)")
        assert code == 0 and out.strip() == "3 (Thm 2.8)"

    def test_json_schema_order(self, capsys):
        code, out, _ = run(capsys, "dim", KM, "af(1,1)", "--json")
        assert code == 0
        payload = json.loads(out)
        assert list(payload) == ["value", "theorem", "witnesses", "terms", "gates"]
        assert payload["value"] == 3 and payload["theorem"] == "Thm2.8"

    def test_constraint_error_exit_2(self, capsys):
        code, _, err = run(capsys, "dim", "pullback(T=field(1),m=1,D=field(0),outside=0)", "field(1)")
        assert code == 2 and "m <= dim(T)" in err

    def test_syntax_error_exit_2(self, capsys):
        code, _, err = run(capsys, "dim", "field(", "field(1)")
        assert code == 2 and "syntax error" in err

    @pytest.mark.parametrize(
        "argv",
        [
            pytest.param(["dim", "field(\u00b2)", "field(1)"], id="superscript"),
            pytest.param(["dim", "field(" + "9" * 5000 + ")", "field(1)"], id="5000-digits"),
            pytest.param(["dim", "af(100000,100000)", "field(1)"], id="too-many-strata"),
            pytest.param(
                ["ht", "af(2,2)", "af(1,1)", "--p", "out:\u00b2", "--q", "0"], id="selector"
            ),
            pytest.param(["check", "af-grid", "--grid-max", "-1"], id="grid-low"),
            pytest.param(["check", "af-grid", "--grid-max", "40"], id="grid-high"),
            # int() accepts these three numerals.
            *(
                pytest.param([*argv, value], id=f"{argv[-1]}={name}")
                for argv in (HT_AF + ["--delta"], ["check", "sharp-grid", "--grid-max"])
                for name, value in (
                    ("arabic-indic", "\u0661"), ("underscore", "1_0"), ("plus", "+1")
                )
            ),
        ],
    )
    def test_refusal_is_one_error_line(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_oversize_subring_reports_its_own_count(self, capsys):
        # D alone has 2501 strata, the whole pullback 2502; D is refused first.
        pb = "pullback(T=af(3000,1),m=1,D=af(2999,2500),outside=0)"
        assert run(capsys, "dim", pb, "field(1)") == (
            2, "", "error: a spectrum model of 2501 strata is over the limit of 2048\n"
        )

    def test_deep_nesting_exit_2(self, capsys):
        deep = "poly(" * 2000 + "field(1)" + ",0)" * 2000
        code, _, err = run(capsys, "dim", deep, "field(1)")
        assert code == 2 and "nests deeper" in err


class TestHt:
    def test_pullback_height(self, capsys):
        code, out, _ = run(capsys, "ht", KM, "af(1,1)", "--p", "M", "--q", "M")
        assert code == 0 and out.strip() == "3"

    def test_af_height_with_delta(self, capsys):
        code, out, _ = run(capsys, "ht", "af(2,2)", "af(2,1)", "--p", "out:1", "--q", "0", "--delta", "1")
        assert code == 0 and out.strip() == "2"

    def test_json(self, capsys):
        code, out, _ = run(capsys, "ht", KM, "af(1,1)", "--p", "M", "--q", "0", "--json")
        payload = json.loads(out)
        assert code == 0
        assert payload == {"value": 2, "p": "in:0", "q": "h0", "delta": 0, "rule": "conductor-split"}

    def test_delta_out_of_range_exit_2(self, capsys):
        code, _, err = run(capsys, "ht", KM, "af(1,1)", "--p", "M", "--q", "M", "--delta", "5")
        assert code == 2 and "delta" in err


class TestSpectrum:
    def test_text(self, capsys):
        code, out, _ = run(capsys, "spectrum", KM)
        assert code == 0
        assert "td=2 dim=1 af=false" in out
        assert "in:0" in out and "out:0" in out

    def test_json_schema(self, capsys):
        code, out, _ = run(capsys, "spectrum", KM, "--json")
        payload = json.loads(out)
        assert code == 0
        assert list(payload) == ["strata", "pairs", "flags"]
        assert payload["flags"] == {
            "td": 2,
            "dim": 1,
            "is_af": False,
            "is_domain": True,
            "is_pullback": True,
        }
        assert {s["label"] for s in payload["strata"]} == {"out:0", "in:0"}

    @pytest.mark.parametrize(
        "expr", list(SPECTRUM_TEXT), ids=["kM", "af33-noncat", "pullback-inexact"]
    )
    def test_text_golden(self, capsys, expr):
        assert run(capsys, "spectrum", expr) == (0, SPECTRUM_TEXT[expr], "")

    @pytest.mark.parametrize("expr", list(SPECTRUM_JSON), ids=["kM", "af33-noncat"])
    def test_json_golden(self, capsys, expr):
        assert run(capsys, "spectrum", expr, "--json") == (0, SPECTRUM_JSON[expr], "")


class TestCheck:
    def test_passing_suite(self, capsys):
        code, out, _ = run(capsys, "check", "sharp-grid")
        assert code == 0 and "49 cases, 0 failures" in out

    def test_json(self, capsys):
        code, out, _ = run(capsys, "check", "towers", "--json")
        payload = json.loads(out)
        assert code == 0
        assert list(payload) == ["suite", "cases", "failures"]

    def test_unknown_suite_exit_2(self, capsys):
        code, _, err = run(capsys, "check", "nope")
        assert code == 2 and "unknown suite" in err

    def test_failing_suite_exit_1(self, capsys, monkeypatch):
        broken = CheckReport(
            suite="sharp-grid",
            cases=1,
            failures=(CheckFailure("field(1) ox field(1)", "1", "2"),),
        )
        monkeypatch.setattr(checks, "run_suite", lambda name, grid_max=None: broken)
        code, out, _ = run(capsys, "check", "sharp-grid")
        assert code == 1 and "FAIL" in out


class TestFailedSelfCheck:
    """A cross-check that disagrees is a failure (exit 1), never a refusal (exit 2)."""

    PB_VAL32 = "pullback(T=val(3,2),m=2,D=field(0))"

    @pytest.fixture(autouse=True)
    def planted_fault(self, monkeypatch):
        # As in test_formulas' TestCrossChecks: the two-sided pullback
        # formula answers one more than the conductor formula.
        two_sided = formulas.pullback_pair_dim
        monkeypatch.setattr(formulas, "pullback_pair_dim", lambda a, b: two_sided(a, b) + 1)

    def test_dim_exits_1_with_one_error_line(self, capsys):
        code, out, err = run(capsys, "dim", KM, self.PB_VAL32)
        assert code == 1 and out == ""
        assert err.startswith("error: two-sided pullback formula (A, B) gives ")
        assert err.count("\n") == 1

    def test_check_counts_the_stopped_suite_and_runs_the_rest(self, capsys):
        report = checks.run_suite("all")
        stopped = [f for f in report.failures if f.inputs.endswith(": suite stopped")]
        assert stopped and len(stopped) == len(report.failures)
        assert all(f.actual.startswith("ConsistencyError: two-sided") for f in stopped)
        # Each stopped suite counts one case more than it finished, and
        # every other suite, before or after it, ran all its cases.
        stopped_names = {f.inputs.split(":")[0] for f in stopped}
        ran = [checks.run_suite(n).cases for n in checks.suite_names() if n not in stopped_names]
        assert report.cases >= sum(ran) + len(stopped)
        code, out, _ = run(capsys, "check", "all")
        assert code == 1
        assert out.startswith(f"suite all: {report.cases} cases, {len(stopped)} failures\n")


class TestExplain:
    def test_text(self, capsys):
        code, out, _ = run(capsys, "explain", KM, KM)
        assert code == 0
        assert "dim(A (x) B) = 3 via Thm 2.8" in out
        assert "gates:" in out and "witness" in out

    def test_json_includes_path(self, capsys):
        code, out, _ = run(capsys, "explain", "field(1)", "field(2)", "--json")
        payload = json.loads(out)
        assert code == 0 and payload["path"][-1] == "dispatched to Sharp"

    @pytest.mark.parametrize(
        "a, b, theorem, refusal",
        [
            (PB_NONCAT, KM, "Thm2.8", "B: " + UNCERTIFIED),
            ("field(1)", PB_UNGATED, "Wadsworth3.7", "B: " + NO_GATE),
        ],
        ids=["thm28", "w37"],
    )
    def test_refused_orientation_is_reported(self, capsys, a, b, theorem, refusal):
        code, out, _ = run(capsys, "explain", a, b, "--json")
        payload = json.loads(out)
        assert code == 0 and payload["theorem"] == theorem
        assert list(payload)[-2:] == ["path", "refusals"]
        assert payload["refusals"] == [refusal]
        code, out, _ = run(capsys, "explain", a, b)
        assert code == 0 and out.endswith(f"\n  refused {refusal}\n")
        # dim keeps its schema: the refusals are explain's alone.
        code, out, _ = run(capsys, "dim", a, b, "--json")
        assert list(json.loads(out)) == ["value", "theorem", "witnesses", "terms", "gates"]

    def test_no_refusals(self, capsys):
        assert json.loads(run(capsys, "explain", KM, KM, "--json")[1])["refusals"] == []
        assert "refused" not in run(capsys, "explain", KM, KM)[1]


class TestSharedParser:
    def test_built_once_across_calls(self, capsys, monkeypatch):
        # Well-formed command lines are read without argparse; help and
        # usage errors share one parser, built on the first of them.
        def no_parse(*args, **kwargs):
            raise AssertionError("argparse parsed a well-formed command line")

        well_formed = [
            ["dim", "field(1)", "field(2)"],
            ["ht", "af(3,3)", "af(3,3)", "--p", "0", "--q", "0", "--delta", "1", "--json"],
            ["spectrum", "field(1)", "--json"],
            ["explain", "--json", "field(1)", "field(2)"],
        ]
        cli.build_arg_parser.cache_clear()
        with monkeypatch.context() as patched:
            patched.setattr(argparse.ArgumentParser, "parse_args", no_parse)
            for i in range(100):
                assert cli.main(well_formed[i % len(well_formed)]) == 0
        assert cli.build_arg_parser.cache_info().misses == 0
        assert cli.main(["dim", "field(1)", "field(2)", "--js"]) == 0
        for argv in (["--help"], ["dim", "field(1)"], ["ht", "--help"]):
            with pytest.raises(SystemExit):
                cli.main(argv)
        assert cli.build_arg_parser.cache_info().misses == 1

    def test_argv_defaults_to_the_process_command_line(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "argv", ["krulldim", "dim", "field(2)", "field(3)"])
        assert cli.main() == 0
        assert capsys.readouterr().out == "2 (Sharp)\n"

    def test_no_state_carries_between_calls(self, capsys):
        ht = ["ht", "af(3,3)", "af(3,3)", "--p", "0", "--q", "0", "--json"]
        assert json.loads(run(capsys, *ht, "--delta", "3")[1])["delta"] == 3
        assert run(capsys, "dim", "field(1)", "field(2)") == (0, "1 (Sharp)\n", "")
        assert json.loads(run(capsys, *ht)[1])["delta"] == 0

    def test_usage_error_then_good_call(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["dim", "field(1)"])
        assert exc.value.code == 2
        capsys.readouterr()
        assert run(capsys, "dim", "field(1)", "field(2)") == (0, "1 (Sharp)\n", "")

    @pytest.mark.parametrize(
        "argv",
        [
            ["--help"],
            ["ht", "--help"],
            [],
            ["nope"],
            ["dim", "field(1)"],
            ["ht", "af(1,1)", "af(1,1)", "--p", "0"],
            ["spectrum", "field(1)", "--bogus"],
        ],
        ids=["help", "ht-help", "no-command", "bad-command", "missing-b", "missing-q", "bogus"],
    )
    def test_help_and_usage_errors_match_a_fresh_parser(self, capsys, argv):
        run(capsys, "dim", "field(1)", "field(2)")

        def outcome(parse):
            with pytest.raises(SystemExit) as exc:
                parse(argv)
            captured = capsys.readouterr()
            return exc.value.code, captured.out, captured.err

        fresh = cli.build_arg_parser.__wrapped__()
        assert outcome(cli.main) == outcome(fresh.parse_args)


def test_answering_builds_no_pair_view(capsys):
    # The catalog shares kM with other tests, which may have built its views.
    summarize.cache_clear()
    big = "af(300,300)"
    for a, b in ((KM, big), (big, KM)):
        for argv in (
            ["dim", a, b],
            ["ht", a, b, "--p", "M", "--q", "M"],
            ["explain", a, b],
            ["spectrum", a],
            ["spectrum", a, "--json"],
        ):
            assert run(capsys, *argv)[0] == 0
    # ht and spectrum build the strata, which spectrum labels its pairs
    # from; dim keeps the first uncertified pair, none.
    for text in (KM, big):
        built = vars(summarize(parse_expr(text)))
        assert set(built) <= {"strata", "uncertified"}, text


def test_text_dim_builds_no_witness(capsys, monkeypatch):
    # About 2.1M tied through-M pairs, in one block and so one witness,
    # which the text answer does not build.
    tied = "pullback(T=af(2048,1),m=1,D=af(2046,10),outside=0)"

    def no_witness(*args):
        raise AssertionError("a Witness was built")

    monkeypatch.setattr(formulas, "Witness", no_witness)
    assert run(capsys, "dim", tied, "af(2047,2047)") == (0, "2059 (Thm 2.8)\n", "")


def _fresh_python(*args) -> str:
    """stdout of a new interpreter run with ``args``, the package on its path."""
    path = [str(Path(krulldim.__file__).parents[1]), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    done = subprocess.run(
        [sys.executable, *args], env=env, capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_import_builds_no_parser_and_parses_nothing():
    code = (
        "import sys; from krulldim import cli, parser; "
        "print(cli.build_arg_parser.cache_info().currsize, "
        "parser.parse_expr.cache_info().currsize, 'argparse' in sys.modules)"
    )
    assert _fresh_python("-c", code).split() == ["0", "0", "False"]


# Loaded only by the requests that use them: the check suites and the
# oracle by ``check``.
DEFERRED = ("krulldim.checks", "krulldim.oracle")
# Loaded by no request: --json output is written without the json
# package, which imports re, and re imports enum.
NEVER = ("json", "re", "enum")


def test_import_loads_no_json_checks_oracle_dataclasses_inspect_typing_or_argparse():
    # -S, since site may load typing, re and enum for an installed
    # package's .pth file.
    modules = {"dataclasses", "inspect", "typing", "argparse", *DEFERRED, *NEVER}
    code = f"import sys, krulldim, krulldim.cli; print(sorted({modules!r} & set(sys.modules)))"
    assert _fresh_python("-S", "-c", code) == "[]\n"


@pytest.mark.parametrize(
    "argv, loads",
    [
        (["dim", KM, "af(1,1)"], []),
        (HT_AF, []),
        (["dim", KM, "af(1,1)", "--json"], []),
        (["check", "sharp-grid"], ["krulldim.checks", "krulldim.oracle"]),
    ],
    ids=["dim", "ht", "dim-json", "check"],
)
def test_a_request_loads_json_checks_and_oracle_only_if_it_uses_them(capsys, argv, loads):
    code = (
        "import sys; from krulldim import cli; code = cli.main(sys.argv[1:]); "
        f"print(sorted(set({DEFERRED + NEVER!r}) & set(sys.modules))); sys.exit(code)"
    )
    *printed, loaded = _fresh_python("-S", "-c", code, *argv).splitlines(keepends=True)
    assert loaded == f"{loads}\n"
    # The same bytes as the same request in this process, which has them all loaded.
    assert "".join(printed) == run(capsys, *argv)[1]


@pytest.mark.parametrize(
    "payload",
    [
        {"value": 3, "gates": ["A:AF"], "flag": True, "none": None, "off": False, "empty": {}},
        [(), [], ("a", 1), -12, 10**30],
        "quote \" backslash \\ controls \n\t\x00\x1f\x7f del é ∞ 😀",
    ],
    ids=["dict", "sequences", "escapes"],
)
def test_json_output_is_what_json_dumps_writes(payload):
    assert cli._dumps(payload) == json.dumps(payload)


def test_json_output_refuses_what_json_dumps_refuses():
    with pytest.raises(TypeError, match="not JSON serializable"):
        cli._dumps({"value": {1, 2}})


def test_check_json_output_reads_back_to_the_same_text(capsys):
    code, out, _ = run(capsys, "check", "sharp-grid", "--json")
    assert code == 0
    assert out == json.dumps(json.loads(out)) + "\n"


# The package names that resolve from their submodule on first use.
LAZY_NAMES = {
    "CheckReport": "checks",
    "catalog": "checks",
    "run_suite": "checks",
    "suite_names": "checks",
    "AnchoredChain": "oracle",
    "brewer_poly_dim": "oracle",
    "chain_enumerate": "oracle",
    "ext_field_dim": "oracle",
    "iter_chains": "oracle",
}


@pytest.mark.parametrize("name, module", LAZY_NAMES.items(), ids=list(LAZY_NAMES))
def test_a_lazy_package_name_is_its_modules_object(name, module):
    code = (
        f"import krulldim; print({name!r} in vars(krulldim)); "
        f"from krulldim import {name}; from krulldim.{module} import {name} as own; "
        f"print({name} is krulldim.{name} is own is vars(krulldim)[{name!r}])"
    )
    assert _fresh_python("-S", "-c", code) == "False\nTrue\n"


def test_an_unknown_package_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="^module 'krulldim' has no attribute 'no_such_name'$"):
        krulldim.no_such_name


def test_round_trip_of_printed_expression(capsys):
    # spectrum output echoes nothing parseable, so round-trip through to_source
    from krulldim.parser import parse_expr, to_source

    expr = parse_expr(KM)
    assert parse_expr(to_source(expr)) == expr


# The catalog and four non-catenarian inputs: a non-catenarian AF-domain,
# a gated and an ungated pullback over a non-catenarian T, and a pullback
# over a non-catenarian D.
PARITY_OPERANDS = [to_source(e) for e in checks.catalog().values()] + [
    AF33_NONCAT,
    PB_NONCAT,
    PB_UNGATED,
    "pullback(T=val(3,1),m=1,D=af(2,2,cat=false),outside=0)",
]
# sha256 of every exit code, stdout and stderr below, pinned so that a
# change to the model or the formulas cannot alter a byte of output.
PARITY_SHA256 = "5d9afc82cb339909fcee0eaf8012d7f5b3fcf57c0f24e19723962eab20e9acc5"


def test_output_parity_pin(capsys):
    digest = hashlib.sha256()

    def feed(*argv):
        code, out, err = run(capsys, *argv)
        digest.update(f"{argv}\0{code}\0{out}\0{err}\0".encode())

    for a in PARITY_OPERANDS:
        feed("spectrum", a, "--json")
    for a, b in product(PARITY_OPERANDS, repeat=2):
        feed("dim", a, b, "--json")
        feed("explain", a, b, "--json")
        for p, q in product("0M", repeat=2):
            feed("ht", a, b, "--p", p, "--q", q, "--json")
    assert digest.hexdigest() == PARITY_SHA256
