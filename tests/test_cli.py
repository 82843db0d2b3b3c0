"""Command line behaviour: outputs, schemas and exit codes."""
import json

import pytest

from krulldim import cli, oracle
from krulldim.oracle import CheckFailure, CheckReport

KM = "pullback(T=val(2,1),m=1,D=field(0),outside=0)"


def _pair(lower, upper, quot):
    base, cap = quot if quot is not None else (None, None)
    return {"lower": lower, "upper": upper, "exact": quot is not None,
            "quot_base": base, "quot_cap": cap}


HT_AF = ["ht", "af(2,2)", "af(2,1)", "--p", "out:1", "--q", "0"]
AF33_NONCAT = "af(3,3,cat=false)"

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

    @pytest.mark.parametrize("expr", list(SPECTRUM_TEXT), ids=["kM", "af33-noncat"])
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
        monkeypatch.setattr(oracle, "run_suite", lambda name, grid_max=None: broken)
        code, out, _ = run(capsys, "check", "sharp-grid")
        assert code == 1 and "FAIL" in out


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


def test_round_trip_of_printed_expression(capsys):
    # spectrum output echoes nothing parseable, so round-trip through to_source
    from krulldim.parser import parse_expr, to_source

    expr = parse_expr(KM)
    assert parse_expr(to_source(expr)) == expr
