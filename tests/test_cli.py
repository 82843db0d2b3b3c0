"""Command line behaviour: outputs, schemas and exit codes."""
import json

import pytest

from krulldim import cli, oracle
from krulldim.oracle import CheckFailure, CheckReport

KM = "pullback(T=val(2,1),m=1,D=field(0),outside=0)"


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
            ["dim", "field(\u00b2)", "field(1)"],
            ["dim", "field(" + "9" * 5000 + ")", "field(1)"],
            ["dim", "af(100000,100000)", "field(1)"],
            ["ht", "af(2,2)", "af(1,1)", "--p", "out:\u00b2", "--q", "0"],
            ["check", "af-grid", "--grid-max", "-1"],
            ["check", "af-grid", "--grid-max", "40"],
        ],
        ids=["superscript", "5000-digits", "too-many-strata", "selector", "grid-low", "grid-high"],
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
