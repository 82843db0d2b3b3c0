"""Command line interface.

Commands:

    krulldim dim A B            tensor product dimension with provenance
    krulldim ht A B --p S --q S [--delta N]   height over a stratum pair
    krulldim spectrum A         the stratified spectrum model
    krulldim check SUITE        run a named check suite (or "all")
    krulldim explain A B        dispatch path, gates and witnesses

Exit codes: 0 success, 1 check failure, 2 parse or constraint error.
"""
from __future__ import annotations

import argparse
import json
import sys

from . import formulas, oracle
from .errors import KrulldimError
from .formulas import DimReport, dim_tensor
from .parser import parse_expr, to_source
from .spectra import SpectrumSummary, read_natural, summarize

_THEOREM_DISPLAY = {formulas.THEOREM_THM28: "Thm 2.8"}


def _display_theorem(label: str) -> str:
    return _THEOREM_DISPLAY.get(label, label)


def build_arg_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="krulldim",
        description="Krull dimensions and prime heights of tensor products "
        "of k-algebras built from a constructor language.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p_dim = sub.add_parser("dim", help="dimension of A ox B")
    p_dim.add_argument("a")
    p_dim.add_argument("b")
    p_dim.add_argument("--json", action="store_true")

    p_ht = sub.add_parser("ht", help="height over a stratum pair of A ox B")
    p_ht.add_argument("a")
    p_ht.add_argument("b")
    p_ht.add_argument("--p", required=True, help="stratum selector in A (0, M, out:<h>, in:<e>)")
    p_ht.add_argument("--q", required=True, help="stratum selector in B")
    p_ht.add_argument("--delta", default="0", help="fiber offset, 0..fiber_dim")
    p_ht.add_argument("--json", action="store_true")

    p_spec = sub.add_parser("spectrum", help="stratified spectrum of A")
    p_spec.add_argument("a")
    p_spec.add_argument("--json", action="store_true")

    p_check = sub.add_parser("check", help="run a check suite")
    p_check.add_argument("suite", help="suite name or 'all'")
    p_check.add_argument("--grid-max", default=None)
    p_check.add_argument("--json", action="store_true")

    p_explain = sub.add_parser("explain", help="dispatch path and witnesses for A ox B")
    p_explain.add_argument("a")
    p_explain.add_argument("b")
    p_explain.add_argument("--json", action="store_true")

    return ap


def _dim_json(report: DimReport) -> dict:
    return {
        "value": report.value,
        "theorem": report.theorem,
        "witnesses": [
            {"term": w.term, "ref": w.ref, "value": w.value} for w in report.witnesses
        ],
        "terms": [[label, value] for label, value in report.term_breakdown],
        "gates": list(report.gates),
    }


def _pair_json(summary: SpectrumSummary, i: int, j: int, quot) -> dict:
    base, cap = quot if quot is not None else (None, None)
    return {
        "lower": summary.labels[i],
        "upper": summary.labels[j],
        "exact": quot is not None,
        "quot_base": base,
        "quot_cap": cap,
    }


def _spectrum_json(summary: SpectrumSummary) -> dict:
    return {
        "strata": [
            {
                "label": s.label,
                "kind": s.kind,
                "height": s.height,
                "residue_td": s.residue_td,
                "poly_base": s.height,
                "poly_cap": s.cap,
            }
            for s in summary.strata
        ],
        "pairs": [_pair_json(summary, *pair) for pair in summary.pairs],
        "flags": {
            "td": summary.td,
            "dim": summary.dim,
            "is_af": summary.is_af,
            "is_domain": True,
            "is_pullback": summary.pullback_data is not None,
        },
    }


def _print_spectrum_text(summary: SpectrumSummary) -> None:
    flags = f"td={summary.td} dim={summary.dim} af={str(summary.is_af).lower()}"
    pd = summary.pullback_data
    if pd is not None:
        flags += (
            f" pullback(m={pd.m}, td_K={pd.td_k}, td_D={pd.td_d},"
            f" dim_D={pd.dim_d}, td_KD={pd.td_kd}, outside={pd.outside})"
        )
    print(flags)
    print("strata:")
    for s in summary.strata:
        print(
            f"  {s.label:<7} ht={s.height}  res={s.residue_td}  "
            f"ht(p[n])={s.height}+min(n,{s.cap})  [{summary.provenance(s.index)}]"
        )
    print("pairs:")
    for i, j, quot in summary.pairs:
        shown = "uncertified" if quot is None else "{}+min(n,{})".format(*quot)
        print(f"  {summary.pair_label(i, j):<16} quot={shown}")


def _run_dim(args) -> int:
    report = dim_tensor(parse_expr(args.a), parse_expr(args.b))
    if args.json:
        print(json.dumps(_dim_json(report)))
    else:
        print(f"{report.value} ({_display_theorem(report.theorem)})")
    return 0


def _run_ht(args) -> int:
    delta = read_natural(args.delta, f"--delta {args.delta!r}")
    sa = summarize(parse_expr(args.a))
    sb = summarize(parse_expr(args.b))
    p = sa.select(args.p)
    q = sb.select(args.q)
    if sa.pullback_data is not None:
        rule = "conductor-split"
        value = formulas.thm28_ht(sa, sb, p, q, delta)
    else:
        rule = "special-chain"
        value = formulas.sct_height_af(sa, sb, p, q, delta)
    if args.json:
        print(
            json.dumps({"value": value, "p": p.label, "q": q.label, "delta": delta, "rule": rule})
        )
    else:
        print(value)
    return 0


def _run_spectrum(args) -> int:
    summary = summarize(parse_expr(args.a))
    if args.json:
        print(json.dumps(_spectrum_json(summary)))
    else:
        _print_spectrum_text(summary)
    return 0


def _run_check(args) -> int:
    grid_max = args.grid_max
    if grid_max is not None:
        grid_max = read_natural(grid_max, f"--grid-max {grid_max!r}")
    report = oracle.run_suite(args.suite, grid_max)
    if args.json:
        print(
            json.dumps(
                {
                    "suite": report.suite,
                    "cases": report.cases,
                    "failures": [
                        {"inputs": f.inputs, "expected": f.expected, "actual": f.actual}
                        for f in report.failures
                    ],
                }
            )
        )
    else:
        print(f"suite {report.suite}: {report.cases} cases, {len(report.failures)} failures")
        for f in report.failures:
            print(f"  FAIL {f.inputs}: expected {f.expected}, got {f.actual}")
    return 0 if report.passed else 1


def _run_explain(args) -> int:
    ea, eb = parse_expr(args.a), parse_expr(args.b)
    report = dim_tensor(ea, eb)
    path = [
        f"A = {to_source(ea)}",
        f"B = {to_source(eb)}",
        f"dispatched to {_display_theorem(report.theorem)}",
    ]
    if args.json:
        payload = _dim_json(report)
        payload["path"] = path
        print(json.dumps(payload))
        return 0
    print(f"dim(A (x) B) = {report.value} via {_display_theorem(report.theorem)}")
    for line in path[:2]:
        print(f"  {line}")
    print("  gates: " + (", ".join(report.gates) or "none"))
    for label, value in report.term_breakdown:
        print(f"  term {label} = {value}")
    for w in report.witnesses:
        print(f"  witness [{w.term}] {w.ref} -> {w.value}")
    return 0


_RUNNERS = {
    "dim": _run_dim,
    "ht": _run_ht,
    "spectrum": _run_spectrum,
    "check": _run_check,
    "explain": _run_explain,
}


def main(argv=None) -> int:
    args = build_arg_parser().parse_args(argv)
    try:
        return _RUNNERS[args.command](args)
    except KrulldimError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
