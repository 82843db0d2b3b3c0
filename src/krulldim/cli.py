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

import functools
import sys
from types import SimpleNamespace

from . import formulas
from .errors import ConsistencyError, KrulldimError
from .formulas import DimReport, dim_tensor
from .parser import parse_expr, to_source
from .spectra import SpectrumSummary, read_natural, summarize

_THEOREM_DISPLAY = {formulas.THEOREM_THM28: "Thm 2.8"}


def _display_theorem(label: str) -> str:
    return _THEOREM_DISPLAY.get(label, label)


class Flag:
    """One option of a command: it stores a value, or True if ``takes_value`` is false."""

    __slots__ = ("takes_value", "default", "required", "help")

    def __init__(self, takes_value=True, default=None, required=False, help=None):
        self.takes_value, self.default, self.required = takes_value, default, required
        self.help = help


_JSON = Flag(takes_value=False, default=False)

# The one declaration of the CLI's arguments.  Each command maps to its
# help line, its positionals (name -> help) and its flags (option string
# -> Flag), each in order.  ``build_arg_parser`` builds the argparse
# parser from it, and ``read_argv`` reads plain command lines by it
# without argparse.  Tuples and a plain class, since building NamedTuple
# classes would add ~0.5 ms to every import.
COMMANDS = {
    "dim": ("dimension of A ox B", {"a": None, "b": None}, {"--json": _JSON}),
    "ht": (
        "height over a stratum pair of A ox B",
        {"a": None, "b": None},
        {
            "--p": Flag(required=True, help="stratum selector in A (0, M, h<i>, out:<h>, in:<e>)"),
            "--q": Flag(required=True, help="stratum selector in B"),
            "--delta": Flag(default="0", help="fiber offset, 0..fiber_dim"),
            "--json": _JSON,
        },
    ),
    "spectrum": ("stratified spectrum of A", {"a": None}, {"--json": _JSON}),
    "check": (
        "run a check suite",
        {"suite": "suite name or 'all'"},
        {"--grid-max": Flag(), "--json": _JSON},
    ),
    "explain": (
        "dispatch path and witnesses for A ox B", {"a": None, "b": None}, {"--json": _JSON}
    ),
}


@functools.cache
def build_arg_parser():
    """The CLI's parser, built from ``COMMANDS`` on the first call and shared by every later one.

    Each ``parse_args`` call fills a fresh namespace, so no state carries
    over from one request to the next.  argparse is imported here, so a
    command line that ``read_argv`` reads never loads it.
    """
    import argparse

    ap = argparse.ArgumentParser(
        prog="krulldim",
        description="Krull dimensions and prime heights of tensor products "
        "of k-algebras built from a constructor language.",
    )
    sub = ap.add_subparsers(dest="command", required=True)
    for name, (summary, positionals, flags) in COMMANDS.items():
        p = sub.add_parser(name, help=summary)
        for positional, text in positionals.items():
            p.add_argument(positional, help=text)
        for option, flag in flags.items():
            p.add_argument(
                option,
                action="store" if flag.takes_value else "store_true",
                default=flag.default,
                required=flag.required,
                help=flag.help,
            )
    return ap


def read_argv(argv) -> SimpleNamespace | None:
    """The attributes ``build_arg_parser().parse_args(argv)`` returns, or None.

    Reads only a plain, well-formed command line: a command name, then
    exactly its positionals, none starting with ``-``, and its flags, each
    spelled in full, at most once, with a value not starting with ``-``
    where it takes one, every required flag present.  Anything else, such
    as ``--help``, an abbreviation, ``--p=M``, ``--``, ``-1`` or a usage
    error, gives None, and is left to the argparse parser.
    """
    command = COMMANDS.get(argv[0]) if argv else None
    if command is None:
        return None
    _, names, flags = command
    given, positionals = {}, []
    tokens = iter(argv[1:])
    for token in tokens:
        if not token.startswith("-"):
            positionals.append(token)
            continue
        flag = flags.get(token)
        if flag is None or token in given:
            return None
        if flag.takes_value:
            value = next(tokens, None)
            if value is None or value.startswith("-"):
                return None
            given[token] = value
        else:
            given[token] = True
    if len(positionals) != len(names):
        return None
    args = dict(zip(names, positionals), command=argv[0])
    for option, flag in flags.items():
        if flag.required and option not in given:
            return None
        args[option[2:].replace("-", "_")] = given.get(option, flag.default)
    return SimpleNamespace(**args)


def _dumps(payload) -> str:
    """``payload`` as ``json.dumps(payload)`` writes it."""
    return "".join(_json_encoder()(payload, 0))


@functools.cache
def _json_encoder():
    """The C encoder ``json.dumps`` runs, with the arguments its defaults give.

    The ``json`` package loads ``re`` and ``enum``, ~5 ms of import for a
    one-shot request, so its accelerator module is imported instead, here
    at the first output that needs it.  No payload holds a cycle, so no
    markers are kept to detect one.
    """
    from _json import encode_basestring_ascii, make_encoder

    return make_encoder(
        markers=None,
        default=_unserializable,
        encoder=encode_basestring_ascii,
        indent=None,
        key_separator=": ",
        item_separator=", ",
        sort_keys=False,
        skipkeys=False,
        allow_nan=True,
    )


def _unserializable(value):
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


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


def _pair_json(labels: list[str], i: int, j: int, quot) -> dict:
    base, cap = quot if quot is not None else (None, None)
    return {
        "lower": labels[i],
        "upper": labels[j],
        "exact": quot is not None,
        "quot_base": base,
        "quot_cap": cap,
    }


def _spectrum_json(summary: SpectrumSummary) -> dict:
    labels = [s.label for s in summary.strata]
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
        "pairs": [_pair_json(labels, *pair) for pair in summary.iter_pairs()],
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
    labels = [s.label for s in summary.strata]
    for i, j, quot in summary.iter_pairs():
        pair = f"{labels[i]}<={labels[j]}"
        shown = "uncertified" if quot is None else "{}+min(n,{})".format(*quot)
        print(f"  {pair:<16} quot={shown}")


def _run_dim(args) -> int:
    report = dim_tensor(parse_expr(args.a), parse_expr(args.b))
    if args.json:
        print(_dumps(_dim_json(report)))
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
        print(_dumps({"value": value, "p": p.label, "q": q.label, "delta": delta, "rule": rule}))
    else:
        print(value)
    return 0


def _run_spectrum(args) -> int:
    summary = summarize(parse_expr(args.a))
    if args.json:
        print(_dumps(_spectrum_json(summary)))
    else:
        _print_spectrum_text(summary)
    return 0


def _run_check(args) -> int:
    grid_max = args.grid_max
    if grid_max is not None:
        grid_max = read_natural(grid_max, f"--grid-max {grid_max!r}")
    from .checks import run_suite

    report = run_suite(args.suite, grid_max)
    if args.json:
        print(
            _dumps(
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
        payload["refusals"] = list(report.refusals)
        print(_dumps(payload))
        return 0
    print(f"dim(A (x) B) = {report.value} via {_display_theorem(report.theorem)}")
    for line in path[:2]:
        print(f"  {line}")
    print("  gates: " + (", ".join(report.gates) or "none"))
    for label, value in report.term_breakdown:
        print(f"  term {label} = {value}")
    for w in report.witnesses:
        print(f"  witness [{w.term}] {w.ref} -> {w.value}")
    for refusal in report.refusals:
        print(f"  refused {refusal}")
    return 0


_RUNNERS = {
    "dim": _run_dim,
    "ht": _run_ht,
    "spectrum": _run_spectrum,
    "check": _run_check,
    "explain": _run_explain,
}


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = read_argv(argv)
    if args is None:  # help, or not well formed: argparse answers
        args = build_arg_parser().parse_args(argv)
    try:
        return _RUNNERS[args.command](args)
    except ConsistencyError as exc:  # a failed self-check: a bug, not a refusal
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except KrulldimError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
