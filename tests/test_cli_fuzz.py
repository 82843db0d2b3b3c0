"""Seeded fuzz of the CLI contract.

Every command line ends in exit code 0, or in exit code 2 with one
``error:`` line on stderr, and raises nothing else.  The command lines
are built from the expression grammar, then mutated, with numerals,
selectors and expressions at and just past each input bound.  A fixed
``random.Random`` seed draws the same commands on every run, once per
session, and both fuzz tests read them.
"""
import contextlib
import functools
import io
import json
import random
import re

import pytest

from krulldim import cli
from krulldim.checks import MAX_GRID
from krulldim.parser import MAX_NESTING
from krulldim.spectra import MAX_DIGITS, MAX_STRATA

SEED = 20090101
COMMANDS = 8000

# Numerals at and past each bound, and text that int() reads as a
# number but the grammar refuses.
NUMERALS = [
    "0", "1", "2", "3", "00", "9" * MAX_DIGITS, "9" * (MAX_DIGITS + 1),
    str(MAX_STRATA - 1), str(MAX_STRATA), str(MAX_GRID), str(MAX_GRID + 1),
    "-1", "+1", "1_0", "١", "²", " 1", "",
]
# Characters a mutation inserts: the grammar's own, digits, blanks and
# a few that look like them.
ALPHABET = "()=,:0123456789 \t\nafieldpolyvalpullbackTDmoutsidecatruesM-+_١²"


def _nat(rng):
    return str(rng.randrange(6))


def _expr(rng, depth=0, pullbacks=True):
    """(text, t.d., dim) of an expression of the grammar that meets its constraints."""
    kinds = ["field", "af", "val"] + ["poly"] * (depth < 2) + ["pullback"] * pullbacks
    kind = rng.choice(kinds)
    if kind == "field":
        t = rng.randrange(4)
        return f"field({t})", t, 0
    if kind == "af":
        t = rng.randrange(6)
        d = rng.randint(0, t)
        flag = rng.choice(["", ",cat=false", ",cat=true", " , cat = false"])
        return f"af({t},{d}{flag})", t, d
    if kind == "val":
        t = rng.randint(1, 5)
        d = rng.randint(1, t)
        return f"val({t},{d})", t, d
    if kind == "poly":
        base, t, d = _expr(rng, depth + 1, pullbacks=False)
        n = rng.randrange(3)
        return f"poly({base},{n})", t + n, d + n
    while True:
        ambient, t, d = _expr(rng, depth + 1, pullbacks=False)
        if d >= 1:
            break
    if ambient.startswith("val"):
        m, outside = d, rng.choice(["", f",outside={d - 1}"])
    else:
        m = rng.randint(1, d)
        outside = f",outside={rng.randint(m - 1, d)}"
    while True:
        sub, t_d, d_d = _expr(rng, depth + 1, pullbacks=False)
        if t_d <= t - m:
            break
    return f"pullback(T={ambient},m={m},D={sub}{outside})", t, max(d, m + d_d)


def _bound_expr(rng):
    """An expression at or just past a bound on numerals, nesting or strata."""
    big = rng.choice([MAX_STRATA - 1, MAX_STRATA])
    levels = rng.choice([MAX_NESTING - 1, MAX_NESTING])
    return rng.choice(
        [
            f"af({big},{big})",
            f"val({big},{big})",
            f"poly(field(0),{big})",
            f"pullback(T=val({big},{big}),m={big},D=field(0))",
            f"field({rng.choice(NUMERALS)})",
            f"af({rng.choice(NUMERALS)},{rng.choice(NUMERALS)})",
            "poly(" * levels + "field(1)" + ",0)" * levels,
        ]
    )


def _mutate(rng, text, edits):
    for _ in range(rng.randint(0, edits)):
        at = rng.randrange(len(text) + 1)
        op = rng.randrange(4)
        if op == 0:
            text = text[:at] + rng.choice(ALPHABET) + text[at:]
        elif op == 1:
            text = text[:at] + text[at + 1 :]
        elif op == 2:
            text = text[:at] + rng.choice(ALPHABET) + text[at + 1 :]
        else:
            text = text[:at]
    return text


def _maybe_mutate(rng, text, edits):
    return _mutate(rng, text, edits) if rng.random() < 0.4 else text


def _selector(rng):
    text = rng.choice(["0", "M", "0", "M", "out:", "in:"])
    if text.endswith(":"):
        text += rng.choice([_nat(rng), rng.choice(NUMERALS)])
    return _maybe_mutate(rng, text, 1)


def _argv(rng):
    """One command line; at most one operand sits at a bound.

    ``spectrum`` lists O(S^2) pairs, so its operand gets one edit at most,
    which keeps every model it prints small.
    """
    command = rng.choice(["dim", "dim", "ht", "ht", "explain", "spectrum", "check"])
    if command == "spectrum":
        argv = [command, _maybe_mutate(rng, _expr(rng)[0], 1)]
    elif command == "check":
        suite = rng.choice(["sharp-grid", "towers", "prop23", "nope", ""])
        argv = [command, _maybe_mutate(rng, suite, 1)]
        if rng.random() < 0.7:
            argv += ["--grid-max", rng.choice(NUMERALS)]
    else:
        a, b = (_maybe_mutate(rng, _expr(rng)[0], 3) for _ in "ab")
        if rng.random() < 0.3:
            a = _bound_expr(rng)
        if rng.random() < 0.5:
            a, b = b, a
        argv = [command, a, b]
        if command == "ht":
            argv += ["--p", _selector(rng), "--q", _selector(rng)]
            if rng.random() < 0.5:
                argv += ["--delta", rng.choice([_nat(rng), *NUMERALS])]
    if rng.random() < 0.5:
        argv.append("--json")
    if rng.random() < 0.05:
        argv.insert(rng.randrange(len(argv) + 1), rng.choice(["--bogus", "--p", "-"]))
    return argv


@functools.cache
def _command_lines():
    """The ``COMMANDS`` command lines drawn from ``random.Random(SEED)``, as tuples."""
    rng = random.Random(SEED)
    return tuple(tuple(_argv(rng)) for _ in range(COMMANDS))


def _outcome(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code, usage = cli.main(argv), False
        except SystemExit as exc:  # argparse refuses the command line
            code, usage = exc.code, True
    return code, usage, out.getvalue(), err.getvalue()


def test_every_command_line_exits_0_or_2_with_one_error_line():
    codes = {0: 0, 2: 0}
    for argv in map(list, _command_lines()):
        code, usage, out, err = _outcome(argv)
        assert code in (0, 2), argv
        codes[code] += 1
        error_lines = [line for line in err.splitlines() if "error:" in line]
        assert len(error_lines) == (code == 2), (argv, err)
        if code == 2 and not usage:
            assert out == "" and err.startswith("error: ") and err.count("\n") == 1, argv
    # Both outcomes are drawn often, so the fuzz reaches past the parser.
    assert min(codes.values()) > COMMANDS // 10, codes


# A span of labels: one label, or the first and last of a run, which
# share their kind and rise.
SPAN = re.compile(r"(h|out:|in:)(\d+)(?:\.\.\1(\d+))?")


def _is_ref(ref):
    """Whether ``ref`` names a side and a span, or a span for each end of a
    pair, or is Sharp's, one stratum of each side."""
    if ref == "A:h0|B:h0":
        return True
    side, _, body = ref.partition(":")
    ends = body.split("<=")
    spans = [SPAN.fullmatch(end) for end in ends]
    return side in ("A", "B") and len(ends) <= 2 and all(
        span and (span[3] is None or int(span[2]) < int(span[3])) for span in spans
    )


def test_json_witnesses_are_at_most_five_spans():
    """Each tied run or block is one witness: at most two runs of the
    outside-M term and three blocks of the through-M term."""
    replies = 0
    for argv in map(list, _command_lines()):
        if argv[0] not in ("dim", "explain") or "--json" not in argv:
            continue
        code, _, out, _ = _outcome(argv)
        if code == 0:
            replies += 1
            witnesses = json.loads(out)["witnesses"]
            assert 0 < len(witnesses) <= 5, argv
            assert all(_is_ref(w["ref"]) for w in witnesses), (argv, witnesses)
    assert replies > COMMANDS // 20, replies


# Tokens on which argparse's reading differs from a plain one: help,
# abbreviations, attached values, the end-of-options marker, operands
# that start with "-", and the empty operand.
EDGE_TOKENS = [
    "-h", "--help", "--js", "--p=M", "--", "-1", "-", "", "--p", "--q", "--delta",
    "--json", "--grid-max", "0", "M",
]


def _edit_tokens(rng, argv):
    """``argv`` with an edge token inserted, a token deleted or two swapped."""
    argv = list(argv)
    op = rng.randrange(3)
    if op == 0:
        argv.insert(rng.randrange(len(argv) + 1), rng.choice(EDGE_TOKENS))
    elif op == 1:
        del argv[rng.randrange(len(argv))]
    else:
        i, j = rng.randrange(len(argv)), rng.randrange(len(argv))
        argv[i], argv[j] = argv[j], argv[i]
    return argv


def _read_as_argparse(argv):
    """True if ``read_argv`` reads ``argv``; it must then equal ``parse_args``."""
    args = cli.read_argv(argv)
    if args is None:
        return False
    err = io.StringIO()
    try:
        with contextlib.redirect_stderr(err):
            parsed = cli.build_arg_parser().parse_args(argv)
    except SystemExit:
        raise AssertionError(f"read {argv}, which argparse refuses: {err.getvalue()}") from None
    assert vars(args) == vars(parsed), argv
    return True


def test_reader_declines_or_reads_as_argparse():
    edits = random.Random(SEED + 1)
    read = edited = 0
    for argv in map(list, _command_lines()):
        read += _read_as_argparse(argv)
        edited += _read_as_argparse(_edit_tokens(edits, argv))
    # Most plain command lines are read; edited ones are often declined.
    assert read > COMMANDS * 0.8 and 0 < edited < read, (read, edited)


PLAIN = ["ht", "a", "b", "--p", "0", "--q", "M"]


@pytest.mark.parametrize(
    "argv, read",
    [
        (["dim", "a", "b", "--js"], False),
        (["ht", "a", "b", "--p=M", "--q", "0"], False),
        (["dim", "a", "b", "--"], False),
        (["dim", "--", "a", "b"], False),
        (["dim", "a", "b", "-h"], False),
        (["ht", "a", "b", "--help"], False),
        ([*PLAIN, "--p", "M"], False),
        (["dim", "a", "b", "--json", "--json"], False),
        (["dim", "-1", "b"], False),
        (["dim", "a", "-"], False),
        ([*PLAIN, "--delta", "-1"], False),
        (["ht", "a", "b", "--p", "0"], False),
        (["ht", "a", "b", "--q", "0", "--p"], False),
        (["dim", "a"], False),
        (["dim", "a", "b", "c"], False),
        (["check"], False),
        ([], False),
        (["nope", "a", "b"], False),
        (["--json", "dim", "a", "b"], False),
        (["dim", "", "b"], True),
        (["dim", "--json", "a", "b"], True),
        (["dim", "a", "--json", "b"], True),
        (["dim", "a", "b", "--json"], True),
        (PLAIN, True),
        (["ht", "--p", "0", "a", "--delta", "2", "b", "--q", ""], True),
        (["check", "all", "--grid-max", "3", "--json"], True),
        (["spectrum", "a"], True),
        (["explain", "a", "b"], True),
    ],
)
def test_reader_on_edge_argv(argv, read):
    assert _read_as_argparse(argv) is read
