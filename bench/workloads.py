"""Requests, the closed loop and the answer checks.

The program's public functions are imported here by name.  The tracing
harness replaces these bindings (and the ones inside ``krulldim.cli``,
``krulldim.formulas`` and ``krulldim.oracle``) with span-recording
wrappers, so every call below must go through a module-level name.
"""
from __future__ import annotations

import contextlib
import io
import itertools
import json
import resource
import statistics
import traceback
from array import array
from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable, Iterator, Optional

import gen
import speed
from krulldim.cli import main as cli_main
from krulldim.formulas import dim_tensor, sct_height_af, thm28_ht
from krulldim.oracle import chain_enumerate
from krulldim.parser import parse_expr
from krulldim.spectra import summarize

# p90 needs at least ten samples beyond it.
MIN_OPS = 100

RULE_CONDUCTOR = "conductor-split"
RULE_SPECIAL = "special-chain"


# --------------------------------------------------------------------------
# One op per request; each returns (value, dispatch path, oracle value or -1)


def hot_op(req: gen.Request) -> tuple[int, str, int]:
    """Library calls in the order ``cli._run_dim`` / ``cli._run_ht`` make them."""
    if req.cmd == "dim":
        report = dim_tensor(parse_expr(req.a), parse_expr(req.b))
        return report.value, report.theorem, -1
    sa = summarize(parse_expr(req.a))
    sb = summarize(parse_expr(req.b))
    p, q = sa.select(req.p), sb.select(req.q)
    if sa.pullback_data is not None:
        return thm28_ht(sa, sb, p, q, req.delta), RULE_CONDUCTOR, -1
    return sct_height_af(sa, sb, p, q, req.delta), RULE_SPECIAL, -1


def cli_argv(req: gen.Request) -> list[str]:
    argv = [req.cmd, req.a, req.b]
    if req.cmd == "ht":
        argv += ["--p", req.p, "--q", req.q, "--delta", str(req.delta)]
    return argv + ["--json"]


def cold_op(req: gen.Request) -> tuple[int, str, int]:
    """One in-process CLI request with stdout captured and its JSON parsed."""
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            code = cli_main(cli_argv(req))
    except SystemExit as exc:  # argparse rejects the command line
        raise RuntimeError(f"cli exited with {exc.code}") from exc
    if code != 0:
        raise RuntimeError(f"cli returned {code}")
    reply = json.loads(out.getvalue())
    if req.cmd == "ht" and reply["delta"] != req.delta:
        raise RuntimeError(f"cli answered delta {reply['delta']}, asked {req.delta}")
    return reply["value"], reply.get("theorem") or reply["rule"], -1


def certify_op(req: gen.Request) -> tuple[int, str, int]:
    """Oracle and formula on one pair; the check requires them equal."""
    ea, eb = parse_expr(req.a), parse_expr(req.b)
    bound = chain_enumerate(summarize(ea), summarize(eb))
    report = dim_tensor(ea, eb)
    return report.value, report.theorem, bound


@dataclass
class Workload:
    """A workload's op and its request stream for one seed.

    ``request(i)`` is request ``i`` of the stream, rebuilt from the seed
    on demand, so a loop logs stream positions rather than requests.
    ``cursor`` yields the positions in order and is shared by successive
    loops over the workload.  Peak RSS is read after ``rss_ops`` ops, a
    count the seed code reaches within a few seconds, so that the figure
    does not depend on how many ops a timed run completes.
    """

    op: Callable
    request: Callable[[int], gen.Request]
    rss_ops: int
    warm: Callable[[], None] = lambda: None
    cursor: Iterator[int] = field(default_factory=itertools.count)


def make_workload(name: str, seed: int) -> Workload:
    if name == "query-hot":
        reqs = gen.hot_requests(seed)

        def warm():
            for operand in gen.hot_working_set(seed):
                summarize(parse_expr(operand.text))

        return Workload(hot_op, lambda i: reqs[i % len(reqs)], 50_000, warm)
    if name == "query-cold":
        return Workload(cold_op, lambda i: gen.cold_request(seed, i), 5_000)
    if name == "certify":
        reqs = gen.certify_requests(seed)
        # One pass: every request has been certified once.
        return Workload(certify_op, lambda i: reqs[i % len(reqs)], len(reqs))
    raise ValueError(f"unknown workload {name!r} (known: {', '.join(gen.WORKLOADS)})")


# --------------------------------------------------------------------------
# Closed loop


@dataclass
class Log:
    """Everything one timed loop produced, in compact arrays.

    ``index`` holds the stream position of each op's request; the
    requests themselves are rebuilt with ``Workload.request`` when needed.
    """

    index: array = field(default_factory=lambda: array("q"))
    latency_s: array = field(default_factory=lambda: array("d"))
    # The speed probe's time, measured right after each op.
    probe_s: array = field(default_factory=lambda: array("d"))
    values: array = field(default_factory=lambda: array("q"))
    # The oracle's value for certify ops, -1 for the others.
    bounds: array = field(default_factory=lambda: array("q"))
    paths: array = field(default_factory=lambda: array("B"))
    path_names: dict = field(default_factory=dict)
    errors: dict = field(default_factory=dict)
    peak_rss_mb: float = 0.0

    @property
    def ops(self) -> int:
        return len(self.latency_s)

    def path(self, i: int) -> str:
        return self.path_names[self.paths[i]]

    def latency_ms(self) -> list[float]:
        """Sorted op latencies in ms, each scaled by the probe after it."""
        scale = speed.PROBE_S * 1e3
        return sorted(t / p * scale for t, p in zip(self.latency_s, self.probe_s))


def ops_per_s(logs: list[Log]) -> float:
    """Ops per second of op time over ``logs``, scaled to the probe's speed."""
    ops = sum(log.ops for log in logs)
    busy_s = sum(sum(log.latency_s) for log in logs)
    probe_s = statistics.fmean(p for log in logs for p in log.probe_s)
    return ops / busy_s * probe_s / speed.PROBE_S


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def closed_loop(
    op: Callable, wl: Workload, seconds: float, min_ops: int = MIN_OPS, rss: bool = False
) -> Log:
    """One client sends each request after the previous reply, for ``seconds``.

    Runs at least ``min_ops`` requests.  An op that raises is recorded as
    failed and the loop goes on.  The speed probe runs after each op,
    outside the op's timing.  With ``rss``, the loop also runs at
    least ``wl.rss_ops`` requests and reads peak RSS right after that op.
    """
    log = Log()
    codes: dict[str, int] = {}
    rss_at = wl.rss_ops if rss else -1
    min_ops = max(min_ops, rss_at)
    request = wl.request
    probe = speed.probe
    deadline = perf_counter() + seconds
    for n, i in enumerate(wl.cursor, 1):
        req = request(i)
        t0 = perf_counter()
        try:
            value, path, bound = op(req)
        except Exception:
            value, path, bound = -1, "error", -1
            log.errors[n - 1] = traceback.format_exc()
        t1 = perf_counter()
        log.latency_s.append(t1 - t0)
        log.probe_s.append(probe())
        log.index.append(i)
        log.values.append(value)
        log.bounds.append(bound)
        code = codes.get(path)
        if code is None:
            code = codes[path] = len(codes)
        log.paths.append(code)
        if n == rss_at:
            log.peak_rss_mb = peak_rss_mb()
        if t1 >= deadline and n >= min_ops:
            break
    log.path_names = {code: path for path, code in codes.items()}
    return log


# --------------------------------------------------------------------------
# Answer checks, run after the timed loop


@dataclass
class CheckResult:
    """Failed op index -> reason, and how many dim answers the oracle certified."""

    failures: dict[int, str]
    certified: int = 0
    tight: int = 0


class Checker:
    """Checks each answer against the chain-enumeration oracle.

    ``dim`` answers must equal the oracle; ``ht`` answers must satisfy
    0 <= ht <= dim(pair) and ht(delta) - ht(0) = delta; certify ops
    must have found the oracle equal to ``dim_tensor``.  Expected values
    are cached per pair, so repeated requests cost one comparison.
    """

    def __init__(self) -> None:
        self._oracle: dict[tuple[str, str], int] = {}
        self._ht0: dict[tuple, int] = {}

    def oracle(self, a: str, b: str) -> int:
        key = (a, b)
        if key not in self._oracle:
            self._oracle[key] = chain_enumerate(
                summarize(parse_expr(a)), summarize(parse_expr(b))
            )
        return self._oracle[key]

    def ht0(self, req: gen.Request) -> int:
        key = (req.a, req.b, req.p, req.q)
        if key not in self._ht0:
            sa = summarize(parse_expr(req.a))
            sb = summarize(parse_expr(req.b))
            p, q = sa.select(req.p), sb.select(req.q)
            fn = thm28_ht if sa.pullback_data is not None else sct_height_af
            self._ht0[key] = fn(sa, sb, p, q, 0)
        return self._ht0[key]

    def problem(self, req: gen.Request, value: int, bound: int) -> Optional[str]:
        """Why an answer is wrong, or None when it passes."""
        if req.cmd != "ht":
            oracle = bound if req.cmd == "certify" else self.oracle(req.a, req.b)
            if value != oracle:
                return f"dim_tensor {value} != oracle {oracle}"
            return None
        dim = self.oracle(req.a, req.b)
        if not 0 <= value <= dim:
            return f"ht {value} outside 0..dim {dim}"
        if value - self.ht0(req) != req.delta:
            return f"ht {value} - ht(0) {self.ht0(req)} != delta {req.delta}"
        return None

    def check(self, log: Log, wl: Workload) -> CheckResult:
        """Check every op of a loop; an op that raised has failed already."""
        result = CheckResult(dict(log.errors))
        for i, position in enumerate(log.index):
            if i in result.failures:
                continue
            req = wl.request(position)
            try:
                why = self.problem(req, log.values[i], log.bounds[i])
            except Exception:
                why = "check raised: " + traceback.format_exc()
            if req.cmd != "ht":
                result.certified += 1
                result.tight += why is None
            if why is not None:
                result.failures[i] = why
        return result


def describe(req: gen.Request) -> str:
    return " ".join(cli_argv(req)[:-1])
