"""Outside-in span tracing of the program's layers.

The harness never edits the program.  It replaces each traced public
function, wherever a calling module has bound it by name, with a wrapper
that records a span: name, start, end, parent span and op id.  Spans
live in flat arrays until the run ends, when they are written out and
reduced to per-op call counts and self times.  A span's self time is its
duration minus the durations of its child spans; in one thread the
children of a span never overlap, so that is the part of its interval
no child covers.
"""
from __future__ import annotations

import contextlib
from array import array
from pathlib import Path
from time import perf_counter
from types import ModuleType
from typing import Callable, Iterator

from krulldim import cli, formulas, oracle, parser, spectra
from krulldim.errors import ApplicabilityError, InexactPairError

# Traced function -> span name.  Both height formulas share one name.
TRACED = (
    (cli.main, "cli.main"),
    (parser.parse_expr, "parser.parse_expr"),
    (spectra.summarize, "spectra.summarize"),
    (formulas.dim_tensor, "formulas.dim_tensor"),
    (formulas.thm28_ht, "formulas.height"),
    (formulas.sct_height_af, "formulas.height"),
    (oracle.chain_enumerate, "oracle.chain_enumerate"),
)

# dim_tensor tries thm28_dim once per pullback orientation and catches
# its refusals, so no span would see them.  It is wrapped without a span,
# only to count those refusals.
COUNTED = (formulas.thm28_dim,)

# Modules whose name bindings are replaced, besides the benchmark's own.
PROGRAM_NAMESPACES = (cli, formulas, oracle)

OP_SPAN = "op"
LAYERS = tuple(dict.fromkeys(name for _, name in TRACED))

# Refusals: a formula declined the request rather than answering it.
REFUSALS = (ApplicabilityError, InexactPairError)


class Tracer:
    """Records spans and the counters measured at the same boundaries."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.name: array = array("B")
        self.start: array = array("d")
        self.end: array = array("d")
        self.parent: array = array("l")
        self.op: array = array("l")
        self.stack: list[int] = []
        self.op_id = -1
        self.refused = 0
        self.summaries = 0
        self.strata = 0
        self.pairs = 0

    def _code(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def wrap(self, fn: Callable, name: str, root: bool = False) -> Callable:
        """``fn`` recording one span per call; a root span starts a new op."""
        code = self._code(name)
        is_formula = name.startswith("formulas.")
        is_summary = name == "spectra.summarize"
        names, start, end, parent, op, stack = (
            self.name, self.start, self.end, self.parent, self.op, self.stack
        )

        def traced(*args, **kwargs):
            if root:
                self.op_id += 1
            i = len(start)
            names.append(code)
            parent.append(stack[-1] if stack else -1)
            op.append(self.op_id)
            end.append(0.0)
            stack.append(i)
            start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            except REFUSALS:
                if is_formula:
                    self.refused += 1
                raise
            finally:
                end[i] = perf_counter()
                stack.pop()
            if is_summary:
                self.summaries += 1
                self.strata += len(result.strata)
                self.pairs += len(result.pairs)
            return result

        traced.__wrapped__ = fn
        return traced

    def count_refusals(self, fn: Callable) -> Callable:
        """``fn`` counting the refusals it raises, without recording a span."""

        def counted(*args, **kwargs):
            try:
                return fn(*args, **kwargs)
            except REFUSALS:
                self.refused += 1
                raise

        counted.__wrapped__ = fn
        return counted

    def _self_times(self) -> list[float]:
        child = [0.0] * len(self.start)
        for i, p in enumerate(self.parent):
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        return [e - s - c for s, e, c in zip(self.start, self.end, child)]

    def report(self, ops: int) -> dict[str, float]:
        """Per-op calls and self milliseconds of every layer, plus counters."""
        calls = dict.fromkeys(self.names, 0)
        self_s = dict.fromkeys(self.names, 0.0)
        for code, own in zip(self.name, self._self_times()):
            calls[self.names[code]] += 1
            self_s[self.names[code]] += own
        out: dict[str, float] = {}
        for layer in LAYERS:
            out[f"{layer}.calls"] = calls.get(layer, 0) / ops
            out[f"{layer}.self_ms"] = self_s.get(layer, 0.0) * 1e3 / ops
        out["formulas.refused"] = self.refused / ops
        out["spectra.strata_per_summary"] = self.strata / max(self.summaries, 1)
        out["spectra.pairs_per_summary"] = self.pairs / max(self.summaries, 1)
        return out

    def op_totals(self) -> dict[int, tuple[float, float]]:
        """Op id -> (root span duration, sum of layer self times), in seconds."""
        root = self._code(OP_SPAN)
        totals: dict[int, list[float]] = {}
        for i, own in enumerate(self._self_times()):
            entry = totals.setdefault(self.op[i], [0.0, 0.0])
            if self.name[i] == root:
                entry[0] += self.end[i] - self.start[i]
            else:
                entry[1] += own
        return {k: (v[0], v[1]) for k, v in totals.items()}

    def dump(self, path: Path) -> None:
        """Write every span as a tab-separated line, times in ns from the first span."""
        path.parent.mkdir(parents=True, exist_ok=True)
        t0 = self.start[0] if self.start else 0.0
        with path.open("w") as f:
            f.write("op\tspan\tparent\tname\tstart_ns\tend_ns\n")
            for i in range(len(self.start)):
                f.write(
                    f"{self.op[i]}\t{i}\t{self.parent[i]}\t{self.names[self.name[i]]}\t"
                    f"{round((self.start[i] - t0) * 1e9)}\t{round((self.end[i] - t0) * 1e9)}\n"
                )


@contextlib.contextmanager
def installed(tracer: Tracer, namespaces: tuple[ModuleType, ...]) -> Iterator[None]:
    """Bind traced wrappers in ``namespaces`` for the duration of the block.

    Every module attribute that is one of the TRACED or COUNTED functions
    is replaced, whatever name it is bound under, and restored afterwards.
    """
    wrappers = {id(fn): (fn, tracer.wrap(fn, name)) for fn, name in TRACED}
    wrappers.update((id(fn), (fn, tracer.count_refusals(fn))) for fn in COUNTED)
    replaced = []
    try:
        for module in namespaces:
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])
                    replaced.append((module, attr, value))
        yield
    finally:
        for module, attr, value in replaced:
            setattr(module, attr, value)


def summarize_cache() -> tuple[int, int]:
    """(hits, misses) of the program's summary cache."""
    info = spectra.summarize.cache_info()
    return info.hits, info.misses
