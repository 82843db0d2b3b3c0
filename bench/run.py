"""krulldim benchmark: run one workload for one seed and print its metrics.

    python3 bench/run.py --workload query-hot --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; the program is imported from
``src/``.  One client drives the program in this process as a closed
loop with no threads, the answers are checked after the timed loop, and
the last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``--trace 0`` reports the
end-to-end metrics; ``--trace 1`` alternates untraced and traced slices
of the loop and reports the per-layer metrics, the tracing overhead
among them.
See README.md in this directory for the workloads and metrics.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from collections import Counter
from pathlib import Path

import gen
import speed

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SPAN_DIR = BENCH / "out"

# Fresh interpreters timed per run for setup_s, half before the timed loop
# and half after it, so that the median spans the run's drift in machine
# speed rather than one moment of it.  Each sample is scaled by the speed
# probe, run in the same interpreter just before and just after the import.
SETUP_SAMPLES = 40
IMPORT_PROBE = """\
import statistics, sys, time
sys.path.insert(0, sys.argv[2])
import speed
probes = [speed.probe() for _ in range(30)][10:]
sys.path.insert(0, sys.argv[1])
t = time.perf_counter()
import krulldim, krulldim.cli
t = time.perf_counter() - t
probes += [speed.probe() for _ in range(20)]
print(repr(t), repr(statistics.fmean(probes)), krulldim.__file__)
"""


def parse_args(argv=None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=gen.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    return args


def use_program_source() -> None:
    """Put the checkout's ``src/`` first on the path; exit 1 if it is missing."""
    if not (SRC / "krulldim" / "__init__.py").is_file():
        raise SystemExit(f"error: no program source at {SRC / 'krulldim'}")
    sys.path.insert(0, str(SRC))
    import krulldim

    if not Path(krulldim.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"error: krulldim imported from {krulldim.__file__}, not {SRC}")


def measure_setup(samples: int) -> list[tuple[float, float]]:
    """(seconds to import krulldim and krulldim.cli, mean probe seconds), each
    in a fresh interpreter."""
    times = []
    for _ in range(samples):
        out = subprocess.run(
            [sys.executable, "-I", "-c", IMPORT_PROBE, str(SRC), str(BENCH)],
            capture_output=True, text=True, check=True, timeout=60, cwd=ROOT,
        ).stdout.split(maxsplit=2)
        if not Path(out[2].strip()).resolve().is_relative_to(SRC):
            raise SystemExit(f"error: setup probe imported {out[2].strip()}")
        times.append((float(out[0]), float(out[1])))
    return times


def with_units(values: dict[str, float]) -> dict[str, dict]:
    """The metrics as printed: each value with its unit from BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    metrics = {name: {"value": value, "unit": units[name]} for name, value in values.items()}
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    return metrics


def shares(counter: Counter) -> str:
    total = sum(counter.values()) or 1
    return ", ".join(f"{k} {v / total:.1%}" for k, v in counter.most_common())


def describe_inputs(logs, wl) -> None:
    """Print the request mix, operand sizes and dispatch-path shares of a run."""
    reqs = [wl.request(i) for log in logs for i in log.index]
    paths = [log.path(i) for log in logs for i in range(log.ops)]
    cmds = Counter(r.cmd for r in reqs)
    strata = [s for r in reqs for s in (r.sizes[0], r.sizes[2])]
    pairs = [s for r in reqs for s in (r.sizes[1], r.sizes[3])]
    print(f"requests: {shares(cmds)}")
    print(
        f"operands: strata mean {statistics.fmean(strata):.2f} max {max(strata)}, "
        f"pairs mean {statistics.fmean(pairs):.2f} max {max(pairs)}"
    )
    for cmd in sorted(cmds):
        of_cmd = Counter(path for r, path in zip(reqs, paths) if r.cmd == cmd)
        print(f"dispatch paths of {cmd}: {shares(of_cmd)}")


def report_failures(logs, results, wl) -> None:
    import workloads

    for log, result in zip(logs, results):
        for i in sorted(result.failures)[:5]:
            req = workloads.describe(wl.request(log.index[i]))
            print(f"FAIL op {i} [{req}]: {result.failures[i]}", file=sys.stderr)


def run_plain(wl, seconds: float, checker) -> tuple[list, list, dict]:
    """The end-to-end run: one untraced timed loop between set-up samples."""
    import workloads

    setup = measure_setup(SETUP_SAMPLES // 2)
    wl.warm()
    log = workloads.closed_loop(wl.op, wl, seconds, rss=True)
    setup += measure_setup(SETUP_SAMPLES - len(setup))
    lat_ms = log.latency_ms()
    metrics = with_units({
        "setup_s": statistics.median(t / p * speed.PROBE_S for t, p in setup),
        "ops_per_s": workloads.ops_per_s([log]),
        "latency_p50_ms": statistics.median(lat_ms),
        "latency_p90_ms": statistics.quantiles(lat_ms, n=10)[8],
        "peak_rss_mb": log.peak_rss_mb,
    })
    raw_ms = sorted(x * 1e3 for x in log.latency_s)
    print(
        f"unscaled: setup_s {statistics.median(t for t, _ in setup):.6g}, "
        f"ops_per_s {log.ops / sum(log.latency_s):.6g}, "
        f"latency_p50_ms {statistics.median(raw_ms):.6g}, "
        f"latency_p90_ms {statistics.quantiles(raw_ms, n=10)[8]:.6g}; "
        f"mean probe {statistics.fmean(log.probe_s) * 1e6:.1f} us, "
        f"scaled to {speed.PROBE_S * 1e6:.1f} us"
    )
    print(
        f"latency samples {len(lat_ms)}; setup samples {len(setup)}; "
        f"peak RSS read after op {wl.rss_ops}"
    )
    return [log], [checker.check(log, wl)], metrics


# The traced run alternates untraced and traced slices, half of --seconds
# each side, so that drift in machine speed falls on both sides of the
# overhead figure alike.
TRACE_SLICES = 10


def run_traced(wl, seconds: float, checker, span_file: Path) -> tuple[list, list, dict]:
    """The per-layer run: alternating untraced and traced slices of the loop."""
    import tracing
    import workloads

    tracer = tracing.Tracer()
    root_op = tracer.wrap(wl.op, tracing.OP_SPAN, root=True)
    namespaces = tracing.PROGRAM_NAMESPACES + (workloads,)
    plain, traced = [], []
    hits = lookups = 0
    wl.warm()
    slice_s = seconds / (2 * TRACE_SLICES)
    for _ in range(TRACE_SLICES):
        plain.append(workloads.closed_loop(wl.op, wl, slice_s, min_ops=1))
        h0, m0 = tracing.summarize_cache()
        with tracing.installed(tracer, namespaces):
            traced.append(workloads.closed_loop(root_op, wl, slice_s, min_ops=1))
        h1, m1 = tracing.summarize_cache()
        hits, lookups = hits + h1 - h0, lookups + (h1 - h0) + (m1 - m0)

    rate = [workloads.ops_per_s(side) for side in (plain, traced)]
    traced_ops = sum(g.ops for g in traced)
    checked = [checker.check(g, wl) for g in traced]
    layer = tracer.report(traced_ops)
    layer["spectra.summarize.hit_ratio"] = hits / max(lookups, 1)
    certified = sum(c.certified for c in checked)
    layer["oracle.tight_ratio"] = sum(c.tight for c in checked) / max(certified, 1)
    layer["trace.overhead_ops_per_s"] = rate[0] - rate[1]
    print(
        f"untraced {rate[0]:.1f} ops/s, traced {rate[1]:.1f} ops/s in {TRACE_SLICES} "
        f"alternating slices each: overhead {rate[0] - rate[1]:.1f} 1/s"
    )
    metrics = with_units(layer)
    print(f"per-layer figures are per op over {traced_ops} traced ops")
    tracer.dump(span_file)
    print(f"{len(tracer.start)} spans written to {span_file}")
    return plain + traced, [checker.check(g, wl) for g in plain] + checked, metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    use_program_source()
    import workloads

    wl = workloads.make_workload(args.workload, args.seed)
    checker = workloads.Checker()
    print(f"workload {args.workload} seed {args.seed}")
    if args.trace:
        span_file = SPAN_DIR / f"spans-{args.workload}-seed{args.seed}.tsv"
        logs, results, metrics = run_traced(wl, args.seconds, checker, span_file)
    else:
        logs, results, metrics = run_plain(wl, args.seconds, checker)

    report_failures(logs, results, wl)
    attempted = sum(log.ops for log in logs)
    failed = sum(len(r.failures) for r in results)
    describe_inputs(logs, wl)
    print(f"error_rate {failed / attempted} ratio ({failed} failed of {attempted} ops)")
    print(json.dumps(
        {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    ))
    return 0


if __name__ == "__main__":
    sys.exit(main())
