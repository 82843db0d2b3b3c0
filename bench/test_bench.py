"""Tests of the benchmark itself: inputs, answer checks, tracing and output.

    python3 -m pytest bench
"""
from __future__ import annotations

import contextlib
import gc
import io
import json
import shutil
import subprocess
import sys

import pytest

import run

run.use_program_source()

import gen  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from krulldim import parse_expr, summarize  # noqa: E402

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_same_seed_gives_identical_inputs(workload):
    assert gen.dump(workload, 7) == gen.dump(workload, 7)
    assert gen.dump(workload, 7) != gen.dump(workload, 8)


def _sample_requests(seed):
    return (
        gen.hot_requests(seed)[:300]
        + [gen.cold_request(seed, i) for i in range(300)]
        + gen.certify_requests(seed)[: len(gen.CERTIFY_SHAPES)]
    )


@pytest.mark.parametrize("seed", [0, 1])
def test_generated_shapes_match_the_compiled_models(seed):
    for req in _sample_requests(seed):
        sa, sb = summarize(parse_expr(req.a)), summarize(parse_expr(req.b))
        assert req.sizes == (len(sa.strata), len(sa.pairs), len(sb.strata), len(sb.pairs))
        if req.cmd == "ht":
            p, q = sa.select(req.p), sb.select(req.q)
            assert 0 <= req.delta <= min(p.residue_td, q.residue_td)


def test_cold_operands_never_repeat():
    texts = [t for i in range(2000) for t in (gen.cold_request(3, i).a, gen.cold_request(3, i).b)]
    assert len(set(texts)) == len(texts)


def _short_log(workload, ops=120):
    wl = workloads.make_workload(workload, 5)
    wl.warm()
    return wl, workloads.closed_loop(wl.op, wl, 0.0, min_ops=ops)


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_correct_answers_pass_the_checks(workload):
    wl, log = _short_log(workload, 40 if workload == "certify" else 120)
    assert list(log.index) == list(range(log.ops))
    result = workloads.Checker().check(log, wl)
    assert result.failures == {}
    assert result.tight == result.certified > 0


@pytest.mark.parametrize("cmd", ["dim", "ht"])
def test_planted_wrong_answer_is_a_failed_op(cmd):
    wl, log = _short_log("query-hot")
    i = next(k for k in range(log.ops) if wl.request(log.index[k]).cmd == cmd)
    log.values[i] += 1
    failures = workloads.Checker().check(log, wl).failures
    assert list(failures) == [i]


def test_certify_mismatch_and_raised_ops_are_failed_ops():
    wl, log = _short_log("certify", 20)
    log.bounds[3] -= 1
    log.errors[5] = "planted"
    result = workloads.Checker().check(log, wl)
    assert sorted(result.failures) == [3, 5]
    assert result.tight == result.certified - 1


def test_loops_continue_the_stream_and_read_rss_at_a_fixed_op(monkeypatch):
    wl = workloads.make_workload("query-cold", 4)
    wl.rss_ops = 30
    done = []

    def op(req):
        done.append(req)
        return wl.op(req)

    monkeypatch.setattr(workloads, "peak_rss_mb", lambda: float(len(done)))
    log = workloads.closed_loop(op, wl, 0.0, min_ops=50, rss=True)
    assert log.ops == 50 and log.peak_rss_mb == 30.0
    # A loop that would end sooner still runs until the reading is taken.
    log = workloads.closed_loop(op, wl, 0.0, min_ops=1, rss=True)
    assert log.ops == 30 and log.peak_rss_mb == 80.0
    assert list(log.index) == list(range(50, 80))
    assert done[50] == gen.cold_request(4, 50)


def _timed_log(latency_s, probe_s):
    log = workloads.Log()
    log.latency_s.extend(latency_s)
    log.probe_s.extend(probe_s)
    return log


def test_timings_are_scaled_by_the_speed_probe():
    base = _timed_log([1e-3, 2e-3, 3e-3], [1e-4, 1e-4, 2e-4])
    # The machine at half speed: op and probe both take twice as long.
    slow = _timed_log([2e-3, 4e-3, 6e-3], [2e-4, 2e-4, 4e-4])
    # The program at half speed on the same machine.
    heavier = _timed_log([2e-3, 4e-3, 6e-3], [1e-4, 1e-4, 2e-4])
    rate = workloads.ops_per_s([base])
    assert rate == pytest.approx(3 / 6e-3 * (4e-4 / 3) / speed.PROBE_S)
    assert workloads.ops_per_s([slow]) == pytest.approx(rate)
    assert workloads.ops_per_s([heavier]) == pytest.approx(rate / 2)
    assert slow.latency_ms() == pytest.approx(base.latency_ms())
    assert heavier.latency_ms() == pytest.approx([2 * x for x in base.latency_ms()])


def test_speed_probe_makes_no_objects_the_collector_tracks():
    speed.probe()
    gc.disable()
    try:
        before = gc.get_count()[0]
        assert speed.probe() > 0
        assert gc.get_count()[0] == before
    finally:
        gc.enable()


def test_caught_refusals_are_counted(monkeypatch):
    from krulldim.errors import ApplicabilityError

    tracer = tracing.Tracer()
    dim_tensor = tracer.wrap(workloads.dim_tensor, "formulas.dim_tensor")

    def refuse(a, b):
        raise ApplicabilityError("planted")

    # Both orientations of a pullback pair refuse; dim_tensor catches each.
    monkeypatch.setattr(tracing, "COUNTED", (refuse,))
    monkeypatch.setattr(tracing.formulas, "thm28_dim", refuse)
    a = "pullback(T=af(10,6),m=2,D=af(4,3),outside=5)"
    with tracing.installed(tracer, tracing.PROGRAM_NAMESPACES):
        with pytest.raises(ApplicabilityError):
            dim_tensor(parse_expr(a), parse_expr(a))
    # Two caught orientations, then dim_tensor's own refusal.
    assert tracer.refused == 3
    assert tracer.report(3)["formulas.refused"] == 1.0


def test_span_self_times_fit_in_the_op_wall_time():
    tracer = tracing.Tracer()
    wl = workloads.make_workload("query-hot", 2)
    wl.warm()
    root_op = tracer.wrap(wl.op, tracing.OP_SPAN, root=True)
    original = workloads.dim_tensor
    with tracing.installed(tracer, tracing.PROGRAM_NAMESPACES + (workloads,)):
        assert workloads.dim_tensor is not original
        log = workloads.closed_loop(root_op, wl, 0.0, min_ops=300)
    assert workloads.dim_tensor is original
    totals = tracer.op_totals()
    assert len(totals) == log.ops == 300
    for wall, layers in totals.values():
        assert 0 < layers <= wall + 1e-9
    layer = tracer.report(log.ops)
    assert layer["parser.parse_expr.calls"] == 2
    assert layer["formulas.dim_tensor.calls"] + layer["formulas.height.calls"] == 1


def _main(monkeypatch, *argv):
    # Fewer set-up samples and an earlier RSS reading keep the test short.
    monkeypatch.setattr(run, "SETUP_SAMPLES", 4)
    make = workloads.make_workload

    def small(name, seed):
        wl = make(name, seed)
        wl.rss_ops = 150
        return wl

    monkeypatch.setattr(workloads, "make_workload", small)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert run.main(list(argv)) == 0
    return json.loads(out.getvalue().splitlines()[-1])


def test_plain_run_prints_every_end_to_end_metric(monkeypatch):
    result = _main(monkeypatch, "--workload", "query-cold", "--seed", "1", "--seconds", "0.2")
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 150
    assert set(result["metrics"]) == {m["name"] for m in BENCHMARK["end_to_end"]}
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_traced_run_prints_every_per_layer_metric(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "SPAN_DIR", tmp_path)
    result = _main(
        monkeypatch, "--workload", "certify", "--seed", "1", "--seconds", "0.5", "--trace", "1"
    )
    assert result["correct"]
    assert set(result["metrics"]) == {m["name"] for m in BENCHMARK["per_layer"]}
    assert result["metrics"]["oracle.tight_ratio"]["value"] == 1.0
    assert list(tmp_path.glob("spans-certify-seed1.tsv"))


def test_run_fails_without_the_program_source(tmp_path):
    shutil.copytree(run.BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "-I", "bench/run.py", "--workload", "query-hot", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
