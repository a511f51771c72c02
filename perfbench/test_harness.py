"""Self-tests of the benchmark harness: ``python3 -m pytest perfbench -q``."""

import json
import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

import env
import harness
import run
import tracing
from harness import CheckFailed, Context, Op

env.pin_threads()
logsob = env.import_logsob()


def _span(sid, parent, start, end, thread, name="x"):
    return tracing.Span(sid, parent, name, start, end, None, thread, None)


def test_self_time_counts_overlapping_children_in_two_threads_once():
    spans = [
        _span(1, None, 0.0, 10.0, thread=1),
        _span(2, 1, 1.0, 4.0, thread=2),   # overlaps the next child
        _span(3, 1, 3.0, 6.0, thread=3),
        _span(4, 1, 8.0, 12.0, thread=2),  # ends after its parent
        _span(5, 2, 1.5, 2.0, thread=2),   # grandchild: covered by its parent
    ]
    selfs = tracing.self_times(spans)
    assert selfs[1] == pytest.approx(10.0 - (6.0 - 1.0) - (10.0 - 8.0))
    assert selfs[2] == pytest.approx(3.0 - 0.5)
    assert selfs[3] == pytest.approx(3.0)


def test_worker_thread_spans_take_the_issuing_span_as_parent():
    tracer = tracing.Tracer()
    barrier = threading.Barrier(2, timeout=10)
    child = tracer.wrap("child", lambda: barrier.wait())

    def parent():
        with ThreadPoolExecutor(max_workers=2) as pool:
            futures = [pool.submit(child) for _ in range(2)]
            return [f.result(timeout=10) for f in futures]

    tracer.op = 7
    tracer.wrap("parent", parent)()
    by_name = {}
    for s in tracer.spans:
        by_name.setdefault(s.name, []).append(s)
    (p,) = by_name["parent"]
    kids = by_name["child"]
    assert len(kids) == 2 and {k.parent for k in kids} == {p.sid}
    assert len({k.thread for k in kids}) == 2 and p.thread not in {k.thread for k in kids}
    assert {s.op for s in tracer.spans} == {7}
    # both children run at once, so the union they cover is less than their sum
    union = max(k.end for k in kids) - min(k.start for k in kids)
    assert tracing.self_times(tracer.spans)[p.sid] == pytest.approx((p.end - p.start) - union)


def test_tail_percentile_needs_ten_samples_beyond_it():
    assert harness.tail_percentile(list(range(99))) is None
    assert harness.tail_percentile(list(range(100))) == (90.0, 89)
    assert harness.tail_percentile(list(range(1000))) == (99.0, 989)
    assert harness.tail_percentile(list(range(10_000))) == (99.9, 9989)
    fig = harness.latency([3.0, 1.0, 2.0])
    assert (fig.value, fig.n, fig.tail) == (2.0, 3, None)


def _fail(reason):
    raise CheckFailed(reason)


def test_failing_operations_count_in_failed_frac(tmp_path):
    counter = iter(range(100))
    ops = [
        Op("good_s", lambda ctx: 1, lambda out: b"same"),
        Op("wrong_s", lambda ctx: 2, lambda out: _fail("injected")),
        Op("raises_s", lambda ctx: 1 / 0, lambda out: b""),
        Op("drifts_s", lambda ctx: next(counter), lambda out: str(out).encode()),
    ]
    passes = harness.run_passes(ops, lambda traced: Context(logsob, tmp_path), seconds=0.0)
    passes += harness.run_passes(ops, lambda traced: Context(logsob, tmp_path), seconds=0.0)
    attempted, failed, reasons = harness.failures(passes)
    # the second run starts afresh, so drifts_s only fails within one run
    assert (attempted, failed) == (8, 4)
    assert any("injected" in r for r in reasons)
    assert any("ZeroDivisionError" in r for r in reasons)
    figs = harness.end_to_end(passes, harness.Figure(1.0, "s"))
    assert figs["failed_frac"].value == pytest.approx(4 / 8)

    passes = harness.run_passes(ops[3:], lambda traced: Context(logsob, tmp_path), seconds=0.0)
    passes += [harness.run_pass(ops[3:], Context(logsob, tmp_path), {0: "not-a-digest"})]
    _, failed, reasons = harness.failures(passes)
    assert failed == 1 and "differs from the first repeat" in reasons[0]


def _patched_attributes():
    return {(m, a): getattr(getattr(logsob, m), a)
            for m, attrs in tracing.PATCHES.items() for a in attrs}


def test_untraced_run_leaves_every_patched_attribute_identical(tmp_path):
    before = _patched_attributes()
    seen = []

    def probe(ctx):
        seen.append((ctx.tracer is not None,
                     getattr(logsob.cli.main, "__traced__", False),
                     getattr(logsob.rng.step_normals, "__traced__", False)))
        return ctx.cli(["certify", "--family", "quadric", "--eps", "0.25", "--dim", "8"])

    ops = [Op("certify_s", probe, lambda res: res[1].encode())]
    tracer = tracing.Tracer()

    def make(traced):
        return Context(logsob, tmp_path, tracer if traced else None)

    harness.run_passes(ops, make, seconds=0.0)
    after_untraced = _patched_attributes()
    assert all(after_untraced[k] is v for k, v in before.items())
    passes = harness.run_passes(ops, make, seconds=0.0, traced=True)
    after_traced = _patched_attributes()
    assert all(after_traced[k] is v for k, v in before.items())
    assert seen == [(False, False, False), (True, True, True), (False, False, False)]
    assert harness.failures(passes)[1] == 0
    assert any(s.name == "curvature.certify_quadric" for s in tracer.spans)


def test_simulate_probe_records_whether_the_caller_reads_j():
    tracer = tracing.Tracer()
    tracer.install(logsob)
    try:
        p = logsob.potentials.make_potential("gaussian", 1, rho=1.0)
        a = logsob.perturbations.identity_perturbation()
        cfg = logsob.sde.SdeConfig(dt=0.1, horizon=0.2, n_paths=50, seed=1, x0=(0.0,))
        unread = logsob.sde.simulate(p, a, cfg)
        read = logsob.sde.simulate(p, a, cfg)
        assert read.j_t.shape == (50, 1, 1)
        assert float(unread.x_t[0, 0]) == float(read.x_t[0, 0])
    finally:
        tracer.uninstall()
    sims = [s for s in tracer.spans if s.name == "sde.simulate"]
    assert [s.attrs["j_read"] for s in sims] == [False, True]
    metrics = tracing.layer_metrics(tracer.spans, 1, {})
    assert metrics["sde.j_unread_frac"] == (0.5, "frac")
    assert metrics["sde.path_steps"] == (200.0, "count")
    assert metrics["rng.normals_drawn"][0] == 200.0


def test_benchmark_json_matches_the_code():
    spec = json.loads((env.ROOT / "BENCHMARK.json").read_text())
    from workloads import WORKLOADS

    assert [(w["name"], w["why"]) for w in spec["workloads"]] == \
        [(w.name, w.why) for w in WORKLOADS.values()]
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == \
        [(n, u, b) for n, u, b, _ in tracing.LAYER_METRICS]
