"""The observability layer: tracer, metrics, exporters, instrumentation.

The load-bearing guarantees:

* attaching a tracer never changes simulation results (it only records);
* with no tracer attached the hooks are strict no-ops (and cheap);
* traced runs are deterministic — same seed, byte-identical Chrome JSON;
* the exported JSON is schema-valid trace_event format.
"""

from __future__ import annotations

import hashlib
import io
import json
import time

import pytest

from repro.core import BabolController, ControllerConfig
from repro.obs import (
    ALL_CATEGORIES,
    MetricsRegistry,
    Tracer,
    chrome_trace_events,
    register_controller_metrics,
    render_text_summary,
    write_chrome_trace,
)
from repro.obs.tracer import SpanKind
from repro.sim import Simulator, Timeout


def run_fixed_workload(tracer=None, reads: int = 6, luns: int = 2,
                       tasks=None):
    """The fixed workload every invariance test reuses (``tasks``, when
    given, collects the submitted tasks)."""
    sim = Simulator()
    if tracer is not None:
        sim.set_tracer(tracer)
    controller = BabolController(
        sim, ControllerConfig(lun_count=luns, track_data=False)
    )
    results = []
    for i in range(reads):
        lun = i % luns
        if i % 3 == 2:
            task = controller.program_page(lun, 1, i // luns, 0)
        else:
            task = controller.read_page(lun, 1, i // luns, 0)
        if tasks is not None:
            tasks.append(task)
        results.append(controller.run_to_completion(task))
    return sim, controller, results


# --- metrics registry --------------------------------------------------------


def test_counter_gauge_histogram_snapshot():
    registry = MetricsRegistry()
    registry.counter("ops").inc()
    registry.counter("ops").inc(4)
    registry.gauge("depth").set(3)
    registry.gauge("depth").add(-1)
    for sample in (100, 200, 300, 400):
        registry.histogram("lat_ns").observe(sample)

    snap = registry.snapshot()
    assert snap["counters"]["ops"] == 5
    assert snap["gauges"]["depth"] == 2
    hist = snap["histograms"]["lat_ns"]
    assert hist["count"] == 4 and hist["p50_ns"] == 250.0
    # Everything must be JSON-able as-is.
    json.dumps(snap)


def test_counter_rejects_negative():
    with pytest.raises(ValueError):
        MetricsRegistry().counter("c").inc(-1)


def test_registry_collectors_scraped_lazily():
    registry = MetricsRegistry()
    calls = []
    registry.register_collector("src", lambda: calls.append(1) or {"x": 7})
    assert calls == []
    assert registry.snapshot()["collected"]["src"]["x"] == 7
    assert len(calls) == 1


def test_render_text_mentions_every_instrument():
    registry = MetricsRegistry()
    registry.counter("ops").inc(2)
    registry.histogram("lat_ns").observe(5000)
    registry.register_collector("chan", lambda: {"busy_ns": 10})
    text = registry.render_text("metrics:")
    assert "ops: 2" in text and "lat_ns" in text and "chan.busy_ns: 10" in text


# --- tracer core -------------------------------------------------------------


def test_category_filtering_and_scope():
    tracer = Tracer(categories={"channel"}, scope="runA")
    tracer.complete("channel", "channel/ch0", "cmd", 0, 10)
    tracer.complete("cpu", "cpu/c", "busy", 0, 10)  # filtered out
    assert len(tracer) == 1
    assert tracer.events[0].track == "runA/channel/ch0"


def test_unknown_category_rejected():
    with pytest.raises(ValueError):
        Tracer(categories={"bogus"})


def test_user_span_context_manager():
    sim = Simulator()
    tracer = Tracer()
    sim.set_tracer(tracer)

    def body():
        with tracer.span(sim, "ftl/gc", "relocate"):
            yield Timeout(123)

    sim.run_process(body())
    (span,) = tracer.spans("ftl/gc")
    assert span.name == "relocate" and span.ts == 0 and span.value == 123


def test_kernel_category_records_process_and_event_lifecycle():
    sim = Simulator()
    tracer = Tracer(categories=ALL_CATEGORIES)
    sim.set_tracer(tracer)

    def worker():
        yield Timeout(5)

    sim.spawn(worker(), name="w")
    cancelled = sim.schedule(50, lambda: None)
    cancelled.cancel()
    sim.run()

    names = [e.name for e in tracer.events if e.track == "kernel/processes"]
    assert "spawn:w" in names and "step:w" in names and "finish:w" in names
    kinds = [e.name for e in tracer.events if e.track == "kernel/events"]
    assert "schedule" in kinds and "fire" in kinds and "cancel" in kinds


def run_firehose_workload():
    """The fixed workload plus what it never issues on its own: an erase
    run in two ``run(until=)`` halves and two cancelled handles, one that
    surfaces from the heap and one still sitting in the now-queue."""
    tracer = Tracer(categories=ALL_CATEGORIES)
    sim, controller, _ = run_fixed_workload(tracer=tracer)
    erase = controller.erase_block(0, 2)
    sim.run(until=sim.now + 200_000)
    sim.schedule(0, lambda: None).cancel()
    sim.schedule(300_000, lambda: None).cancel()
    controller.run_to_completion(erase)
    return sim, tracer


def test_kernel_firehose_trace_is_pinned():
    # Every schedule / fire / cancel instant, with its fire_at, in the
    # same order, whatever the queue entries look like.  Recorded on the
    # commit before the tuple-heap kernel (PR 13: 15e6ffda..., 2910
    # entries) and re-recorded once, by PR 23, which deleted kernel
    # entries on purpose: the slot-freed forwarding process and every
    # wake-up of a waiter whose predicate is false (2910 -> 2529); and
    # once more by PR 24: a transaction's completion reaches its task
    # through a synchronous one-shot callback, one now-queue entry fewer
    # per transaction (2529 -> 2339).
    sim, tracer = run_firehose_workload()
    buffer = io.StringIO()
    write_chrome_trace(buffer, tracer)
    digest = hashlib.sha256(buffer.getvalue().encode()).hexdigest()
    assert digest == (
        "e204c8b62a7aa6550c54bf4ac0204a87d580637dd4d331440ec92d5b3cadcc2c")
    # The same trace without the kernel's own bookkeeping — channel, txn,
    # cpu, sched, task and op spans and counters — recorded on 08fb7bd:
    # a change to how many kernel entries a run takes (a forwarding
    # process deleted, a spurious wake-up gone) moves the digest above
    # by construction and must leave this one alone.
    modelled = Tracer(categories=ALL_CATEGORIES)
    modelled.events = [e for e in tracer.events if e.cat != "kernel"]
    assert len(modelled.events) == 3070
    buffer = io.StringIO()
    write_chrome_trace(buffer, modelled)
    assert hashlib.sha256(buffer.getvalue().encode()).hexdigest() == (
        "d42fba32f97f0ce508e36a99999f2a87ddb0ce37628be3b3d7f979ef98bb9186")
    kinds = [e.name for e in tracer.events if e.track == "kernel/events"]
    assert kinds.count("cancel") == 2
    # One "schedule" instant per enqueue, cancellable or not.
    assert sim.events_scheduled == kinds.count("schedule") == 2339


# --- invariance: tracing must never change the simulation --------------------


def test_disabled_tracer_identical_results():
    tasks_off, tasks_on = [], []
    sim_off, controller_off, results_off = run_fixed_workload(
        tracer=None, tasks=tasks_off)
    sim_on, controller_on, results_on = run_fixed_workload(
        tracer=Tracer(), tasks=tasks_on)

    assert sim_off.now == sim_on.now
    assert sim_off.events_scheduled == sim_on.events_scheduled
    assert controller_off.channel.stats.busy_ns == controller_on.channel.stats.busy_ns
    assert controller_off.channel.stats.segments == controller_on.channel.stats.segments
    # Same statuses back from every op (reads return (status, handle),
    # programs a bare status byte).
    statuses_off = [r[0] if isinstance(r, tuple) else r for r in results_off]
    statuses_on = [r[0] if isinstance(r, tuple) else r for r in results_on]
    assert statuses_off == statuses_on
    assert [t.finished_at for t in tasks_off] == \
        [t.finished_at for t in tasks_on]


def test_disabled_fast_path_overhead_is_small():
    # The in-kernel guard is a single `if tracer is not None`; an A/B
    # against the pre-instrumentation kernel measured ~3-4% on this
    # workload.  CI boxes are noisy, so the automated bound compares
    # no-tracer against an attached-but-filtering tracer and allows
    # generous headroom — a regression that puts real work on the
    # disabled path (allocation, string building) still trips it.
    def best_of(factory, rounds=3):
        best = float("inf")
        for _ in range(rounds):
            t0 = time.perf_counter()
            run_fixed_workload(tracer=factory())
            best = min(best, time.perf_counter() - t0)
        return best

    disabled = best_of(lambda: None)
    filtering = best_of(lambda: Tracer(categories=frozenset()))
    assert filtering < disabled * 1.5 + 0.05


def test_enabled_trace_is_deterministic_and_byte_identical():
    def capture() -> str:
        tracer = Tracer()
        run_fixed_workload(tracer=tracer)
        buffer = io.StringIO()
        write_chrome_trace(buffer, tracer)
        return buffer.getvalue()

    first, second = capture(), capture()
    assert first == second
    assert len(first) > 1000


# --- chrome export -----------------------------------------------------------


VALID_PHASES = {"M", "X", "i", "C"}


def assert_valid_trace_events(events: list[dict]) -> None:
    assert events, "empty trace"
    thread_names = {}
    for event in events:
        assert event["ph"] in VALID_PHASES
        assert isinstance(event["pid"], int) and isinstance(event["tid"], int)
        if event["ph"] == "M":
            if event["name"] == "thread_name":
                thread_names[event["tid"]] = event["args"]["name"]
            continue
        assert event["ts"] >= 0
        if event["ph"] == "X":
            assert event["dur"] >= 0
        if event["ph"] == "C":
            assert "value" in event["args"]
        assert event["tid"] in thread_names  # metadata precedes data
    assert len(set(thread_names.values())) == len(thread_names)


def test_chrome_export_schema_and_tracks():
    tracer = Tracer()
    _, controller, _ = run_fixed_workload(tracer=tracer)
    events = chrome_trace_events(tracer)
    assert_valid_trace_events(events)

    names = {e["args"]["name"] for e in events
             if e["ph"] == "M" and e["name"] == "thread_name"}
    assert "channel/ch0" in names
    assert "cpu/coroutine" in names
    assert any(name.startswith("op/lun") for name in names)
    assert any(name.startswith("task/lun") for name in names)

    # Channel segment spans must account for exactly the bus busy time.
    tid = {e["args"]["name"]: e["tid"] for e in events
           if e["ph"] == "M" and e["name"] == "thread_name"}["channel/ch0"]
    busy_us = sum(e["dur"] for e in events if e["ph"] == "X" and e["tid"] == tid)
    assert busy_us == pytest.approx(controller.channel.stats.busy_ns / 1000)


def test_write_chrome_trace_with_metrics_roundtrip(tmp_path):
    tracer = Tracer()
    _, controller, _ = run_fixed_workload(tracer=tracer)
    registry = register_controller_metrics(MetricsRegistry(), controller)
    path = tmp_path / "t.json"
    count = write_chrome_trace(str(path), tracer, metrics=registry)

    payload = json.loads(path.read_text())
    assert len(payload["traceEvents"]) == count
    assert_valid_trace_events(payload["traceEvents"])
    collected = payload["otherData"]["collected"]
    assert collected["channel.ch0"]["segments"] == controller.channel.stats.segments
    assert collected["env.coroutine"]["tasks_completed"] == 6


def test_text_summary_lists_tracks():
    tracer = Tracer()
    run_fixed_workload(tracer=tracer)
    text = render_text_summary(tracer)
    assert "channel/ch0" in text and "spans" in text


# --- instrumentation details -------------------------------------------------


def test_traced_op_spans_nest_reads_over_status_polls():
    tracer = Tracer()
    run_fixed_workload(tracer=tracer, reads=2, luns=1)
    spans = tracer.spans("op/lun0")
    names = {span.name for span in spans}
    assert "read_page_op" in names and "read_status_op" in names
    read = next(s for s in spans if s.name == "read_page_op")
    polls = [s for s in spans if s.name == "read_status_op"
             and read.ts <= s.ts and s.ts + s.value <= read.ts + read.value]
    assert polls, "status polls should nest inside the READ span"


def test_traced_op_without_tracer_returns_plain_generator():
    from repro.core.ops import read_page_op

    sim = Simulator()
    controller = BabolController(
        sim, ControllerConfig(lun_count=1, track_data=False)
    )
    ctx_holder = {}

    def grab(ctx):
        ctx_holder["ctx"] = ctx
        return read_page_op(
            ctx, codec=controller.codec,
            address=__import__("repro.onfi.geometry", fromlist=["PhysicalAddress"])
            .PhysicalAddress(block=1, page=0),
            dram_address=0,
        )

    controller.run_to_completion(controller.env.submit(grab, 0))
    # No tracer: the decorator handed back the undecorated generator.
    gen = grab(ctx_holder["ctx"])
    assert gen.__name__ == "read_page_op"
    gen.close()


def test_scheduler_queue_counters_recorded():
    tracer = Tracer()
    run_fixed_workload(tracer=tracer)
    counters = {e.name for e in tracer.events if e.kind is SpanKind.COUNTER}
    assert {"ready_tasks", "pending_txns"} <= counters


def test_logic_analyzer_mirrors_into_sim_tracer():
    from repro.analysis import LogicAnalyzer

    sim = Simulator()
    tracer = Tracer()
    sim.set_tracer(tracer)
    controller = BabolController(
        sim, ControllerConfig(lun_count=1, track_data=False)
    )
    analyzer = LogicAnalyzer(controller.channel)
    controller.run_to_completion(controller.read_page(0, 1, 0, 0))

    mirrored = [e for e in tracer.events if e.track == "analyzer/ch0"]
    assert len(mirrored) == len(analyzer.events)
    # Shared clock: identical integer-ns timestamps, same order.
    assert [e.ts for e in mirrored] == [e.time_ns for e in analyzer.events]


def test_logic_analyzer_post_hoc_replay():
    from repro.analysis import LogicAnalyzer

    sim = Simulator()
    controller = BabolController(
        sim, ControllerConfig(lun_count=1, track_data=False)
    )
    analyzer = LogicAnalyzer(controller.channel)  # no tracer anywhere
    controller.run_to_completion(controller.read_page(0, 1, 0, 0))

    tracer = Tracer()
    emitted = analyzer.to_tracer(tracer)
    assert emitted == len(analyzer.events) > 0
    assert len(tracer.events) == emitted


def test_host_interface_emits_command_spans():
    from repro.ftl import FtlConfig, PageMappedFtl
    from repro.host import FioJob, HostInterface, run_fio

    sim = Simulator()
    tracer = Tracer()
    sim.set_tracer(tracer)
    controller = BabolController(
        sim, ControllerConfig(lun_count=2, track_data=False)
    )
    ftl = PageMappedFtl(
        sim, controller,
        FtlConfig(blocks_per_lun=8, overprovision_blocks=2,
                  gc_staging_base=48 * 1024 * 1024),
    )
    ftl.prefill(16)
    hic = HostInterface(sim, ftl, iodepth=4)
    run_fio(sim, hic, FioJob(pattern="sequential", io_count=8, iodepth=4))

    spans = tracer.spans("host/hic")
    assert len(spans) == 8
    assert all(span.value > 0 for span in spans)


# --- CLI surface -------------------------------------------------------------


def test_cli_trace_subcommand_writes_valid_file(tmp_path, capsys):
    from repro.cli import main

    out = tmp_path / "cap.json"
    assert main(["trace", "--out", str(out),
                 "--set", "stack.luns_per_channel=2",
                 "--set", "workload.io_count=4"]) == 0
    payload = json.loads(out.read_text())
    assert_valid_trace_events(payload["traceEvents"])
    assert "otherData" in payload
    captured = capsys.readouterr().out
    assert "trace:" in captured and "metrics:" in captured


def test_cli_bench_smoke_writes_json(tmp_path, capsys):
    from repro.cli import main

    out = tmp_path / "BENCH_smoke.json"
    assert main(["bench-smoke", "--set", "workload.io_count=2",
                 "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["schema"] == 2
    assert payload["spec_hash"]
    assert payload["spec"]["workload"]["io_count"] == 2
    assert set(payload["fig11"]) == {"rtos", "coroutine"}
    assert payload["fig11"]["coroutine"]["polls"] >= 1
    assert payload["wall_s"] >= 0
    # The power-loss recovery cell: SPOR counters scraped through the
    # obs registry after a deterministic crash + remount.
    spor = payload["spor"]
    assert spor["unsafe_shutdowns"] >= 1
    assert spor["journal_replay_entries"] >= 0
    assert spor["torn_pages_discarded"] >= 0
    assert spor["mount_ns"] > 0


def test_register_spor_metrics_pulls_live_report():
    from repro.ftl.spor import MountReport
    from repro.obs import MetricsRegistry, register_spor_metrics

    report = MountReport(unsafe_shutdowns=1, torn_pages_discarded=3,
                         journal_replay_entries=17, mount_ns=42_000)
    registry = register_spor_metrics(MetricsRegistry(), report)
    snap = registry.snapshot()["collected"]["spor"]
    assert snap == {"unsafe_shutdowns": 1, "torn_pages_discarded": 3,
                    "journal_replay_entries": 17, "mount_ns": 42_000}
    # Pull collector: the next snapshot sees report mutations.
    report.unsafe_shutdowns += 1
    assert registry.snapshot()["collected"]["spor"]["unsafe_shutdowns"] == 2


def test_cli_fig11_trace_flag(tmp_path):
    from repro.cli import main

    out = tmp_path / "f11.json"
    assert main(["fig11", "--set", "workload.io_count=1",
                 "--trace", str(out)]) == 0
    payload = json.loads(out.read_text())
    names = {e["args"]["name"] for e in payload["traceEvents"]
             if e["ph"] == "M" and e["name"] == "thread_name"}
    # Both sweep cells present, kept apart by scope prefixes.
    assert any(n.startswith("rtos/") for n in names)
    assert any(n.startswith("coroutine/") for n in names)
