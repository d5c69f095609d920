"""Span arithmetic, callback labelling, and the traced run's invariants."""

import pickle
from itertools import count

import pytest

from perfbench import spans, workloads
from perfbench.spans import CallbackLabeller, SpanTracer, TracedCall


def _tracer(*times: float) -> SpanTracer:
    return SpanTracer(clock=iter(times).__next__)


def test_nested_span_self_time_excludes_children():
    tracer = _tracer(0.0, 1.0, 3.0, 10.0)
    tracer.enter("a")
    tracer.enter("b")
    tracer.exit()
    tracer.exit()
    assert tracer.self_s == {"a": 8.0, "b": 2.0}
    assert tracer.calls == {"a": 1, "b": 1}


def test_reentrant_span_counts_each_second_once():
    # a [0, 10] contains a [2, 6], which contains b [3, 4].
    tracer = _tracer(0.0, 2.0, 3.0, 4.0, 6.0, 10.0)
    tracer.enter("a")
    tracer.enter("a")
    tracer.enter("b")
    tracer.exit()
    tracer.exit()
    tracer.exit()
    assert tracer.self_s == {"a": 9.0, "b": 1.0}
    assert sum(tracer.self_s.values()) == 10.0
    assert tracer.calls["a"] == 2


def test_sibling_spans_and_recorded_labels():
    tracer = _tracer(0.0, 1.0, 2.0, 4.0, 7.0, 9.0)
    with tracer.span("harness"):
        with tracer.span("topology.build"):
            pass
        with tracer.span("net.port"):
            pass
    assert tracer.self_s == {"harness": 5.0, "topology.build": 1.0, "net.port": 3.0}
    assert tracer.records == [("topology.build", 1.0, 2.0, "harness")]


def test_wrapped_recursion_self_times_cover_the_outer_call():
    tracer = SpanTracer(clock=count().__next__)

    def depth(n):
        return 0 if n == 0 else 1 + traced(n - 1)

    traced = tracer.wrap(depth, "rec")
    assert traced(3) == 3
    assert tracer.calls["rec"] == 4
    assert tracer.self_s["rec"] == 7  # the outer span: ticks 0 .. 7
    assert not tracer.stack


def test_span_closes_when_the_call_raises():
    tracer = SpanTracer(clock=count().__next__)

    def boom():
        raise RuntimeError

    with pytest.raises(RuntimeError):
        tracer.wrap(boom, "x")()
    assert tracer.calls["x"] == 1 and not tracer.stack


def _module_level_callback():
    return None


def test_traced_call_pickles_as_the_bare_callable():
    wrapped = TracedCall(_module_level_callback, "other", SpanTracer())
    assert pickle.loads(pickle.dumps(wrapped)) is _module_level_callback


def test_callbacks_are_labelled_by_their_owner_class_hierarchy():
    from repro.transport.sender import WindowedSender

    class Custom(WindowedSender):
        def __init__(self):
            pass

        def tick(self):
            pass

    label = CallbackLabeller()
    assert label(Custom().tick) == "transport.sender"
    assert label(lambda: None) == "other"
    assert spans.layer_of_module("repro.net.port") == "net.port"
    assert spans.layer_of_module("repro.netx") is None


def test_traced_run_reproduces_digests_and_self_times_cover_it(tmp_path):
    from repro import IncastScenario, run_incast, small_interdc_config
    from repro.net.port import OutputPort
    from repro.units import kilobytes

    scenario = IncastScenario(scheme="streamlined", degree=4,
                              total_bytes=kilobytes(400),
                              interdc=small_interdc_config())
    untraced = workloads.incast_digest(run_incast(scenario))
    original_send = OutputPort.send
    tracer = SpanTracer()
    installed = spans.install(tracer)
    try:
        with tracer.span("harness"):
            traced = run_incast(scenario)
    finally:
        installed.restore()
    assert OutputPort.send is original_send
    assert workloads.incast_digest(traced) == untraced
    harness = tracer.records  # coarse spans only; the root is not recorded
    assert any(label == "topology.build" for label, *_ in harness)
    assert tracer.counts["net.port.sends"] >= traced.counters.tx_packets
    assert tracer.self_s["net.port"] > 0 and tracer.self_s["sim.scheduler"] > 0
    assert not tracer.stack
