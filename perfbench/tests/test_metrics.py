"""Metric names, BENCHMARK.json, and the per-layer table."""

import json
import re
from pathlib import Path

from perfbench import layers, workloads
from perfbench.spans import SpanTracer

ROOT = Path(__file__).resolve().parents[2]
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_metric_names_and_units_are_valid_and_unique():
    metrics = [(name, unit) for name, unit, *_ in workloads.END_TO_END]
    metrics += [(name, unit) for name, unit, _ in layers.PER_LAYER]
    names = [name for name, _ in metrics]
    assert len(names) == len(set(names))
    for name, unit in metrics:
        assert NAME.match(name), name
        assert UNIT.match(unit), (name, unit)


def test_benchmark_json_lists_exactly_the_reported_metrics():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"], m["bound"]) for m in bench["end_to_end"]] \
        == [tuple(metric) for metric in workloads.END_TO_END]
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] \
        == list(layers.PER_LAYER)
    assert all(0 < m["bound"] <= 0.25 for m in bench["end_to_end"])


def test_per_layer_reports_every_metric_and_the_self_times_sum_to_the_wall():
    tracer = SpanTracer(clock=iter([0.0, 1.0, 3.0, 4.0]).__next__)
    with tracer.span("harness"):
        with tracer.span("net.port"):
            pass
    tracer.counts.update({"net.port.sends": 4, "net.port.idle_sends": 1})
    facts = [{"events": 10, "hops": 5, "payload_bytes": 100}]
    values = layers.per_layer(tracer, facts, untraced_s=2.0)
    assert list(values) == [name for name, *_ in layers.PER_LAYER]
    assert values["trace.wall_s"][0] == 4.0
    assert values["trace.overhead_frac"][0] == 1.0
    assert values["net.port.idle_send_frac"][0] == 0.25
    assert values["sim.events_per_hop"][0] == 2.0
    self_total = sum(values[m][0] for m in layers.SELF_TIME_METRICS.values())
    assert self_total == values["trace.wall_s"][0]
