"""Per-layer metrics of a traced run, by module.

Every value is per *unit* of the workload (one pass of ``incast-d8`` or
``sweep-small``, one ``openloop`` engine run): self times in seconds,
counts as counts, and a few ratios.  Counts come from span boundaries or
from the simulated results, so they repeat exactly from run to run and
from host to host; ``*_s`` values are host time under tracing.
"""

from __future__ import annotations

from typing import Any

from perfbench.spans import SpanTracer

#: span label -> the per-layer metric holding its self time
SELF_TIME_METRICS = {
    "sim.scheduler": "sim.scheduler.self_s",
    "sim.dispatch": "sim.dispatch.self_s",
    "sim.timers": "sim.timers.self_s",
    "sim.checkpoint.save": "sim.checkpoint.save_s",
    "sim.checkpoint.load": "sim.checkpoint.load_s",
    "net.port": "net.port.self_s",
    "net.queues": "net.queues.self_s",
    "net.node": "net.node.self_s",
    "net.routing": "net.routing.self_s",
    "net.routing.table_build": "net.routing.table_build_s",
    "net.pool": "net.pool.self_s",
    "topology.build": "topology.build_s",
    "schemes.wire": "schemes.wire_s",
    "transport.sender": "transport.sender.self_s",
    "transport.receiver": "transport.receiver.self_s",
    "transport.connect": "transport.connect_s",
    "proxy": "proxy.self_s",
    "orchestration": "orchestration.self_s",
    "workloads": "workloads.self_s",
    "metrics": "metrics.self_s",
    "metrics.collect": "metrics.collect_s",
    "experiments.cache.key": "experiments.cache.key_s",
    "experiments.cache.get": "experiments.cache.get_s",
    "experiments.cache.put": "experiments.cache.put_s",
    "harness": "harness.self_s",
    "other": "other.self_s",
}

#: (name, unit, better) of every metric a ``--trace 1`` run reports.
#: Work counts are better lower: a speed-only change keeps the simulated
#: outcome (hops, jobs) fixed and can only remove work around it.
PER_LAYER = (
    ("sim.events", "count", "lower"),
    ("sim.events_per_hop", "ratio", "lower"),
    ("sim.events_per_s", "1/s", "higher"),
    ("sim.timers.restarts", "count", "lower"),
    ("sim.checkpoint.bytes", "B", "lower"),
    ("net.port.sends", "count", "lower"),
    ("net.port.hops", "count", "higher"),
    ("net.port.idle_send_frac", "ratio", "higher"),
    ("net.queues.offers", "count", "lower"),
    ("net.queues.drops", "count", "lower"),
    ("net.queues.trims", "count", "lower"),
    ("net.queues.marks", "count", "lower"),
    ("net.node.receives", "count", "lower"),
    ("net.routing.next_hop_calls", "count", "lower"),
    ("net.routing.slow_path_frac", "ratio", "lower"),
    ("net.pool.allocated", "count", "lower"),
    ("net.pool.reuse_frac", "ratio", "higher"),
    ("transport.retransmissions", "count", "lower"),
    ("transport.timeouts", "count", "lower"),
    ("transport.nacks", "count", "lower"),
    ("transport.goodput_frac", "ratio", "higher"),
    ("transport.connections", "count", "lower"),
    ("proxy.nacks_sent", "count", "lower"),
    ("orchestration.selects", "count", "lower"),
    ("workloads.tenants", "count", "higher"),
    ("workloads.jobs_completed", "count", "higher"),
    ("metrics.observes", "count", "lower"),
    ("experiments.cache.hit_frac", "ratio", "higher"),
    ("experiments.cache.entry_bytes", "B", "lower"),
    ("trace.wall_s", "s", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
    *((metric, "s", "lower") for metric in SELF_TIME_METRICS.values()),
)


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def per_layer(tracer: SpanTracer, facts: list[dict[str, int]],
              *, untraced_s: float) -> dict[str, tuple[float, str]]:
    """Every PER_LAYER metric from a tracer and the traced units' facts."""
    units = len(facts)
    total: dict[str, int] = {}
    for unit_facts in facts:
        for key, value in unit_facts.items():
            total[key] = total.get(key, 0) + value

    def per_unit(value: float) -> float:
        return value / units

    def fact(key: str) -> int:
        return total.get(key, 0)

    counts = tracer.counts
    traced_s = tracer.self_s  # every label's self time, "harness" included
    wall_s = per_unit(sum(traced_s.values()))
    acquires = counts["net.pool.acquires"]
    values: dict[str, Any] = {
        "sim.events": per_unit(fact("events")),
        "sim.events_per_hop": _ratio(fact("events"), fact("hops")),
        "sim.events_per_s": per_unit(fact("events")) / untraced_s,
        "sim.timers.restarts": per_unit(counts["sim.timers.restarts"]),
        "sim.checkpoint.bytes": _ratio(counts["sim.checkpoint.bytes"],
                                       tracer.calls["sim.checkpoint.save"]),
        "net.port.sends": per_unit(counts["net.port.sends"]),
        "net.port.hops": per_unit(fact("hops")),
        "net.port.idle_send_frac": _ratio(counts["net.port.idle_sends"],
                                          counts["net.port.sends"]),
        "net.queues.offers": per_unit(counts["net.queues.offers"]),
        "net.queues.drops": per_unit(fact("drops")),
        "net.queues.trims": per_unit(fact("trims")),
        "net.queues.marks": per_unit(fact("marks")),
        "net.node.receives": per_unit(counts["net.node.receives"]),
        "net.routing.next_hop_calls": per_unit(counts["net.routing.next_hop_calls"]),
        "net.routing.slow_path_frac": _ratio(counts["net.routing.slow_path"],
                                             counts["net.node.switch_receives"]),
        "net.pool.allocated": per_unit(acquires - counts["net.pool.reuses"]),
        "net.pool.reuse_frac": _ratio(counts["net.pool.reuses"], acquires),
        "transport.retransmissions": per_unit(fact("retransmissions")),
        "transport.timeouts": per_unit(fact("timeouts")),
        "transport.nacks": per_unit(fact("nacks")),
        "transport.goodput_frac": _ratio(fact("payload_bytes"),
                                         counts["transport.bytes_sent"]),
        "transport.connections": per_unit(counts["transport.connections"]),
        "proxy.nacks_sent": per_unit(counts["proxy.nacks_sent"]),
        "orchestration.selects": per_unit(counts["orchestration.selects"]),
        "workloads.tenants": per_unit(fact("tenants")),
        "workloads.jobs_completed": per_unit(fact("jobs_completed")),
        "metrics.observes": per_unit(counts["metrics.observes"]),
        "experiments.cache.hit_frac": _ratio(fact("cache_hits"), fact("cache_lookups")),
        "experiments.cache.entry_bytes": _ratio(counts["experiments.cache.entry_bytes"],
                                                counts["experiments.cache.puts"]),
        "trace.wall_s": wall_s,
        "trace.overhead_frac": wall_s / untraced_s - 1.0,
    }
    for label, metric in SELF_TIME_METRICS.items():
        values[metric] = per_unit(traced_s.get(label, 0.0))
    unknown = set(traced_s) - set(SELF_TIME_METRICS)
    if unknown:
        raise ValueError(f"spans with no per-layer metric: {sorted(unknown)}")
    return {name: (float(values[name]), unit) for name, unit, _ in PER_LAYER}
