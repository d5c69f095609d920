"""In-memory span tracer and the wrappers that attach it to the simulator.

The traced run wraps the simulator's public entry points from outside:
class methods (``OutputPort.send``, queue ``offer``/``pop``, ...),
module functions (``build_interdc``, ``scenario_key``, ...), and every
callback handed to the event scheduler or registered as a host packet
handler, labelled by the layer of the module that owns it.  Nothing in
``src/`` changes, so an untraced run is untouched.

A span's *self time* is its duration minus the time covered by the spans
opened inside it, so the self times of all labels add up to the duration
of the outermost span: every traced wall-second lands in exactly one
layer.  Spans aggregate into per-label totals as they close; the coarse
ones (topology builds, cache and checkpoint calls) are also kept one by
one in :attr:`SpanTracer.records` and written out when the run ends.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Any, Callable, Iterator

#: Labels whose individual spans are kept (they are few per run).
RECORDED_LABELS = frozenset({
    "topology.build", "net.routing.table_build", "schemes.wire",
    "experiments.cache.key", "experiments.cache.get", "experiments.cache.put",
    "sim.checkpoint.save", "sim.checkpoint.load", "metrics.collect",
})

#: Owner-module prefix -> layer label for dispatched callbacks and packet
#: handlers; the first matching prefix wins, anything else is ``other``.
LAYER_BY_MODULE = (
    ("repro.net.port", "net.port"),
    ("repro.net.queues", "net.queues"),
    ("repro.net.buffers", "net.queues"),
    ("repro.net.node", "net.node"),
    ("repro.net.routing", "net.routing"),
    ("repro.net.pool", "net.pool"),
    ("repro.net.packet", "net.pool"),
    ("repro.sim.timers", "sim.timers"),
    ("repro.transport.receiver", "transport.receiver"),
    ("repro.transport", "transport.sender"),
    ("repro.proxy", "proxy"),
    ("repro.competitors", "proxy"),
    ("repro.orchestration", "orchestration"),
    ("repro.workloads", "workloads"),
    ("repro.metrics", "metrics"),
    ("repro.topology", "topology.build"),
)


class SpanTracer:
    """Nested spans folded into per-label call counts and self times."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        #: open spans, innermost last: [label, start, seconds covered by children]
        self.stack: list[list[Any]] = []
        self.calls: defaultdict[str, int] = defaultdict(int)
        self.self_s: defaultdict[str, float] = defaultdict(float)
        #: event counts taken at span boundaries (idle sends, reuses, ...)
        self.counts: defaultdict[str, int] = defaultdict(int)
        #: (label, start, end, parent label) of every RECORDED_LABELS span
        self.records: list[tuple[str, float, float, str | None]] = []

    def enter(self, label: str) -> None:
        self.calls[label] += 1
        self.stack.append([label, self.clock(), 0.0])

    def exit(self) -> None:
        end = self.clock()
        stack = self.stack
        label, start, covered = stack.pop()
        duration = end - start
        self.self_s[label] += duration - covered
        parent = stack[-1] if stack else None
        if parent is not None:
            parent[2] += duration
        if label in RECORDED_LABELS:
            self.records.append((label, start, end, parent[0] if parent else None))

    @property
    def current(self) -> str | None:
        """Label of the innermost open span."""
        return self.stack[-1][0] if self.stack else None

    @contextmanager
    def span(self, label: str) -> Iterator[None]:
        self.enter(label)
        try:
            yield
        finally:
            self.exit()

    def wrap(self, fn: Callable[..., Any], label: str,
             before: Callable[..., None] | None = None) -> Callable[..., Any]:
        """``fn`` inside a ``label`` span; ``before(*args)`` counts first."""
        enter, exit_ = self.enter, self.exit

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            if before is not None:
                before(*args)
            enter(label)
            try:
                return fn(*args, **kwargs)
            finally:
                exit_()

        return traced


def _identity(value: Any) -> Any:
    return value


class TracedCall:
    """A stored callable run inside a span.

    Used for values that end up inside the simulation's object graph
    (scheduled callbacks, host handlers, a scheme's ``wire``), so it
    pickles as the bare callable: a checkpoint taken in a traced run holds
    no tracer state and restores exactly as an untraced one would.
    """

    __slots__ = ("fn", "label", "tracer")

    def __init__(self, fn: Callable[..., Any], label: str, tracer: SpanTracer) -> None:
        self.fn = fn
        self.label = label
        self.tracer = tracer

    def __call__(self, *args: Any) -> Any:
        tracer = self.tracer
        tracer.enter(self.label)
        try:
            return self.fn(*args)
        finally:
            tracer.exit()

    def __reduce__(self) -> tuple[Any, ...]:
        return (_identity, (self.fn,))


def layer_of_module(module: str) -> str | None:
    for prefix, label in LAYER_BY_MODULE:
        if module == prefix or module.startswith(prefix + "."):
            return label
    return None


class CallbackLabeller:
    """Layer label of a callback: its owner's class hierarchy, else its module."""

    def __init__(self) -> None:
        self._by_key: dict[Any, str] = {}

    def __call__(self, callback: Any) -> str:
        fn = callback.func if isinstance(callback, functools.partial) else callback
        owner = getattr(fn, "__self__", None)
        key: Any = type(owner) if owner is not None else getattr(fn, "__module__", None)
        label = self._by_key.get(key)
        if label is None:
            modules = (
                [cls.__module__ for cls in type(owner).__mro__]
                if owner is not None else [key or ""]
            )
            label = next(
                (found for found in map(layer_of_module, modules) if found), "other"
            )
            self._by_key[key] = label
        return label


class Installation:
    """Every attribute a tracer replaced, so it can be put back."""

    def __init__(self) -> None:
        self._saved: list[tuple[Any, str, Any]] = []

    def replace(self, owner: Any, name: str, value: Any) -> None:
        self._saved.append((owner, name, getattr(owner, name)))
        _set(owner, name, value)

    def rebind(self, original: Any, value: Any) -> None:
        """Replace ``original`` in every repro/perfbench module that imported it."""
        for module_name, module in list(sys.modules.items()):
            if module is None or not module_name.startswith(("repro", "perfbench")):
                continue
            for attr, current in list(vars(module).items()):
                if current is original:
                    self.replace(module, attr, value)

    def restore(self) -> None:
        for owner, name, value in reversed(self._saved):
            _set(owner, name, value)
        self._saved.clear()


def _set(owner: Any, name: str, value: Any) -> None:
    if isinstance(owner, type):
        setattr(owner, name, value)
    else:  # modules, and frozen dataclass instances such as a SchemeSpec
        object.__setattr__(owner, name, value)


def _subclasses(cls: type) -> list[type]:
    """``cls`` and every subclass imported so far, each once."""
    found = {cls: None}
    for sub in cls.__subclasses__():
        found.update(dict.fromkeys(_subclasses(sub)))
    return list(found)


def install(tracer: SpanTracer) -> Installation:
    """Wrap the simulator's entry points; call before building simulators.

    Ports prebind their queue's ``offer``/``pop`` and the scheduler's
    ``schedule_call`` when they are constructed, so only simulators built
    after this call are fully traced.
    """
    from repro.experiments import parallel
    from repro.metrics import collector, sink
    from repro.net import buffers, queues, routing
    from repro.net.node import Host, Switch
    from repro.net.pool import PacketPool
    from repro.net.port import OutputPort
    from repro.orchestration.central import CentralOrchestrator
    from repro.orchestration.decentralized import DecentralizedSelector
    from repro.schemes import SCHEME_REGISTRY
    from repro.sim import checkpoint
    from repro.sim.scheduler import EventScheduler
    from repro.sim.simulator import Simulator
    from repro.sim.timers import Timer
    from repro.topology import interdc
    from repro.transport.connection import Connection

    done = Installation()
    counts = tracer.counts
    wrap = tracer.wrap
    label_of = CallbackLabeller()

    def method(cls: type, name: str, label: str,
               before: Callable[..., None] | None = None) -> None:
        done.replace(cls, name, wrap(cls.__dict__[name], label, before))

    # -- sim: run loop, scheduler, timers, checkpoints -----------------------
    method(Simulator, "run", "sim.dispatch")
    method(EventScheduler, "pop_tick", "sim.scheduler")
    # Callbacks are wrapped outside the scheduler's span, so the wrapping
    # cost lands on the caller, not on the scheduler.
    schedule_call = wrap(EventScheduler.__dict__["schedule_call"], "sim.scheduler")
    schedule_at = wrap(EventScheduler.__dict__["schedule_at"], "sim.scheduler")

    @functools.wraps(schedule_call)
    def traced_schedule_call(self: Any, time_ps: int, callback: Any) -> None:
        schedule_call(self, time_ps, TracedCall(callback, label_of(callback), tracer))

    @functools.wraps(schedule_at)
    def traced_schedule_at(self: Any, time_ps: int, callback: Any) -> Any:
        return schedule_at(self, time_ps, TracedCall(callback, label_of(callback), tracer))

    done.replace(EventScheduler, "schedule_call", traced_schedule_call)
    done.replace(EventScheduler, "schedule_at", traced_schedule_at)

    def count_restart(*_: Any) -> None:
        counts["sim.timers.restarts"] += 1

    method(Timer, "restart", "sim.timers", count_restart)
    method(Timer, "stop", "sim.timers")

    save, load = checkpoint.save_checkpoint, checkpoint.load_checkpoint

    def traced_save(path: Any, payload: Any) -> Any:
        written = save(path, payload)
        counts["sim.checkpoint.bytes"] += written.stat().st_size
        return written

    done.rebind(save, wrap(functools.wraps(save)(traced_save), "sim.checkpoint.save"))
    done.rebind(load, wrap(load, "sim.checkpoint.load"))

    # -- net: ports, queues, nodes, routing, packet pool ---------------------
    def count_send(port: Any, _packet: Any) -> None:
        counts["net.port.sends"] += 1
        if not port.busy:
            counts["net.port.idle_sends"] += 1

    method(OutputPort, "send", "net.port", count_send)

    def count_offer(*_: Any) -> None:
        counts["net.queues.offers"] += 1

    queue_classes = (*_subclasses(queues.DropTailQueue), queues.TrimmingQueue,
                     queues.HostQueue, buffers.SharedEcnQueue)
    for cls in dict.fromkeys(queue_classes):
        if "offer" in cls.__dict__:
            method(cls, "offer", "net.queues", count_offer)
        if "pop" in cls.__dict__:
            method(cls, "pop", "net.queues")

    def count_switch_receive(switch: Any, packet: Any) -> None:
        counts["net.node.receives"] += 1
        counts["net.node.switch_receives"] += 1
        if packet.dst not in switch.direct_ports:
            counts["net.routing.slow_path"] += 1

    def count_host_receive(*_: Any) -> None:
        counts["net.node.receives"] += 1

    def count_host_send(_host: Any, packet: Any) -> None:
        counts["transport.bytes_sent"] += packet.size_bytes

    method(Switch, "receive", "net.node", count_switch_receive)
    method(Host, "receive", "net.node", count_host_receive)
    method(Host, "send", "net.node", count_host_send)
    register_handler = Host.__dict__["register_handler"]

    def traced_register(self: Any, flow_id: int, handler: Any) -> None:
        register_handler(self, flow_id, TracedCall(handler, label_of(handler), tracer))

    done.replace(Host, "register_handler", functools.wraps(register_handler)(traced_register))

    def count_next_hop(*_: Any) -> None:
        counts["net.routing.next_hop_calls"] += 1

    for cls in _subclasses(routing.RoutingStrategy):
        if "next_hop" in cls.__dict__:
            method(cls, "next_hop", "net.routing", count_next_hop)
    done.rebind(routing.build_next_hop_tables,
                wrap(routing.build_next_hop_tables, "net.routing.table_build"))

    def count_acquire(pool: Any, *_: Any) -> None:
        counts["net.pool.acquires"] += 1
        if len(pool):
            counts["net.pool.reuses"] += 1

    def count_nack(pool: Any, *_: Any) -> None:
        count_acquire(pool)
        if tracer.current == "proxy":
            counts["proxy.nacks_sent"] += 1

    method(PacketPool, "data", "net.pool", count_acquire)
    method(PacketPool, "ack", "net.pool", count_acquire)
    method(PacketPool, "nack", "net.pool", count_nack)
    method(PacketPool, "give", "net.pool")

    # -- topology, schemes, transport, orchestration, metrics ----------------
    done.rebind(interdc.build_interdc, wrap(interdc.build_interdc, "topology.build"))
    for name in SCHEME_REGISTRY.names():
        spec = SCHEME_REGISTRY.get(name)
        spec.fingerprint()  # cache keys hash the unwrapped wire source
        done.replace(spec, "wire", TracedCall(spec.wire, "schemes.wire", tracer))

    def count_connection(*_: Any) -> None:
        counts["transport.connections"] += 1

    method(Connection, "__init__", "transport.connect", count_connection)
    method(Connection, "start", "transport.connect")
    def count_select(*_: Any) -> None:
        counts["orchestration.selects"] += 1

    for cls in (CentralOrchestrator, DecentralizedSelector):
        method(cls, "select", "orchestration", count_select)
        method(cls, "release", "orchestration")

    def count_observe(*_: Any) -> None:
        counts["metrics.observes"] += 1

    for cls in (sink.ExactSeriesSink, sink.DecimatingSeriesSink,
                sink.ExactDistributionSink, sink.SketchDistributionSink):
        method(cls, "observe", "metrics", count_observe)
    done.rebind(collector.collect_network_counters,
                wrap(collector.collect_network_counters, "metrics.collect"))

    # -- experiments: the result cache ---------------------------------------
    done.rebind(parallel.scenario_key, wrap(parallel.scenario_key, "experiments.cache.key"))
    method(parallel.ResultCache, "get", "experiments.cache.get")
    put = parallel.ResultCache.__dict__["put"]

    def traced_put(cache: Any, key: str, value: Any) -> None:
        put(cache, key, value)
        counts["experiments.cache.puts"] += 1
        counts["experiments.cache.entry_bytes"] += cache.path_for(key).stat().st_size

    done.replace(parallel.ResultCache, "put",
                 wrap(functools.wraps(put)(traced_put), "experiments.cache.put"))
    return done
