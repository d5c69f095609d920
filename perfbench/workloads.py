"""The benchmark's three workloads, their correctness checks and metrics.

Each workload is a fixed set of simulations, repeated in *units* until the
run's time is up:

* ``incast-d8`` — one unit is all 8 registered schemes at the Fig. 2-left
  degree-8 point (40 MB, 8 KiB payloads, scenario seed 0), run cold through
  an :class:`~repro.ExperimentEngine` with a fresh result cache, then served
  warm from that cache, then checkpointed (the pass's result list).
* ``sweep-small`` — the same for a 48-cell grid of short incasts
  (8 schemes x degree {2, 16, 60} x {1, 4} MB).
* ``openloop`` — one unit is one :class:`~repro.workloads.engine.OpenLoopEngine`
  run, checkpointed and restored at every segment boundary and resumed from
  one of them; its result is cached and served warm too.

The benchmark seed picks the order of the runs in each unit and, on
``openloop``, the boundary the run resumes from.  It does not change the
simulated scenarios, whose work, and so every host-time metric, depends on
the scenario seed far more than the benchmark's bounds allow (see
README.md).  Every simulated result is therefore checked against the
digests recorded in ``reference.json`` on every run.

Only public entry points of ``repro`` are used.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import random
import shutil
import statistics
import time
from pathlib import Path
from typing import Any, Callable

from repro import (
    SCHEME_REGISTRY,
    ExperimentEngine,
    IncastResult,
    IncastScenario,
    ResultCache,
    TransportConfig,
    competitors,
    run_incast,
)
from repro.experiments.parallel import RunFailure, scenario_key
from repro.sim import checkpoint
from repro.sim.simulator import Simulator
from repro.units import megabytes, seconds
from repro.workloads.engine import OpenLoopEngine, WorkloadEngineConfig

from perfbench.hostspeed import Bursts, HostClock

REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"

#: (name, unit, better, bound) of every metric a ``--trace 0`` run reports.
END_TO_END = (
    ("hops_per_s", "1/s", "higher", 0.2),
    ("sim_s_per_wall_s", "1/s", "higher", 0.2),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
    ("cache_hit_ms.p50", "ms", "lower", 0.25),
    ("cache_hit_ms.p90", "ms", "lower", 0.25),
    ("checkpoint_save_ms", "ms", "lower", 0.25),
    ("checkpoint_load_ms", "ms", "lower", 0.25),
)


class Ledger:
    """Operations attempted and failed, with the first few failure reasons."""

    def __init__(self, reference: dict[str, str] | None) -> None:
        #: expected digest per result id; None records instead of checking
        self.reference = reference
        self.recorded: dict[str, str] = {}
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def fail(self, problem: str) -> None:
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(problem)

    def check_digest(self, result_id: str, digest: str) -> bool:
        """False (and one failed op) when ``digest`` is not the recorded one."""
        if self.reference is None:
            self.recorded.setdefault(result_id, digest)
            return True
        expected = self.reference.get(result_id)
        if digest != expected:
            self.fail(f"{result_id}: digest {digest[:12]} != reference "
                      f"{expected[:12] if expected else None}")
            return False
        return True

    def guarded(self, what: str, op: Callable[[], Any]) -> Any:
        """Run one operation; an exception is one failed op and gives None."""
        self.attempted += 1
        try:
            return op()
        except Exception as exc:  # noqa: BLE001 - a failed op, not a crash
            self.fail(f"{what}: {type(exc).__name__}: {exc}")
            return None


def _sha(document: Any) -> str:
    return hashlib.sha256(json.dumps(document, sort_keys=True).encode()).hexdigest()


def incast_id(scenario: IncastScenario) -> str:
    return (f"{scenario.scheme}/d{scenario.degree}/{scenario.total_bytes}B"
            f"/seed{scenario.seed}")


def incast_digest(result: IncastResult) -> str:
    """Every simulated output of one incast (no wall-clock fields)."""
    return _sha({
        "id": incast_id(result.scenario),
        "ict_ps": result.ict_ps,
        "completed": result.completed,
        "failed_flows": result.failed_flows,
        "flow_completion_ps": result.flow_completion_ps,
        "events": result.events_executed,
        "counters": dataclasses.asdict(result.counters),
        "retransmissions": result.retransmissions,
        "timeouts": result.timeouts,
        "nacks_received": result.nacks_received,
        "marked_acks": result.marked_acks,
        "proxy_nacks_sent": result.proxy_nacks_sent,
    })


def openloop_digest(result: Any, events: int) -> str:
    return _sha({
        "workload_digest": result.digest,
        "events": events,
        "counters": dataclasses.asdict(result.counters),
    })


def _order(name: str, seed: int, index: int, count: int) -> list[int]:
    order = list(range(count))
    random.Random(f"{name}:{seed}:{index}").shuffle(order)
    return order


class _Samples:
    """Cache-hit and checkpoint latencies, in milliseconds."""

    def __init__(self) -> None:
        self.hit_ms = Bursts()
        self.save_ms = Bursts()
        self.load_ms = Bursts()

    def common_metrics(self) -> dict[str, float]:
        return {
            "cache_hit_ms.p50": self.hit_ms.mean_of_medians(),
            "cache_hit_ms.p90": self.hit_ms.quantile(90),
            "checkpoint_save_ms": self.save_ms.mean_of_medians(),
            "checkpoint_load_ms": self.load_ms.mean_of_medians(),
        }

    def round_trip(self, ledger: Ledger, what: str, path: Path, payload: Any) -> Any:
        """Checkpoint ``payload`` and load it back; None if that raised."""
        def timed() -> tuple[float, float, Any]:
            started = time.perf_counter()
            checkpoint.save_checkpoint(path, payload)
            saved = time.perf_counter()
            loaded = checkpoint.load_checkpoint(path)
            return saved - started, time.perf_counter() - saved, loaded

        done = ledger.guarded(what, timed)
        if done is None:
            return None
        save_s, load_s, loaded = done
        self.save_ms.add(save_s * 1e3)
        self.load_ms.add(load_s * 1e3)
        return loaded


class IncastWorkload:
    """A fixed list of incasts run cold, with warm hits and checkpoints between.

    After every cold run a burst of warm cache hits replays the pass's
    finished runs, and, from the second pass on, after every
    ``checkpoint_every``-th run the previous pass's result list is
    checkpointed and restored ``checkpoints_per_burst`` times.
    """

    def __init__(self, name: str, scenarios: list[IncastScenario], *,
                 hits_per_run: int, checkpoint_every: int,
                 checkpoints_per_burst: int, clock: HostClock | None = None) -> None:
        self.name = name
        self.scenarios = scenarios
        self.clock = clock
        self.hits_per_run = hits_per_run
        self.checkpoint_every = checkpoint_every
        self.checkpoints_per_burst = checkpoints_per_burst
        self.samples = _Samples()
        self.walls: dict[str, list[float]] = {}
        self.hops: dict[str, int] = {}
        self.sim_ps: dict[str, int] = {}
        #: the last complete pass: results and their digests
        self.saved: tuple[list[IncastResult], list[str]] | None = None
        self._hits = 0

    def first_run(self) -> None:
        """Everything the first run does before its first simulated event."""
        run_incast(self.scenarios[0])

    def record(self, ledger: Ledger) -> None:
        for scenario in self.scenarios:
            ledger.check_digest(incast_id(scenario), incast_digest(run_incast(scenario)))

    def unit(self, index: int, seed: int, ledger: Ledger, workdir: Path,
             deadline: float | None) -> dict[str, int] | None:
        """One pass; None when ``deadline`` cut it short."""
        cache_dir = workdir / f"cache-{index}"
        engine = ExperimentEngine(workers=1, cache=ResultCache(cache_dir))
        order = [self.scenarios[i]
                 for i in _order(self.name, seed, index, len(self.scenarios))]
        fresh: list[tuple[IncastScenario, IncastResult, str]] = []
        try:
            for step, scenario in enumerate(order, 1):
                if deadline is not None and time.perf_counter() >= deadline:
                    return None
                self._cold(ledger, engine, scenario, fresh)
                if self.clock is not None:
                    self.clock.tick()
                if fresh:
                    self._warm_burst(ledger, engine, fresh)
                if self.saved is not None and step % self.checkpoint_every == 0:
                    self._checkpoint_burst(ledger, workdir / f"{self.name}.ckpt")
        finally:
            shutil.rmtree(cache_dir, ignore_errors=True)
        results = [result for _, result, _ in fresh]
        if len(results) == len(order):
            self.saved = (results, [digest for _, _, digest in fresh])
        return {
            "hops": sum(r.counters.tx_packets for r in results),
            "events": sum(r.events_executed for r in results),
            "drops": sum(r.counters.packets_dropped for r in results),
            "trims": sum(r.counters.packets_trimmed for r in results),
            "marks": sum(r.counters.packets_marked for r in results),
            "retransmissions": sum(r.retransmissions for r in results),
            "timeouts": sum(r.timeouts for r in results),
            "nacks": sum(r.nacks_received for r in results),
            "payload_bytes": sum(r.scenario.total_bytes for r in results),
            "cache_hits": engine.stats.cache_hits,
            "cache_lookups": engine.stats.cache_hits + engine.stats.cache_misses,
        }

    def _cold(self, ledger: Ledger, engine: ExperimentEngine, scenario: IncastScenario,
              fresh: list[tuple[IncastScenario, IncastResult, str]]) -> None:
        rid = incast_id(scenario)
        result = ledger.guarded(rid, lambda: engine.run_incasts_detailed([scenario])[0])
        if result is None:
            return
        if isinstance(result, RunFailure):
            ledger.fail(f"{rid}: {result.kind}: {result.message}")
            return
        if not result.completed:
            ledger.fail(f"{rid}: incast did not complete")
            return
        digest = incast_digest(result)
        if not ledger.check_digest(rid, digest):
            return
        fresh.append((scenario, result, digest))
        self.walls.setdefault(rid, []).append(result.wall_seconds)
        self.hops[rid] = result.counters.tx_packets
        self.sim_ps[rid] = result.ict_ps

    def _warm_burst(self, ledger: Ledger, engine: ExperimentEngine,
                    fresh: list[tuple[IncastScenario, IncastResult, str]]) -> None:
        self.samples.hit_ms.start()
        for _ in range(self.hits_per_run):
            scenario, _, digest = fresh[self._hits % len(fresh)]
            self._hits += 1
            started = time.perf_counter()
            hit = ledger.guarded(
                incast_id(scenario), lambda: engine.run_incasts_detailed([scenario])[0])
            elapsed = time.perf_counter() - started
            if hit is None:
                continue
            if (not isinstance(hit, IncastResult) or not hit.from_cache
                    or incast_digest(hit) != digest):
                ledger.fail(f"{incast_id(scenario)}: cache hit differs from fresh result")
                continue
            self.samples.hit_ms.add(elapsed * 1e3)

    def _checkpoint_burst(self, ledger: Ledger, path: Path) -> None:
        assert self.saved is not None
        payload, expected = self.saved
        self.samples.save_ms.start()
        self.samples.load_ms.start()
        for _ in range(self.checkpoints_per_burst):
            loaded = self.samples.round_trip(ledger, f"{self.name} checkpoint", path, payload)
            if loaded is not None and [incast_digest(r) for r in loaded] != expected:
                ledger.fail(f"{self.name}: restored results differ from the saved ones")

    def metrics(self) -> dict[str, float]:
        """Host-time metrics, from each run's mean wall time over the passes."""
        means = {rid: statistics.fmean(walls) for rid, walls in self.walls.items()}
        wall = sum(means.values())
        return {
            "hops_per_s": sum(self.hops[rid] for rid in means) / wall,
            "sim_s_per_wall_s": sum(self.sim_ps[rid] for rid in means) / 1e12 / wall,
            **self.samples.common_metrics(),
        }


class OpenLoopWorkload:
    """One open-loop engine run, checkpointed and restored mid-run.

    Every run after the first saves and restores the engine at each
    segment boundary and resumes from one of the restored copies; at each
    boundary a burst of warm hits serves the previous run's result from a
    result cache the run filled cold when it started.
    """

    #: checkpoint/restore instants; the run resumes from one of them
    BOUNDARIES_S = (1, 2, 3)
    HITS_PER_BOUNDARY = 5

    def __init__(self, clock: HostClock | None = None) -> None:
        self.name = "openloop"
        self.clock = clock
        self.config = WorkloadEngineConfig(
            scheme="streamlined",
            strategy="central",
            horizon_ps=seconds(4),
            segment_ps=seconds(1),
            peak_arrivals_per_s=20.0,
            seed=0,
        )
        self.samples = _Samples()
        self.walls: list[float] = []
        self.hops = 0
        #: the last run's result, served warm during the next run
        self.previous: Any = None

    def first_run(self) -> None:
        OpenLoopEngine(self.config).run()

    def record(self, ledger: Ledger) -> None:
        engine = OpenLoopEngine(self.config)
        result = engine.run()
        ledger.check_digest(self.name, openloop_digest(result, engine.sim.events_executed))

    def unit(self, index: int, seed: int, ledger: Ledger, workdir: Path,
             deadline: float | None) -> dict[str, int] | None:
        """One engine run; every run but the first checkpoints and restores."""
        del deadline  # a unit is one run; it is never cut short
        resume_at = random.Random(f"{self.name}:{seed}:{index}").choice(self.BOUNDARIES_S)
        cache_dir = workdir / f"cache-{index}"
        cache = self._fill_cache(ledger, cache_dir)
        wall = 0.0

        def simulate() -> Any:
            nonlocal wall
            engine = OpenLoopEngine(self.config)
            for boundary_s in self.BOUNDARIES_S if index > 0 else ():
                started = time.perf_counter()
                engine.sim.run(until=seconds(boundary_s))
                wall += time.perf_counter() - started
                restored = self._round_trip(ledger, workdir / "openloop.ckpt", engine)
                if boundary_s == resume_at and restored is not None:
                    engine = restored
                if cache is not None:
                    self._warm_burst(ledger, cache)
                if self.clock is not None:
                    self.clock.tick()
            started = time.perf_counter()
            result = engine.run()
            wall += time.perf_counter() - started
            if self.clock is not None:
                self.clock.tick()
            return engine, result

        try:
            ran = ledger.guarded(self.name, simulate)
        finally:
            shutil.rmtree(cache_dir, ignore_errors=True)
        if ran is None:
            return None
        engine, result = ran
        events = engine.sim.events_executed
        digest = openloop_digest(result, events)
        if not ledger.check_digest(self.name, digest):
            return None
        self.walls.append(wall)
        self.hops = result.counters.tx_packets
        self.previous = result
        hits = len(self.BOUNDARIES_S) * self.HITS_PER_BOUNDARY if cache else 0
        return {
            "hops": result.counters.tx_packets,
            "events": events,
            "drops": result.counters.packets_dropped,
            "trims": result.counters.packets_trimmed,
            "marks": result.counters.packets_marked,
            "payload_bytes": result.bytes_completed,
            "tenants": result.tenants,
            "jobs_completed": result.jobs_completed,
            "cache_hits": hits,
            "cache_lookups": hits + 1,
        }

    def _fill_cache(self, ledger: Ledger, cache_dir: Path) -> ResultCache | None:
        """A fresh cache holding the previous run's result, stored cold."""
        if self.previous is None:
            return None
        cache = ResultCache(cache_dir)
        key = scenario_key(self.config)
        if cache.get(key) is not None:
            ledger.fail(f"{self.name}: a fresh cache served a hit")
        cache.put(key, self.previous)
        return cache

    def _warm_burst(self, ledger: Ledger, cache: ResultCache) -> None:
        fresh = self.previous
        self.samples.hit_ms.start()
        for _ in range(self.HITS_PER_BOUNDARY):
            started = time.perf_counter()
            hit = ledger.guarded(self.name, lambda: cache.get(scenario_key(self.config)))
            elapsed = time.perf_counter() - started
            if hit is None or hit.digest != fresh.digest or hit.counters != fresh.counters:
                ledger.fail(f"{self.name}: cache hit differs from fresh result")
                continue
            self.samples.hit_ms.add(elapsed * 1e3)

    def _round_trip(self, ledger: Ledger, path: Path,
                    engine: OpenLoopEngine) -> OpenLoopEngine | None:
        self.samples.save_ms.start()
        self.samples.load_ms.start()
        now = engine.sim.now
        loaded = self.samples.round_trip(ledger, f"{self.name} checkpoint", path, engine)
        if loaded is None:
            return None
        if not isinstance(loaded, OpenLoopEngine) or loaded.sim.now != now:
            ledger.fail(f"{self.name}: checkpoint at {now} ps restored another state")
            return None
        return loaded

    def metrics(self) -> dict[str, float]:
        wall = statistics.fmean(self.walls)
        return {
            "hops_per_s": self.hops / wall,
            "sim_s_per_wall_s": self.config.horizon_ps / 1e12 / wall,
            **self.samples.common_metrics(),
        }


def make(name: str, clock: HostClock | None = None) -> IncastWorkload | OpenLoopWorkload:
    """A fresh workload by name (installs the competitor schemes first).

    With a ``clock``, the workload ticks it between its runs.
    """
    competitors.install()
    schemes = SCHEME_REGISTRY.names()
    if name == "incast-d8":
        return IncastWorkload(name, [
            IncastScenario(scheme=scheme, degree=8, total_bytes=megabytes(40),
                           transport=TransportConfig(payload_bytes=8192))
            for scheme in schemes
        ], hits_per_run=5, checkpoint_every=1, checkpoints_per_burst=6, clock=clock)
    if name == "sweep-small":
        return IncastWorkload(name, [
            IncastScenario(scheme=scheme, degree=degree, total_bytes=megabytes(size_mb))
            for scheme in schemes for degree in (2, 16, 60) for size_mb in (1, 4)
        ], hits_per_run=3, checkpoint_every=4, checkpoints_per_burst=5, clock=clock)
    if name == "openloop":
        return OpenLoopWorkload(clock)
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("incast-d8", "sweep-small", "openloop")


class _FirstEvent(Exception):
    """Raised by the set-up probe where the first event would run."""


def probe_first_run(name: str) -> None:
    """Run ``name``'s first simulation up to, not including, its first event."""
    def stop(*_: Any, **__: Any) -> int:
        raise _FirstEvent

    original = Simulator.run
    Simulator.run = stop  # type: ignore[method-assign]
    try:
        make(name).first_run()
    except _FirstEvent:
        pass
    finally:
        Simulator.run = original  # type: ignore[method-assign]


def load_reference() -> dict[str, dict[str, str]]:
    return json.loads(REFERENCE_PATH.read_text())
