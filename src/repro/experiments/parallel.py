"""Parallel experiment execution with deterministic merge and a result cache.

Every figure in the paper is a parameter sweep that runs each scheme
``reps`` times per x-axis point; the trials are independent seeded runs,
so they fan out over a process pool the same way RepFlow replicates flows:
do the work N ways, merge deterministically.  This module provides

* :func:`run_parallel` — fan any picklable ``fn`` over items on a
  ``multiprocessing`` pool (``fork`` preferred, ``spawn``-safe) with
  results returned **in input order** regardless of completion order, and
  a graceful fallback to in-process execution when ``workers <= 1``, the
  items are unpicklable, or the platform cannot provide a pool;
* :func:`scenario_key` — a stable content hash of any config dataclass
  (scheme, degree, bytes, nested configs, seed), suitable as a cache key;
* :class:`ResultCache` — an on-disk pickle store keyed by scenario hash,
  so re-running a figure only simulates changed points;
* :class:`ExperimentEngine` — the object the sweeps, figure drivers, and
  CLI sit on: cached, parallel ``run_incasts`` plus a generic ``map``,
  with :class:`ExecutionStats` accounting (cache hits, simulated wall
  time vs engine wall time) so the speedup is measurable.

Crash-proofing: a long sweep must survive one bad point.  Every run is
guarded — :func:`run_parallel_guarded` enforces a per-run wall-clock
deadline *inside* the worker (``SIGALRM``; a ``ProcessPoolExecutor``
cannot cancel a running task from outside), retries transient exceptions
with exponential backoff, and when a worker process dies outright
(segfault, ``os._exit``) re-runs the surviving items in fresh single-run
isolation pools so one poison scenario cannot take down its batchmates.
A run that still fails is **quarantined**: the engine returns a
structured :class:`RunFailure` in its slot and every other point's result
survives, instead of one exception discarding an hour of simulation.

Determinism contract: each simulation is a pure function of its scenario
(seed included), so for a fixed scenario list the engine returns the same
results — bitwise, minus host-dependent wall-clock fields — for any worker
count, completion order, or cache state.  Quarantine preserves this:
failures are positional, so the merge never shifts.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import hashlib
import os
import pickle
import signal
import threading
import time
from dataclasses import dataclass, is_dataclass
from pathlib import Path
from typing import Any, Callable, Iterable, Sequence, TypeVar

from repro.errors import ExperimentError
from repro.metrics.config import DEFAULT_METRICS
from repro.experiments.runner import (
    _SANITIZE_REMOVED,
    IncastResult,
    IncastScenario,
    run_incast,
)
from repro.telemetry.options import RunOptions
from repro.telemetry.sweep import SweepTelemetry

T = TypeVar("T")
R = TypeVar("R")

#: Bump when the result schema changes so stale cache entries never load.
#: v2: IncastResult gained fault/failure fields; IncastScenario gained
#: faults/failover.
#: v3: IncastResult gained the conservation tally (--sanitize).
#: v4: IncastResult gained the telemetry snapshot (repro.telemetry).
#: v5: scenario keys fold in the registered scheme's spec fingerprint, so a
#: re-registered scheme under an old name never reuses stale entries.
#: v6: IncastScenario gained the control-plane config; IncastResult gained
#: failbacks/proxy_degrades/reroutes/detected_at_ps/converged_at_ps;
#: FailoverConfig gained failback_stabilization_ps (the proxy-failover
#: manager now probes past the first migration, so cached pre-v6 results
#: would disagree on events_executed).
#: v7: scenario keys fold in the run's MetricsConfig (exact vs sketch
#: sinks change the recorded telemetry series), so sketch-mode and
#: exact-mode runs never share cache entries; pre-v7 entries carry no
#: metrics field and must not satisfy either mode.
#: v8: keys hash the ``repr`` of a tuple instead of sorted JSON and fold in
#: :func:`code_digest`, so a source edit invalidates entries by itself.
#: From v8 on, bump only when the key or entry *format* changes; a change
#: to what the simulator computes is covered by the code digest.
CACHE_SCHEMA_VERSION = 8

#: Default on-disk cache location (override with $REPRO_CACHE_DIR).
DEFAULT_CACHE_DIR = Path(os.environ.get("REPRO_CACHE_DIR", "results/.sweep-cache"))


# ---------------------------------------------------------------------------
# Stable scenario hashing
# ---------------------------------------------------------------------------

class Uncacheable(ExperimentError):
    """The scenario embeds state (e.g. a callable) with no stable hash."""


#: Files of the ``repro`` package that never run inside a cached
#: simulation (the CLI entry point and the report renderer), so editing
#: them keeps every cache entry valid.  Everything else is in the digest.
CODE_DIGEST_EXCLUDED = frozenset({"__main__.py", "experiments/report.py"})

_PACKAGE_ROOT = Path(__file__).resolve().parent.parent


@functools.cache
def code_digest() -> str:
    """SHA-256 over the ``repro`` package source that computes results.

    Hashes the sorted package-relative paths and bytes of every ``*.py``
    file except :data:`CODE_DIGEST_EXCLUDED`.  Computed on the first call
    (the first cache key of a process), never at import, and memoized, so
    a source edit made while a process runs is only seen by the next
    process.
    """
    sources = sorted(
        (path.relative_to(_PACKAGE_ROOT).as_posix(), path)
        for path in _PACKAGE_ROOT.rglob("*.py")
    )
    digest = hashlib.sha256()
    for relative, path in sources:
        if relative in CODE_DIGEST_EXCLUDED:
            continue
        data = path.read_bytes()
        digest.update(f"{relative}\0{len(data)}\0".encode())
        digest.update(data)
    return digest.hexdigest()


_ATOMS = frozenset({type(None), bool, int, float, str})

#: dataclass type -> (type name, field names); None for non-dataclasses.
_DATACLASS_LAYOUTS: dict[type, tuple[str, tuple[str, ...]] | None] = {}


def _dataclass_layout(cls: type) -> tuple[str, tuple[str, ...]] | None:
    if not is_dataclass(cls):
        return None
    return cls.__name__, tuple(f.name for f in dataclasses.fields(cls))


def _canonical(value: Any) -> Any:
    """Recursively reduce a config value to JSON-encodable primitives.

    Dataclasses become ``{"__type__": Name, field: ...}`` in field order,
    sequences become lists and dicts come back sorted by key, so the
    document is deterministic both as JSON and as ``repr``.  Raises
    :class:`Uncacheable` for values without a stable content
    representation (callables such as ``proxy_delay_sampler``).
    """
    cls = value.__class__
    if cls in _ATOMS:
        return value
    try:
        layout = _DATACLASS_LAYOUTS[cls]
    except KeyError:
        layout = _DATACLASS_LAYOUTS[cls] = _dataclass_layout(cls)
    if layout is not None:
        name, fields = layout
        doc = {"__type__": name}
        for field in fields:
            item = getattr(value, field)
            doc[field] = item if item.__class__ in _ATOMS else _canonical(item)
        return doc
    if isinstance(value, (list, tuple)):
        return [v if v.__class__ in _ATOMS else _canonical(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _canonical(v) for k, v in sorted(value.items())}
    if isinstance(value, (int, float, str)):  # atom subclasses, e.g. enums
        return value
    raise Uncacheable(f"no stable representation for {cls.__name__}")


def scenario_key(scenario: Any, options: RunOptions | None = None) -> str:
    """Stable SHA-256 content hash of a config dataclass and the code.

    Two scenarios that compare equal field-by-field hash identically across
    processes and interpreter runs; any field change (scheme, degree,
    bytes, nested config, seed) changes the key.  Raises :class:`Uncacheable`
    for scenarios carrying callables (``proxy_delay_sampler``).

    The key also names the code that computes the result:
    :func:`code_digest` covers the simulator's source, so an edit to it
    misses every earlier entry.  When the scenario names a registered
    scheme, the scheme's spec :meth:`~repro.schemes.SchemeSpec.fingerprint`
    is folded in as well, which covers schemes registered from outside the
    ``repro`` package.

    The run's :class:`~repro.metrics.config.MetricsConfig` (taken from
    ``options``, defaulting to exact mode) is folded in too: sketch-mode
    telemetry is a different artifact from exact-mode telemetry, so the
    two must never share a cache entry.
    """
    if not is_dataclass(scenario) or isinstance(scenario, type):
        raise Uncacheable(f"cache keys require a dataclass, got {type(scenario).__name__}")
    metrics = options.metrics if options is not None else DEFAULT_METRICS
    fingerprint = None
    scheme = getattr(scenario, "scheme", None)
    if isinstance(scheme, str):
        from repro.schemes import SCHEME_REGISTRY

        if scheme in SCHEME_REGISTRY:
            fingerprint = SCHEME_REGISTRY.get(scheme).fingerprint()
    document = (
        CACHE_SCHEMA_VERSION,
        code_digest(),
        _canonical(scenario),
        _canonical(metrics),
        fingerprint,
    )
    return hashlib.sha256(repr(document).encode()).hexdigest()


# ---------------------------------------------------------------------------
# On-disk result cache
# ---------------------------------------------------------------------------

class ResultCache:
    """Pickle-per-entry result store keyed by :func:`scenario_key`.

    Entries are written atomically (tmp file + rename) so a crashed or
    concurrent run never leaves a truncated entry; unreadable entries are
    treated as misses and overwritten.
    """

    def __init__(self, root: str | Path = DEFAULT_CACHE_DIR) -> None:
        self.root = Path(root)

    def path_for(self, key: str) -> Path:
        """Where ``key``'s entry lives (two-level fanout keeps dirs small)."""
        return self.root / key[:2] / f"{key}.pkl"

    def get(self, key: str) -> Any | None:
        """Load the cached value for ``key``, or None on miss/corruption.

        Any failure to unpickle an entry (truncation, garbage, an
        unsupported protocol, a stale class layout) counts as corruption:
        the entry is deleted on the spot, because leaving it would turn
        every future lookup of this key into a doomed read, and ``put``
        only runs when a fresh result exists to overwrite it with.
        """
        path = f"{self.root}/{key[:2]}/{key}.pkl"
        try:
            fh = open(path, "rb")
        except OSError:
            return None
        with fh:
            try:
                return pickle.load(fh)
            except Exception:  # noqa: BLE001 - unpickling can raise anything
                pass
        with contextlib.suppress(OSError):  # unwritable cache dir
            os.unlink(path)
        return None

    def put(self, key: str, value: Any) -> None:
        """Store ``value`` under ``key`` atomically.

        A failed write (a full disk, an unpicklable value) removes its
        temporary file and re-raises.
        """
        path = self.path_for(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_suffix(f".tmp.{os.getpid()}")
        try:
            with tmp.open("wb") as fh:
                pickle.dump(value, fh, protocol=pickle.HIGHEST_PROTOCOL)
            tmp.replace(path)
        except BaseException:
            with contextlib.suppress(OSError):
                tmp.unlink()
            raise

    def clear(self) -> int:
        """Delete every entry; returns how many were removed."""
        removed = 0
        if not self.root.exists():
            return removed
        for entry in self.root.glob("*/*.pkl"):
            entry.unlink(missing_ok=True)
            removed += 1
        return removed


# ---------------------------------------------------------------------------
# The pool
# ---------------------------------------------------------------------------

def resolve_workers(workers: int | None) -> int:
    """Normalize a worker-count request: None/0 = one per available CPU."""
    if workers is None or workers == 0:
        return max(1, os.cpu_count() or 1)
    if workers < 0:
        raise ExperimentError(f"workers must be non-negative, got {workers}")
    return workers


def _pool_context():
    """Pick a multiprocessing context: ``fork`` where available, else spawn."""
    import multiprocessing

    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX platforms
        return multiprocessing.get_context("spawn")


def _all_picklable(values: Iterable[Any]) -> bool:
    try:
        for value in values:
            pickle.dumps(value)
    except Exception:
        return False
    return True


def run_parallel(
    fn: Callable[[T], R],
    items: Sequence[T],
    *,
    workers: int | None = 1,
    on_fallback: Callable[[str], None] | None = None,
) -> list[R]:
    """Apply ``fn`` to every item, fanning out over a process pool.

    Results come back **in input order** no matter which worker finished
    first, so callers merge deterministically.  Falls back to in-process
    serial execution — same results, same order — when ``workers <= 1``,
    there is at most one item, the work is unpicklable, or the platform
    refuses to start a pool (sandboxes without /dev/shm, missing fork).
    """
    items = list(items)
    workers = resolve_workers(workers)
    effective = min(workers, len(items))
    if effective <= 1:
        return [fn(item) for item in items]
    if not _all_picklable([fn]) or not _all_picklable(items):
        if on_fallback is not None:
            on_fallback("work items are not picklable; running serially")
        return [fn(item) for item in items]

    from concurrent.futures import ProcessPoolExecutor

    try:
        with ProcessPoolExecutor(
            max_workers=effective, mp_context=_pool_context()
        ) as pool:
            futures = [pool.submit(fn, item) for item in items]
            return [future.result() for future in futures]
    except (OSError, ImportError, PermissionError) as exc:
        if on_fallback is not None:
            on_fallback(f"process pool unavailable ({exc}); running serially")
        return [fn(item) for item in items]


# ---------------------------------------------------------------------------
# Guarded execution: deadlines, retries, quarantine
# ---------------------------------------------------------------------------

@dataclass
class RunFailure:
    """One quarantined run: the sweep continued; this point is marked failed.

    ``kind`` is ``"exception"`` (the run raised after all retry attempts),
    ``"timeout"`` (it exceeded the per-run wall-clock deadline), or
    ``"worker-crash"`` (the worker process died — segfault, OOM-kill,
    ``os._exit``).  Failures are never cached: a re-run gets a fresh try.
    """

    scenario: IncastScenario
    kind: str
    message: str
    attempts: int = 1
    elapsed_seconds: float = 0.0

    def __str__(self) -> str:
        return (
            f"RunFailure({self.kind}: {self.message}; "
            f"attempts={self.attempts}, elapsed={self.elapsed_seconds:.2f}s)"
        )


class _RunTimeout(Exception):
    """Internal: raised by the SIGALRM handler when a run overruns."""


def _call_with_deadline(fn: Callable[[T], R], item: T, timeout_s: float | None) -> R:
    """Run ``fn(item)``, raising :class:`_RunTimeout` past ``timeout_s``.

    The deadline is enforced *inside* the executing process via
    ``SIGALRM`` + ``setitimer`` — the only way to interrupt a task a
    ``ProcessPoolExecutor`` has already started.  Platforms without
    ``SIGALRM`` (Windows) and non-main threads run without a deadline.
    """
    if (
        not timeout_s
        or not hasattr(signal, "SIGALRM")
        or threading.current_thread() is not threading.main_thread()
    ):
        return fn(item)

    def _on_alarm(signum, frame):  # noqa: ARG001 - signal handler signature
        raise _RunTimeout()

    previous = signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, timeout_s)
    try:
        return fn(item)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


def _guarded_call(
    fn: Callable[[T], R],
    item: T,
    timeout_s: float | None,
    max_attempts: int,
    backoff_s: float,
) -> tuple[str, Any, int, float]:
    """One guarded run: ``("ok", result, ...)`` or a failure tuple.

    Exceptions are retried up to ``max_attempts`` with exponential
    backoff (transient failures — a full /tmp, a cache race — deserve a
    second chance).  Timeouts are **not** retried: a run that exhausted
    its deadline once would almost certainly do it again, doubling the
    wall-clock cost of an already-slow point.
    """
    start = time.perf_counter()
    attempts = 0
    while True:
        attempts += 1
        try:
            result = _call_with_deadline(fn, item, timeout_s)
            return ("ok", result, attempts, time.perf_counter() - start)
        except _RunTimeout:
            return (
                "timeout",
                f"exceeded the {timeout_s:g}s per-run wall-clock deadline",
                attempts,
                time.perf_counter() - start,
            )
        except Exception as exc:  # noqa: BLE001 - quarantine boundary
            if attempts >= max_attempts:
                return (
                    "exception",
                    f"{type(exc).__name__}: {exc}",
                    attempts,
                    time.perf_counter() - start,
                )
            time.sleep(backoff_s * (2 ** (attempts - 1)))


class _GuardedTask:
    """Picklable closure shipping the guard parameters to worker processes."""

    def __init__(
        self,
        fn: Callable[[T], R],
        timeout_s: float | None,
        max_attempts: int,
        backoff_s: float,
    ) -> None:
        self.fn = fn
        self.timeout_s = timeout_s
        self.max_attempts = max_attempts
        self.backoff_s = backoff_s

    def __call__(self, item: T) -> tuple[str, Any, int, float]:
        return _guarded_call(
            self.fn, item, self.timeout_s, self.max_attempts, self.backoff_s
        )


def _run_isolated(task: _GuardedTask, item: Any) -> tuple[str, Any, int, float]:
    """Re-run one item from a broken batch in a fresh single-run pool.

    Never runs the item in-process: it is a suspect in a worker's death,
    and a hard crash (``os._exit``, segfault) in the caller would discard
    the whole sweep — exactly what quarantine exists to prevent.
    """
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    try:
        with ProcessPoolExecutor(max_workers=1, mp_context=_pool_context()) as pool:
            return pool.submit(task, item).result()
    except BrokenProcessPool:
        return (
            "worker-crash",
            "worker process died while executing this run (hard crash)",
            1,
            0.0,
        )
    except (OSError, ImportError, PermissionError) as exc:
        return ("worker-crash", f"isolation pool unavailable: {exc}", 1, 0.0)


def run_parallel_guarded(
    fn: Callable[[T], R],
    items: Sequence[T],
    *,
    workers: int | None = 1,
    timeout_s: float | None = None,
    max_attempts: int = 2,
    backoff_s: float = 0.05,
    on_fallback: Callable[[str], None] | None = None,
    on_progress: Callable[[int, int], None] | None = None,
) -> list[tuple[str, Any, int, float]]:
    """Guarded fan-out: one ``(status, payload, attempts, elapsed)`` per item.

    Like :func:`run_parallel` (input-order results, serial fallback), but
    no single item can sink the batch: exceptions and deadline overruns
    come back as failure tuples, and if a worker process dies the items it
    took down with it are re-run in fresh isolation pools — so a segfault
    in item 3 still yields results for items 0–2 and 4–N.

    ``on_progress(done, total)`` is invoked as runs finish (from a pool
    callback thread when running parallel) — a heartbeat hook, not part of
    the deterministic result path.

    In the serial fallback (no usable pool) exceptions and timeouts are
    still guarded, but a hard crash cannot be contained — there is no
    process boundary to die behind.
    """
    items = list(items)
    workers = resolve_workers(workers)
    task = _GuardedTask(fn, timeout_s, max_attempts, backoff_s)
    total = len(items)

    def _serial() -> list[tuple[str, Any, int, float]]:
        results = []
        for i, item in enumerate(items):
            results.append(task(item))
            if on_progress is not None:
                on_progress(i + 1, total)
        return results

    effective = min(workers, total)
    if effective <= 1:
        return _serial()
    if not _all_picklable([fn]) or not _all_picklable(items):
        if on_fallback is not None:
            on_fallback("work items are not picklable; running serially")
        return _serial()

    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    done_count = [0]
    done_lock = threading.Lock()

    def _tick_progress(_future: Any) -> None:
        if on_progress is None:
            return
        with done_lock:
            done_count[0] += 1
            done = done_count[0]
        on_progress(done, total)

    results: list[tuple[str, Any, int, float] | None] = [None] * len(items)
    crashed: list[int] = []
    try:
        with ProcessPoolExecutor(
            max_workers=effective, mp_context=_pool_context()
        ) as pool:
            futures = []
            try:
                for item in items:
                    future = pool.submit(task, item)
                    future.add_done_callback(_tick_progress)
                    futures.append(future)
            except BrokenProcessPool:
                pass  # unsubmitted items go straight to isolation below
            for i, future in enumerate(futures):
                try:
                    results[i] = future.result()
                except BrokenProcessPool:
                    crashed.append(i)
                except Exception as exc:  # noqa: BLE001 - e.g. unpicklable result
                    results[i] = (
                        "exception", f"{type(exc).__name__}: {exc}", 1, 0.0
                    )
            crashed.extend(range(len(futures), len(items)))
    except (OSError, ImportError, PermissionError) as exc:
        if on_fallback is not None:
            on_fallback(f"process pool unavailable ({exc}); running serially")
        return _serial()

    for i in crashed:
        results[i] = _run_isolated(task, items[i])
    return [r for r in results if r is not None]


# ---------------------------------------------------------------------------
# The engine
# ---------------------------------------------------------------------------

@dataclass
class ExecutionStats:
    """What one engine did: task counts, cache traffic, and timing."""

    tasks: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    workers: int = 1
    #: runs quarantined as RunFailure (never cached; see run_incasts_detailed).
    failures: int = 0
    #: extra attempts spent retrying transient exceptions.
    retries: int = 0
    #: wall-clock the engine spent orchestrating (pool + cache + merge).
    wall_seconds: float = 0.0
    #: summed single-run wall-clock of the simulations actually executed —
    #: the serial-equivalent cost, so speedup = sim_wall_seconds / wall_seconds.
    sim_wall_seconds: float = 0.0

    @property
    def speedup(self) -> float:
        """Serial-equivalent time over engine wall time (>1 = parallel win)."""
        if self.wall_seconds <= 0:
            return 1.0
        return self.sim_wall_seconds / self.wall_seconds


class ExperimentEngine:
    """Cached, parallel executor for independent seeded experiment runs."""

    def __init__(
        self,
        workers: int | None = 1,
        cache: ResultCache | None = None,
        *,
        on_fallback: Callable[[str], None] | None = None,
        run_timeout_s: float | None = None,
        max_attempts: int = 2,
        retry_backoff_s: float = 0.05,
        sanitize: Any = _SANITIZE_REMOVED,
        options: RunOptions | None = None,
        telemetry: SweepTelemetry | None = None,
    ) -> None:
        if run_timeout_s is not None and run_timeout_s <= 0:
            raise ExperimentError(
                f"run_timeout_s must be positive, got {run_timeout_s}"
            )
        if max_attempts < 1:
            raise ExperimentError(f"max_attempts must be >= 1, got {max_attempts}")
        if retry_backoff_s < 0:
            raise ExperimentError(
                f"retry_backoff_s must be non-negative, got {retry_backoff_s}"
            )
        self.workers = resolve_workers(workers)
        self.cache = cache
        #: the per-run execution options every incast is run under.  Runs
        #: whose options bypass the cache (sanitize, telemetry, tracer,
        #: custom instrumentation) skip it in both directions: a cached
        #: result proves nothing about invariants and carries no snapshot,
        #: and an instrumented result is not interchangeable with a plain
        #: one.
        self.options = options if options is not None else RunOptions()
        if sanitize is not _SANITIZE_REMOVED:
            raise TypeError(
                "ExperimentEngine(..., sanitize=...) was removed; pass "
                "options=RunOptions(sanitize=...) instead"
            )
        #: sweep-level telemetry sink (heartbeats + per-run records);
        #: None means no sweep accounting beyond ``stats``.
        self.telemetry = telemetry
        self.on_fallback = on_fallback
        self.run_timeout_s = run_timeout_s
        self.max_attempts = max_attempts
        self.retry_backoff_s = retry_backoff_s
        self.stats = ExecutionStats(workers=self.workers)

    @property
    def sanitize(self) -> bool:
        """True when every run executes under the invariant sanitizer."""
        return self.options.sanitize

    # -- generic fan-out -----------------------------------------------------

    def map(self, fn: Callable[[T], R], items: Sequence[T]) -> list[R]:
        """Uncached deterministic fan-out of ``fn`` over ``items``."""
        start = time.perf_counter()
        results = run_parallel(
            fn, items, workers=self.workers, on_fallback=self.on_fallback
        )
        self.stats.tasks += len(results)
        self.stats.wall_seconds += time.perf_counter() - start
        return results

    # -- incast runs ---------------------------------------------------------

    def run_incasts(self, scenarios: Sequence[IncastScenario]) -> list[IncastResult]:
        """Run every scenario (cache-aware), results in input order.

        Raises :class:`ExperimentError` if any run fails — callers that
        want partial results use :meth:`run_incasts_detailed` instead.
        """
        results = self.run_incasts_detailed(scenarios)
        for entry in results:
            if isinstance(entry, RunFailure):
                raise ExperimentError(
                    f"run failed ({entry.kind}) for scheme="
                    f"{entry.scenario.scheme!r} seed={entry.scenario.seed}: "
                    f"{entry.message}"
                )
        return results  # type: ignore[return-value]  # all IncastResult here

    def run_incasts_detailed(
        self, scenarios: Sequence[IncastScenario]
    ) -> list[IncastResult | RunFailure]:
        """Run every scenario; failed runs come back as :class:`RunFailure`.

        Results are **positional**: slot ``i`` always describes
        ``scenarios[i]``, whether it succeeded, was served from cache, or
        was quarantined.  Failures are never written to the cache, so a
        re-run retries them from scratch.
        """
        start = time.perf_counter()
        scenarios = list(scenarios)
        results: list[IncastResult | RunFailure | None] = [None] * len(scenarios)
        misses: list[tuple[int, IncastScenario]] = []

        for i, scenario in enumerate(scenarios):
            cached = self._lookup(scenario)
            if cached is not None:
                cached.from_cache = True
                results[i] = cached
                self.stats.cache_hits += 1
                if self.telemetry is not None:
                    self.telemetry.record(scenario, "cached", 0, 0.0)
            else:
                misses.append((i, scenario))

        if misses:
            fresh = run_parallel_guarded(
                _RunTask(self.options),
                [scenario for _, scenario in misses],
                workers=self.workers,
                timeout_s=self.run_timeout_s,
                max_attempts=self.max_attempts,
                backoff_s=self.retry_backoff_s,
                on_fallback=self.on_fallback,
                on_progress=(
                    self.telemetry.on_progress if self.telemetry is not None else None
                ),
            )
            for (i, scenario), (status, payload, attempts, elapsed) in zip(
                misses, fresh
            ):
                self.stats.cache_misses += 1
                self.stats.retries += attempts - 1
                if self.telemetry is not None:
                    self.telemetry.record(scenario, status, attempts, elapsed)
                if status == "ok":
                    results[i] = payload
                    self.stats.sim_wall_seconds += payload.wall_seconds
                    self._store(scenario, payload)
                else:
                    results[i] = RunFailure(
                        scenario=scenario,
                        kind=status,
                        message=str(payload),
                        attempts=attempts,
                        elapsed_seconds=elapsed,
                    )
                    self.stats.failures += 1

        self.stats.tasks += len(scenarios)
        self.stats.wall_seconds += time.perf_counter() - start
        return [r for r in results if r is not None]

    def _lookup(self, scenario: IncastScenario) -> IncastResult | None:
        if self.cache is None or self.options.bypasses_cache:
            return None
        try:
            key = scenario_key(scenario, self.options)
        except Uncacheable:
            return None
        value = self.cache.get(key)
        return value if isinstance(value, IncastResult) else None

    def _store(self, scenario: IncastScenario, result: IncastResult) -> None:
        if self.cache is None or self.options.bypasses_cache:
            return
        try:
            key = scenario_key(scenario, self.options)
        except Uncacheable:
            return
        try:
            self.cache.put(key, result)
        except OSError:  # read-only filesystem: run uncached, don't fail
            pass


class _RunTask:
    """Picklable ``run_incast`` closure carrying the engine's run options."""

    def __init__(self, options: RunOptions) -> None:
        self.options = options

    def __call__(self, scenario: IncastScenario) -> IncastResult:
        return run_incast(scenario, options=self.options)


def _run_incast_sanitized(scenario: IncastScenario) -> IncastResult:
    """Module-level (hence picklable) sanitized run for the worker pool."""
    return run_incast(scenario, options=RunOptions(sanitize=True))


def run_incast_batch(
    scenarios: Sequence[IncastScenario],
    *,
    workers: int | None = 1,
    cache: ResultCache | None = None,
) -> list[IncastResult]:
    """One-shot convenience wrapper around :class:`ExperimentEngine`."""
    return ExperimentEngine(workers=workers, cache=cache).run_incasts(scenarios)
