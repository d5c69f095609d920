"""Distributed sweep service: a shardable work queue over scenario grids.

ROADMAP item 4's execution layer.  A :class:`~repro.experiments.grid.
GridSpec` names every cell of a campaign; this module runs those cells
across N worker *processes* on M hosts with nothing beyond the standard
library:

* :class:`WorkQueue` — a SQLite journal of cells (``pending → leased →
  done | failed``) with lease/ack/requeue semantics.  Completion is
  exactly-once (a guarded ``UPDATE ... WHERE status != 'done'``), leases
  expire so a SIGKILLed worker's cells requeue, and a cell that burns
  :data:`MAX_CELL_ATTEMPTS` leases is quarantined as a ``worker-crash``
  failure instead of looping forever.
* :class:`Coordinator` — owns the journal and a JSON-lines-over-TCP
  endpoint (one request per connection).  Workers ``hello`` for the run
  parameters (a worker whose code digest differs is refused), ``lease``
  cells (spec documents travel over the wire, so a worker on another
  host rebuilds the exact scenarios), and ``ack``
  completions.  Results never cross the socket: a worker writes into the
  shared on-disk :class:`~repro.experiments.parallel.ResultCache` *before*
  acking, and the coordinator reads the entry back — so an ack is proof
  the result is durable, and a crash between the two costs one re-run,
  never a wrong answer.
* streaming aggregation — every terminal cell is handed to ``on_result``
  exactly once (any order), which feeds the bounded-memory
  :class:`~repro.experiments.grid.GridFold`; the coordinator never holds
  a full-grid result list.  A :class:`~repro.telemetry.sweep.
  SweepTelemetry` sink gets per-cell records and live progress.
* resumability — kill the coordinator or any worker at any point and
  restart with the same spec: the journal plus the result cache replay
  completed cells as ``resumed``, only the missing ones execute, and the
  final digest is bit-identical to an uninterrupted serial run (the fold
  is order-independent and the simulations are pure functions of their
  scenarios).

:class:`QueueEngine` wraps all of that behind the ordinary
:class:`~repro.experiments.parallel.ExperimentEngine` interface so every
existing driver gains a ``--backend queue`` mode, and :func:`main` is the
``python -m repro service`` CLI (``spec`` / ``coordinate`` / ``work`` /
``status``).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import signal
import socket
import socketserver
import sqlite3
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Sequence

from repro.errors import ExperimentError
from repro.experiments.grid import GridSpec, scenario_from_doc, scenario_to_doc
from repro.experiments.parallel import (
    ExperimentEngine,
    ResultCache,
    RunFailure,
    _GuardedTask,
    _RunTask,
    code_digest,
    scenario_key,
)
from repro.experiments.runner import IncastResult
from repro.metrics.config import DEFAULT_METRICS
from repro.telemetry.options import RunOptions

#: A lease not acked within this window is considered abandoned (the
#: worker died or hung) and its cell requeues.  Must comfortably exceed
#: one run's wall clock; drivers pass tighter values in tests.
DEFAULT_LEASE_TTL_S = 60.0

#: Leases one cell may burn before it is quarantined as a worker-crash
#: failure — the queue analogue of the pool's isolation re-run: a cell
#: that keeps killing workers must not starve the rest of the grid.
MAX_CELL_ATTEMPTS = 3

#: How long an idle worker sleeps between empty leases.
WORKER_IDLE_SLEEP_S = 0.2

#: Socket timeout for one request/response exchange.
REQUEST_TIMEOUT_S = 30.0


@dataclass(frozen=True)
class QueueCell:
    """One schedulable grid cell: flat index, cache key, scenario document.

    The coordinator computes the key once (workers never hash scenarios)
    and ships the canonical document, which any host rebuilds with
    :func:`~repro.experiments.grid.scenario_from_doc`.  A worker running
    other code is refused at ``hello``, so it cannot write its results
    under the coordinator's keys.
    """

    index: int
    key: str
    doc: Any


def cells_from_spec(spec: GridSpec) -> list[QueueCell]:
    """Materialize a spec into queue cells (index order, keys computed)."""
    return [
        QueueCell(
            index=cell.index,
            key=scenario_key(cell.scenario),
            doc=scenario_to_doc(cell.scenario),
        )
        for cell in spec.expand()
    ]


def batch_fingerprint(keys: Sequence[str]) -> str:
    """Identity of one batch: the ordered cell keys, hashed.

    The keys fold in :func:`~repro.experiments.parallel.code_digest`, so
    the fingerprint (and the journal it names) follows the code too: a
    checkout with edited simulator source starts a fresh journal.
    """
    return hashlib.sha256("\n".join(keys).encode()).hexdigest()


def journal_path_for(cache: ResultCache, keys: Sequence[str]) -> Path:
    """Where the journal for this batch lives (inside the cache tree)."""
    return cache.root / "queue" / f"{batch_fingerprint(keys)[:16]}.db"


# ---------------------------------------------------------------------------
# The journal
# ---------------------------------------------------------------------------

class WorkQueue:
    """SQLite-journaled cell queue with lease/ack/requeue semantics.

    One writer connection guarded by a lock (handler threads serialize
    here); WAL mode so a concurrent ``status`` reader never blocks.  The
    journal is the *only* scheduling truth — the coordinator process can
    die at any instruction and a restart resumes from the last committed
    transition.
    """

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._lock = threading.Lock()
        self._db = sqlite3.connect(str(self.path), check_same_thread=False)
        with self._lock:
            self._db.execute("PRAGMA journal_mode=WAL")
            self._db.execute(
                "CREATE TABLE IF NOT EXISTS meta ("
                " name TEXT PRIMARY KEY, value TEXT NOT NULL)"
            )
            self._db.execute(
                "CREATE TABLE IF NOT EXISTS cells ("
                " idx INTEGER PRIMARY KEY,"
                " key TEXT NOT NULL,"
                " status TEXT NOT NULL DEFAULT 'pending',"
                " worker TEXT,"
                " lease_expires REAL,"
                " attempts INTEGER NOT NULL DEFAULT 0,"
                " source TEXT,"
                " kind TEXT,"
                " message TEXT,"
                " elapsed REAL)"
            )
            self._db.commit()

    def close(self) -> None:
        with self._lock:
            self._db.close()

    def initialize(self, fingerprint: str, keys: Sequence[str]) -> None:
        """Bind the journal to one batch and make every cell schedulable.

        Refuses a fingerprint mismatch (resuming against a different grid
        would complete the wrong cells).  Stale leases from a crashed
        coordinator and failures from an earlier attempt both reset to
        pending with a fresh attempt budget — a resume is a clean slate
        for everything not already done.
        """
        with self._lock:
            row = self._db.execute(
                "SELECT value FROM meta WHERE name = 'fingerprint'"
            ).fetchone()
            if row is not None and row[0] != fingerprint:
                raise ExperimentError(
                    f"journal {self.path} belongs to a different grid "
                    f"(fingerprint {row[0][:16]}… != {fingerprint[:16]}…); "
                    f"delete it or use another --cache-dir"
                )
            self._db.execute(
                "INSERT OR REPLACE INTO meta (name, value) VALUES "
                "('fingerprint', ?)",
                (fingerprint,),
            )
            self._db.executemany(
                "INSERT OR IGNORE INTO cells (idx, key) VALUES (?, ?)",
                list(enumerate(keys)),
            )
            self._db.execute(
                "UPDATE cells SET status = 'pending', worker = NULL,"
                " lease_expires = NULL, attempts = 0, kind = NULL,"
                " message = NULL WHERE status IN ('leased', 'failed')"
            )
            self._db.commit()

    def lease(
        self,
        worker: str,
        limit: int,
        ttl_s: float,
        *,
        max_cell_attempts: int = MAX_CELL_ATTEMPTS,
        now: float | None = None,
    ) -> list[tuple[int, str]]:
        """Grant up to ``limit`` pending cells to ``worker``.

        Expired leases requeue first; a requeued cell whose attempt budget
        is spent flips to a terminal ``worker-crash`` failure instead of
        being granted again.  Returns ``(index, key)`` pairs.
        """
        now = time.time() if now is None else now
        with self._lock:
            self._db.execute(
                "UPDATE cells SET status = 'pending', worker = NULL,"
                " lease_expires = NULL"
                " WHERE status = 'leased' AND lease_expires < ?",
                (now,),
            )
            self._db.execute(
                "UPDATE cells SET status = 'failed', kind = 'worker-crash',"
                " message = 'lease expired ' || attempts || ' times"
                " (worker died or hung mid-run)'"
                " WHERE status = 'pending' AND attempts >= ?",
                (max_cell_attempts,),
            )
            rows = self._db.execute(
                "SELECT idx, key FROM cells WHERE status = 'pending'"
                " ORDER BY idx LIMIT ?",
                (limit,),
            ).fetchall()
            for index, _key in rows:
                self._db.execute(
                    "UPDATE cells SET status = 'leased', worker = ?,"
                    " lease_expires = ?, attempts = attempts + 1"
                    " WHERE idx = ?",
                    (worker, now + ttl_s, index),
                )
            self._db.commit()
            return [(int(i), str(k)) for i, k in rows]

    def complete(
        self, index: int, *, source: str, elapsed: float | None = None
    ) -> bool:
        """Record cell ``index`` done; True only for the *first* completion.

        The ``status != 'done'`` guard is the exactly-once edge: two
        workers racing the same requeued cell both cached identical
        results, but only one ack flips the row and is delivered.
        """
        with self._lock:
            cur = self._db.execute(
                "UPDATE cells SET status = 'done', source = ?, worker = NULL,"
                " lease_expires = NULL, kind = NULL, message = NULL,"
                " elapsed = ? WHERE idx = ? AND status != 'done'",
                (source, elapsed, index),
            )
            self._db.commit()
            return cur.rowcount == 1

    def fail(
        self, index: int, kind: str, message: str,
        elapsed: float | None = None,
    ) -> bool:
        """Record a terminal failure; True only on the first transition."""
        with self._lock:
            cur = self._db.execute(
                "UPDATE cells SET status = 'failed', kind = ?, message = ?,"
                " worker = NULL, lease_expires = NULL, elapsed = ?"
                " WHERE idx = ? AND status NOT IN ('done', 'failed')",
                (kind, message, elapsed, index),
            )
            self._db.commit()
            return cur.rowcount == 1

    def release(self, worker: str) -> int:
        """Requeue every cell ``worker`` holds (its process was seen dead)."""
        with self._lock:
            cur = self._db.execute(
                "UPDATE cells SET status = 'pending', worker = NULL,"
                " lease_expires = NULL WHERE status = 'leased' AND worker = ?",
                (worker,),
            )
            self._db.commit()
            return cur.rowcount

    def reset_to_pending(self, index: int) -> None:
        """Force one cell schedulable again (e.g. journal-done, cache-lost)."""
        with self._lock:
            self._db.execute(
                "UPDATE cells SET status = 'pending', worker = NULL,"
                " lease_expires = NULL, source = NULL WHERE idx = ?",
                (index,),
            )
            self._db.commit()

    def cell_status(self, index: int) -> str:
        with self._lock:
            row = self._db.execute(
                "SELECT status FROM cells WHERE idx = ?", (index,)
            ).fetchone()
        if row is None:
            raise ExperimentError(f"journal has no cell {index}")
        return str(row[0])

    def counts(self) -> dict[str, int]:
        """``status -> cell count`` (absent statuses omitted)."""
        with self._lock:
            rows = self._db.execute(
                "SELECT status, COUNT(*) FROM cells GROUP BY status"
            ).fetchall()
        return {str(status): int(count) for status, count in rows}

    def failed_cells(self) -> list[tuple[int, str, str, int, float]]:
        """Every failed cell: (index, kind, message, attempts, elapsed)."""
        with self._lock:
            rows = self._db.execute(
                "SELECT idx, kind, message, attempts, elapsed FROM cells"
                " WHERE status = 'failed' ORDER BY idx"
            ).fetchall()
        return [
            (int(i), str(kind or "worker-crash"), str(message or ""),
             int(attempts or 1), float(elapsed or 0.0))
            for i, kind, message, attempts, elapsed in rows
        ]

    def all_terminal(self) -> bool:
        """True when no cell is pending or leased."""
        with self._lock:
            row = self._db.execute(
                "SELECT COUNT(*) FROM cells"
                " WHERE status NOT IN ('done', 'failed')"
            ).fetchone()
        return int(row[0]) == 0


# ---------------------------------------------------------------------------
# Wire protocol (JSON lines over TCP, one request per connection)
# ---------------------------------------------------------------------------

def _request(
    host: str, port: int, doc: dict[str, Any],
    timeout_s: float = REQUEST_TIMEOUT_S,
) -> dict[str, Any]:
    """One request/response exchange with the coordinator."""
    with socket.create_connection((host, port), timeout=timeout_s) as conn:
        conn.sendall((json.dumps(doc) + "\n").encode())
        with conn.makefile("rb") as stream:
            line = stream.readline()
    if not line:
        raise OSError("coordinator closed the connection without replying")
    response = json.loads(line.decode())
    if not response.get("ok"):
        raise ExperimentError(
            f"coordinator rejected {doc.get('op')!r}: {response.get('error')}"
        )
    return response


class _QueueServer(socketserver.ThreadingTCPServer):
    allow_reuse_address = True
    daemon_threads = True
    coordinator: "Coordinator"


class _QueueRequestHandler(socketserver.StreamRequestHandler):
    def handle(self) -> None:
        line = self.rfile.readline()
        if not line:
            return
        try:
            request = json.loads(line.decode())
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            response: dict[str, Any] = {"ok": False, "error": f"bad request: {exc}"}
        else:
            response = self.server.coordinator.handle(request)  # type: ignore[attr-defined]
        self.wfile.write((json.dumps(response) + "\n").encode())


# ---------------------------------------------------------------------------
# The coordinator
# ---------------------------------------------------------------------------

@dataclass
class ServiceSummary:
    """What one coordinate pass did with its grid."""

    total: int
    #: cells a worker simulated during *this* pass.
    executed: int
    #: cells satisfied from the cache/journal (earlier pass or serial run).
    resumed: int
    #: cells that ended as RunFailure (delivered positionally, never cached).
    failed: int


class _ScenarioRef:
    """Scheme/seed view of a scenario document (what telemetry records)."""

    __slots__ = ("scheme", "seed")

    def __init__(self, doc: Any) -> None:
        self.scheme = doc.get("scheme", "?") if isinstance(doc, dict) else "?"
        self.seed = doc.get("seed", -1) if isinstance(doc, dict) else -1


class Coordinator:
    """Owns one batch: journal, TCP endpoint, worker pool, streaming fold.

    ``on_result(index, entry)`` fires exactly once per cell — from the
    preload (cache hits / resumed cells), an ack handler thread, or the
    failure collector — under one lock, so a non-thread-safe fold is
    safe.  ``workers=0`` spawns nothing and waits for external workers
    (``python -m repro service work --host … --port …`` on any host that
    shares the cache directory).
    """

    def __init__(
        self,
        cells: Sequence[QueueCell],
        cache: ResultCache,
        *,
        journal_path: str | Path | None = None,
        workers: int = 2,
        host: str = "127.0.0.1",
        port: int = 0,
        run_timeout_s: float | None = None,
        max_attempts: int = 2,
        backoff_s: float = 0.05,
        lease_ttl_s: float = DEFAULT_LEASE_TTL_S,
        max_cell_attempts: int = MAX_CELL_ATTEMPTS,
        on_result: Callable[[int, Any], None] | None = None,
        telemetry: Any | None = None,
        kill_after: int | None = None,
        worker_args: Sequence[str] = (),
    ) -> None:
        cells = list(cells)
        if not cells:
            raise ExperimentError("the coordinator needs at least one cell")
        if [c.index for c in cells] != list(range(len(cells))):
            raise ExperimentError("cells must be contiguously indexed from 0")
        if workers < 0:
            raise ExperimentError(f"workers must be >= 0, got {workers}")
        if lease_ttl_s <= 0:
            raise ExperimentError(f"lease_ttl_s must be positive, got {lease_ttl_s}")
        self.cells = cells
        self.cache = cache
        self.fingerprint = batch_fingerprint([c.key for c in cells])
        #: the code every worker must run (checked at ``hello``).
        self.code = code_digest()
        self.journal_path = Path(
            journal_path
            if journal_path is not None
            else journal_path_for(cache, [c.key for c in cells])
        )
        self.workers = workers
        self.host = host
        self.port = port
        self.run_timeout_s = run_timeout_s
        self.max_attempts = max_attempts
        self.backoff_s = backoff_s
        self.lease_ttl_s = lease_ttl_s
        self.max_cell_attempts = max_cell_attempts
        self.on_result = on_result
        self.telemetry = telemetry
        self.kill_after = kill_after
        self.worker_args = tuple(worker_args)

        self.journal: WorkQueue | None = None
        self._shutdown = threading.Event()
        self._deliver_lock = threading.Lock()
        self._delivered: set[int] = set()
        self._executed = 0
        self._resumed = 0
        self._failed = 0
        self._procs: list[tuple[str, subprocess.Popen]] = []
        self._released: set[str] = set()
        self._spawned = 0
        self._worker_seq = 0

    # -- lifecycle ----------------------------------------------------------

    def run(self) -> ServiceSummary:
        """Drive the batch to completion (resuming any earlier progress)."""
        self.journal = WorkQueue(self.journal_path)
        try:
            self.journal.initialize(
                self.fingerprint, [c.key for c in self.cells]
            )
            self._preload()
            if not self.journal.all_terminal():
                self._serve()
            self._collect_failures()
            missing = set(range(len(self.cells))) - self._delivered
            if missing:  # pragma: no cover - defensive: fold must be total
                for index in sorted(missing):
                    self._deliver_failure(
                        index, "worker-crash",
                        "cell never reached a terminal state", 1, 0.0,
                    )
        finally:
            self.journal.close()
        return ServiceSummary(
            total=len(self.cells),
            executed=self._executed,
            resumed=self._resumed,
            failed=self._failed,
        )

    def _preload(self) -> None:
        """Replay finished work before any worker starts.

        A cache hit satisfies a cell outright (an earlier pass — queue or
        serial — already ran it); a journal-done cell whose cache entry
        vanished is reset to pending so it runs again rather than leaving
        a hole in the fold.
        """
        assert self.journal is not None
        for cell in self.cells:
            value = self.cache.get(cell.key)
            if isinstance(value, IncastResult):
                self.journal.complete(cell.index, source="cache")
                value.from_cache = True
                if self._deliver(cell.index, value, "cached", 0, 0.0):
                    self._resumed += 1
            elif self.journal.cell_status(cell.index) == "done":
                self.journal.reset_to_pending(cell.index)

    def _serve(self) -> None:
        server = _QueueServer((self.host, self.port), _QueueRequestHandler)
        server.coordinator = self
        self.port = int(server.server_address[1])
        thread = threading.Thread(
            target=server.serve_forever, name="queue-server", daemon=True
        )
        thread.start()
        try:
            for _ in range(self.workers):
                self._spawn_worker()
            self._monitor()
        finally:
            self._shutdown.set()
            self._drain_workers()
            server.shutdown()
            server.server_close()
            thread.join(timeout=5.0)

    def _monitor(self) -> None:
        """Watch the journal and the worker pool until every cell is terminal.

        A dead worker's leases requeue immediately (no need to wait out
        the TTL) and the pool refills within the respawn budget; when the
        budget is spent and nobody is left, the remaining cells fail
        terminally rather than hanging the coordinator forever.
        """
        assert self.journal is not None
        budget = max(self.workers * 2, self.workers)
        while not self.journal.all_terminal():
            self._collect_failures()
            live = 0
            for worker_id, proc in self._procs:
                if proc.poll() is None:
                    live += 1
                elif worker_id not in self._released:
                    self._released.add(worker_id)
                    self.journal.release(worker_id)
            if self.workers > 0:
                while live < self.workers and self._spawned < budget:
                    self._spawn_worker()
                    live += 1
                if live == 0:
                    self._fail_remaining(
                        "no workers left (respawn budget exhausted)"
                    )
                    break
            time.sleep(0.05)

    def _spawn_worker(self) -> None:
        self._worker_seq += 1
        worker_id = f"local-{os.getpid()}-{self._worker_seq}"
        command = [
            sys.executable, "-m", "repro", "service", "work",
            "--host", self.host, "--port", str(self.port),
            "--worker-id", worker_id,
            *self.worker_args,
        ]
        self._procs.append((worker_id, subprocess.Popen(command)))
        self._spawned += 1

    def _drain_workers(self) -> None:
        for _worker_id, proc in self._procs:
            if proc.poll() is not None:
                continue
            try:
                proc.wait(timeout=2.0)
            except subprocess.TimeoutExpired:
                proc.terminate()
                try:
                    proc.wait(timeout=2.0)
                except subprocess.TimeoutExpired:  # pragma: no cover
                    proc.kill()
                    proc.wait()

    def _fail_remaining(self, reason: str) -> None:
        assert self.journal is not None
        for cell in self.cells:
            if cell.index not in self._delivered:
                self.journal.fail(cell.index, "worker-crash", reason)
        self._collect_failures()

    # -- protocol -----------------------------------------------------------

    def handle(self, request: dict[str, Any]) -> dict[str, Any]:
        """Serve one worker request (called from handler threads)."""
        try:
            op = request.get("op")
            if op == "hello":
                code = str(request.get("code", ""))
                if code != self.code:
                    return {
                        "ok": False,
                        "error": (
                            f"worker code {code[:12] or '<none>'}… differs "
                            f"from coordinator code {self.code[:12]}…; "
                            "workers must run the coordinator's code"
                        ),
                    }
                return {
                    "ok": True,
                    "cache_dir": str(self.cache.root),
                    "run": {
                        "timeout_s": self.run_timeout_s,
                        "max_attempts": self.max_attempts,
                        "backoff_s": self.backoff_s,
                    },
                }
            if op == "lease":
                return self._handle_lease(request)
            if op == "ack":
                return self._handle_ack(request)
            if op == "status":
                assert self.journal is not None
                return {"ok": True, "counts": self.journal.counts()}
            return {"ok": False, "error": f"unknown op {op!r}"}
        except Exception as exc:  # noqa: BLE001 - protocol boundary
            return {"ok": False, "error": f"{type(exc).__name__}: {exc}"}

    def _handle_lease(self, request: dict[str, Any]) -> dict[str, Any]:
        assert self.journal is not None
        if self._shutdown.is_set():
            return {"ok": True, "cells": [], "shutdown": True}
        worker = str(request.get("worker", "?"))
        limit = max(1, int(request.get("limit", 1)))
        leased = self.journal.lease(
            worker, limit, self.lease_ttl_s,
            max_cell_attempts=self.max_cell_attempts,
        )
        self._collect_failures()  # the lease may have quarantined cells
        cells = [
            {"idx": index, "key": key, "scenario": self.cells[index].doc}
            for index, key in leased
        ]
        if not cells and self.journal.all_terminal():
            self._shutdown.set()
        return {
            "ok": True,
            "cells": cells,
            "shutdown": self._shutdown.is_set(),
        }

    def _handle_ack(self, request: dict[str, Any]) -> dict[str, Any]:
        assert self.journal is not None
        index = int(request["idx"])
        if not 0 <= index < len(self.cells):
            return {"ok": False, "error": f"no such cell {index}"}
        status = str(request.get("status", ""))
        attempts = int(request.get("attempts", 1))
        elapsed = float(request.get("elapsed", 0.0))
        cell = self.cells[index]
        if status == "ok":
            value = self.cache.get(cell.key)
            if not isinstance(value, IncastResult):
                # acked without a durable result (cache raced away?):
                # treat as never-happened and let it requeue.
                self.journal.reset_to_pending(index)
                return {"ok": True}
            if self.journal.complete(
                index, source="executed", elapsed=elapsed
            ):
                if self._deliver(index, value, "ok", attempts, elapsed):
                    self._executed += 1
                if (
                    self.kill_after is not None
                    and self._executed >= self.kill_after
                ):
                    # crash-recovery hook: die *after* the journal commit,
                    # exactly like a power loss mid-campaign.
                    os.kill(os.getpid(), signal.SIGKILL)
        else:
            message = str(request.get("message", ""))
            if self.journal.fail(index, status, message, elapsed):
                self._deliver_failure(index, status, message, attempts, elapsed)
        return {"ok": True}

    # -- delivery -----------------------------------------------------------

    def _deliver(
        self, index: int, entry: Any, status: str,
        attempts: int, elapsed: float,
    ) -> bool:
        """Hand one terminal cell to the fold; True on first delivery."""
        with self._deliver_lock:
            if index in self._delivered:
                return False
            self._delivered.add(index)
            if self.telemetry is not None:
                self.telemetry.record(
                    _ScenarioRef(self.cells[index].doc), status, attempts,
                    elapsed,
                )
                self.telemetry.on_progress(
                    len(self._delivered), len(self.cells)
                )
            if self.on_result is not None:
                self.on_result(index, entry)
            return True

    def _deliver_failure(
        self, index: int, kind: str, message: str,
        attempts: int, elapsed: float,
    ) -> None:
        failure = RunFailure(
            scenario=scenario_from_doc(self.cells[index].doc),
            kind=kind or "worker-crash",
            message=message,
            attempts=attempts,
            elapsed_seconds=elapsed,
        )
        if self._deliver(index, failure, failure.kind, attempts, elapsed):
            self._failed += 1

    def _collect_failures(self) -> None:
        assert self.journal is not None
        for index, kind, message, attempts, elapsed in self.journal.failed_cells():
            if index not in self._delivered:
                self._deliver_failure(index, kind, message, attempts, elapsed)


# ---------------------------------------------------------------------------
# The worker loop
# ---------------------------------------------------------------------------

def run_worker(
    host: str,
    port: int,
    worker_id: str | None = None,
    *,
    max_cells: int | None = None,
    idle_sleep_s: float = WORKER_IDLE_SLEEP_S,
) -> int:
    """Lease, simulate, cache, ack — until the coordinator says shutdown.

    The result is written to the shared cache *before* the ack, so the
    coordinator only ever marks durable work done.  A vanished
    coordinator (connection refused mid-campaign) is a clean exit: every
    completed cell is journaled, every leased one will requeue.  A
    coordinator that refuses the ``hello`` (the worker runs other code)
    exits 1 with its reason on one line.
    """
    from repro import competitors

    competitors.install()  # scenario docs may name plug-in schemes
    worker_id = worker_id or f"worker-{socket.gethostname()}-{os.getpid()}"
    try:
        hello = _request(
            host, port,
            {"op": "hello", "worker": worker_id, "code": code_digest()},
        )
    except OSError as exc:
        print(
            f"[service] worker {worker_id}: coordinator unreachable "
            f"at {host}:{port} ({exc})",
            file=sys.stderr,
        )
        return 1
    except ExperimentError as exc:
        print(f"[service] worker {worker_id}: {exc}", file=sys.stderr)
        return 1
    cache = ResultCache(hello["cache_dir"])
    run = hello["run"]
    task = _GuardedTask(
        _RunTask(RunOptions()),
        run.get("timeout_s"),
        int(run.get("max_attempts", 2)),
        float(run.get("backoff_s", 0.05)),
    )
    executed = 0
    while True:
        try:
            response = _request(
                host, port, {"op": "lease", "worker": worker_id, "limit": 1}
            )
        except OSError:
            return 0  # coordinator gone; journaled state survives
        cells = response.get("cells", [])
        if not cells:
            if response.get("shutdown"):
                return 0
            time.sleep(idle_sleep_s)
            continue
        for cell in cells:
            scenario = scenario_from_doc(cell["scenario"])
            status, payload, attempts, elapsed = task(scenario)
            ack: dict[str, Any] = {
                "op": "ack",
                "worker": worker_id,
                "idx": cell["idx"],
                "status": status,
                "attempts": attempts,
                "elapsed": elapsed,
            }
            if status == "ok":
                cache.put(cell["key"], payload)  # durable BEFORE the ack
            else:
                ack["message"] = str(payload)
            try:
                _request(host, port, ack)
            except OSError:
                return 0
            executed += 1
            if max_cells is not None and executed >= max_cells:
                return 0


# ---------------------------------------------------------------------------
# The engine wrapper: --backend queue for every driver
# ---------------------------------------------------------------------------

class QueueEngine(ExperimentEngine):
    """An :class:`ExperimentEngine` that executes batches through the queue.

    Same contract as the pool engine — positional results, quarantined
    failures, cache-aware — but each batch becomes a journaled campaign
    run by spawned worker processes, so any driver's sweep is killable
    and resumable.  Requires a cache (workers hand results back through
    it) and cache-compatible run options.
    """

    def __init__(
        self,
        workers: int | None = 2,
        cache: ResultCache | None = None,
        *,
        host: str = "127.0.0.1",
        lease_ttl_s: float = DEFAULT_LEASE_TTL_S,
        kill_after: int | None = None,
        **kwargs: Any,
    ) -> None:
        super().__init__(workers=workers, cache=cache, **kwargs)
        if self.cache is None:
            raise ExperimentError(
                "the queue backend requires a result cache "
                "(--no-cache is incompatible): workers hand results "
                "back through it"
            )
        if self.options.bypasses_cache:
            raise ExperimentError(
                "the queue backend cannot run cache-bypassing options "
                "(sanitize/telemetry/tracer); use the pool backend"
            )
        if self.options.metrics != DEFAULT_METRICS:
            raise ExperimentError(
                "the queue backend runs workers with default metrics; a "
                "non-default MetricsConfig would key results it cannot "
                "produce — use the pool backend"
            )
        self.host = host
        self.lease_ttl_s = lease_ttl_s
        self.kill_after = kill_after

    def run_incasts_detailed(self, scenarios):
        start = time.perf_counter()
        scenarios = list(scenarios)
        if not scenarios:
            return []
        assert self.cache is not None
        cells = [
            QueueCell(i, scenario_key(s), scenario_to_doc(s))
            for i, s in enumerate(scenarios)
        ]
        results: list[Any] = [None] * len(scenarios)

        def on_result(index: int, entry: Any) -> None:
            results[index] = entry

        coordinator = Coordinator(
            cells,
            self.cache,
            workers=self.workers,
            host=self.host,
            run_timeout_s=self.run_timeout_s,
            max_attempts=self.max_attempts,
            backoff_s=self.retry_backoff_s,
            lease_ttl_s=self.lease_ttl_s,
            on_result=on_result,
            telemetry=self.telemetry,
            kill_after=self.kill_after,
        )
        summary = coordinator.run()
        self.stats.tasks += summary.total
        self.stats.cache_hits += summary.resumed
        self.stats.cache_misses += summary.executed + summary.failed
        self.stats.failures += summary.failed
        self.stats.wall_seconds += time.perf_counter() - start
        return results


# ---------------------------------------------------------------------------
# CLI: python -m repro service {spec, coordinate, work, status}
# ---------------------------------------------------------------------------

#: Grids the CLI can declare by name (small, CI-sized).
NAMED_GRIDS = ("bakeoff-smoke", "degree-smoke")


def named_grid(name: str, reps: int = 2, seed0: int = 0) -> GridSpec:
    """Build one of the CLI's named smoke grids."""
    from repro.units import kilobytes, milliseconds

    if name == "bakeoff-smoke":
        from repro.experiments.bakeoff import (
            bakeoff_base_scenario,
            bakeoff_grid_spec,
        )

        return bakeoff_grid_spec(
            bakeoff_base_scenario(total_bytes=kilobytes(200)),
            degrees=(4,),
            delays_ps=(milliseconds(1),),
            buffer_scales=(1.0,),
            schemes=("baseline", "naive", "streamlined"),
            reps=reps,
            seed0=seed0,
        )
    if name == "degree-smoke":
        from repro.experiments.bakeoff import bakeoff_base_scenario
        from repro.experiments.sweeps import degree_sweep_spec

        return degree_sweep_spec(
            bakeoff_base_scenario(total_bytes=kilobytes(200)),
            degrees=(2, 4),
            reps=reps,
            seed0=seed0,
        )
    raise ExperimentError(
        f"unknown named grid {name!r}; available: {', '.join(NAMED_GRIDS)}"
    )


def _load_spec(path: Path) -> GridSpec:
    try:
        text = path.read_text()
    except OSError as exc:
        raise ExperimentError(f"cannot read spec {path}: {exc}") from exc
    return GridSpec.from_json(text)


def _coordinate(args: argparse.Namespace) -> None:
    from repro import competitors
    from repro.experiments.sweeps import run_sweep_spec, sweep_digest
    from repro.experiments.grid import SweepFold
    from repro.telemetry.sweep import SweepTelemetry

    competitors.install()
    spec = _load_spec(args.spec)
    cache = ResultCache(args.cache_dir)

    if args.serial:
        engine = ExperimentEngine(
            workers=1, cache=cache, run_timeout_s=args.run_timeout
        )
        points = run_sweep_spec(spec, engine=engine)
        stats = engine.stats
        print(f"sweep_digest: {sweep_digest(points)}")
        print(
            f"service: total={stats.tasks} executed={stats.cache_misses} "
            f"resumed={stats.cache_hits} failed={stats.failures}"
        )
        return

    fold = SweepFold(spec)
    telemetry = SweepTelemetry() if args.progress else None
    coordinator = Coordinator(
        cells_from_spec(spec),
        cache,
        workers=args.workers,
        host=args.host,
        port=args.port,
        run_timeout_s=args.run_timeout,
        lease_ttl_s=args.lease_ttl,
        on_result=fold.add,
        telemetry=telemetry,
        kill_after=args.kill_after,
    )
    summary = coordinator.run()
    points = fold.finish()
    print(f"sweep_digest: {sweep_digest(points)}")
    print(
        f"service: total={summary.total} executed={summary.executed} "
        f"resumed={summary.resumed} failed={summary.failed}"
    )
    if summary.failed:
        raise SystemExit(1)


def _status(args: argparse.Namespace) -> None:
    from repro import competitors

    competitors.install()
    spec = _load_spec(args.spec)
    cache = ResultCache(args.cache_dir)
    cells = cells_from_spec(spec)
    path = journal_path_for(cache, [c.key for c in cells])
    print(f"grid: {len(cells)} cells, fingerprint {spec.fingerprint()[:16]}…")
    print(f"journal: {path}")
    if not path.exists():
        print("status: no journal yet (nothing scheduled)")
        return
    journal = WorkQueue(path)
    try:
        counts = journal.counts()
    finally:
        journal.close()
    for status in ("pending", "leased", "done", "failed"):
        print(f"  {status}: {counts.get(status, 0)}")
    done = counts.get("done", 0)
    print(f"status: {done}/{len(cells)} done")


def main(argv: Sequence[str] | None = None) -> None:
    """CLI entry point for the sweep service."""
    parser = argparse.ArgumentParser(
        prog="python -m repro service",
        description="distributed sweep service: declare a grid, coordinate "
                    "a work queue over it, join as a worker, or inspect "
                    "progress",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    spec_p = sub.add_parser("spec", help="write a named grid spec as JSON")
    spec_p.add_argument("--grid", choices=NAMED_GRIDS, required=True)
    spec_p.add_argument("--out", type=Path, required=True, metavar="FILE")
    spec_p.add_argument("--reps", type=int, default=2)
    spec_p.add_argument("--seed", type=int, default=0)

    coord_p = sub.add_parser(
        "coordinate",
        help="run a grid to completion (resumable); prints the sweep digest",
    )
    coord_p.add_argument("--spec", type=Path, required=True, metavar="FILE")
    coord_p.add_argument("--cache-dir", type=Path, required=True, metavar="DIR")
    coord_p.add_argument(
        "--workers", type=int, default=2,
        help="local worker processes to spawn (0 = external workers only)",
    )
    coord_p.add_argument("--host", default="127.0.0.1")
    coord_p.add_argument(
        "--port", type=int, default=0, help="0 = OS-assigned")
    coord_p.add_argument(
        "--run-timeout", type=float, default=None, metavar="S",
        help="per-run wall-clock deadline inside workers",
    )
    coord_p.add_argument(
        "--lease-ttl", type=float, default=DEFAULT_LEASE_TTL_S, metavar="S",
        help="unacked leases requeue after this long",
    )
    coord_p.add_argument(
        "--serial", action="store_true",
        help="reference mode: run the grid in-process (no queue) and print "
             "the same digest/summary lines",
    )
    coord_p.add_argument(
        "--kill-after", type=int, default=None, metavar="N",
        help="SIGKILL the coordinator after N executed cells "
             "(crash-recovery testing)",
    )
    coord_p.add_argument(
        "--progress", action="store_true",
        help="print per-cell telemetry heartbeats",
    )

    work_p = sub.add_parser(
        "work", help="join a coordinator as a worker process")
    work_p.add_argument("--host", default="127.0.0.1")
    work_p.add_argument("--port", type=int, required=True)
    work_p.add_argument("--worker-id", default=None)
    work_p.add_argument(
        "--max-cells", type=int, default=None,
        help="exit after executing this many cells (testing)",
    )

    status_p = sub.add_parser(
        "status", help="inspect a grid's journal without touching it")
    status_p.add_argument("--spec", type=Path, required=True, metavar="FILE")
    status_p.add_argument(
        "--cache-dir", type=Path, required=True, metavar="DIR")

    args = parser.parse_args(argv)
    try:
        if args.command == "spec":
            grid = named_grid(args.grid, reps=args.reps, seed0=args.seed)
            args.out.parent.mkdir(parents=True, exist_ok=True)
            args.out.write_text(grid.to_json() + "\n")
            print(
                f"wrote {args.out}: {args.grid}, {len(grid)} cells, "
                f"fingerprint {grid.fingerprint()[:16]}…"
            )
        elif args.command == "coordinate":
            _coordinate(args)
        elif args.command == "work":
            raise SystemExit(
                run_worker(
                    args.host, args.port, args.worker_id,
                    max_cells=args.max_cells,
                )
            )
        elif args.command == "status":
            _status(args)
    except ExperimentError as exc:
        parser.exit(2, f"error: {exc}\n")


if __name__ == "__main__":
    main()
