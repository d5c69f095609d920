"""The distributed sweep service: journal semantics, engine, kill-and-resume."""

import os
import signal
import subprocess
import sys
import threading
import time
from dataclasses import replace
from pathlib import Path

import pytest

from repro.competitors import uninstall
from repro.config import TransportConfig, small_interdc_config
from repro.errors import ExperimentError
from repro.experiments import service
from repro.experiments.parallel import ResultCache
from repro.experiments.runner import IncastScenario
from repro.experiments.service import (
    Coordinator,
    QueueEngine,
    WorkQueue,
    batch_fingerprint,
    cells_from_spec,
    named_grid,
    run_worker,
)
from repro.experiments.sweeps import (
    degree_sweep_spec,
    run_sweep_spec,
    sweep_digest,
)
from repro.telemetry import RunOptions
from repro.units import kilobytes

KEYS = ["k0", "k1", "k2"]
FP = batch_fingerprint(KEYS)


def _base():
    return IncastScenario(
        degree=2,
        total_bytes=kilobytes(100),
        interdc=small_interdc_config(),
        transport=TransportConfig(payload_bytes=4096),
    )


def _tiny_spec():
    return degree_sweep_spec(
        _base(), (2,), ("baseline", "naive"), reps=2, seed0=0
    )


class TestWorkQueue:
    def _queue(self, tmp_path, keys=KEYS, fingerprint=FP):
        queue = WorkQueue(tmp_path / "journal.db")
        queue.initialize(fingerprint, keys)
        return queue

    def test_lease_grants_in_index_order(self, tmp_path):
        queue = self._queue(tmp_path)
        assert queue.lease("w1", 2, 60.0, now=0.0) == [(0, "k0"), (1, "k1")]
        assert queue.lease("w2", 5, 60.0, now=0.0) == [(2, "k2")]
        assert queue.lease("w2", 1, 60.0, now=0.0) == []
        queue.close()

    def test_complete_is_exactly_once(self, tmp_path):
        queue = self._queue(tmp_path)
        queue.lease("w1", 1, 60.0, now=0.0)
        assert queue.complete(0, source="executed", elapsed=0.1)
        assert not queue.complete(0, source="executed", elapsed=0.1)
        assert queue.cell_status(0) == "done"
        queue.close()

    def test_fail_is_terminal_and_first_wins(self, tmp_path):
        queue = self._queue(tmp_path)
        assert queue.fail(1, "exception", "boom")
        assert not queue.fail(1, "timeout", "late")
        [(index, kind, message, _attempts, _elapsed)] = queue.failed_cells()
        assert (index, kind, message) == (1, "exception", "boom")
        assert not queue.all_terminal()
        queue.complete(0, source="executed")
        queue.complete(2, source="executed")
        assert queue.all_terminal()
        queue.close()

    def test_expired_lease_requeues_with_attempt_count(self, tmp_path):
        queue = self._queue(tmp_path)
        assert queue.lease("w1", 1, 10.0, now=100.0) == [(0, "k0")]
        # Before the TTL the cell stays leased; w2 gets the next one.
        assert queue.lease("w2", 1, 10.0, now=105.0) == [(1, "k1")]
        # Past the TTL the dead worker's cell is granted again.
        assert queue.lease("w3", 3, 10.0, now=111.0) == [(0, "k0"), (2, "k2")]
        queue.close()

    def test_attempt_cap_fails_the_cell_as_worker_crash(self, tmp_path):
        queue = self._queue(tmp_path)
        now = 0.0
        for _ in range(3):  # three granted leases, all expire
            assert (0, "k0") in queue.lease("w", 1, 1.0, now=now)
            queue.release("w")
            now += 10.0
        # The capped cell flips to failed; the grant moves on to the next.
        assert queue.lease("w", 1, 1.0, now=now, max_cell_attempts=3) == [
            (1, "k1")
        ]
        [(index, kind, _message, attempts, _elapsed)] = queue.failed_cells()
        assert (index, kind, attempts) == (0, "worker-crash", 3)
        queue.close()

    def test_release_requeues_a_dead_workers_cells(self, tmp_path):
        queue = self._queue(tmp_path)
        queue.lease("w1", 2, 60.0, now=0.0)
        assert queue.release("w1") == 2
        assert queue.cell_status(0) == "pending"
        assert queue.lease("w2", 1, 60.0, now=0.0) == [(0, "k0")]
        queue.close()

    def test_initialize_rejects_a_different_grid(self, tmp_path):
        queue = self._queue(tmp_path)
        queue.close()
        other = WorkQueue(tmp_path / "journal.db")
        with pytest.raises(ExperimentError, match="different grid"):
            other.initialize(batch_fingerprint(["x"]), ["x"])
        other.close()

    def test_reopen_resets_leases_and_failures_but_keeps_done(self, tmp_path):
        queue = self._queue(tmp_path)
        queue.complete(2, source="executed")
        queue.lease("w1", 1, 60.0, now=0.0)
        queue.fail(1, "exception", "boom")
        queue.close()
        resumed = self._queue(tmp_path)
        assert resumed.counts() == {"pending": 2, "done": 1}
        assert resumed.lease("w2", 1, 60.0, now=0.0) == [(0, "k0")]
        resumed.close()


class TestQueueEngine:
    def test_requires_a_cache(self):
        with pytest.raises(ExperimentError, match="cache"):
            QueueEngine(workers=1, cache=None)

    def test_rejects_cache_bypassing_options(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        with pytest.raises(ExperimentError, match="cache-bypassing"):
            QueueEngine(
                workers=1, cache=cache, options=RunOptions(sanitize=True)
            )


class TestCoordinatorValidation:
    def test_rejects_empty_and_misindexed_batches(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        with pytest.raises(ExperimentError, match="at least one cell"):
            Coordinator([], cache)
        cells = cells_from_spec(_tiny_spec())
        with pytest.raises(ExperimentError, match="contiguously"):
            Coordinator(cells[1:], cache)
        with pytest.raises(ExperimentError, match="workers"):
            Coordinator(cells, cache, workers=-1)
        with pytest.raises(ExperimentError, match="lease_ttl"):
            Coordinator(cells, cache, lease_ttl_s=0.0)

    def test_named_grids(self):
        assert len(named_grid("bakeoff-smoke")) == 6
        with pytest.raises(ExperimentError):
            named_grid("no-such-grid")


def _start(coordinator):
    """Run ``coordinator`` on a thread; returns it once the port is bound."""
    summary = {}
    thread = threading.Thread(
        target=lambda: summary.setdefault("value", coordinator.run())
    )
    thread.start()
    deadline = time.monotonic() + 30.0
    while coordinator.port == 0 and time.monotonic() < deadline:
        time.sleep(0.02)
    assert coordinator.port != 0, "coordinator never bound its port"
    return thread, summary


class TestCodeHandshake:
    def test_worker_running_other_code_is_refused(
        self, tmp_path, monkeypatch, capsys
    ):
        spec = _tiny_spec()
        coordinator = Coordinator(
            cells_from_spec(spec), ResultCache(tmp_path / "queue"), workers=0
        )
        thread, summary = _start(coordinator)
        try:
            with monkeypatch.context() as patch:
                patch.setattr(service, "code_digest", lambda: "f" * 64)
                assert run_worker("127.0.0.1", coordinator.port, "stale") == 1
            refusals = [
                line for line in capsys.readouterr().err.splitlines()
                if "worker stale" in line
            ]
            assert len(refusals) == 1, refusals
            assert "f" * 12 in refusals[0]
            assert coordinator.code[:12] in refusals[0]
            # a worker running the coordinator's code finishes the grid
            assert run_worker(
                "127.0.0.1", coordinator.port, "current", idle_sleep_s=0.05
            ) == 0
            thread.join(timeout=120.0)
            assert not thread.is_alive(), "coordinator never finished"
        finally:
            thread.join(timeout=10.0)
            uninstall()  # run_worker installs the competitor schemes
        assert summary["value"].executed == len(spec)
        assert summary["value"].failed == 0


def _run_cli(args, cwd):
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, "-m", "repro", "service", *args],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=240,
    )


def _parse_summary(stdout):
    digest = counts = None
    for line in stdout.splitlines():
        if line.startswith("sweep_digest: "):
            digest = line.split(": ", 1)[1]
        if line.startswith("service: "):
            counts = dict(
                field.split("=") for field in line.split(" ", 1)[1].split()
            )
    return digest, counts


class TestServiceEndToEnd:
    def test_queue_engine_matches_serial_digest(self, tmp_path):
        spec = _tiny_spec()
        serial = run_sweep_spec(
            spec, workers=1, cache=ResultCache(tmp_path / "serial")
        )
        engine = QueueEngine(workers=2, cache=ResultCache(tmp_path / "queue"))
        queued = run_sweep_spec(spec, engine=engine)
        assert sweep_digest(queued) == sweep_digest(serial)
        assert engine.stats.failures == 0
        assert engine.stats.cache_misses == len(spec)
        # A second pass over the same cache resumes everything.
        resumed_engine = QueueEngine(
            workers=2, cache=ResultCache(tmp_path / "queue")
        )
        resumed = run_sweep_spec(spec, engine=resumed_engine)
        assert sweep_digest(resumed) == sweep_digest(serial)
        assert resumed_engine.stats.cache_hits == len(spec)
        assert resumed_engine.stats.cache_misses == 0

    def test_coordinator_kill_and_resume_runs_only_missing_cells(
        self, tmp_path
    ):
        spec = _tiny_spec()
        serial = sweep_digest(run_sweep_spec(
            spec, workers=1, cache=ResultCache(tmp_path / "serial")
        ))
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(spec.to_json() + "\n")
        common = ["--spec", str(spec_path), "--cache-dir",
                  str(tmp_path / "queue"), "--workers", "2"]

        killed = _run_cli(
            ["coordinate", *common, "--kill-after", "2"], tmp_path
        )
        assert killed.returncode == -signal.SIGKILL, killed.stderr

        status = _run_cli(
            ["status", "--spec", str(spec_path),
             "--cache-dir", str(tmp_path / "queue")], tmp_path
        )
        assert "done" in status.stdout

        resumed = _run_cli(["coordinate", *common], tmp_path)
        assert resumed.returncode == 0, resumed.stderr
        digest, counts = _parse_summary(resumed.stdout)
        assert digest == serial
        assert counts["failed"] == "0"
        # The journal survived the SIGKILL: at least the two acked cells
        # resume from cache, and only the remainder executes.
        assert int(counts["resumed"]) >= 2
        assert int(counts["executed"]) + int(counts["resumed"]) == len(spec)
        assert int(counts["executed"]) < len(spec)

    def test_worker_sigkill_mid_batch_still_completes(self, tmp_path):
        spec = _tiny_spec()
        serial = sweep_digest(run_sweep_spec(
            spec, workers=1, cache=ResultCache(tmp_path / "serial")
        ))
        cache = ResultCache(tmp_path / "queue")
        results = {}
        coordinator = Coordinator(
            cells_from_spec(spec), cache, workers=0, lease_ttl_s=1.0,
            on_result=lambda index, entry: results.__setitem__(index, entry),
        )
        thread, summary = _start(coordinator)
        try:
            def spawn():
                env = dict(os.environ)
                src = str(Path(__file__).resolve().parent.parent / "src")
                env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
                return subprocess.Popen(
                    [sys.executable, "-m", "repro", "service", "work",
                     "--host", "127.0.0.1", "--port", str(coordinator.port)],
                    env=env, cwd=tmp_path,
                )

            victim = spawn()
            time.sleep(1.0)  # let it lease (and usually start) a cell
            victim.kill()
            victim.wait()
            survivor = spawn()
            thread.join(timeout=180.0)
            assert not thread.is_alive(), "coordinator never finished"
            survivor.wait(timeout=30.0)
        finally:
            thread.join(timeout=10.0)

        assert summary["value"].failed == 0
        assert summary["value"].executed + summary["value"].resumed == len(spec)
        from repro.experiments.grid import SweepFold

        fold = SweepFold(spec)
        for index in range(len(spec)):
            fold.add(index, results[index])
        assert sweep_digest(fold.finish()) == serial
