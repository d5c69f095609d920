"""Same-host benchmark: run one workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload incast-d8 --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload openloop --seed 1 --seconds 30 --trace 1
    python3 perfbench/run.py --record-reference   # rewrite reference.json

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the same
workload with every layer wrapped in spans and prints the per-layer
metrics.  Each metric is printed as ``name value unit``; the last line is
one JSON object ``{"correct", "attempted", "failed", "metrics"}``.  The
exit code is 0 only when every operation succeeded and every simulated
result matched ``reference.json``; 2 means the program could not be found.
See README.md for the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # the program is importable only after _import_program()
    from perfbench.workloads import Ledger

#: metric name -> (value, unit)
Metrics = dict[str, tuple[float, str]]

ROOT = Path(__file__).resolve().parent.parent
SETUP_PROBES = 7


def _import_program() -> bool:
    """Put the checkout's ``src`` on the path; False when it is missing."""
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        return False
    sys.path[:0] = [str(ROOT), str(ROOT / "src")]
    return True


def _setup_seconds(workload: str) -> float:
    """Median set-up time over fresh interpreters (see ``--probe-setup``)."""
    samples = []
    for _ in range(SETUP_PROBES):
        probe = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--probe-setup", workload],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
        )
        samples.append(float(probe.stdout.split()[-1]))
    return statistics.median(samples)


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _measure(name: str, seed: int, seconds: float, workdir: Path) -> tuple[Metrics, Ledger]:
    from perfbench import workloads
    from perfbench.hostspeed import REFERENCE_MS, HostClock, on_reference_host

    setup_s = _setup_seconds(name)
    clock = HostClock()
    workload = workloads.make(name, clock)
    ledger = workloads.Ledger(workloads.load_reference()[name])
    deadline = time.perf_counter() + seconds
    # The first unit fills the result list, cache and previous run that
    # later units checkpoint and serve warm, so two units always complete.
    index = 0
    while index < 2 or time.perf_counter() < deadline:
        workload.unit(index, seed, ledger, workdir, None if index < 2 else deadline)
        index += 1
    raw = workload.metrics()
    raw["setup_s"] = setup_s
    raw["peak_rss_mb"] = _peak_rss_mb()
    slowness = clock.slowness()
    print(f"host slowness {slowness:.4f} (calibration kernel "
          f"{slowness * REFERENCE_MS:.3f} ms vs {REFERENCE_MS} ms); raw values:")
    for metric, value in raw.items():
        print(f"  raw {metric:30s} {value:>16.6g}")
    return {metric: (on_reference_host(raw[metric], unit, slowness), unit)
            for metric, unit, *_ in workloads.END_TO_END}, ledger


def _measure_traced(name: str, seed: int, seconds: float,
                    workdir: Path) -> tuple[Metrics, Ledger]:
    from perfbench import layers, spans, workloads

    workload = workloads.make(name)
    ledger = workloads.Ledger(workloads.load_reference()[name])
    started = time.perf_counter()
    # One untraced unit first: the same work as each traced unit, so the
    # tracing overhead is measured in this process.  Units start at 1 so
    # that every one of them checkpoints (see OpenLoopWorkload.unit).
    workload.unit(1, seed, ledger, workdir, None)
    untraced_s = time.perf_counter() - started
    tracer = spans.SpanTracer()
    spans.install(tracer)
    facts: list[dict[str, int]] = []
    traced_s = 0.0
    while not facts or time.perf_counter() - started + traced_s / len(facts) < seconds:
        unit_started = time.perf_counter()
        with tracer.span("harness"):
            unit_facts = workload.unit(len(facts) + 1, seed, ledger, workdir, None)
        traced_s += time.perf_counter() - unit_started
        if unit_facts is None:
            break
        facts.append(unit_facts)
    if not facts:
        return {}, ledger
    trace_path = ROOT / ".perfbench" / f"trace-{name}-seed{seed}.json"
    trace_path.write_text(json.dumps({
        "workload": name, "seed": seed, "units": len(facts),
        "calls": tracer.calls, "self_s": tracer.self_s, "counts": tracer.counts,
        "spans": tracer.records,
    }, indent=1))
    return layers.per_layer(tracer, facts, untraced_s=untraced_s), ledger


def _record_reference() -> int:
    from perfbench import workloads

    recorded = {}
    for name in workloads.WORKLOADS:
        ledger = workloads.Ledger(None)
        workloads.make(name).record(ledger)
        recorded[name] = ledger.recorded
    workloads.REFERENCE_PATH.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")
    print(f"wrote {workloads.REFERENCE_PATH}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", help="incast-d8, sweep-small or openloop")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-reference", action="store_true",
                        help="re-record reference.json from the current program")
    parser.add_argument("--probe-setup", metavar="WORKLOAD", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.probe_setup:
        started = time.perf_counter()
        if not _import_program():
            return 2
        from perfbench import workloads

        workloads.probe_first_run(args.probe_setup)
        print(time.perf_counter() - started)
        return 0
    if not _import_program():
        print(f"perfbench: no program under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.record_reference:
        return _record_reference()
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)}")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    (ROOT / ".perfbench").mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="work-", dir=ROOT / ".perfbench"))
    try:
        measure = _measure_traced if args.trace else _measure
        metrics, ledger = measure(args.workload, args.seed, args.seconds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for problem in ledger.problems:
        print(f"FAILED: {problem}", file=sys.stderr)
    for metric, (value, unit) in metrics.items():
        print(f"{metric:34s} {value:>16.6g} {unit}")
    correct = ledger.failed == 0 and bool(metrics)
    print(json.dumps({
        "correct": correct,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {metric: {"value": value, "unit": unit}
                    for metric, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
