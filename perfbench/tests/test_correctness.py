"""Failed operations: digest mismatches, and a checkout with no program."""

import shutil
import subprocess
import sys
from pathlib import Path

from repro import IncastScenario, small_interdc_config
from repro.units import kilobytes

from perfbench import workloads

PERFBENCH = Path(__file__).resolve().parents[1]


def _tiny() -> workloads.IncastWorkload:
    scenario = IncastScenario(scheme="naive", degree=2, total_bytes=kilobytes(200),
                              interdc=small_interdc_config())
    return workloads.IncastWorkload("tiny", [scenario], hits_per_run=2,
                                    checkpoint_every=1, checkpoints_per_burst=1)


def _recorded() -> dict[str, str]:
    ledger = workloads.Ledger(None)
    _tiny().record(ledger)
    return ledger.recorded


def test_matching_reference_passes(tmp_path):
    ledger = workloads.Ledger(_recorded())
    workload = _tiny()
    facts = workload.unit(0, 7, ledger, tmp_path, None)
    assert facts is not None and facts["cache_hits"] == 2
    assert ledger.attempted == 3  # cold run, two warm hits
    workload.unit(1, 7, ledger, tmp_path, None)
    assert ledger.attempted == 7  # and a checkpoint round trip of pass 0
    assert ledger.failed == 0
    assert set(workload.metrics()) == {
        name for name, *_ in workloads.END_TO_END} - {"setup_s", "peak_rss_mb"}


def test_injected_digest_mismatch_is_a_failed_op(tmp_path):
    reference = {rid: "0" * 64 for rid in _recorded()}
    ledger = workloads.Ledger(reference)
    _tiny().unit(0, 7, ledger, tmp_path, None)
    assert ledger.failed == 1
    assert "digest" in ledger.problems[0]


def test_missing_reference_entry_is_a_failed_op():
    ledger = workloads.Ledger({})
    assert not ledger.check_digest("some/run", "ab" * 32)
    assert ledger.failed == 1


def test_exception_is_a_failed_op():
    ledger = workloads.Ledger({})

    def broken():
        raise RuntimeError("boom")

    assert ledger.guarded("op", broken) is None
    assert (ledger.attempted, ledger.failed) == (1, 1)


def test_without_the_program_it_fails_fast_and_prints_no_result(tmp_path):
    shutil.copytree(PERFBENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "openloop", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
