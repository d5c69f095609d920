"""The parallel execution engine: hashing, cache, pool, deterministic merge."""

import copy
import dataclasses
import errno
import os
import pickle
import random
import shutil
import subprocess
import sys
from dataclasses import is_dataclass, replace
from pathlib import Path

import pytest

import repro
from repro.config import TransportConfig, small_interdc_config
from repro.control.config import ControlConfig
from repro.errors import ExperimentError
from repro.experiments import parallel
from repro.experiments.parallel import (
    ExperimentEngine,
    ResultCache,
    Uncacheable,
    _canonical,
    resolve_workers,
    run_incast_batch,
    run_parallel,
    scenario_key,
)
from repro.experiments.runner import IncastScenario, run_incast
from repro.experiments.sweeps import degree_sweep, run_scheme_summary, sweep_digest
from repro.faults.plan import FaultPlan, LinkDown, PacketBlackhole
from repro.units import megabytes, microseconds


@pytest.fixture()
def tiny_scenario() -> IncastScenario:
    """Small enough that a single run takes ~tens of milliseconds."""
    return IncastScenario(
        degree=2,
        total_bytes=megabytes(1),
        interdc=small_interdc_config(),
        transport=TransportConfig(payload_bytes=4096),
    )


def _square(x: int) -> int:  # top-level: picklable for the pool
    return x * x


def _reference_canonical(value):
    """The canonicalizer before per-type field caching (the oracle)."""
    if is_dataclass(value) and not isinstance(value, type):
        fields = {
            f.name: _reference_canonical(getattr(value, f.name))
            for f in dataclasses.fields(value)
        }
        return {"__type__": type(value).__name__, **fields}
    if isinstance(value, (list, tuple)):
        return [_reference_canonical(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _reference_canonical(v) for k, v in sorted(value.items())}
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    raise Uncacheable(f"no stable representation for {type(value).__name__}")


@pytest.fixture()
def competitors():
    """Install the competitor schemes, and always tear them down again."""
    from repro.competitors import install, uninstall

    install()
    try:
        yield
    finally:
        uninstall()


def _perfbench_configs(monkeypatch):
    """Every config the same-host benchmark computes a cache key for."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent))
    from perfbench.workloads import WORKLOADS, make

    configs = []
    for name in WORKLOADS:
        workload = make(name)
        configs.extend(getattr(workload, "scenarios", None) or [workload.config])
    return configs


def _rich_scenario() -> IncastScenario:
    """A scenario whose optional configs (faults, control) are all set."""
    return IncastScenario(
        faults=FaultPlan((
            LinkDown(at_ps=5, link="backbone:1"),
            PacketBlackhole(at_ps=7, duration_ps=3, drop_fraction=0.5),
        )),
        control=ControlConfig(),
    )


def _atom_paths(value, path=()):
    """Every (path, atom) reached by walking dataclass fields and sequences."""
    if is_dataclass(value):
        for field in dataclasses.fields(value):
            yield from _atom_paths(getattr(value, field.name), path + (field.name,))
    elif isinstance(value, (list, tuple)):
        for index, item in enumerate(value):
            yield from _atom_paths(item, path + (index,))
    else:
        yield path, value


def _perturb(value, path):
    """A copy of ``value`` with the atom at ``path`` changed (no validation)."""
    if not path:
        if isinstance(value, bool):
            return not value
        if isinstance(value, (int, float)):
            return value * 2 + 1
        if isinstance(value, str):
            return value + "~"
        assert value is None, value
        return 1
    head, rest = path[0], path[1:]
    if isinstance(head, int):
        items = list(value)
        items[head] = _perturb(items[head], rest)
        return type(value)(items)
    clone = copy.copy(value)
    object.__setattr__(clone, head, _perturb(getattr(value, head), rest))
    return clone


_KEY_PROGRAM = """
import repro
from repro.experiments.parallel import scenario_key
from repro.experiments.runner import IncastScenario
print(repro.__file__)
print(scenario_key(IncastScenario(scheme="streamlined", degree=8)))
"""


def _key_in_subprocess(source_root: Path, hash_seed: str = "0") -> str:
    """The scenario key a fresh interpreter computes from ``source_root``."""
    env = dict(os.environ, PYTHONPATH=str(source_root), PYTHONHASHSEED=hash_seed)
    done = subprocess.run(
        [sys.executable, "-c", _KEY_PROGRAM], cwd=source_root, env=env,
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    module_file, key = done.stdout.split()
    assert Path(module_file).is_relative_to(source_root), module_file
    return key


def _copy_package(tmp_path: Path, name: str) -> Path:
    """A copy of the ``repro`` source tree under ``tmp_path/name``."""
    root = tmp_path / name
    shutil.copytree(
        Path(repro.__file__).parent, root / "repro",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    return root


class TestScenarioKey:
    def test_stable_across_calls(self, tiny_scenario):
        assert scenario_key(tiny_scenario) == scenario_key(tiny_scenario)

    def test_equal_scenarios_hash_identically(self, tiny_scenario):
        clone = replace(tiny_scenario)
        assert scenario_key(clone) == scenario_key(tiny_scenario)

    @pytest.mark.parametrize(
        "change",
        [
            {"seed": 7},
            {"degree": 3},
            {"total_bytes": megabytes(2)},
            {"scheme": "streamlined"},
            {"routing": "ecmp"},
        ],
    )
    def test_any_field_change_changes_key(self, tiny_scenario, change):
        assert scenario_key(replace(tiny_scenario, **change)) != scenario_key(
            tiny_scenario
        )

    def test_nested_config_change_changes_key(self, tiny_scenario):
        varied = replace(
            tiny_scenario,
            interdc=tiny_scenario.interdc.with_backbone_delay(microseconds(5)),
        )
        assert scenario_key(varied) != scenario_key(tiny_scenario)

    def test_callable_fields_are_uncacheable(self, tiny_scenario):
        with_sampler = replace(tiny_scenario, proxy_delay_sampler=lambda: 0)
        with pytest.raises(Uncacheable):
            scenario_key(with_sampler)

    def test_non_dataclass_rejected(self):
        with pytest.raises(Uncacheable):
            scenario_key({"not": "a dataclass"})

    def test_reregistered_scheme_changes_key(self, tiny_scenario):
        # Regression: keys used to hash the scheme *name* only, so a
        # third-party registration reusing a name silently reused the old
        # implementation's cached results.
        from repro.schemes import SCHEME_REGISTRY, SchemeWiring, register_scheme

        @register_scheme("keytest")
        def wire_one(ctx):
            return SchemeWiring()

        try:
            scenario = replace(tiny_scenario, scheme="keytest")
            first = scenario_key(scenario)
            assert first == scenario_key(scenario)  # stable while unchanged

            @register_scheme("keytest", replace=True)
            def wire_two(ctx):
                return SchemeWiring()  # different implementation, same name

            assert scenario_key(scenario) != first
        finally:
            SCHEME_REGISTRY.unregister("keytest")

    def test_key_follows_the_simulator_source(self, tmp_path):
        # Regression: keys hashed only the scenario, so a cache warmed
        # before a simulator edit kept serving the old code's results.
        edited = _copy_package(tmp_path, "edited")
        port = edited / "repro" / "net" / "port.py"
        line = "self._ps_per_byte = 8 * PS_PER_S / rate_bps"
        assert line in port.read_text()
        port.write_text(port.read_text().replace(line, line.replace("8 *", "16 *")))
        cli_only = _copy_package(tmp_path, "cli-only")
        with (cli_only / "repro" / "__main__.py").open("a") as fh:
            fh.write("# an edit outside the simulation\n")
        unedited = _copy_package(tmp_path, "unedited")

        here = scenario_key(IncastScenario(scheme="streamlined", degree=8))
        assert _key_in_subprocess(unedited) == here
        assert _key_in_subprocess(cli_only) == here
        assert _key_in_subprocess(edited) != here

    def test_key_is_independent_of_the_hash_seed(self):
        source_root = Path(repro.__file__).parent.parent
        first = _key_in_subprocess(source_root, hash_seed="1")
        assert _key_in_subprocess(source_root, hash_seed="2") == first
        assert first == scenario_key(IncastScenario(scheme="streamlined", degree=8))

    def test_code_digest_is_lazy_and_computed_once(self):
        program = (
            "import repro\n"
            "from repro.experiments import parallel\n"
            "from repro.experiments.runner import IncastScenario\n"
            "assert parallel.code_digest.cache_info().misses == 0\n"
            "parallel.scenario_key(IncastScenario())\n"
            "parallel.scenario_key(IncastScenario(seed=1))\n"
            "assert parallel.code_digest.cache_info().misses == 1\n"
        )
        done = subprocess.run(
            [sys.executable, "-c", program], capture_output=True, text=True,
            timeout=120,
        )
        assert done.returncode == 0, done.stderr

    def test_canonical_matches_the_reference(self, monkeypatch, competitors):
        from repro.experiments.service import NAMED_GRIDS, named_grid

        configs = _perfbench_configs(monkeypatch)
        for grid in NAMED_GRIDS:
            configs.extend(cell.scenario for cell in named_grid(grid).expand())
        configs.append(_rich_scenario())
        for config in configs:
            assert repr(_canonical(config)) == repr(_reference_canonical(config))

    def test_every_atom_changes_the_key(self):
        scenario = _rich_scenario()
        base = scenario_key(scenario)
        paths = [path for path, _ in _atom_paths(scenario)]
        assert ("control", "weight_model") in paths
        assert ("faults", "events", 1, "drop_fraction") in paths
        assert ("interdc", "fabric", "switch_queue", "ecn_low_bytes") in paths
        for path in paths:
            assert scenario_key(_perturb(scenario, path)) != base, path


class TestRunParallel:
    def test_serial_path(self):
        assert run_parallel(_square, [3, 1, 2], workers=1) == [9, 1, 4]

    def test_pool_preserves_input_order(self):
        assert run_parallel(_square, list(range(8)), workers=2) == [
            x * x for x in range(8)
        ]

    def test_unpicklable_work_falls_back_to_serial(self):
        fallbacks = []
        results = run_parallel(
            lambda x: x + 1, [1, 2], workers=2, on_fallback=fallbacks.append
        )
        assert results == [2, 3]
        assert fallbacks  # the caller was told why

    def test_resolve_workers(self):
        assert resolve_workers(3) == 3
        assert resolve_workers(None) >= 1
        assert resolve_workers(0) >= 1
        with pytest.raises(ExperimentError):
            resolve_workers(-1)


class TestDeterministicMerge:
    def test_workers_do_not_change_results(self, tiny_scenario):
        scenarios = [replace(tiny_scenario, seed=s) for s in range(3)]
        serial = run_incast_batch(scenarios, workers=1)
        pooled = run_incast_batch(scenarios, workers=4)
        assert [r.ict_ps for r in serial] == [r.ict_ps for r in pooled]
        assert [r.counters for r in serial] == [r.counters for r in pooled]
        assert [r.flow_completion_ps for r in serial] == [
            r.flow_completion_ps for r in pooled
        ]

    def test_sweep_summaries_identical_across_worker_counts(self, tiny_scenario):
        kwargs = dict(
            degrees=(2, 3), schemes=("baseline", "streamlined"), reps=2
        )
        serial = degree_sweep(tiny_scenario, workers=1, **kwargs)
        pooled = degree_sweep(tiny_scenario, workers=4, **kwargs)
        assert sweep_digest(serial) == sweep_digest(pooled)

    def test_scheme_summary_matches_direct_runs(self, tiny_scenario):
        summary, results = run_scheme_summary(tiny_scenario, reps=2)
        direct = [run_incast(replace(tiny_scenario, seed=s)) for s in range(2)]
        assert [r.ict_ps for r in results] == [r.ict_ps for r in direct]
        assert summary.ict.mean == sum(r.ict_ps for r in direct) / 2


class TestResultCache:
    def test_second_run_is_served_from_cache(self, tiny_scenario, tmp_path):
        cache = ResultCache(tmp_path)
        scenarios = [replace(tiny_scenario, seed=s) for s in range(2)]

        first_engine = ExperimentEngine(workers=1, cache=cache)
        first = first_engine.run_incasts(scenarios)
        assert first_engine.stats.cache_misses == 2
        assert first_engine.stats.cache_hits == 0
        assert all(not r.from_cache for r in first)

        second_engine = ExperimentEngine(workers=1, cache=cache)
        second = second_engine.run_incasts(scenarios)
        assert second_engine.stats.cache_hits == 2
        assert second_engine.stats.cache_misses == 0
        assert all(r.from_cache for r in second)
        assert [r.ict_ps for r in first] == [r.ict_ps for r in second]
        assert [r.counters for r in first] == [r.counters for r in second]

    def test_cached_and_uncached_sweeps_summarize_identically(
        self, tiny_scenario, tmp_path
    ):
        kwargs = dict(degrees=(2,), schemes=("baseline",), reps=2)
        cache = ResultCache(tmp_path)
        cold = degree_sweep(tiny_scenario, cache=cache, **kwargs)
        warm = degree_sweep(tiny_scenario, cache=cache, **kwargs)
        uncached = degree_sweep(tiny_scenario, **kwargs)
        assert sweep_digest(cold) == sweep_digest(warm) == sweep_digest(uncached)

    def test_changed_scenario_invalidates(self, tiny_scenario, tmp_path):
        cache = ResultCache(tmp_path)
        ExperimentEngine(workers=1, cache=cache).run_incasts([tiny_scenario])

        engine = ExperimentEngine(workers=1, cache=cache)
        engine.run_incasts([replace(tiny_scenario, seed=99)])
        assert engine.stats.cache_hits == 0
        assert engine.stats.cache_misses == 1

    def test_corrupt_entry_is_a_miss(self, tiny_scenario, tmp_path):
        cache = ResultCache(tmp_path)
        key = scenario_key(tiny_scenario)
        path = cache.path_for(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(b"not a pickle")

        engine = ExperimentEngine(workers=1, cache=cache)
        results = engine.run_incasts([tiny_scenario])
        assert engine.stats.cache_misses == 1
        assert results[0].completed

    def test_corrupt_entry_is_deleted_on_load_failure(self, tiny_scenario, tmp_path):
        cache = ResultCache(tmp_path)
        key = scenario_key(tiny_scenario)
        path = cache.path_for(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(b"not a pickle")

        assert cache.get(key) is None
        # the poisoned file is gone, so the next store/get cycle is clean
        assert not path.exists()
        result = run_incast(tiny_scenario)
        cache.put(key, result)
        assert cache.get(key) is not None

    def test_every_corrupt_entry_is_a_deleted_miss(self, tmp_path):
        # Regression: some corrupt bytes raised ValueError or
        # OverflowError out of get(), aborting the sweep.
        rng = random.Random(12)
        valid = pickle.dumps(
            {"ict_ps": 123456789, "series": [1.5] * 40, "name": "baseline"},
            protocol=pickle.HIGHEST_PROTOCOL,
        )
        entries = [rng.randbytes(40) for _ in range(200)]
        entries += [b"\x80\x63", b"not a pickle", valid[:1],
                    valid[: len(valid) // 2], valid[:-1]]
        cache = ResultCache(tmp_path)
        for index, data in enumerate(entries):
            key = f"{index:064x}"
            path = cache.path_for(key)
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_bytes(data)
            assert cache.get(key) is None, data
            assert not path.exists(), data

    def test_failed_put_leaves_no_temp_file(self, tiny_scenario, tmp_path,
                                            monkeypatch):
        def full_disk(*args, **kwargs):
            raise OSError(errno.ENOSPC, "No space left on device")

        cache = ResultCache(tmp_path)
        monkeypatch.setattr(parallel.pickle, "dump", full_disk)
        with pytest.raises(OSError):
            cache.put(scenario_key(tiny_scenario), "value")
        assert [p for p in tmp_path.rglob("*") if p.is_file()] == []
        # the engine runs on uncached when the store fails
        results = ExperimentEngine(workers=1, cache=cache).run_incasts([tiny_scenario])
        assert results[0].completed
        assert [p for p in tmp_path.rglob("*") if p.is_file()] == []

    def test_uncacheable_scenarios_just_run(self, tiny_scenario, tmp_path):
        cache = ResultCache(tmp_path)
        scenario = replace(tiny_scenario, proxy_delay_sampler=lambda: 0)
        engine = ExperimentEngine(workers=1, cache=cache)
        results = engine.run_incasts([scenario])
        assert results[0].completed
        assert cache.clear() == 0  # nothing was stored

    def test_clear_removes_entries(self, tiny_scenario, tmp_path):
        cache = ResultCache(tmp_path)
        ExperimentEngine(workers=1, cache=cache).run_incasts([tiny_scenario])
        assert cache.clear() == 1
        assert cache.get(scenario_key(tiny_scenario)) is None


class TestEngineStats:
    def test_timing_is_threaded_through(self, tiny_scenario):
        engine = ExperimentEngine(workers=1)
        results = engine.run_incasts([tiny_scenario])
        assert results[0].wall_seconds > 0
        assert engine.stats.sim_wall_seconds >= results[0].wall_seconds
        assert engine.stats.wall_seconds > 0
        assert engine.stats.tasks == 1
        assert engine.stats.speedup > 0
