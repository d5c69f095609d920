"""Burst statistics and the reference-host scaling."""

import pytest

from perfbench.hostspeed import REFERENCE_MS, Bursts, HostClock, on_reference_host


def test_mean_of_burst_medians_weights_each_burst_once():
    bursts = Bursts()
    for burst in ([1.0, 1.0, 9.0], [3.0, 3.0], [2.0]):
        bursts.start()
        for value in burst:
            bursts.add(value)
    assert bursts.mean_of_medians() == 2.0
    assert bursts.quantile(50) == 2.5  # all six samples pooled


def test_clock_bursts_at_most_once_per_interval():
    clock = HostClock()
    clock.tick()
    clock.tick()  # within INTERVAL_S of the first: no second burst
    assert len(clock.samples.bursts) == 1
    assert len(clock.samples.bursts[0]) == HostClock.BURST
    assert clock.slowness() == pytest.approx(
        clock.samples.mean_of_medians() / REFERENCE_MS)


def test_reference_host_scaling_by_unit():
    assert on_reference_host(100.0, "1/s", 1.25) == 125.0
    assert on_reference_host(10.0, "ms", 1.25) == 8.0
    assert on_reference_host(2.5, "s", 0.5) == 5.0
    assert on_reference_host(64.0, "MB", 1.25) == 64.0
