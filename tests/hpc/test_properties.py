"""Property-based tests for the event kernel and network invariants."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hpc.event import Simulator
from repro.hpc.network import Network
from repro.hpc.resources import Resource


class TestEventKernelProperties:
    @settings(deadline=None, max_examples=40)
    @given(st.lists(st.floats(0.01, 50.0), min_size=1, max_size=30))
    def test_clock_ends_at_max_delay(self, delays):
        sim = Simulator()

        def sleeper(sim, d):
            yield sim.timeout(d)

        for d in delays:
            sim.process(sleeper(sim, d))
        sim.run()
        assert sim.now == pytest.approx(max(delays))

    @settings(deadline=None, max_examples=30)
    @given(st.lists(st.tuples(st.floats(0.01, 10.0), st.floats(0.01, 10.0)),
                    min_size=1, max_size=20))
    def test_sequential_delays_accumulate(self, pairs):
        sim = Simulator()
        results = {}

        def worker(sim, idx, a, b):
            start = sim.now
            yield sim.timeout(a)
            yield sim.timeout(b)
            results[idx] = sim.now - start

        for i, (a, b) in enumerate(pairs):
            sim.process(worker(sim, i, a, b))
        sim.run()
        for i, (a, b) in enumerate(pairs):
            assert results[i] == pytest.approx(a + b)

    @settings(deadline=None, max_examples=25)
    @given(
        st.integers(1, 8),
        st.lists(st.floats(0.1, 5.0), min_size=1, max_size=25),
    )
    def test_resource_conserves_work(self, capacity, durations):
        """Total busy core-time equals the sum of job durations, regardless
        of contention, and the makespan respects the capacity bound."""
        sim = Simulator()
        cores = Resource(sim, capacity=capacity)

        def job(sim, d):
            yield cores.request(1)
            yield sim.timeout(d)
            cores.release(1)

        for d in durations:
            sim.process(job(sim, d))
        sim.run()
        assert cores.busy_time() == pytest.approx(sum(durations))
        assert sim.now >= sum(durations) / capacity - 1e-9
        assert sim.now <= sum(durations) + 1e-9


class TestNetworkProperties:
    @settings(deadline=None, max_examples=25)
    @given(
        st.lists(
            st.tuples(st.floats(1.0, 500.0), st.floats(0.0, 5.0)),
            min_size=1,
            max_size=15,
        ),
        st.floats(10.0, 1000.0),
    )
    def test_all_bytes_delivered_and_bounded(self, flows, bandwidth):
        """Every transfer completes; total time is bounded below by the
        aggregate bytes over the link capacity, and above by the serial
        time plus start offsets."""
        sim = Simulator()
        net = Network(sim)
        net.add_link("a", "b", bandwidth=bandwidth)
        done = []

        def starter(sim, size, delay):
            yield sim.timeout(delay)
            xfer = net.transfer("a", "b", size)
            result = yield xfer
            done.append(result)

        for size, delay in flows:
            sim.process(starter(sim, size, delay))
        sim.run()
        assert len(done) == len(flows)
        total = sum(size for size, _ in flows)
        assert net.total_bytes_moved == pytest.approx(total)
        last_start = max(d for _, d in flows)
        assert sim.now >= total / bandwidth - 1e-6
        assert sim.now <= last_start + total / bandwidth + 1e-5 * len(flows) + 1e-6

    @settings(deadline=None, max_examples=20)
    @given(st.integers(1, 10), st.floats(10.0, 200.0))
    def test_equal_flows_finish_together(self, n, size):
        sim = Simulator()
        net = Network(sim)
        net.add_link("a", "b", bandwidth=100.0)
        finish = []

        def watch(sim, evt):
            yield evt
            finish.append(sim.now)

        for _ in range(n):
            sim.process(watch(sim, net.transfer("a", "b", size)))
        sim.run()
        assert np.allclose(finish, n * size / 100.0, rtol=1e-9)
