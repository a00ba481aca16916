"""Unit + property tests for the typed event kernel.

Covers the engine pieces (kind registry, counters, the heapq kernel)
plus the adapter guarantees: pops follow the ``(time, seq)`` order,
unregistered kinds are refused at schedule time, seeded RNG injection
is reproducible, interrupt edge cases behave, and whole workflow and
service runs reproduce pinned golden bytes.
"""

import hashlib
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SimulationError
from repro.hpc.event import Interrupt, Simulator
from repro.hpc.kernel import (
    KERNEL_EVENT_KINDS,
    EventKernel,
    KernelCounters,
    event_kind_code,
    event_kind_name,
)
from repro.hpc.network import Network

TIMER = event_kind_code("timer")


def drain(engine):
    while len(engine):
        engine.dispatch_next()


class TestEventKindRegistry:
    def test_builtin_kinds_registered_in_order(self):
        names = list(KERNEL_EVENT_KINDS)
        assert names[:5] == ["control", "timer", "compute", "transfer", "staging"]

    def test_codes_round_trip(self):
        for code, name in enumerate(list(KERNEL_EVENT_KINDS)[:5]):
            assert event_kind_code(name) == code
            assert event_kind_name(code) == name

    def test_every_kind_has_description(self):
        assert all(desc.strip() for desc in KERNEL_EVENT_KINDS.values())

    def test_unknown_kind_raises(self):
        with pytest.raises(SimulationError):
            event_kind_code("no-such-kind")
        with pytest.raises(SimulationError):
            event_kind_name(10_000)


@pytest.fixture(params=[np.asarray, list], ids=["array", "reference"])
def as_times(request):
    """Event times as NumPy scalars ("array") or plain floats ("reference")."""
    def convert(values):
        return request.param([float(v) for v in values])
    return convert


class TestEventHeap:
    """The heap's ordering contract, for NumPy-scalar and float times."""

    def test_empty_heap_peeks_inf(self, as_times):
        engine = EventKernel()
        assert len(engine) == 0
        assert engine.peek() == float("inf")
        (t,) = as_times([3.0])
        engine.schedule(t, TIMER, int)
        assert engine.peek() == 3.0
        drain(engine)
        assert len(engine) == 0
        assert engine.peek() == float("inf")

    def test_pop_empty_raises(self, as_times):
        engine = EventKernel()
        with pytest.raises(SimulationError):
            engine.dispatch_next()
        (t,) = as_times([1.0])
        engine.schedule(t, TIMER, int)
        engine.dispatch_next()
        with pytest.raises(SimulationError):
            engine.dispatch_next()

    def test_pops_in_time_order(self, as_times):
        engine, times = EventKernel(), []
        for t in as_times([5.0, 1.0, 3.0, 2.0, 4.0]):
            engine.schedule(t, TIMER, lambda: times.append(engine.now))
        drain(engine)
        assert times == [1.0, 2.0, 3.0, 4.0, 5.0]
        # The clock stays a Python float even when fed NumPy scalars.
        assert all(type(t) is float for t in times)

    def test_ties_pop_in_submission_order(self, as_times):
        # The documented tie-breaking contract: seq preserves submission
        # order at equal timestamps.
        engine, seen = EventKernel(), []
        for i, t in enumerate(as_times([7.0] * 10)):
            engine.schedule(t, TIMER, seen.append, (i,))
        drain(engine)
        assert seen == list(range(10))

    def test_seq_monotonic_across_mixed_pushes(self, as_times):
        engine = EventKernel()
        t2, t1, t2b = as_times([2.0, 1.0, 2.0])
        s1 = engine.schedule(t2, 0, int)
        s2 = engine.schedule(t1, 1, int)
        s3 = engine.schedule(t2b, 2, int)
        assert s1 < s2 < s3


class TestHeapOrder:
    @settings(deadline=None, max_examples=60)
    @given(st.lists(st.tuples(st.floats(0.0, 20.0), st.integers(0, 4)),
                    min_size=1, max_size=80))
    def test_pops_follow_time_then_submission(self, records):
        t = [time for time, _kind in records]
        engine, order = EventKernel(), []
        for i, (time, kind) in enumerate(records):
            engine.schedule(time, kind, order.append, (i,))
        drain(engine)
        assert order == sorted(range(len(t)), key=lambda i: (t[i], i))
        assert engine.now == max(t)


class TestKernelCounters:
    def test_counters_start_at_zero(self):
        c = KernelCounters()
        assert c.total_processed == 0
        assert set(c.scheduled_by_kind().values()) == {0}

    def test_kernel_tallies_by_kind(self):
        engine = EventKernel()
        compute = event_kind_code("compute")
        engine.schedule(1.0, TIMER, int)
        for _ in range(3):
            engine.schedule(2.0, compute, int)
        drain(engine)
        assert engine.counters.scheduled_by_kind()["timer"] == 1
        assert engine.counters.scheduled_by_kind()["compute"] == 3
        assert engine.counters.processed_by_kind()["compute"] == 3
        assert engine.counters.total_processed == 4


class TestEventKernel:
    def test_schedule_in_past_raises(self):
        engine = EventKernel()
        engine.schedule(5.0, TIMER, int)
        drain(engine)
        assert engine.now == 5.0
        with pytest.raises(SimulationError, match="in the past"):
            engine.schedule(1.0, TIMER, int)

    def test_unregistered_kind_raises_at_schedule(self):
        engine = EventKernel()
        for code in (len(KERNEL_EVENT_KINDS), -1):
            with pytest.raises(SimulationError, match="unknown event kind"):
                engine.schedule(1.0, code, int)
        assert len(engine) == 0
        assert sum(engine.counters.scheduled) == 0

    def test_injected_rng_is_reproducible(self):
        results = []
        for _ in range(2):
            draws = []
            engine = EventKernel(rng=1234)
            for t in (1.0, 2.0, 3.0):
                engine.schedule(
                    t, TIMER, lambda: draws.append(float(engine.rng.uniform()))
                )
            drain(engine)
            results.append(draws)
        assert results[0] == results[1]
        assert len(results[0]) == 3

    def test_rng_accepts_generator_instance(self):
        gen = np.random.default_rng(7)
        assert EventKernel(rng=gen).rng is gen


class TestSimulatorTieBreakRegression:
    def test_submission_order_at_equal_timestamps(self):
        sim = Simulator()
        order = []

        def worker(sim, tag, delay):
            yield sim.timeout(delay)
            order.append((tag, sim.now))

        # Deliberate timestamp collisions: three waves landing at t=1.0,
        # t=2.0 and t=1.0 again, interleaved at submission time.
        for i, delay in enumerate([1.0, 2.0, 1.0, 2.0, 1.0, 1.0]):
            sim.process(worker(sim, i, delay))
        sim.run()
        assert order == [(0, 1.0), (2, 1.0), (4, 1.0), (5, 1.0),
                         (1, 2.0), (3, 2.0)]


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class TestGoldenBytes:
    """Whole runs reproduce pinned sha256 digests.

    The quickstart workload (6 steps, seed 42) in three modes -- its
    trace JSONL and result JSON -- and one 4-tenant service fleet's
    trace JSONL.  Any change to event ordering or clock arithmetic that
    leaks into results moves a digest.
    """

    QUICKSTART = {
        "global": (
            "1a1bedfc649f41708869f03e47a173395be50c6e3eb953aae52341303a851fb2",
            "19fcf7d916b8a4edcc872e27e425834ea1317a81bb59aaa9a96616c1fad0d076",
        ),
        "adaptive_resource": (
            "a338b39b114c37ba4d963215e3cc95a6dd885c5d201a7b802fb47b40858390a6",
            "0a0c54fbcd8348e9ce160e0c40ee6b8e783542fc2f0823479003abe625c0fb6c",
        ),
        "static_intransit": (
            "4902ea41b44a3b2bb0d49d8c057fe798e6708fc6fd73eae51080eba70d8eeece",
            "c80e411c1f81a7777b25af5ad6aafd447d88dd31c8f54fb0bf15e2d83ed04eb5",
        ),
    }
    FLEET_TRACE = (
        "d5541b099ffa886d36df692735e8f4cf8cc53fb2e95d10d2c3015d4e5bc27464"
    )

    @pytest.mark.parametrize("mode", sorted(QUICKSTART))
    def test_quickstart_trace_and_result(self, mode, tmp_path):
        from repro.__main__ import _quickstart
        from repro.observability.tracer import Tracer
        from repro.workflow.driver import CoupledWorkflow
        from repro.workflow.report import result_to_json

        config, trace = _quickstart(mode, 6, 42)
        tracer = Tracer()
        result = CoupledWorkflow(config, trace, tracer=tracer).run()
        path = tmp_path / "trace.jsonl"
        tracer.to_jsonl(path)
        stream = path.read_bytes()
        first = json.loads(stream.splitlines()[0])
        assert "ts" in first and "kind" in first
        assert (
            _sha(stream), _sha(result_to_json(result).encode())
        ) == self.QUICKSTART[mode]

    def test_four_tenant_fleet_trace(self, tmp_path):
        from repro.hpc.systems import titan
        from repro.observability.tracer import Tracer
        from repro.service import WorkflowService
        from repro.workflow.config import Mode, WorkflowConfig
        from repro.workload.synthetic import (
            SyntheticAMRConfig,
            synthetic_amr_trace,
        )

        tracer = Tracer()
        service = WorkflowService(
            spec=titan(), sim_cores=2048, staging_cores=128, tracer=tracer
        )
        tenants = [
            ("a", Mode.GLOBAL, 1024, 64, 0.0),
            ("b", Mode.ADAPTIVE_RESOURCE, 1024, 64, 0.5),
            ("c", Mode.STATIC_INTRANSIT, 512, 32, 1.0),
            ("d", Mode.ADAPTIVE_RESOURCE, 2048, 64, 2.0),
        ]
        for seed, (name, mode, sim_cores, staging, arrival) in enumerate(tenants):
            config = WorkflowConfig(
                mode=mode, sim_cores=sim_cores, staging_cores=staging,
                spec=titan(), analysis_cost_per_cell=0.035,
            )
            trace = synthetic_amr_trace(SyntheticAMRConfig(
                steps=8, nranks=64, base_cells=2e7, sim_cost_per_cell=1.0,
                growth=1.5, analysis_growth_exponent=1.0, seed=seed,
            ))
            service.submit(name, config, trace, arrival=arrival,
                           user=f"u{seed % 2}", tracer=tracer)
        report = service.run()
        # The fleet exercises queueing and grant growth, not just arrivals.
        assert report.tenant("c").queue_wait > 0.0
        assert report.tenant("d").final_grant > 64
        path = tmp_path / "fleet.jsonl"
        tracer.to_jsonl(path)
        assert _sha(path.read_bytes()) == self.FLEET_TRACE


class TestAdapterIntegration:
    """The Simulator adapter exposes the kernel without changing semantics."""

    def test_simulator_owns_a_kernel(self):
        sim = Simulator()
        assert isinstance(sim.kernel, EventKernel)
        assert sim.kernel.peek() == float("inf")

    def test_timeout_kinds_reach_the_counters(self):
        sim = Simulator()

        def proc(sim):
            yield sim.timeout(1.0)
            yield sim.timeout(1.0, kind="compute")
            yield sim.timeout(1.0, kind="staging")

        sim.process(proc(sim))
        sim.run()
        by_kind = sim.kernel.counters.processed_by_kind()
        assert by_kind["timer"] == 1
        assert by_kind["compute"] == 1
        assert by_kind["staging"] == 1
        assert by_kind["control"] >= 1  # process start + resumes

    def test_network_events_are_transfer_kind(self):
        sim = Simulator()
        net = Network(sim)
        net.add_link("sim", "staging", bandwidth=1e9, latency=1e-6)
        done = net.transfer("sim", "staging", 1e9)
        sim.run(done)
        assert sim.kernel.counters.processed_by_kind()["transfer"] >= 2

    def test_interrupt_edge_case_on_kernel_path(self):
        sim = Simulator()

        def sleeper(sim):
            try:
                yield sim.timeout(100.0, kind="compute")
            except Interrupt as i:
                return ("interrupted", i.cause, sim.now)

        def interrupter(sim, victim):
            yield sim.timeout(2.0)
            victim.interrupt("rebalance")

        victim = sim.process(sleeper(sim))
        sim.process(interrupter(sim, victim))
        sim.run()
        assert victim.value == ("interrupted", "rebalance", 2.0)
        # run() drains to exhaustion: the detached compute event still
        # popped (and was counted) even though its waiter was gone.
        assert len(sim.kernel) == 0
        assert sim.now == 100.0
        assert sim.kernel.counters.processed_by_kind()["compute"] == 1

    def test_seeded_simulator_rng_injection(self):
        a = Simulator(rng=99).rng.uniform(size=4)
        b = Simulator(rng=99).rng.uniform(size=4)
        assert np.array_equal(a, b)
