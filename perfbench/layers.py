"""Outside-in per-layer tracing for the benchmark.

The tracer wraps public entry points of each ``repro`` layer from here,
without touching the program: a wrapped callable records a span (name,
start, end) around every call, plus counts taken from its arguments or
its return value.  Spans nest through a stack, so each span's *self
time* is its duration minus the time covered by wrapped children.

Only the outermost call of a given span name adds to the span's total,
so a wrapped function that re-enters itself is not counted twice.  The tracer holds
everything in memory; :meth:`Tracer.uninstall` restores every patched
attribute, so an untraced run after a traced one sees the bare program.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict
from typing import Any, Callable

__all__ = ["Tracer", "SpanStats", "install_layer_probes"]


class SpanStats:
    """Aggregate of one span name: calls, total and self seconds."""

    __slots__ = ("calls", "total_s", "self_s")

    def __init__(self) -> None:
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0


class Tracer:
    """Span stack + aggregates + named counters, with attribute patching.

    ``clock`` is injectable so the self-time arithmetic can be tested
    with a deterministic clock.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: dict[str, SpanStats] = defaultdict(SpanStats)
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[list[Any]] = []  # [name, start, child_seconds]
        self._depth: dict[str, int] = defaultdict(int)
        self._patches: list[tuple[Any, str, Any]] = []

    # -- spans -----------------------------------------------------------

    def enter(self, name: str) -> None:
        self._stack.append([name, self.clock(), 0.0])
        self._depth[name] += 1

    def exit(self) -> None:
        name, start, child = self._stack.pop()
        duration = self.clock() - start
        self._depth[name] -= 1
        stats = self.spans[name]
        stats.calls += 1
        stats.self_s += duration - child
        if self._depth[name] == 0:
            stats.total_s += duration
        if self._stack:
            self._stack[-1][2] += duration

    def count(self, name: str, amount: float = 1.0) -> None:
        self.counts[name] += amount

    def wrap(self, name: str, fn: Callable, on_return=None, on_call=None,
             on_error=None) -> Callable:
        """Return ``fn`` wrapped in span ``name``.

        ``on_call(args, kwargs)`` runs before the call, ``on_return(result,
        args, kwargs)`` after a normal return and ``on_error(exc)`` when the
        call raises (the exception still propagates).  Each hook may record
        counts on this tracer.
        """
        tracer = self

        def wrapper(*args, **kwargs):
            if on_call is not None:
                on_call(args, kwargs)
            tracer.enter(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                tracer.exit()
                if on_error is not None:
                    on_error(exc)
                raise
            tracer.exit()
            if on_return is not None:
                on_return(result, args, kwargs)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    # -- patching ----------------------------------------------------------

    def patch(self, cls: type, attr: str, name: str, **hooks) -> None:
        """Replace the method ``cls.attr`` with a wrapped version."""
        original = cls.__dict__[attr]
        self._patches.append((cls, attr, original))
        setattr(cls, attr, self.wrap(name, original, **hooks))

    def patch_function(self, fn: Callable, name: str, **hooks) -> None:
        """Wrap a module-level function in every loaded ``repro`` module
        that binds it, so callers that did ``from x import fn`` see it too."""
        wrapped = self.wrap(name, fn, **hooks)
        for modname, module in list(sys.modules.items()):
            if module is None or not (modname == "repro" or modname.startswith("repro.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self._patches.append((module, attr, fn))
                    setattr(module, attr, wrapped)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


def _interior_cells(arrays, nghost: int) -> int:
    total = 0
    for arr in arrays:
        cells = 1
        for extent in arr.shape[1:]:
            cells *= max(0, extent - 2 * nghost)
        total += cells
    return total


def install_layer_probes(tracer: Tracer) -> None:
    """Wrap the public entry points of every measured layer.

    Imports the layers first so :meth:`Tracer.patch_function` finds every
    module that binds a wrapped function.
    """
    from repro.amr.godunov import PolytropicGasSolver
    from repro.amr.hierarchy import AMRHierarchy
    from repro.amr.stepper import AMRStepper
    import repro.analysis.downsample as downsample
    import repro.analysis.entropy as entropy
    import repro.analysis.fidelity as fidelity
    import repro.analysis.isosurface as isosurface
    from repro.core.engine import AdaptationEngine
    from repro.core.monitor import Monitor
    from repro.hpc.event import Simulator
    from repro.hpc.network import Network
    from repro.hpc.systems import build_workflow_machine
    from repro.service.scheduler import TenantScheduler
    from repro.service.tenancy import WorkflowService
    from repro.staging.area import StagingArea
    from repro.workflow.driver import CoupledWorkflow
    from repro.workload.capture import capture_trace
    from repro.workload.synthetic import synthetic_amr_trace

    t = tracer

    # -- repro.amr ---------------------------------------------------------
    def step_done(stats, args, kwargs):
        t.count("amr.steps")
        t.count("amr.boxes", sum(stats.boxes_per_level))

    t.patch(AMRStepper, "step", "amr.step", on_return=step_done)
    t.patch(AMRHierarchy, "fill_ghosts", "amr.fill_ghosts",
            on_return=lambda moved, a, k: t.count("amr.halo_bytes", moved))
    t.patch(PolytropicGasSolver, "advance_boxes", "amr.advance",
            on_call=lambda a, k: t.count(
                "amr.cells_advanced", _interior_cells(a[1], a[0].nghost)))
    t.patch(PolytropicGasSolver, "stable_dt", "amr.stable_dt")
    t.patch(AMRHierarchy, "average_down", "amr.average_down")
    # The stepper's regrid hook covers tagging and the hierarchy regrid.
    t.patch(AMRStepper, "_do_regrid", "amr.regrid",
            on_call=lambda a, k: t.count("amr.regrids"))

    # -- repro.workload ----------------------------------------------------
    t.patch_function(capture_trace, "workload.capture")
    t.patch_function(synthetic_amr_trace, "workload.synthetic",
                     on_call=lambda a, k: t.count("workload.synthetic_ranks",
                                                  a[0].nranks))

    # -- repro.analysis ----------------------------------------------------
    t.patch_function(entropy.block_entropies, "analysis.entropy")
    t.patch_function(fidelity.blockwise_reconstruction_errors, "analysis.reconstruct")
    t.patch_function(downsample.blockwise_stride_reconstruction,
                     "analysis.reconstruct")
    t.patch_function(isosurface.extract_isosurface, "analysis.isosurface",
                     on_return=lambda r, a, k: t.count("analysis.triangles",
                                                       len(r[1])))

    # -- repro.hpc ---------------------------------------------------------
    t.patch_function(build_workflow_machine, "hpc.machine_build")

    # Kernel events dispatched inside each run: the simulator and its
    # counter before the call are stacked, and the difference is recorded
    # only for runs that return, as only their steps are counted.
    started: list[tuple[Any, int]] = []

    def sim_started(args, kwargs):
        started.append((args[0], args[0].kernel.counters.total_processed))

    def sim_returned(result, args, kwargs):
        sim, before = started.pop()
        t.count("hpc.events", sim.kernel.counters.total_processed - before)

    t.patch(Simulator, "run", "hpc.sim_run", on_call=sim_started,
            on_return=sim_returned, on_error=lambda exc: started.pop())
    t.patch(Network, "transfer", "hpc.transfer",
            on_call=lambda a, k: t.count("hpc.transfers"))

    # -- repro.core --------------------------------------------------------
    t.patch(Monitor, "snapshot", "core.snapshot",
            on_call=lambda a, k: t.count("core.snapshots"))
    t.patch(AdaptationEngine, "adapt", "core.adapt",
            on_call=lambda a, k: t.count("core.adaptations"))

    # -- repro.staging -----------------------------------------------------
    def submitted(args, kwargs):
        t.count("staging.jobs")
        t.count("staging.bytes_moved", args[2] if len(args) > 2 else kwargs["nbytes"])

    t.patch(StagingArea, "submit", "staging.submit", on_call=submitted)

    # -- repro.workflow ----------------------------------------------------
    t.patch(CoupledWorkflow, "__init__", "workflow.setup")

    def run_done(result, args, kwargs):
        t.count("workflow.runs")
        t.count("workflow.steps", len(result.steps))

    def run_failed(exc):
        t.count("workflow.runs")
        t.count("workflow.failed")

    t.patch(CoupledWorkflow, "run", "workflow.run", on_return=run_done,
            on_error=run_failed)

    # -- repro.service -----------------------------------------------------
    t.patch(WorkflowService, "submit", "service.submit",
            on_call=lambda a, k: t.count("service.tenants"))

    def service_done(report, args, kwargs):
        t.count("service.rejected", len(report.rejected))
        t.count("service.starvations", report.starvations)

    t.patch(WorkflowService, "run", "service.run", on_return=service_done)
    t.patch(TenantScheduler, "borrow", "service.borrow",
            on_return=lambda took, a, k: t.count("service.grants_grown",
                                                 1 if took else 0))
