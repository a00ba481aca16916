"""The benchmark's four workloads: inputs, operations and output checks.

Each workload is run as a sequence of *sets*.  A set's inputs come from
``(seed, set index)`` through public constructors only -- no experiment
cache, no memoized helper -- and are built fresh, so every set is a cold
run.  Executing a set runs its operations, times each one, checks every
output and feeds a digest of the results.

- ``gas_capture``: one 50-step Polytropic gas capture through
  :func:`repro.workload.capture_trace` (operation: one AMR step).
- ``gas_entropy``: the Fig. 6 pipeline -- a 48^3 gas run for 25 steps,
  then block entropies, block reconstruction and two isosurfaces
  (operation: one AMR step).
- ``workflow_grid``: every ``Mode`` at the four Table-2 scales on two
  seeded sets of synthetic advection traces (operation: one
  ``CoupledWorkflow`` construct + run).
- ``tenant_fleet``: three 16-tenant fleets on a shared 4096/256-core pool,
  each under every admission policy (operation: one fleet construct +
  submit + run).
"""

from __future__ import annotations

import hashlib
import sys
import time
from dataclasses import dataclass, field, replace
from typing import Any

import numpy as np

import repro.analysis.downsample as downsample
import repro.analysis.entropy as entropy
import repro.analysis.fidelity as fidelity
import repro.analysis.isosurface as isosurface
import repro.workload.capture as capture
import repro.workload.synthetic as synthetic
from repro.amr.box import Box
from repro.amr.godunov import PolytropicGasSolver
from repro.amr.hierarchy import AMRHierarchy
from repro.amr.stepper import AMRStepper
from repro.core.preferences import UserHints, UserPreferences
from repro.experiments.cache import ExperimentCache
from repro.experiments.common import (
    ANALYSIS_COST_PER_CELL,
    SCALES,
    advection_trace,
    default_hints,
)
from repro.hpc.systems import titan
from repro.service import ADMISSION_POLICIES, WorkflowService
from repro.workflow.config import Mode, WorkflowConfig
from repro.workflow.driver import CoupledWorkflow

from accounting import Tally
from calibration import Calibrator

__all__ = ["WORKLOADS", "ColdPathError", "SetOutcome", "Workload", "assert_cold",
           "clear_memos"]

clock = time.perf_counter

#: Memoized program helpers a cold run must never hit: (module, function).
MEMOS = (
    ("repro.experiments.common", "run_mode_at_scale"),
    ("repro.experiments.fig_tenants", "_workload"),
)


class ColdPathError(RuntimeError):
    """A cache or memo served a result: the run is not cold."""


def clear_memos() -> None:
    """Empty every memoized helper that is loaded."""
    for modname, attr in MEMOS:
        module = sys.modules.get(modname)
        if module is not None:
            getattr(module, attr).cache_clear()


def assert_cold() -> None:
    """Raise if the experiment cache was created or a memo was hit."""
    cache = sys.modules.get("repro.experiments.cache")
    if cache is not None and cache._DEFAULT is not None:
        raise ColdPathError("the shared ExperimentCache was created")
    for modname, attr in MEMOS:
        module = sys.modules.get(modname)
        if module is not None and getattr(module, attr).cache_info().hits:
            raise ColdPathError(f"{modname}.{attr} served a memoized result")


@dataclass
class SetOutcome:
    """What one executed set did: per-operation latencies of successful
    operations, and the work those operations completed."""

    latencies: list[float] = field(default_factory=list)
    steps: int = 0  # AMR steps or simulated workflow steps completed
    cells: float = 0.0  # cell updates of those steps
    digest: Any = field(default_factory=hashlib.sha256)  # fed with the set's results
    calibrator: Calibrator | None = None  # host-speed kernel between operations
    marks: list[int] = field(default_factory=list)  # per latency: calibrator.mark

    def op_done(self, seconds: float) -> None:
        """An operation, successful or not, took ``seconds``."""
        if self.calibrator is not None:
            self.calibrator.after_op(seconds)

    def keep(self, seconds: float) -> None:
        """Time the last operation ``op_done`` saw: it succeeded and its
        output passed the checks."""
        self.latencies.append(seconds)
        self.marks.append(0 if self.calibrator is None else self.calibrator.mark)


#: Relative width of the band the gas inputs are drawn from.  Narrow, so
#: that a run's work -- the refined volume follows the blast radius -- does
#: not move its times by more than the host's own noise.
BAND = 0.01


def _band(rng: np.random.Generator, value: float, width: float = BAND) -> float:
    """``value`` perturbed uniformly within +-``width`` (relative)."""
    return float(value * rng.uniform(1.0 - width, 1.0 + width))


def _feed(digest, *values) -> None:
    for value in values:
        if isinstance(value, np.ndarray):
            digest.update(np.ascontiguousarray(value).tobytes())
        else:
            digest.update(repr(value).encode())


class Workload:
    name = ""

    def build(self, seed: int, index: int) -> Any:
        raise NotImplementedError

    #: Sets per second of ``--seconds``: a run's work is fixed by its
    #: arguments, so the same seed always attempts the same operations.
    sets_per_s: float

    def sets(self, seconds: float) -> int:
        return max(2, round(seconds * self.sets_per_s))

    def execute(self, inputs: Any, tally: Tally,
                calibrator: Calibrator | None = None) -> SetOutcome:
        raise NotImplementedError

    @staticmethod
    def rng(seed: int, index: int) -> np.random.Generator:
        return np.random.default_rng([seed, index])


# -- the gas workloads ---------------------------------------------------------


def _timed_steps(stepper: AMRStepper, outcome: SetOutcome) -> None:
    """Time every ``stepper.step`` call, however the stepper is driven."""
    step = stepper.step

    def timed():
        start = clock()
        try:
            stats = step()
        finally:
            elapsed = clock() - start
            outcome.op_done(elapsed)
        outcome.keep(elapsed)
        outcome.steps += 1
        outcome.cells += stats.total_cells
        return stats

    stepper.step = timed


def _raised(exc: Exception, outcome: SetOutcome, tally: Tally) -> SetOutcome:
    """Account a gas set that raised: the steps completed before it
    succeeded, and the step, capture or analysis that raised is one
    failed operation."""
    tally.succeeded(outcome.steps)
    tally.raised(exc)
    _feed(outcome.digest, type(exc).__name__)
    return outcome


def _density_problem(hierarchy: AMRHierarchy) -> str | None:
    """None when every level's valid density is finite and positive."""
    g = hierarchy.nghost
    for level, spec in enumerate(hierarchy.levels):
        for arr in spec.data.data:
            valid = arr[0][tuple(slice(g, -g) for _ in arr.shape[1:])]
            if not np.all(np.isfinite(valid)):
                return f"non-finite density on level {level}"
            if not np.all(valid > 0):
                return f"non-positive density on level {level}"
    return None


class GasCapture(Workload):
    name = "gas_capture"
    steps = 50
    sets_per_s = 0.3  # a set takes ~3.4 reference-host seconds

    def build(self, seed: int, index: int) -> AMRStepper:
        rng = self.rng(seed, index)
        n = 32
        hierarchy = AMRHierarchy(
            Box((0, 0, 0), (n - 1, n // 2 - 1, n // 2 - 1)),
            ncomp=5, nghost=2, max_levels=2, nranks=16, max_box_size=8,
            dx0=1.0 / n, periodic=True,
        )
        solver = PolytropicGasSolver(
            tag_threshold=0.06,
            blast_pressure_jump=_band(rng, 20.0),
            blast_density_jump=_band(rng, 3.0),
            blast_radius=_band(rng, 0.15),
        )
        return AMRStepper(hierarchy, solver, regrid_interval=4)

    def execute(self, stepper: AMRStepper, tally: Tally,
                calibrator: Calibrator | None = None) -> SetOutcome:
        outcome = SetOutcome(calibrator=calibrator)
        _timed_steps(stepper, outcome)
        try:
            trace = capture.capture_trace(stepper, self.steps, name="bench-capture")
        except Exception as exc:
            return _raised(exc, outcome, tally)
        tally.succeeded(outcome.steps)
        try:
            trace.validate()
            problem = None if len(trace) == self.steps else "short trace"
        except Exception as exc:  # a failed validation is a wrong output
            problem = f"trace invalid: {exc}"
        problem = problem or _density_problem(stepper.hierarchy)
        if problem:
            tally.check_failed(outcome.steps, f"{self.name}: {problem}")
        for rec in trace.steps:
            _feed(outcome.digest, rec.step, rec.cells, rec.sim_work, rec.data_bytes,
                  rec.memory_bytes, rec.rank_bytes, rec.analysis_intensity)
        for spec in stepper.hierarchy.levels:
            for arr in spec.data.data:
                _feed(outcome.digest, arr)
        return outcome


class GasEntropy(Workload):
    name = "gas_entropy"
    sets_per_s = 0.2  # ~6.8 reference-host seconds
    n = 48
    steps = 25
    block = 8
    factor = 4

    def build(self, seed: int, index: int) -> AMRStepper:
        rng = self.rng(seed, index)
        n = self.n
        hierarchy = AMRHierarchy(
            Box((0, 0, 0), (n - 1, n - 1, n - 1)),
            ncomp=5, nghost=2, max_levels=2, max_box_size=16,
            dx0=1.0 / n, periodic=True,
        )
        solver = PolytropicGasSolver(
            tag_threshold=0.06,
            blast_pressure_jump=_band(rng, 30.0),
            blast_density_jump=_band(rng, 5.0),
            blast_radius=_band(rng, 0.15),
        )
        return AMRStepper(hierarchy, solver, regrid_interval=4)

    def execute(self, stepper: AMRStepper, tally: Tally,
                calibrator: Calibrator | None = None) -> SetOutcome:
        outcome = SetOutcome(calibrator=calibrator)
        _timed_steps(stepper, outcome)
        try:
            stepper.run(self.steps)
            low, high, area_ratio = self._fig6(stepper, outcome)
        except Exception as exc:
            return _raised(exc, outcome, tally)
        tally.succeeded(outcome.steps)
        if not (low < high and area_ratio > 0.8):
            tally.check_failed(
                outcome.steps,
                f"{self.name}: fig6 claim fails (low-entropy error {low:.4g} vs "
                f"high {high:.4g}, area ratio {area_ratio:.3f})")
        return outcome

    def _fig6(self, stepper: AMRStepper, outcome: SetOutcome) -> tuple[float, float, float]:
        """The Fig. 6 analysis of the final density: mean reconstruction
        error of the reduced (low-entropy) and kept blocks, and the
        isosurface area ratio of the reconstruction to the full field."""
        h = stepper.hierarchy
        field = h.levels[0].data.to_dense(h.level_domain(0))[0]
        blocks = (self.block,) * 3
        entropies = entropy.block_entropies(field, blocks, bins=256)
        threshold = float(0.5 * (entropies.min() + entropies.max()))
        factors = entropy.entropy_downsample_factors(
            entropies, thresholds=[threshold], factors=[self.factor, 1])
        errors = fidelity.blockwise_reconstruction_errors(field, blocks, self.factor)
        reduced = factors > 1
        recon = downsample.blockwise_stride_reconstruction(
            field, blocks, self.factor, block_mask=reduced)
        iso = float(np.percentile(field, 90))
        verts_f, tris_f = isosurface.extract_isosurface(field, iso)
        verts_r, tris_r = isosurface.extract_isosurface(recon, iso)
        full_area = isosurface.surface_area(verts_f, tris_f)
        area_ratio = isosurface.surface_area(verts_r, tris_r) / full_area
        low = float(np.mean(errors[reduced])) if reduced.any() else 0.0
        high = float(np.mean(errors[~reduced])) if (~reduced).any() else 0.0
        _feed(outcome.digest, entropies, errors, factors, area_ratio, len(tris_f),
              len(tris_r))
        return low, high, area_ratio


# -- the workflow workloads ----------------------------------------------------


#: Synthetic-trace seeds per workflow_grid set: 2 x 4 scales x 7 modes =
#: 56 runs.  A set's wall time then averages over its inputs, while the
#: garbage it leaves stays below a full (generation-2) collection, whose
#: ~20 ms pause would otherwise land in about ten runs per run of the
#: benchmark -- right where the tail percentile sits.
TRACE_SEEDS_PER_SET = 2


class WorkflowGrid(Workload):
    name = "workflow_grid"
    sets_per_s = 1.5  # ~0.4 reference-host seconds, inputs included

    def build(self, seed: int, index: int) -> list[tuple[WorkflowConfig, Any]]:
        rng = self.rng(seed, index)
        points = []
        for _ in range(TRACE_SEEDS_PER_SET):
            trace_seed = int(rng.integers(1 << 30))
            for k, scale in enumerate(SCALES):
                # A fresh cache per trace: with REPRO_NO_CACHE=1 it computes
                # directly, and it can never serve an earlier set's trace.
                trace = advection_trace(replace(scale, seed=trace_seed + k),
                                        cache=ExperimentCache())
                for mode in Mode:
                    config = WorkflowConfig(
                        mode=mode,
                        sim_cores=scale.sim_cores,
                        staging_cores=scale.staging_cores,
                        spec=titan(),
                        analysis_cost_per_cell=ANALYSIS_COST_PER_CELL,
                        preferences=UserPreferences(),
                        hints=default_hints() if mode is Mode.GLOBAL else UserHints(),
                    )
                    points.append((config, trace))
        return points

    def execute(self, points, tally: Tally,
                calibrator: Calibrator | None = None) -> SetOutcome:
        outcome = SetOutcome(calibrator=calibrator)
        for config, trace in points:
            _feed(outcome.digest, config.mode.value, config.sim_cores)
            start = clock()
            try:
                result = CoupledWorkflow(config, trace).run()
            except Exception as exc:
                outcome.op_done(clock() - start)
                tally.raised(exc)
                _feed(outcome.digest, type(exc).__name__)
                continue
            elapsed = clock() - start
            outcome.op_done(elapsed)
            tally.succeeded()
            try:
                result.validate()
            except Exception as exc:
                tally.check_failed(1, f"{self.name}: {config.mode.value} at "
                                   f"{config.sim_cores} cores: {exc}")
                continue
            outcome.keep(elapsed)
            outcome.steps += len(result.steps)
            outcome.cells += sum(rec.cells for rec in trace.steps)
            _feed(outcome.digest, result)
        return outcome


#: Shared pool of every fleet and the per-tenant profiles on it.
POOL_SIM_CORES = 4096
POOL_STAGING_CORES = 256
TENANTS = 16
USERS = 3
#: Steps of every tenant's trace in one fleet, drawn per fleet.  Fleets of
#: different lengths spread the operation latencies, so their median moves
#: smoothly with host speed instead of jumping between two narrow modes.
TENANT_STEPS = (6, 14)
#: Simulated seconds of queueing that count as starvation.
STARVATION_WAIT = 5.0
#: Bounded admission queue: a few arrivals per fleet are rejected.
MAX_QUEUE = 10
#: Tenant fleets per set, each run under every admission policy.
FLEETS_PER_SET = 3


class TenantFleet(Workload):
    name = "tenant_fleet"
    sets_per_s = 2.5  # ~0.24 reference-host seconds

    def build(self, seed: int, index: int) -> list[list[tuple]]:
        rng = self.rng(seed, index)
        return [self._fleet(rng) for _ in range(FLEETS_PER_SET)]

    @staticmethod
    def _fleet(rng: np.random.Generator) -> list[tuple]:
        arrivals = np.cumsum(rng.uniform(0.5, 1.5, TENANTS)) - 0.5
        trace_seed = int(rng.integers(1 << 30))
        steps = int(rng.integers(TENANT_STEPS[0], TENANT_STEPS[1] + 1))
        tenants = []
        for i in range(TENANTS):
            wide = i % 2 == 0
            config = WorkflowConfig(
                mode=Mode.GLOBAL,
                sim_cores=POOL_SIM_CORES // 2 if wide else POOL_SIM_CORES // 4,
                staging_cores=POOL_STAGING_CORES * 3 // 4 if wide
                else POOL_STAGING_CORES // 8,
                spec=titan(),
                analysis_cost_per_cell=0.035,
            )
            trace = synthetic.synthetic_amr_trace(
                synthetic.SyntheticAMRConfig(
                    steps=steps, nranks=256, base_cells=8e7,
                    sim_cost_per_cell=1.0, growth=1.5,
                    analysis_growth_exponent=1.0, seed=trace_seed + i,
                ),
                name=f"tenant-{i}",
            )
            tenants.append((f"tenant-{i}", config, trace, float(arrivals[i]),
                            f"user-{i % USERS}"))
        return tenants

    def execute(self, fleets, tally: Tally,
                calibrator: Calibrator | None = None) -> SetOutcome:
        outcome = SetOutcome(calibrator=calibrator)
        for tenants in fleets:
            for policy in ADMISSION_POLICIES:
                self._run_fleet(tenants, policy, outcome, tally)
        return outcome

    def _run_fleet(self, tenants, policy: str, outcome: SetOutcome,
                   tally: Tally) -> None:
        start = clock()
        try:
            service = WorkflowService(
                sim_cores=POOL_SIM_CORES, staging_cores=POOL_STAGING_CORES,
                policy=policy, starvation_wait=STARVATION_WAIT,
                max_queue=MAX_QUEUE,
            )
            for name, config, trace, arrival, user in tenants:
                service.submit(name, config, trace, arrival=arrival, user=user)
            report = service.run()
        except Exception as exc:
            outcome.op_done(clock() - start)
            tally.raised(exc)
            _feed(outcome.digest, policy, type(exc).__name__)
            return
        elapsed = clock() - start
        outcome.op_done(elapsed)
        tally.succeeded()
        seen = [t.name for t in report.tenants] + list(report.rejected)
        problem = None
        if len(seen) != len(set(seen)) or set(seen) != {t[0] for t in tenants}:
            problem = "submitted tenants not each reported or rejected once"
        else:
            try:
                for t in report.tenants:
                    t.result.validate()
            except Exception as exc:
                problem = f"tenant result invalid: {exc}"
        if problem:
            tally.check_failed(1, f"{self.name}: {policy}: {problem}")
            return
        outcome.keep(elapsed)
        traces = {t[0]: t[2] for t in tenants}
        for t in report.tenants:
            outcome.steps += len(t.result.steps)
            outcome.cells += sum(rec.cells for rec in traces[t.name].steps)
        _feed(outcome.digest, report.as_dict())


WORKLOADS: dict[str, Workload] = {
    w.name: w for w in (GasCapture(), GasEntropy(), WorkflowGrid(), TenantFleet())
}
