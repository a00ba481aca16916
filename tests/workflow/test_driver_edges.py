"""Edge-path coverage for the workflow driver."""

import numpy as np
import pytest

from repro.core.actions import Placement
from repro.hpc.systems import titan
from repro.workflow.config import Mode, WorkflowConfig
from repro.workflow.driver import CoupledWorkflow, run_workflow
from repro.workload.synthetic import SyntheticAMRConfig, synthetic_amr_trace
from repro.workload.trace import StepRecord, WorkloadTrace


def trace(steps=8, nranks=64):
    return synthetic_amr_trace(
        SyntheticAMRConfig(steps=steps, nranks=nranks, base_cells=2e7,
                           sim_cost_per_cell=1.0, seed=0)
    )


class TestRankScaling:
    def test_trace_ranks_fewer_than_cores(self):
        """A rank stands for a core group: per-rank memory capacity scales."""
        t = trace(nranks=64)
        config = WorkflowConfig(mode=Mode.ADAPTIVE_MIDDLEWARE, sim_cores=1024,
                                staging_cores=64, spec=titan(),
                                analysis_cost_per_cell=0.035)
        wf = CoupledWorkflow(config, t)
        assert wf.rank_memory_capacity == pytest.approx(
            titan().memory_per_core * 1024 / 64
        )
        result = wf.run()
        assert all(m.analysis_done_at is not None for m in result.steps)

    def test_trace_ranks_equal_cores(self):
        t = trace(nranks=128)
        config = WorkflowConfig(mode=Mode.STATIC_INSITU, sim_cores=128,
                                staging_cores=8, spec=titan())
        wf = CoupledWorkflow(config, t)
        assert wf.rank_memory_capacity == pytest.approx(titan().memory_per_core)


class TestMemoryPressurePlacement:
    def test_insitu_infeasible_forces_intransit(self):
        """When the peak rank has no analysis headroom, case 1 of the
        middleware policy must ship the step even if staging is busy."""
        nranks = 8
        cells = int(4e7)  # 320 MB output -> 40 MB on the peak rank
        # Per-rank simulation state nearly fills the rank's memory,
        # leaving ~10 MB of headroom -- less than the analysis needs.
        capacity = titan().memory_per_core  # 2 GiB
        records = []
        for step in range(1, 7):
            rank_bytes = np.full(nranks, capacity * 0.995)
            records.append(StepRecord(
                step=step,
                sim_work=cells * 8.0,
                cells=cells,
                data_bytes=cells * 8.0,
                memory_bytes=float(rank_bytes.sum()),
                rank_bytes=rank_bytes,
            ))
        t = WorkloadTrace("pressure", 3, nranks, 8.0, records)
        config = WorkflowConfig(mode=Mode.ADAPTIVE_MIDDLEWARE, sim_cores=8,
                                staging_cores=4, spec=titan(),
                                analysis_cost_per_cell=0.5,
                                insitu_memory_factor=1.0)
        result = run_workflow(config, t)
        counts = result.placement_counts()
        assert counts[Placement.IN_SITU] == 0
        assert counts[Placement.IN_TRANSIT] == 6

    def test_global_reduction_restores_insitu_feasibility(self):
        """With the application layer allowed to reduce, the same
        memory-pressured workload can analyse in-situ again."""
        from repro.core.preferences import UserHints

        nranks = 8
        cells = int(4e6)
        capacity = titan().memory_per_core
        records = []
        for step in range(1, 7):
            rank_bytes = np.full(nranks, capacity * 0.9)
            records.append(StepRecord(
                step=step,
                sim_work=cells * 8.0,
                cells=cells,
                data_bytes=cells * 8.0,
                memory_bytes=float(rank_bytes.sum()),
                rank_bytes=rank_bytes,
                analysis_intensity=5.0,  # staging overloaded -> wants in-situ
            ))
        t = WorkloadTrace("pressure2", 3, nranks, 8.0, records)
        config = WorkflowConfig(
            mode=Mode.GLOBAL, sim_cores=8, staging_cores=4, spec=titan(),
            analysis_cost_per_cell=0.5,
            hints=UserHints(downsample_phases=((1, (4, 8)),)),
        )
        result = run_workflow(config, t)
        assert all(m.factor >= 4 for m in result.steps)
        assert all(m.analysis_done_at is not None for m in result.steps)


class TestStaticModesIgnoreHints:
    def test_static_insitu_never_reduces(self):
        from repro.core.preferences import UserHints

        config = WorkflowConfig(
            mode=Mode.STATIC_INSITU, sim_cores=256, staging_cores=16,
            spec=titan(),
            hints=UserHints(downsample_phases=((1, (2, 4)),)),
        )
        result = run_workflow(config, trace())
        assert all(m.factor == 1 for m in result.steps)
        assert all(m.data_bytes_out == m.data_bytes_full for m in result.steps)


class TestQueuedWorkResidue:
    @pytest.mark.parametrize(
        "mode", [Mode.ADAPTIVE_RESOURCE, Mode.ADAPTIVE_APPLICATION]
    )
    def test_table2_run_completes(self, mode):
        # The 8K-core Table-2 scale with trace seed 1 drains the staging
        # queue to a negative float residue; its monitor snapshot used to
        # raise PolicyError "est_intransit_remaining must be non-negative".
        from dataclasses import replace

        from repro.experiments.cache import ExperimentCache
        from repro.experiments.common import (
            ANALYSIS_COST_PER_CELL,
            SCALES,
            advection_trace,
        )

        scale = replace(SCALES[2], seed=1)
        config = WorkflowConfig(
            mode=mode, sim_cores=scale.sim_cores,
            staging_cores=scale.staging_cores, spec=titan(),
            analysis_cost_per_cell=ANALYSIS_COST_PER_CELL,
        )
        workload = advection_trace(scale, cache=ExperimentCache())
        result = run_workflow(config, workload)
        result.validate()
        assert len(result.steps) == scale.steps
