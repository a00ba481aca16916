"""Whole AMR runs reproduce pinned sha256 digests.

Three small runs exercise every communication plan of :mod:`repro.amr`
-- same-level exchange with and without periodic images, coarse-fine
ghost interpolation, regrid interior fill and data carry-over,
average-down and flux-register refluxing:

- a 3-D periodic Polytropic gas capture (``capture_trace`` step records,
  each step's ``halo_bytes`` and box counts, and the final level arrays);
- a 2-D non-periodic two-level advection run under :class:`AMRStepper`;
- the same advection problem under :class:`SubcycledStepper` with
  refluxing.

Four more pin the Polytropic gas paths the capture run does not take:

- 2-D periodic gas under ``AMRStepper(reflux=True)`` -- the per-box
  ``compute_fluxes`` + ``advance_with_fluxes`` path, including
  ``last_reflux_delta``;
- 3-D periodic first-order (``order=1``) gas;
- 2-D non-periodic gas under :class:`AMRStepper` and, without refluxing,
  under :class:`SubcycledStepper`.

The first three digests were recorded before the plans were compiled
from corner arrays, the gas-path digests before the MUSCL-HLL kernel was
made allocation-lean; any change to the solver path that alters a single
bit of a trace record, a halo byte count or a field value moves a digest.
"""

import hashlib

import numpy as np

from repro.amr.advection import AdvectionDiffusionSolver
from repro.amr.box import Box
from repro.amr.godunov import PolytropicGasSolver
from repro.amr.hierarchy import AMRHierarchy
from repro.amr.stepper import AMRStepper
from repro.amr.subcycle import SubcycledStepper
from repro.workload.capture import capture_trace

GAS_CAPTURE = (
    "3274991140ef4d07d9417e357b8b84cd748eeaf11c347a6a7a69f566d3c65399"
)
ADVECTION = (
    "9b85c84d822c97bbc7effc7796e31ed5f98f8bacaa60d16c1cdea65f9e580cb3"
)
ADVECTION_SUBCYCLED_REFLUX = (
    "c6b021a693d0323c60b53b2897216c302a567d8e7d5ca2d076bf1eb9bee15906"
)
GAS_REFLUX_2D = (
    "cf91899002da9e5ebfde6fbae33ada3014a845c827846b1f006ce797256d42a5"
)
GAS_ORDER1_3D = (
    "174f0968740a34efa2d5120b258df6e1a25b16525025bf0fd1c75509cd982aac"
)
GAS_NONPERIODIC_2D = (
    "43dd6bcc3b9976be961bb0bc5ad84358bcbe0d059877a280ff0b3da093dad430"
)
GAS_NONPERIODIC_2D_SUBCYCLED = (
    "0cdb1e6f2c62d61956efb525052e416fcc472d5687eb2d3acdd5f32e2f3ae25f"
)


def _feed(h, *values):
    for v in values:
        h.update(np.ascontiguousarray(np.asarray(v, dtype=np.float64)).tobytes())


def _feed_stats(h, stepper):
    for stats in stepper.history:
        _feed(h, stats.step, stats.time, stats.dt, stats.halo_bytes,
              stats.total_cells, stats.state_bytes, stats.rank_bytes,
              stats.cells_per_level, stats.boxes_per_level)


def _feed_levels(h, hierarchy):
    for spec in hierarchy.levels:
        for box, arr in zip(spec.layout, spec.data.data):
            _feed(h, box.lo, box.hi, arr)


def gas_capture_digest() -> str:
    hierarchy = AMRHierarchy(
        Box((0, 0, 0), (15, 7, 7)), ncomp=5, nghost=2, max_levels=2,
        nranks=4, max_box_size=4, dx0=1.0 / 16, periodic=True,
    )
    solver = PolytropicGasSolver(tag_threshold=0.06)
    stepper = AMRStepper(hierarchy, solver, regrid_interval=4)
    trace = capture_trace(stepper, 10, name="golden")
    h = hashlib.sha256()
    for rec in trace.steps:
        _feed(h, rec.step, rec.sim_work, rec.cells, rec.data_bytes,
              rec.memory_bytes, rec.rank_bytes, rec.analysis_intensity)
    _feed_stats(h, stepper)
    _feed_levels(h, hierarchy)
    return h.hexdigest()


def _advection_hierarchy() -> AMRHierarchy:
    return AMRHierarchy(
        Box((0, 0), (31, 23)), ncomp=1, nghost=2, max_levels=2, nranks=3,
        max_box_size=8, tag_buffer=1, dx0=1.0 / 32, periodic=False,
    )


def _advection_solver() -> AdvectionDiffusionSolver:
    return AdvectionDiffusionSolver(
        (1.0, 0.6), nu=0.001, tag_threshold=0.02,
        blob_center=(0.3, 0.35), blob_radius=0.12,
    )


def advection_digest(subcycled: bool) -> str:
    hierarchy = _advection_hierarchy()
    if subcycled:
        stepper = SubcycledStepper(hierarchy, _advection_solver(),
                                   regrid_interval=3, reflux=True)
    else:
        stepper = AMRStepper(hierarchy, _advection_solver(), regrid_interval=3)
    stepper.run(12)
    h = hashlib.sha256()
    _feed_stats(h, stepper)
    _feed(h, stepper.last_reflux_delta)
    _feed_levels(h, hierarchy)
    return h.hexdigest()


def _gas_hierarchy(shape, periodic: bool) -> AMRHierarchy:
    return AMRHierarchy(
        Box(tuple(0 for _ in shape), tuple(n - 1 for n in shape)),
        ncomp=len(shape) + 2, nghost=2, max_levels=2, nranks=3,
        max_box_size=8, dx0=1.0 / shape[0], periodic=periodic,
    )


def gas_digest(shape, periodic=True, order=2, reflux=False,
               subcycled=False, nsteps=8) -> str:
    hierarchy = _gas_hierarchy(shape, periodic)
    solver = PolytropicGasSolver(order=order, tag_threshold=0.06)
    if subcycled:
        stepper = SubcycledStepper(hierarchy, solver, regrid_interval=3,
                                   reflux=reflux)
    else:
        stepper = AMRStepper(hierarchy, solver, regrid_interval=3,
                             reflux=reflux)
    stepper.run(nsteps)
    h = hashlib.sha256()
    _feed_stats(h, stepper)
    _feed(h, stepper.last_reflux_delta)
    _feed_levels(h, hierarchy)
    return h.hexdigest()


class TestGoldenAMRDigests:
    def test_gas_capture_3d_periodic(self):
        assert gas_capture_digest() == GAS_CAPTURE

    def test_advection_2d_nonperiodic(self):
        assert advection_digest(subcycled=False) == ADVECTION

    def test_advection_2d_subcycled_reflux(self):
        assert advection_digest(subcycled=True) == ADVECTION_SUBCYCLED_REFLUX

    def test_gas_2d_periodic_reflux(self):
        assert gas_digest((32, 24), reflux=True) == GAS_REFLUX_2D

    def test_gas_3d_periodic_order1(self):
        assert gas_digest((16, 8, 8), order=1, nsteps=6) == GAS_ORDER1_3D

    def test_gas_2d_nonperiodic(self):
        assert gas_digest((32, 24), periodic=False) == GAS_NONPERIODIC_2D

    def test_gas_2d_nonperiodic_subcycled(self):
        assert (gas_digest((32, 24), periodic=False, subcycled=True)
                == GAS_NONPERIODIC_2D_SUBCYCLED)
