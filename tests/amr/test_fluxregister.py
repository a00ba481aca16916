"""Tests for flux registers and coarse-fine refluxing."""

import numpy as np
import pytest

from repro.amr.advection import AdvectionDiffusionSolver
from repro.amr.box import Box
from repro.amr.fluxregister import FluxRegister, assemble_dense_fluxes
from repro.amr.hierarchy import AMRHierarchy
from repro.amr.layout import BoxLayout
from repro.amr.level import LevelData
from repro.amr import stepper as stepper_mod
from repro.amr import subcycle as subcycle_mod
from repro.amr.stepper import AMRStepper
from repro.amr.subcycle import SubcycledStepper
from repro.errors import HierarchyError


def refined_hierarchy(n=32, frac=0.3):
    """A 2-level hierarchy refined around the blob's initial position."""
    h = AMRHierarchy(
        Box((0, 0), (n - 1, n - 1)), ncomp=1, nghost=2, max_levels=2,
        max_box_size=16, dx0=1.0 / n, periodic=True,
    )
    mask = np.zeros((n, n), dtype=bool)
    lo = int(n * (0.35 - frac / 2))
    hi = int(n * (0.35 + frac / 2))
    mask[lo:hi, lo:hi] = True
    h.regrid({0: mask})
    assert h.finest_level == 1
    return h


def total_integral(h):
    """Composite integral: coarse cells, with covered regions from the fine
    level (valid after average_down)."""
    dense = h.levels[0].data.to_dense(h.level_domain(0))
    return float(dense.sum()) * h.dx(0) ** 2


class TestFluxRegisterGeometry:
    def test_boundary_faces_of_square_patch(self):
        domain = Box((0, 0), (15, 15))
        fine = [Box((4, 4), (7, 7))]  # coarsened fine region: 4x4 cells
        register = FluxRegister(domain, fine, ncomp=1, ref_ratio=2,
                                periodic=False)
        # A 4x4 patch has 4 boundary faces per side per axis.
        assert register.boundary_face_count == 16

    def test_periodic_patch_touching_boundary(self):
        domain = Box((0, 0), (15, 15))
        fine = [Box((0, 4), (3, 7))]  # touches the low-x domain edge
        register = FluxRegister(domain, fine, ncomp=1, ref_ratio=2,
                                periodic=True)
        # x-axis: 4 interior faces at x=4 plus 4 wrap faces at x=0;
        # y-axis: 4 + 4.
        assert register.boundary_face_count == 16

    def test_nonperiodic_patch_touching_boundary(self):
        domain = Box((0, 0), (15, 15))
        fine = [Box((0, 4), (3, 7))]
        register = FluxRegister(domain, fine, ncomp=1, ref_ratio=2,
                                periodic=False)
        # No wrap faces: only the x=4 side along x.
        assert register.boundary_face_count == 12

    def test_fine_box_outside_domain_rejected(self):
        domain = Box((0, 0), (15, 15))
        with pytest.raises(HierarchyError):
            FluxRegister(domain, [Box((20, 20), (23, 23))], 1, 2)

    def test_bad_ratio_rejected(self):
        with pytest.raises(HierarchyError):
            FluxRegister(Box((0, 0), (7, 7)), [Box((0, 0), (1, 1))], 1, 1)


class TestAssembleDenseFluxes:
    def test_shapes_and_values(self):
        layout = BoxLayout([Box((0, 0), (3, 7)), Box((4, 0), (7, 7))])
        data = LevelData(layout, ncomp=1, nghost=2)
        solver = AdvectionDiffusionSolver((1.0, 0.0))
        data.fill(2.0)
        box_fluxes = [solver.compute_fluxes(arr, 1.0) for arr in data.data]
        dense = assemble_dense_fluxes(data, box_fluxes, Box((0, 0), (7, 7)))
        assert dense[0].shape == (1, 9, 8)
        assert dense[1].shape == (1, 8, 9)
        # Constant field, v=(1,0): x-flux = 2 everywhere, y-flux = 0.
        np.testing.assert_allclose(dense[0], 2.0)
        np.testing.assert_allclose(dense[1], 0.0)


class TestRefluxConservation:
    def _drift(self, reflux: bool, steps=20):
        h = refined_hierarchy()
        solver = AdvectionDiffusionSolver((1.0, 0.7), nu=0.0,
                                          blob_center=(0.35, 0.35),
                                          blob_radius=0.12)
        stepper = AMRStepper(h, solver, regrid_interval=0, reflux=reflux)
        before = total_integral(h)
        stepper.run(steps)
        after = total_integral(h)
        return abs(after - before) / before, stepper

    def test_reflux_restores_conservation(self):
        drift_without, _ = self._drift(reflux=False)
        drift_with, stepper = self._drift(reflux=True)
        # Without refluxing the coarse-fine interface leaks mass as the
        # blob crosses it; with refluxing the composite integral is
        # conserved to round-off.
        assert drift_without > 1e-8
        assert drift_with < 1e-12
        assert stepper.last_reflux_delta > 0.0

    def test_reflux_matches_single_level_when_no_fine(self):
        n = 16
        h = AMRHierarchy(Box((0, 0), (n - 1, n - 1)), ncomp=1, nghost=2,
                         max_levels=1, dx0=1.0 / n, periodic=True)
        solver = AdvectionDiffusionSolver((1.0, 0.0))
        stepper = AMRStepper(h, solver, regrid_interval=0, reflux=True)
        stats = stepper.run(5)
        assert stepper.last_reflux_delta == 0.0
        assert len(stats) == 5

    def test_reflux_requires_flux_form_solver(self):
        class NoFluxSolver:
            nghost = 2

            def initialize(self, h):
                pass

        h = refined_hierarchy()
        with pytest.raises(HierarchyError):
            AMRStepper(h, NoFluxSolver(), regrid_interval=0, reflux=True,
                       initialize=False)

    def test_reflux_keeps_solution_close_to_unrefluxed(self):
        # The correction is a boundary-layer fix, not a rewrite: interior
        # solutions must remain close over a short run.
        h1 = refined_hierarchy()
        h2 = refined_hierarchy()
        mk = lambda: AdvectionDiffusionSolver((1.0, 0.7),
                                              blob_center=(0.35, 0.35),
                                              blob_radius=0.12)
        s1 = AMRStepper(h1, mk(), regrid_interval=0, reflux=False)
        s2 = AMRStepper(h2, mk(), regrid_interval=0, reflux=True)
        s1.run(10)
        s2.run(10)
        d1 = h1.levels[0].data.to_dense(h1.level_domain(0))
        d2 = h2.levels[0].data.to_dense(h2.level_domain(0))
        assert np.abs(d1 - d2).max() < 0.05


def _covered_mask(h):
    """Coarse cells under the coarsened fine boxes of level 1."""
    mask = np.zeros(h.domain.shape, dtype=bool)
    for box in h.levels[1].layout:
        mask[box.coarsen(h.ref_ratio).slices(origin=h.domain)] = True
    return mask


class TestRegisterCache:
    @pytest.mark.parametrize("stepper_cls", [AMRStepper, SubcycledStepper])
    def test_recycled_layout_id_rebuilds_register(self, stepper_cls, monkeypatch):
        # A level dropped and re-created may get a layout at a freed
        # object's address.  Make every id collide, the worst case of that
        # reuse: the register must still follow the current fine layout.
        monkeypatch.setattr(stepper_mod, "id", lambda obj: 0, raising=False)
        monkeypatch.setattr(subcycle_mod, "id", lambda obj: 0, raising=False)
        used = []
        apply = FluxRegister.apply

        def spy(register, coarse, dx):
            used.append(register)
            return apply(register, coarse, dx)

        monkeypatch.setattr(FluxRegister, "apply", spy)
        h = refined_hierarchy()
        solver = AdvectionDiffusionSolver((1.0, 0.5), blob_center=(0.35, 0.35))
        solver.initialize(h)
        stepper = stepper_cls(h, solver, regrid_interval=0, initialize=False,
                              reflux=True)
        stepper.step()
        old_layout = h.levels[1].layout
        mask = np.zeros(h.domain.shape, dtype=bool)
        mask[18:26, 4:12] = True
        h.regrid({0: mask})
        assert h.levels[1].layout is not old_layout
        used.clear()
        stepper.step()
        assert used
        expected = _covered_mask(h)
        for register in used:
            assert np.array_equal(register.mask, expected)
