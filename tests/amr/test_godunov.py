"""Tests for the polytropic-gas (Euler) Godunov solver."""

import numpy as np
import pytest

from repro.amr.box import Box
from repro.amr.godunov import PolytropicGasSolver
from repro.amr.hierarchy import AMRHierarchy
from repro.amr.stepper import AMRStepper
from repro.errors import GeometryError


def gas_hierarchy(n=32, ndim=2, max_levels=1, periodic=True):
    domain = Box(tuple(0 for _ in range(ndim)), tuple(n - 1 for _ in range(ndim)))
    return AMRHierarchy(
        domain, ncomp=ndim + 2, nghost=2, max_levels=max_levels,
        max_box_size=16, dx0=1.0 / n, periodic=periodic,
    )


class TestConfig:
    def test_bad_params_rejected(self):
        with pytest.raises(GeometryError):
            PolytropicGasSolver(gamma=1.0)
        with pytest.raises(GeometryError):
            PolytropicGasSolver(cfl=1.5)
        with pytest.raises(GeometryError):
            PolytropicGasSolver(order=3)

    def test_ncomp_requires_initialization(self):
        solver = PolytropicGasSolver()
        with pytest.raises(GeometryError):
            _ = solver.ncomp

    def test_ncomp_mismatch_detected(self):
        h = gas_hierarchy(ndim=2)
        bad = AMRHierarchy(Box((0, 0), (31, 31)), ncomp=3, nghost=2,
                           max_levels=1, dx0=1.0 / 32)
        solver = PolytropicGasSolver()
        with pytest.raises(GeometryError):
            solver.initialize(bad)
        solver.initialize(h)
        assert solver.ncomp == 4



class TestStableDt:
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_wave_speed_raises(self, bad):
        h = gas_hierarchy(n=32)
        solver = PolytropicGasSolver()
        stepper = AMRStepper(h, solver, regrid_interval=0)
        assert len(h.levels[0].layout) == 4
        h.levels[0].data.valid_view(2)[0][3, 5] = bad
        before = [arr.copy() for arr in h.levels[0].data.data]
        with np.errstate(invalid="ignore"):  # inf * 0 in the kinetic energy
            with pytest.raises(GeometryError, match="box 2"):
                solver.stable_dt(h)
            with pytest.raises(GeometryError, match="box 2"):
                stepper.step()
        # The step stopped before advancing any box.
        for arr, old in zip(h.levels[0].data.data, before):
            assert np.array_equal(arr, old, equal_nan=True)

class TestPrimitives:
    def test_roundtrip(self):
        solver = PolytropicGasSolver(gamma=1.4)
        U = np.zeros((4, 3, 3))
        U[0] = 2.0  # rho
        U[1] = 2.0 * 0.5  # rho*u
        U[2] = 0.0
        p_set = 1.5
        U[3] = p_set / 0.4 + 0.5 * 2.0 * 0.25
        rho, vel, p = solver.primitives(U)
        np.testing.assert_allclose(rho, 2.0)
        np.testing.assert_allclose(vel[0], 0.5)
        np.testing.assert_allclose(p, p_set)

    def test_pressure_floor(self):
        solver = PolytropicGasSolver()
        U = np.zeros((4, 2, 2))
        U[0] = 1.0
        U[3] = -5.0  # unphysical
        _, _, p = solver.primitives(U)
        assert (p > 0).all()

    def test_sound_speed_ambient(self):
        solver = PolytropicGasSolver(gamma=1.4)
        U = np.zeros((4, 2, 2))
        U[0] = 1.0
        U[3] = 1.0 / 0.4
        np.testing.assert_allclose(solver.sound_speed(U), np.sqrt(1.4), rtol=1e-12)


class TestConservation:
    @pytest.mark.parametrize("order", [1, 2])
    def test_mass_momentum_energy_conserved_periodic(self, order):
        h = gas_hierarchy(n=32)
        solver = PolytropicGasSolver(order=order)
        stepper = AMRStepper(h, solver, regrid_interval=0)
        dense0 = h.levels[0].data.to_dense(h.level_domain(0))
        totals0 = dense0.reshape(4, -1).sum(axis=1)
        stepper.run(10)
        dense1 = h.levels[0].data.to_dense(h.level_domain(0))
        totals1 = dense1.reshape(4, -1).sum(axis=1)
        # Mass and energy conserved tightly; momentum stays ~0 by symmetry.
        assert totals1[0] == pytest.approx(totals0[0], rel=1e-12)
        assert totals1[3] == pytest.approx(totals0[3], rel=1e-10)
        assert abs(totals1[1]) < 1e-8
        assert abs(totals1[2]) < 1e-8

    def test_positivity_through_blast(self):
        h = gas_hierarchy(n=32)
        solver = PolytropicGasSolver(blast_pressure_jump=100.0)
        stepper = AMRStepper(h, solver, regrid_interval=0)
        stepper.run(30)
        dense = h.levels[0].data.to_dense(h.level_domain(0))
        rho, vel, p = solver.primitives(dense)
        assert (rho > 0).all()
        assert (p > 0).all()
        assert np.isfinite(dense).all()


class TestBlastPhysics:
    def test_shock_expands_outward(self):
        n = 48
        h = gas_hierarchy(n=n)
        solver = PolytropicGasSolver()
        stepper = AMRStepper(h, solver, regrid_interval=0)

        def shock_radius():
            # Outermost cell whose pressure exceeds ambient by 10%: the
            # forward shock front.
            dense = h.levels[0].data.to_dense(h.level_domain(0))
            _, _, p = solver.primitives(dense)
            ys, xs = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
            r = np.hypot((ys + 0.5) / n - 0.5, (xs + 0.5) / n - 0.5)
            return r[p > 1.1].max()

        r0 = shock_radius()
        stepper.run(15)
        r1 = shock_radius()
        assert r1 > r0

    def test_quadrant_symmetry_preserved(self):
        n = 32
        h = gas_hierarchy(n=n)
        solver = PolytropicGasSolver()
        stepper = AMRStepper(h, solver, regrid_interval=0)
        stepper.run(10)
        rho = h.levels[0].data.to_dense(h.level_domain(0))[0]
        np.testing.assert_allclose(rho, rho[::-1, :], atol=1e-9)
        np.testing.assert_allclose(rho, rho[:, ::-1], atol=1e-9)
        np.testing.assert_allclose(rho, rho.T, atol=1e-9)

    def test_sod_shock_tube_structure(self):
        """1-D Sod problem: density must remain monotone non-increasing
        across the classic left-to-right wave structure, bounded by the
        initial states, with an intermediate plateau."""
        n = 128
        domain = Box((0,), (n - 1,))
        h = AMRHierarchy(domain, ncomp=3, nghost=2, max_levels=1,
                         max_box_size=64, dx0=1.0 / n, periodic=False)
        solver = PolytropicGasSolver(gamma=1.4, order=2)
        solver._ndim = 1

        def sod(x):
            left = x < 0.5
            rho = np.where(left, 1.0, 0.125)
            p = np.where(left, 1.0, 0.1)
            out = np.zeros((3, *x.shape))
            out[0] = rho
            out[2] = p / 0.4
            return out

        h.levels[0].data.set_from_function(sod, dx=h.dx0)
        stepper = AMRStepper(h, solver, regrid_interval=0, initialize=False)
        while stepper.time < 0.15:
            stepper.step()
        rho = h.levels[0].data.to_dense(h.level_domain(0))[0]
        assert rho.max() <= 1.0 + 1e-6
        assert rho.min() >= 0.125 - 1e-6
        # Contact/shock plateau: density near the known star-region value
        # (~0.426 left of contact, ~0.266 right) must appear.
        assert np.any(np.abs(rho - 0.426) < 0.05)
        assert np.any(np.abs(rho - 0.266) < 0.05)

    def test_blast_drives_refinement_growth(self):
        h = gas_hierarchy(n=32, max_levels=2)
        solver = PolytropicGasSolver(tag_threshold=0.05)
        stepper = AMRStepper(h, solver, regrid_interval=2)
        cells0 = h.total_cells()
        stepper.run(12)
        assert h.finest_level == 1
        # The expanding shock surface grows the refined region.
        assert h.total_cells() > cells0

    def test_memory_bytes_grow_with_refinement(self):
        h = gas_hierarchy(n=32, max_levels=2)
        solver = PolytropicGasSolver(tag_threshold=0.05)
        stepper = AMRStepper(h, solver, regrid_interval=2)
        stats = stepper.run(12)
        assert stats[-1].state_bytes > stats[0].state_bytes * 0.9
        assert any(s.regridded for s in stats)
