"""Berger-Oliger subcycled time stepping.

Chombo advances each level with its own time step: the coarse level takes
one step of ``dt``, then each finer level takes ``ref_ratio`` steps of
``dt / ref_ratio``, recursively.  Compared to the non-subcycled
:class:`~repro.amr.stepper.AMRStepper` this removes the global CFL
penalty -- a deeply refined hierarchy no longer forces tiny steps on the
coarse grid.

Implementation notes:

- Fine-level ghost cells at substep ``k`` are interpolated *in time*
  between the coarse solution at the start and end of the coarse step
  (linear interpolation, Chombo's default).
- Flux registers accumulate the coarse flux once (weight ``dt``) and the
  fine fluxes per substep (weight ``dt / r``); the correction is applied
  after the fine sweeps, then the fine solution is averaged down.
- Regridding happens between coarse steps.
"""

from __future__ import annotations

import numpy as np

from repro.amr.hierarchy import AMRHierarchy
from repro.amr.stepper import AMRApplication, AMRStepper, StepStats
from repro.errors import HierarchyError

__all__ = ["SubcycledStepper"]


class SubcycledStepper(AMRStepper):
    """Recursive Berger-Oliger stepper; one :meth:`step` = one coarse step."""

    def __init__(
        self,
        hierarchy: AMRHierarchy,
        app: AMRApplication,
        regrid_interval: int = 4,
        initialize: bool = True,
        reflux: bool = True,
    ):
        super().__init__(
            hierarchy,
            app,
            regrid_interval=regrid_interval,
            initialize=initialize,
            reflux=reflux,
        )
        self._halo_bytes = 0
        self._work = 0.0
        # Coarse solution at the start of the current coarse step, per
        # level, for the time interpolation of fine ghosts.
        self._old_state: dict[int, list[np.ndarray]] = {}

    # -- time step selection ------------------------------------------------

    def coarse_dt(self) -> float:
        """Largest level-0 step stable for every level under subcycling.

        Level ``l`` runs at ``dt0 / r^l``, so each level's own CFL limit,
        scaled back to level 0, must hold.
        """
        h = self.hierarchy
        ndim = h.domain.ndim
        dt = np.inf
        for level, spec in enumerate(h.levels):
            level_dt = self.app.stable_dt_level(spec, h.dx(level), ndim)  # type: ignore[attr-defined]
            dt = min(dt, level_dt * h.ref_ratio**level)
        if not np.isfinite(dt):
            raise HierarchyError("no finite CFL limit for subcycled step")
        return float(dt)

    # -- stepping ------------------------------------------------------------

    def step(self) -> StepStats:
        """Advance the hierarchy by one coarse step (fine levels subcycle)."""
        h = self.hierarchy
        dt = self.coarse_dt()
        self._halo_bytes = 0
        self._work = 0.0
        self.last_reflux_delta = 0.0
        self._advance_level(0, dt, theta=None)
        self.step_count += 1
        self.time += dt

        regridded = False
        if self.regrid_interval and self.step_count % self.regrid_interval == 0:
            regridded = self._do_regrid()

        stats = self._collect(dt, self._halo_bytes, regridded, self._work)
        self.history.append(stats)
        return stats

    def _advance_level(self, level: int, dt: float, theta: float | None) -> None:
        h = self.hierarchy
        spec = h.levels[level]
        dx = h.dx(level)

        self._fill_ghosts_interp(level, theta)
        has_finer = level < h.finest_level
        if has_finer:
            # Save the pre-step state for fine ghost time interpolation.
            self._old_state[level] = [arr.copy() for arr in spec.data.data]

        dense = self._advance_level_boxes(level, dt)
        self._work += spec.layout.total_cells * self.app.work_per_cell()

        register = None
        if self.reflux and has_finer:
            register = self._register_for(level)
            register.reset()
            for axis in range(h.domain.ndim):
                register.add_coarse(axis, dense[axis], dt)
        if self.reflux and level > 0:
            # This level's fluxes are the fine side of the parent's register,
            # which the parent's sweep has just reset.
            parent_register = self._register_for(level - 1)
            for axis in range(h.domain.ndim):
                parent_register.add_fine(axis, dense[axis], dt)

        if has_finer:
            r = h.ref_ratio
            for k in range(r):
                # Fine ghosts at substep k live at t + (k/r) * dt.
                self._advance_level(level + 1, dt / r, theta=k / r)
            h.average_down_pair(level + 1)
            if register is not None:
                self.last_reflux_delta = max(
                    self.last_reflux_delta,
                    register.apply(spec.data, dx),
                )

    def _fill_ghosts_interp(self, level: int, theta: float | None) -> None:
        """Ghost fill with linear time interpolation of the coarse data."""
        h = self.hierarchy
        if level == 0 or theta is None or (level - 1) not in self._old_state:
            self._halo_bytes += h.fill_ghosts(level)
            return
        coarse = h.levels[level - 1].data
        old = self._old_state[level - 1]
        if len(old) != len(coarse.data):
            # Layout changed mid-step (cannot happen in a well-formed run,
            # but never interpolate across different layouts).
            self._halo_bytes += h.fill_ghosts(level)
            return
        current = [arr.copy() for arr in coarse.data]
        # The ghost substep needs coarse data at t + theta*dt_coarse; the
        # arrays currently hold t + dt_coarse.
        for arr, old_arr in zip(coarse.data, old):
            arr[...] = (1.0 - theta) * old_arr + theta * arr
        try:
            self._halo_bytes += h.fill_ghosts(level)
        finally:
            for arr, cur in zip(coarse.data, current):
                arr[...] = cur

