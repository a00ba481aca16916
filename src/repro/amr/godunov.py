"""Polytropic gas (Euler) solver with an unsplit Godunov scheme.

The paper's second, memory- and compute-intensive Chombo application:
``AMRGodunov PolytropicGas`` integrates the Euler equations of gas
dynamics with a gamma-law equation of state.  This module implements an
unsplit finite-volume update with MUSCL (minmod-limited) reconstruction
and HLL fluxes -- per-box, fully vectorized over cells, in 1/2/3-D.

Conserved state layout (component axis first):

====== ======================
index  quantity
====== ======================
0      density ``rho``
1..d   momentum ``rho * v_k``
d+1    total energy ``E``
====== ======================

Initial condition: a dense, hot spherical region (a blast/explosion
problem).  As the blast expands, the shock surface grows, and with it the
refined region -- reproducing the erratic memory growth of the paper's
Figure 1.
"""

from __future__ import annotations

import numpy as np

from repro.amr.hierarchy import AMRHierarchy
from repro.amr.tagging import tag_undivided_difference
from repro.errors import GeometryError

__all__ = ["PolytropicGasSolver"]

_RHO_FLOOR = 1e-10
_P_FLOOR = 1e-12


def _shape_groups(arrays) -> list[list[int]]:
    """Indices of ``arrays`` grouped by shape, preserving first-seen order."""
    groups: dict[tuple[int, ...], list[int]] = {}
    for i, arr in enumerate(arrays):
        groups.setdefault(arr.shape, []).append(i)
    return list(groups.values())


# Cells per batched solver call (ghosted cells in `advance_boxes`), sized
# so the update runs out of L2.  At 2^14 cells a 5-component float64
# temporary is 640 KiB, so the two or three operands of one ufunc call fit
# a 2 MiB per-core L2 together; at 2^17 a single temporary is 5 MiB and
# every call streams from L3.  Smaller caps pay NumPy's per-call overhead
# on fewer cells: at 2^13 a 16^3 box (20^3 = 8000 ghosted cells) is
# already a batch of its own.  The measured sweep and how to re-run it
# are in docs/performance.md.
_BATCH_CELLS = 1 << 14


def _batches(indices: list[int], cells_per_box: int) -> list[list[int]]:
    """Split one same-shape group into cache-sized chunks."""
    per = max(1, _BATCH_CELLS // max(1, cells_per_box))
    return [indices[k : k + per] for k in range(0, len(indices), per)]


class PolytropicGasSolver:
    """Euler equations with gamma-law EOS; unsplit MUSCL-HLL Godunov update.

    Parameters
    ----------
    gamma:
        Ratio of specific heats (1.4 for air, Chombo's default).
    cfl:
        Courant number (shared across the unsplit update).
    order:
        1 = piecewise-constant Godunov, 2 = MUSCL minmod reconstruction.
    tag_threshold:
        Relative undivided density difference that triggers refinement.
    blast_pressure_jump, blast_density_jump, blast_radius:
        Initial condition parameters (relative to ambient ``rho=1, p=1``).
    """

    nghost = 2

    def __init__(
        self,
        gamma: float = 1.4,
        cfl: float = 0.4,
        order: int = 2,
        tag_threshold: float = 0.08,
        blast_pressure_jump: float = 10.0,
        blast_density_jump: float = 3.0,
        blast_radius: float = 0.15,
    ):
        if gamma <= 1.0:
            raise GeometryError(f"gamma must exceed 1, got {gamma}")
        if not (0 < cfl <= 1):
            raise GeometryError(f"cfl must be in (0, 1], got {cfl}")
        if order not in (1, 2):
            raise GeometryError(f"order must be 1 or 2, got {order}")
        self.gamma = float(gamma)
        self.cfl = float(cfl)
        self.order = int(order)
        self.tag_threshold = float(tag_threshold)
        self.blast_pressure_jump = float(blast_pressure_jump)
        self.blast_density_jump = float(blast_density_jump)
        self.blast_radius = float(blast_radius)
        self._ndim: int | None = None

    # -- state helpers ---------------------------------------------------------

    @property
    def ncomp(self) -> int:
        """Components for the bound dimension (set at :meth:`initialize`)."""
        if self._ndim is None:
            raise GeometryError("solver not initialized; ncomp depends on dimension")
        return self._ndim + 2

    def ncomp_for(self, ndim: int) -> int:
        """Conserved components for an ``ndim``-dimensional problem."""
        return ndim + 2

    def primitives(self, U: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Return ``(rho, velocities, pressure)`` from conserved state ``U``."""
        rho, vel, kinetic = self._kinetic(U)
        p = np.subtract(U[-1], kinetic, out=kinetic)
        p *= self.gamma - 1.0
        np.maximum(p, _P_FLOOR, out=p)
        return rho, vel, p

    @staticmethod
    def _kinetic(U: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Return ``(rho, velocities, kinetic energy)``, density floored."""
        ndim = U.shape[0] - 2
        rho = np.maximum(U[0], _RHO_FLOOR)
        vel = U[1 : 1 + ndim] / rho
        kinetic = 0.5 * rho
        kinetic *= np.sum(vel * vel, axis=0)
        return rho, vel, kinetic

    def sound_speed(self, U: np.ndarray) -> np.ndarray:
        """Adiabatic sound speed per cell."""
        rho, _vel, p = self.primitives(U)
        return self._sound(rho, p)

    def _sound(self, rho: np.ndarray, p: np.ndarray) -> np.ndarray:
        """``sqrt(gamma * p / rho)``, evaluated in that order."""
        c = p * self.gamma
        c /= rho
        return np.sqrt(c, out=c)

    # -- protocol ------------------------------------------------------------

    def initialize(self, hierarchy: AMRHierarchy) -> None:
        """Set the spherical blast initial condition on every level."""
        ndim = hierarchy.domain.ndim
        self._ndim = ndim
        if hierarchy.ncomp != self.ncomp_for(ndim):
            raise GeometryError(
                f"hierarchy has ncomp={hierarchy.ncomp}, solver needs "
                f"{self.ncomp_for(ndim)} for {ndim}-D"
            )
        extent = [s * hierarchy.dx0 for s in hierarchy.domain.shape]
        center = tuple(0.5 * e for e in extent)
        radius = self.blast_radius * min(extent)

        def blast(*coords: np.ndarray) -> np.ndarray:
            r = np.sqrt(sum((c - c0) ** 2 for c, c0 in zip(coords, center)))
            inside = r < radius
            rho = np.where(inside, self.blast_density_jump, 1.0)
            p = np.where(inside, self.blast_pressure_jump, 1.0)
            out = np.zeros((ndim + 2, *r.shape))
            out[0] = rho
            out[-1] = p / (self.gamma - 1.0)  # zero initial velocity
            return out

        for level, spec in enumerate(hierarchy.levels):
            spec.data.set_from_function(blast, dx=hierarchy.dx(level))

    def stable_dt_level(self, spec, dx: float, ndim: int) -> float:
        """Unsplit CFL limit for one level: ``cfl * dx / sum_d max(|v_d|+c)``.

        Raises :class:`GeometryError` naming the box when a box's wave
        speed is NaN or infinite: skipping it would take a finite step
        from the healthy boxes and spread the bad state.
        """
        del ndim
        dt = np.inf
        for i, wave in enumerate(self._level_waves(spec)):
            if not np.isfinite(wave):
                raise GeometryError(
                    f"non-finite wave speed {wave} in box {i} "
                    f"{spec.layout.boxes[i]} of the level with dx={dx!r}"
                )
            if wave > 0:
                dt = min(dt, self.cfl * dx / wave)
        return float(dt)

    def _level_waves(self, spec) -> list[float]:
        """Per-box ``sum_d max(|v_d|+c)``, batched over same-shape boxes.

        Stacking same-shape boxes turns hundreds of small reductions into
        a handful of large ones; ``max`` is exact, so the result is
        bit-identical to the per-box loop.
        """
        nboxes = len(spec.layout)
        waves = [0.0] * nboxes
        groups = _shape_groups(spec.data.valid_view(i) for i in range(nboxes))
        chunks = [
            chunk
            for group in groups
            for chunk in _batches(group, spec.layout.boxes[group[0]].size)
        ]
        for indices in chunks:
            if len(indices) == 1:
                U = spec.data.valid_view(indices[0])
            else:
                # (ncomp, k, *spatial): the box axis rides along like an
                # extra spatial axis, the component axis stays first.
                U = np.stack([spec.data.valid_view(i) for i in indices], axis=1)
            rho, vel, p = self.primitives(U)
            c = self._sound(rho, p)
            for d in range(vel.shape[0]):
                speeds = np.abs(vel[d]) + c
                if len(indices) == 1:
                    waves[indices[0]] += float(np.max(speeds))
                else:
                    axes = tuple(range(1, speeds.ndim))
                    per_box = np.max(speeds, axis=axes)
                    for slot, i in enumerate(indices):
                        waves[i] += float(per_box[slot])
        return waves

    def stable_dt(self, hierarchy: AMRHierarchy) -> float:
        """Global (non-subcycled) CFL limit over all levels."""
        ndim = hierarchy.domain.ndim
        dt = min(
            self.stable_dt_level(spec, hierarchy.dx(level), ndim)
            for level, spec in enumerate(hierarchy.levels)
        )
        if not np.isfinite(dt):
            raise GeometryError("no finite CFL limit; state may be uninitialized")
        return float(dt)

    def compute_fluxes(self, arr: np.ndarray, dx: float) -> list[np.ndarray]:
        """HLL face fluxes per axis over the ``n_d + 1`` interior faces.

        ``dx`` is unused (the Riemann flux is resolution-independent) but
        kept for the shared flux-provider signature.
        """
        del dx
        return self._compute_fluxes_nd(arr, arr.ndim - 1)

    def _compute_fluxes_nd(self, arr: np.ndarray, ndim: int) -> list[np.ndarray]:
        """Fluxes with an explicit spatial dimension (batched arrays carry
        an extra box axis between the component and spatial axes)."""
        g = self.nghost
        fluxes: list[np.ndarray] = []
        for axis in range(ndim):
            UL, UR = self._face_states(arr, axis, g, ndim)
            fluxes.append(self._hll_flux(UL, UR, axis))
        return fluxes

    def advance(self, arr: np.ndarray, dx: float, dt: float) -> None:
        """One unsplit conservative update of a ghosted box array (in place)."""
        self._advance_nd(arr, arr.ndim - 1, dx, dt)

    def advance_boxes(self, arrays: list[np.ndarray], dx: float, dt: float) -> None:
        """Advance a whole level's boxes, batching same-shape arrays.

        Every numerical op is elementwise (or reduces over the fixed
        component axis), so stacking boxes along an extra axis produces
        bit-identical updates while amortizing NumPy call overhead over
        the level instead of paying it per box.
        """
        for group in _shape_groups(arrays):
            for indices in _batches(group, arrays[group[0]][0].size):
                if len(indices) == 1:
                    self.advance(arrays[indices[0]], dx, dt)
                    continue
                stacked = np.stack([arrays[i] for i in indices], axis=1)
                ndim = stacked.ndim - 2
                self._advance_nd(stacked, ndim, dx, dt)
                # The update writes only interior cells; ghosts stay as stacked.
                inner = self._interior(ndim, self.nghost)
                for slot, i in enumerate(indices):
                    arrays[i][(slice(None),) + inner] = stacked[(slice(None), slot) + inner]

    def _advance_nd(self, arr: np.ndarray, ndim: int, dx: float, dt: float) -> None:
        self.advance_with_fluxes(arr, dx, dt, self._compute_fluxes_nd(arr, ndim),
                                 ndim=ndim)

    def advance_with_fluxes(
        self,
        arr: np.ndarray,
        dx: float,
        dt: float,
        fluxes: list[np.ndarray],
        ndim: int | None = None,
    ) -> None:
        """Apply the divergence of precomputed fluxes, then physical floors."""
        g = self.nghost
        if ndim is None:
            ndim = arr.ndim - 1
        lead = arr.ndim - ndim
        U = arr
        interior_idx = (slice(None),) * lead + self._interior(ndim, g)
        # Start from zeros, not from the first axis term: `0.0 + -0.0` gives
        # `0.0`, where a copy of a `-0.0` term would keep the sign.
        flux_div = np.zeros_like(U[interior_idx])
        for axis, F in enumerate(fluxes):
            # F has one more entry along `axis` than the interior; difference it.
            hi = [slice(None)] * F.ndim
            lo = [slice(None)] * F.ndim
            hi[lead + axis] = slice(1, None)
            lo[lead + axis] = slice(None, -1)
            diff = F[tuple(hi)] - F[tuple(lo)]
            diff /= dx
            flux_div += diff
        flux_div *= dt
        U[interior_idx] -= flux_div
        # Floors guard against negative density/pressure from strong shocks.
        interior = U[interior_idx]
        np.maximum(interior[0], _RHO_FLOOR, out=interior[0])
        kinetic = self._kinetic(interior)[2]
        kinetic += _P_FLOOR / (self.gamma - 1.0)
        np.maximum(interior[-1], kinetic, out=interior[-1])

    def tag_cells(self, dense: np.ndarray, level: int, dx: float) -> np.ndarray:
        """Refine on relative undivided density differences (shock tracking)."""
        rho = dense[0]
        scale = np.nanmean(np.abs(rho))
        if not np.isfinite(scale) or scale == 0:
            scale = 1.0
        return tag_undivided_difference(rho / scale, self.tag_threshold)

    def work_per_cell(self) -> float:
        """Relative cost of one cell update; Euler is ~8x the scalar tracer."""
        return 8.0

    # -- numerics ------------------------------------------------------------

    @staticmethod
    def _interior(ndim: int, g: int) -> tuple[slice, ...]:
        return tuple(slice(g, -g) for _ in range(ndim))

    def _face_states(
        self, U: np.ndarray, axis: int, g: int, ndim: int | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """Left/right states at the ``n_interior + 1`` faces along ``axis``.

        Other axes are restricted to the interior.  With ``order == 2`` a
        minmod-limited linear reconstruction is used.  ``ndim`` counts the
        trailing spatial axes (leading component/batch axes pass through).
        """
        if ndim is None:
            ndim = U.ndim - 1
        lead = U.ndim - ndim

        def band(offset_lo: int, offset_hi: int) -> np.ndarray:
            """Slice: interior on other axes, [g+offset_lo, -g+offset_hi) on axis."""
            slc: list[slice] = [slice(None)] * lead
            for d in range(ndim):
                if d == axis:
                    stop = -g + offset_hi
                    slc.append(slice(g + offset_lo, stop if stop != 0 else None))
                else:
                    slc.append(slice(g, -g))
            return U[tuple(slc)]

        # Cells i = -1 .. n (one beyond the interior each way along `axis`).
        center = band(-1, 1)
        lo = self._axis_slice(lead, ndim, axis, slice(None, -1))
        hi = self._axis_slice(lead, ndim, axis, slice(1, None))
        if self.order == 1:
            return center[lo], center[hi]
        # One difference per adjacent pair of cells -2 .. n+1: the left
        # difference of cell i is diff[i], its right difference diff[i+1].
        diff = np.diff(band(-2, 2), axis=lead + axis)
        half = self._minmod(diff[lo], diff[hi])
        half *= 0.5
        # Right face of cells -1 .. n-1, left face of cells 0 .. n.
        UL = center[lo] + half[lo]
        UR = center[hi] - half[hi]
        return UL, UR

    @staticmethod
    def _axis_slice(lead: int, ndim: int, axis: int, sl: slice) -> tuple[slice, ...]:
        out: list[slice] = [slice(None)] * lead
        for d in range(ndim):
            out.append(sl if d == axis else slice(None))
        return tuple(out)

    @staticmethod
    def _minmod(a: np.ndarray, b: np.ndarray) -> np.ndarray:
        out = np.where(np.abs(a) < np.abs(b), a, b)
        # `~(... > 0)`, not `<= 0`: a NaN product must give a zero slope.
        np.copyto(out, 0.0, where=~(a * b > 0))
        return out

    def _physical_flux(
        self,
        U: np.ndarray,
        axis: int,
        prims: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None,
    ) -> np.ndarray:
        rho, vel, p = self.primitives(U) if prims is None else prims
        vd = vel[axis]
        F = np.empty_like(U)
        np.multiply(rho, vd, out=F[0])
        for k in range(vel.shape[0]):
            np.multiply(rho, vel[k], out=F[1 + k])
            F[1 + k] *= vd
        F[1 + axis] += p
        np.add(U[-1], p, out=F[-1])
        F[-1] *= vd
        return F

    def _hll_flux(self, UL: np.ndarray, UR: np.ndarray, axis: int) -> np.ndarray:
        rhoL, velL, pL = self.primitives(UL)
        rhoR, velR, pR = self.primitives(UR)
        cL = self._sound(rhoL, pL)
        cR = self._sound(rhoR, pR)
        sL = np.minimum(velL[axis] - cL, velR[axis] - cR)
        sR = np.maximum(velL[axis] + cL, velR[axis] + cR)
        # Reuse the primitives already computed for the wave speeds.
        FL = self._physical_flux(UL, axis, (rhoL, velL, pL))
        FR = self._physical_flux(UR, axis, (rhoR, velR, pR))
        denom = sR - sL
        np.copyto(denom, 1e-14, where=np.abs(denom) < 1e-14)
        # F* = (sR*FL - sL*FR + (sL*sR)*(UR - UL)) / denom, accumulated in
        # place in that operand order.
        F = sR * FL
        scratch = sL * FR
        F -= scratch
        np.subtract(UR, UL, out=scratch)
        scratch *= sL * sR
        F += scratch
        F /= denom
        # Upwind sides win over the star state, the left one first.
        np.copyto(F, FR, where=sR <= 0)
        np.copyto(F, FL, where=sL >= 0)
        return F
