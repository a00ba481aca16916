"""Level data containers with ghost cells (Chombo's ``LevelData<FArrayBox>``).

A :class:`LevelData` owns one NumPy array per layout box, each padded with
``nghost`` ghost cells per side.  Arrays have shape ``(ncomp, *padded)``.
:meth:`exchange` fills ghost cells from neighbouring boxes (including
periodic images); ghost cells on the physical boundary are handled by
:meth:`fill_physical`, and ghosts hanging over a coarse-fine boundary are
interpolated by the hierarchy.
"""

from __future__ import annotations

from collections.abc import Callable

import numpy as np

from repro.amr.box import Box
from repro.amr.layout import BoxLayout, image_shifts, overlap_pairs, region_indices
from repro.errors import GeometryError

__all__ = ["LevelData"]


class LevelData:
    """Per-box arrays over a :class:`~repro.amr.layout.BoxLayout`."""

    def __init__(
        self,
        layout: BoxLayout,
        ncomp: int = 1,
        nghost: int = 0,
        dtype: np.dtype | type = np.float64,
    ):
        if ncomp < 1:
            raise GeometryError(f"ncomp must be >= 1, got {ncomp}")
        if nghost < 0:
            raise GeometryError(f"nghost must be >= 0, got {nghost}")
        self.layout = layout
        self.ncomp = int(ncomp)
        self.nghost = int(nghost)
        self.dtype = np.dtype(dtype)
        self.data: list[np.ndarray] = [
            np.zeros((ncomp, *box.grow(nghost).shape), dtype=self.dtype)
            for box in layout
        ]

    # -- geometry helpers --------------------------------------------------

    def grown_box(self, index: int) -> Box:
        """The padded (ghosted) box for array ``index``."""
        return self.layout.boxes[index].grow(self.nghost)

    def valid_view(self, index: int) -> np.ndarray:
        """View of the interior (non-ghost) cells of box ``index``."""
        g = self.nghost
        arr = self.data[index]
        return arr[(slice(None), *(slice(g, n - g) for n in arr.shape[1:]))]

    @property
    def nbytes(self) -> int:
        """Total bytes across all box arrays (ghosts included)."""
        return sum(arr.nbytes for arr in self.data)

    @property
    def valid_cells(self) -> int:
        """Total interior cells across the level."""
        return self.layout.total_cells

    # -- initialization ----------------------------------------------------

    def fill(self, value: float, comp: int | None = None) -> None:
        """Set every cell (ghosts included) to ``value``."""
        for arr in self.data:
            if comp is None:
                arr[...] = value
            else:
                arr[comp] = value

    def set_from_function(self, fn: Callable[..., np.ndarray], dx: float = 1.0) -> None:
        """Initialize interior cells from ``fn(*cell_center_coords) -> (ncomp, ...)``.

        Cell centers are ``(i + 0.5) * dx`` per direction.  ``fn`` receives
        one meshgrid array per dimension and must return an array whose
        leading axis is the component axis (or a plain array if
        ``ncomp == 1``).
        """
        for i, box in enumerate(self.layout):
            axes = [
                (np.arange(l, h + 1, dtype=np.float64) + 0.5) * dx
                for l, h in zip(box.lo, box.hi)
            ]
            mesh = np.meshgrid(*axes, indexing="ij")
            values = np.asarray(fn(*mesh), dtype=self.dtype)
            view = self.valid_view(i)
            if values.shape == view.shape:
                view[...] = values
            elif self.ncomp == 1 and values.shape == view.shape[1:]:
                view[0] = values
            else:
                raise GeometryError(
                    f"function returned shape {values.shape}, expected {view.shape}"
                )

    # -- ghost communication -------------------------------------------------

    def exchange(self, periodic_domain: Box | None = None) -> int:
        """Fill ghost cells from neighbouring boxes on the same level.

        With ``periodic_domain`` given, periodic images across the domain
        are included.  Returns the number of bytes copied (the workload
        capture uses this as the level's halo traffic).
        """
        if self.nghost == 0:
            return 0
        cells_moved = 0
        data = self.data
        for i, j, dst_idx, src_idx, cells in self._exchange_plan(periodic_domain):
            data[i][dst_idx] = data[j][src_idx]
            cells_moved += cells
        return cells_moved * self.ncomp * self.dtype.itemsize

    def _exchange_plan(
        self, periodic_domain: Box | None
    ) -> list[tuple[int, int, tuple, tuple, int]]:
        """Copy plan ``(dst, src, dst_idx, src_idx, cells)`` for :meth:`exchange`.

        The layout is immutable and the box geometry fixed, so the plan is
        computed once per (nghost, domain) and cached on the layout; the
        per-step exchange then reduces to slice assignments.
        """
        key = (self.nghost, periodic_domain)
        cache = getattr(self.layout, "_exchange_plans", None)
        if cache is None:
            cache = {}
            self.layout._exchange_plans = cache
        plan = cache.get(key)
        if plan is not None:
            return plan
        g = self.nghost
        corners = self.layout._corner_arrays()
        i, j, shift, lo, hi = overlap_pairs(
            corners, corners, g, image_shifts(periodic_domain, self.layout.ndim)
        )
        keep = (i != j) | shift.any(axis=1)
        i, j, shift, lo, hi = i[keep], j[keep], shift[keep], lo[keep], hi[keep]
        origins = corners[0] - g
        plan = list(zip(
            i.tolist(), j.tolist(),
            region_indices(lo, hi, origins[i]),
            region_indices(lo, hi, origins[j] + shift),
            np.prod(hi - lo + 1, axis=1).tolist(),
        ))
        cache[key] = plan
        return plan

    def fill_physical(self, domain: Box, mode: str = "edge", value: float = 0.0) -> None:
        """Fill ghost cells outside the physical ``domain``.

        ``mode="edge"`` copies the nearest interior cell (outflow/Neumann);
        ``mode="constant"`` writes ``value`` (Dirichlet).
        """
        if self.nghost == 0:
            return
        if mode not in ("edge", "constant"):
            raise GeometryError(f"unknown fill mode {mode!r}")
        g = self.nghost
        for i, box in enumerate(self.layout):
            arr = self.data[i]
            for axis in range(self.layout.ndim):
                # Low side: box face on the domain's low face.
                if box.lo[axis] == domain.lo[axis]:
                    sl = [slice(None)] * arr.ndim
                    sl[1 + axis] = slice(0, g)
                    if mode == "constant":
                        arr[tuple(sl)] = value
                    else:
                        edge = [slice(None)] * arr.ndim
                        edge[1 + axis] = slice(g, g + 1)
                        arr[tuple(sl)] = arr[tuple(edge)]
                if box.hi[axis] == domain.hi[axis]:
                    sl = [slice(None)] * arr.ndim
                    sl[1 + axis] = slice(-g, None)
                    if mode == "constant":
                        arr[tuple(sl)] = value
                    else:
                        edge = [slice(None)] * arr.ndim
                        edge[1 + axis] = slice(-g - 1, -g)
                        arr[tuple(sl)] = arr[tuple(edge)]

    # -- data movement -----------------------------------------------------

    def copy_overlap_from(self, other: "LevelData") -> None:
        """Copy interior data from ``other`` wherever layouts overlap.

        Used during regridding to preserve data on regions kept refined.
        """
        if other.ncomp != self.ncomp:
            raise GeometryError("component count mismatch in copy_overlap_from")
        if self.layout.ndim != other.layout.ndim:
            raise GeometryError("dimension mismatch in copy_overlap_from")
        dst = self.layout._corner_arrays()
        src = other.layout._corner_arrays()
        i, j, _, lo, hi = overlap_pairs(dst, src)
        for a, b, dst_idx, src_idx in zip(
            i.tolist(), j.tolist(),
            region_indices(lo, hi, dst[0][i] - self.nghost),
            region_indices(lo, hi, src[0][j] - other.nghost),
        ):
            self.data[a][dst_idx] = other.data[b][src_idx]

    def to_dense(self, region: Box | None = None, fill: float = np.nan) -> np.ndarray:
        """Assemble a dense ``(ncomp, *region.shape)`` array of interior data.

        Cells of ``region`` not covered by any box are set to ``fill``.
        ``region`` defaults to the layout's covering box.
        """
        target = region if region is not None else self.layout.covering_box()
        out = np.full((self.ncomp, *target.shape), fill, dtype=self.dtype)
        for i, box in enumerate(self.layout):
            overlap = box.intersect(target)
            if overlap.is_empty():
                continue
            dst_slc = overlap.slices(origin=target)
            src_slc = overlap.slices(origin=self.grown_box(i))
            out[(slice(None), *dst_slc)] = self.data[i][(slice(None), *src_slc)]
        return out

    def rank_bytes(self) -> np.ndarray:
        """Bytes held by each virtual rank (ghosts included)."""
        out = np.zeros(self.layout.nranks, dtype=np.int64)
        for arr, rank in zip(self.data, self.layout.ranks):
            out[rank] += arr.nbytes
        return out
