"""Distributed box layouts (Chombo's ``DisjointBoxLayout``).

A :class:`BoxLayout` is an ordered collection of pairwise-disjoint boxes on
one AMR level together with a rank assignment.  The default assignment is
Chombo's load-balancing heuristic: boxes sorted by descending cell count
are placed greedily on the least-loaded rank, which keeps per-rank load
within one max-box of optimal.

The *rank* here is a virtual MPI rank: the workload-capture layer
(:mod:`repro.workload.capture`) uses it to record per-rank data volumes
and memory for the staging experiments.
"""

from __future__ import annotations

import heapq
from functools import cached_property, reduce
from itertools import product
from typing import Iterator, Sequence

import numpy as np

from repro.amr.box import Box
from repro.errors import GeometryError

__all__ = [
    "BoxLayout", "image_shifts", "load_balance", "overlap_pairs", "region_indices",
]


def load_balance(boxes: Sequence[Box], nranks: int) -> list[int]:
    """Greedy longest-processing-time assignment of boxes to ranks.

    Returns ``rank[i]`` for each box, minimizing (approximately) the
    maximum per-rank cell count.  Deterministic: ties broken by rank id.
    """
    if nranks < 1:
        raise GeometryError(f"need at least one rank, got {nranks}")
    assignment = [0] * len(boxes)
    # Heap of (load, rank); heapq tie-breaks on rank id, giving determinism.
    heap: list[tuple[int, int]] = [(0, r) for r in range(nranks)]
    heapq.heapify(heap)
    order = sorted(range(len(boxes)), key=lambda i: (-boxes[i].size, i))
    for i in order:
        load, rank = heapq.heappop(heap)
        assignment[i] = rank
        heapq.heappush(heap, (load + boxes[i].size, rank))
    return assignment


class BoxLayout:
    """Pairwise-disjoint boxes plus their rank assignment.

    Parameters
    ----------
    boxes:
        The level's patches.  Disjointness is verified (O(n^2) with a
        cheap bounding-box prefilter; layouts are typically small).
    nranks:
        Number of virtual ranks to balance over.
    ranks:
        Explicit assignment overriding the load balancer (for tests).
    """

    def __init__(
        self,
        boxes: Sequence[Box],
        nranks: int = 1,
        ranks: Sequence[int] | None = None,
    ):
        self.boxes: tuple[Box, ...] = tuple(boxes)
        if not self.boxes:
            raise GeometryError("layout needs at least one box")
        ndim = self.boxes[0].ndim
        for box in self.boxes:
            if box.ndim != ndim:
                raise GeometryError("mixed dimensions in layout")
            if box.is_empty():
                raise GeometryError(f"empty box in layout: {box}")
        self._verify_disjoint()
        self.nranks = int(nranks)
        if ranks is not None:
            if len(ranks) != len(self.boxes):
                raise GeometryError("ranks length must match boxes length")
            if any(not (0 <= r < nranks) for r in ranks):
                raise GeometryError("rank assignment out of range")
            self.ranks = tuple(int(r) for r in ranks)
        else:
            self.ranks = tuple(load_balance(self.boxes, nranks))

    def _corner_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """Cached (n, ndim) arrays of box corners for vectorized queries."""
        los = getattr(self, "_los", None)
        if los is None:
            self._los = np.array([b.lo for b in self.boxes], dtype=np.int64)
            self._his = np.array([b.hi for b in self.boxes], dtype=np.int64)
        return self._los, self._his

    def _verify_disjoint(self) -> None:
        corners = self._corner_arrays()
        i, j, _, _, _ = overlap_pairs(corners, corners)
        clash = np.nonzero(i != j)[0]
        if clash.size:
            k = clash[0]
            raise GeometryError(
                f"layout boxes overlap: {self.boxes[i[k]]} and {self.boxes[j[k]]}"
            )

    # -- queries ------------------------------------------------------------

    @property
    def ndim(self) -> int:
        """Spatial dimension of the layout."""
        return self.boxes[0].ndim

    def __len__(self) -> int:
        return len(self.boxes)

    def __iter__(self) -> Iterator[Box]:
        return iter(self.boxes)

    @cached_property
    def total_cells(self) -> int:
        """Sum of cells across all boxes."""
        return sum(box.size for box in self.boxes)

    def cells_per_rank(self) -> np.ndarray:
        """Cell count owned by each rank (length ``nranks``)."""
        counts = np.zeros(self.nranks, dtype=np.int64)
        for box, rank in zip(self.boxes, self.ranks):
            counts[rank] += box.size
        return counts

    def boxes_on_rank(self, rank: int) -> list[int]:
        """Indices of boxes assigned to ``rank``."""
        return [i for i, r in enumerate(self.ranks) if r == rank]

    def imbalance(self) -> float:
        """max/mean per-rank cell load (1.0 = perfectly balanced)."""
        counts = self.cells_per_rank()
        mean = counts.mean()
        if mean == 0:
            return 1.0
        return float(counts.max() / mean)

    def covering_box(self) -> Box:
        """The smallest box containing every layout box."""
        lo = tuple(min(b.lo[d] for b in self.boxes) for d in range(self.ndim))
        hi = tuple(max(b.hi[d] for b in self.boxes) for d in range(self.ndim))
        return Box(lo, hi)


Corners = tuple[np.ndarray, np.ndarray]


def image_shifts(periodic_domain: Box | None, ndim: int) -> np.ndarray:
    """``(nshift, ndim)`` periodic image offsets, row-major over ``{-e, 0, e}``.

    Without a domain the only image is the box itself (one zero shift).
    """
    if periodic_domain is None:
        return np.zeros((1, ndim), dtype=np.int64)
    offsets = [(-e, 0, e) for e in periodic_domain.shape]
    return np.array(list(product(*offsets)), dtype=np.int64)


def overlap_pairs(
    dst: Corners, src: Corners, radius: int = 0, shifts: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Every overlap of a ``dst`` box grown by ``radius`` with a shifted ``src`` box.

    ``dst`` and ``src`` are ``(los, his)`` corner arrays of shape
    ``(n, ndim)`` (inclusive corners, as :meth:`BoxLayout._corner_arrays`
    returns).  Returns ``(i, j, shift, lo, hi)``: for each overlapping
    pair, the dst index, the src index, the ``(ndim,)`` image shift applied
    to the src box and the inclusive corners of the overlap region.  Hits
    are ordered by dst, then shift, then src.

    Overlap is tested per axis and per distinct shift component on
    ``(ndst, nsrc)`` boolean masks; only the hits get a region, so nothing
    of size ``ndst * nshift * nsrc * ndim`` is ever materialized.
    """
    dlo, dhi = dst[0] - radius, dst[1] + radius
    slo, shi = src
    if shifts is None:
        shifts = image_shifts(None, dlo.shape[1])
    axis_masks = [
        {off: (slo[None, :, d] + off <= dhi[:, None, d])
         & (shi[None, :, d] + off >= dlo[:, None, d])
         for off in set(shifts[:, d].tolist())}
        for d in range(dlo.shape[1])
    ]
    pairs = [np.nonzero(reduce(np.logical_and, [m[o] for m, o in zip(axis_masks, shift)]))
             for shift in shifts.tolist()]
    i, j = (np.concatenate(parts) for parts in zip(*pairs))
    s = np.repeat(np.arange(len(pairs)), [p[0].size for p in pairs])
    order = np.argsort(i, kind="stable")
    i, j, shift = i[order], j[order], shifts[s[order]]
    lo = np.maximum(dlo[i], slo[j] + shift)
    hi = np.minimum(dhi[i], shi[j] + shift)
    return i, j, shift, lo, hi


def region_indices(lo: np.ndarray, hi: np.ndarray, origin: np.ndarray) -> list[tuple]:
    """``(:, *slices)`` index of each inclusive region ``lo..hi``.

    ``lo``, ``hi`` and ``origin`` are ``(n, ndim)`` arrays; region ``k``
    is indexed in a ``(ncomp, ...)`` box array whose first cell sits at
    ``origin[k]``.
    """
    return [
        (slice(None), *map(slice, start, stop))
        for start, stop in zip((lo - origin).tolist(), (hi + 1 - origin).tolist())
    ]
