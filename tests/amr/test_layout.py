"""Tests for BoxLayout and load balancing."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.amr.box import Box
from repro.amr.layout import BoxLayout, image_shifts, load_balance, overlap_pairs
from repro.errors import GeometryError


def neighbors(layout, index, radius, periodic_domain=None):
    """``(j, shift)`` for each other box or periodic image the ghost region
    of width ``radius`` around box ``index`` overlaps."""
    corners = layout._corner_arrays()
    shifts = image_shifts(periodic_domain, layout.ndim)
    i, j, shift, _, _ = overlap_pairs(corners, corners, radius, shifts)
    return [
        (b, tuple(s))
        for a, b, s in zip(i.tolist(), j.tolist(), shift.tolist())
        if a == index and (b != index or any(s))
    ]


def grid_boxes(n, size=4):
    """A row of n disjoint size^2 boxes."""
    return [Box((i * size, 0), (i * size + size - 1, size - 1)) for i in range(n)]


class TestLoadBalance:
    def test_single_rank_gets_everything(self):
        boxes = grid_boxes(5)
        assert load_balance(boxes, 1) == [0] * 5

    def test_equal_boxes_spread_evenly(self):
        boxes = grid_boxes(8)
        ranks = load_balance(boxes, 4)
        counts = np.bincount(ranks, minlength=4)
        assert (counts == 2).all()

    def test_large_box_isolated(self):
        boxes = [Box((0, 0), (31, 31))] + [
            Box((100 + 4 * i, 0), (100 + 4 * i + 1, 1)) for i in range(4)
        ]
        ranks = load_balance(boxes, 2)
        big_rank = ranks[0]
        # All the small boxes go to the other rank.
        assert all(r != big_rank for r in ranks[1:])

    def test_zero_ranks_rejected(self):
        with pytest.raises(GeometryError):
            load_balance(grid_boxes(2), 0)

    def test_deterministic(self):
        boxes = grid_boxes(7)
        assert load_balance(boxes, 3) == load_balance(boxes, 3)

    @given(st.integers(1, 16), st.integers(1, 6))
    def test_balance_quality_bound(self, nboxes, nranks):
        # LPT guarantee: max load <= mean + max single box size.
        boxes = grid_boxes(nboxes)
        ranks = load_balance(boxes, nranks)
        loads = np.zeros(nranks)
        for b, r in zip(boxes, ranks):
            loads[r] += b.size
        assert loads.max() <= loads.sum() / nranks + max(b.size for b in boxes)


class TestBoxLayout:
    def test_total_cells(self):
        layout = BoxLayout(grid_boxes(3))
        assert layout.total_cells == 3 * 16

    def test_overlap_rejected(self):
        with pytest.raises(GeometryError):
            BoxLayout([Box((0, 0), (3, 3)), Box((2, 2), (5, 5))])

    def test_empty_layout_rejected(self):
        with pytest.raises(GeometryError):
            BoxLayout([])

    def test_empty_box_rejected(self):
        with pytest.raises(GeometryError):
            BoxLayout([Box((0, 0), (-1, 3))])

    def test_mixed_dim_rejected(self):
        with pytest.raises(GeometryError):
            BoxLayout([Box((0, 0), (1, 1)), Box((5, 5, 5), (6, 6, 6))])

    def test_explicit_ranks(self):
        layout = BoxLayout(grid_boxes(3), nranks=2, ranks=[0, 1, 0])
        assert layout.ranks == (0, 1, 0)
        assert layout.boxes_on_rank(0) == [0, 2]

    def test_explicit_ranks_validation(self):
        with pytest.raises(GeometryError):
            BoxLayout(grid_boxes(3), nranks=2, ranks=[0, 1])
        with pytest.raises(GeometryError):
            BoxLayout(grid_boxes(3), nranks=2, ranks=[0, 1, 5])

    def test_cells_per_rank_sums_to_total(self):
        layout = BoxLayout(grid_boxes(9), nranks=4)
        assert layout.cells_per_rank().sum() == layout.total_cells

    def test_imbalance_perfect(self):
        layout = BoxLayout(grid_boxes(4), nranks=2)
        assert layout.imbalance() == pytest.approx(1.0)

    def test_covering_box(self):
        layout = BoxLayout([Box((0, 0), (3, 3)), Box((10, 2), (12, 8))])
        assert layout.covering_box() == Box((0, 0), (12, 8))

    def test_neighbors_direct(self):
        a = Box((0, 0), (3, 3))
        b = Box((4, 0), (7, 3))
        c = Box((20, 20), (23, 23))
        layout = BoxLayout([a, b, c])
        assert [j for j, _ in neighbors(layout, 0, radius=1)] == [1]

    def test_neighbors_periodic_wraparound(self):
        domain = Box((0, 0), (7, 7))
        a = Box((0, 0), (3, 7))
        b = Box((4, 0), (7, 7))
        layout = BoxLayout([a, b])
        nbrs = neighbors(layout, 0, radius=1, periodic_domain=domain)
        shifts = {shift for j, shift in nbrs if j == 1}
        # b touches a directly on the right and wraps around on the left.
        assert (0, 0) in shifts
        assert (-8, 0) in shifts or (8, 0) in shifts

    def test_self_periodic_image(self):
        # A box spanning the whole domain is its own periodic neighbour.
        domain = Box((0,), (7,))
        layout = BoxLayout([Box((0,), (7,))])
        nbrs = neighbors(layout, 0, radius=1, periodic_domain=domain)
        assert any(j == 0 for j, _ in nbrs)


class TestOverlapPairs:
    def test_regions_are_clipped_overlaps(self):
        dst = BoxLayout([Box((0, 0), (3, 3)), Box((10, 10), (12, 12))])
        src = BoxLayout([Box((2, 2), (5, 5)), Box((-4, 0), (0, 1))])
        i, j, shift, lo, hi = overlap_pairs(dst._corner_arrays(), src._corner_arrays())
        assert i.tolist() == [0, 0]
        assert j.tolist() == [0, 1]
        assert not shift.any()
        assert lo.tolist() == [[2, 2], [0, 0]]
        assert hi.tolist() == [[3, 3], [0, 1]]

    def test_image_shifts_row_major(self):
        shifts = image_shifts(Box((0, 0), (7, 3)), 2)
        assert shifts.shape == (9, 2)
        assert shifts[0].tolist() == [-8, -4]
        assert shifts[1].tolist() == [-8, 0]
        assert shifts[4].tolist() == [0, 0]
        assert image_shifts(None, 3).tolist() == [[0, 0, 0]]
