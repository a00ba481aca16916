"""The compiled communication plans equal the per-pair ``Box`` loops they replace.

``LevelData._exchange_plan``, ``AMRHierarchy._ghost_fill_plan`` (ghost
and interior), ``AMRHierarchy._avgdown_plan`` and
``LevelData.copy_overlap_from`` are built from
:func:`~repro.amr.layout.overlap_pairs` over corner arrays and from a
padded coverage array of the level.  The oracles below are the
``Box``-object loops those plans were built from before; hypothesis
checks the two agree entry for entry over 1/2/3-D, periodic and
non-periodic domains, ghost widths 1-3, refinement ratios 2 and 4, and
layouts from ``Box.chop`` (level 0) and ``cluster_tags`` (regridded
levels, including boxes on domain faces).
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.amr.box import Box
from repro.amr.hierarchy import AMRHierarchy, _flat_strides
from repro.amr.layout import BoxLayout
from repro.amr.level import LevelData

# -- Box-based oracles ----------------------------------------------------------


def oracle_neighbors(layout, index, radius, periodic_domain):
    me = layout.boxes[index].grow(radius)
    me_lo = np.array(me.lo, dtype=np.int64)
    me_hi = np.array(me.hi, dtype=np.int64)
    zero = tuple(0 for _ in range(layout.ndim))
    shifts = [zero]
    if periodic_domain is not None and not periodic_domain.contains_box(me):
        offsets = [(-e, 0, e) for e in periodic_domain.shape]
        grid = np.stack(np.meshgrid(*offsets, indexing="ij"), -1)
        shifts = [tuple(int(v) for v in s) for s in grid.reshape(-1, layout.ndim)]
    los, his = layout._corner_arrays()
    results = []
    for shift in shifts:
        offset = np.array(shift, dtype=np.int64)
        mask = (((los + offset) <= me_hi) & ((his + offset) >= me_lo)).all(axis=1)
        for j in np.nonzero(mask)[0]:
            if j == index and shift == zero:
                continue
            results.append((int(j), shift))
    return results


def oracle_exchange_plan(data, periodic_domain):
    plan = []
    for i in range(len(data.layout)):
        dst_origin = data.grown_box(i)
        for j, shift in oracle_neighbors(data.layout, i, data.nghost, periodic_domain):
            src_box = data.layout.boxes[j].shift(shift)
            region = dst_origin.intersect(src_box)
            if region.is_empty():
                continue
            src_origin = data.grown_box(j).shift(shift)
            dst_idx = (slice(None), *region.slices(origin=dst_origin))
            src_idx = (slice(None), *region.slices(origin=src_origin))
            plan.append((i, j, dst_idx, src_idx, region.size))
    return plan


def oracle_ghost_fill_plan(h, level, pad, interior):
    layout = h.levels[level].layout
    g = h.levels[level].data.nghost
    r = h.ref_ratio
    cdomain = h.level_domain(level - 1)
    ndim = cdomain.ndim
    level_domain = h.level_domain(level)
    domain_arg = level_domain if h.periodic else None
    strides = _flat_strides(tuple(s + 2 * pad for s in cdomain.shape))
    offs_table = (np.arange(r) + 0.5) / r - 0.5
    parent_parts, offset_parts = [], [[] for _ in range(ndim)]
    scatter, total = [], 0
    for i, box in enumerate(layout):
        grown = box.grow(g)
        if interior:
            mask = np.zeros(grown.shape, dtype=bool)
            mask[box.slices(origin=grown)] = True
        else:
            mask = np.ones(grown.shape, dtype=bool)
            mask[box.slices(origin=grown)] = False
            if not h.periodic:
                keep = np.zeros(grown.shape, dtype=bool)
                inside = grown.intersect(level_domain)
                if not inside.is_empty():
                    keep[inside.slices(origin=grown)] = True
                mask &= keep
            for j, shift in oracle_neighbors(layout, i, g, domain_arg):
                covered = grown.intersect(layout.boxes[j].shift(shift))
                if covered.is_empty():
                    continue
                mask[covered.slices(origin=grown)] = False
        idx = np.nonzero(mask.ravel())[0]
        if idx.size == 0:
            continue
        coords = np.unravel_index(idx, grown.shape)
        pidx = np.zeros(idx.size, dtype=np.int64)
        for axis in range(ndim):
            gx = coords[axis].astype(np.int64) + grown.lo[axis]
            pc = gx // r
            offset_parts[axis].append(offs_table[gx - pc * r])
            pidx += (pc - (cdomain.lo[axis] - pad)) * strides[axis]
        parent_parts.append(pidx)
        scatter.append((i, idx, total, total + idx.size))
        total += idx.size
    if total == 0:
        return None
    return (np.concatenate(parent_parts),
            [np.concatenate(parts) for parts in offset_parts], scatter)


def oracle_avgdown_plan(h, fine, coarse):
    r = h.ref_ratio
    plan = []
    for i, fbox in enumerate(fine.layout):
        cbox = fbox.coarsen(r)
        for j, box in enumerate(coarse.layout):
            region = cbox.intersect(box)
            if region.is_empty():
                continue
            dst_idx = (slice(None), *region.slices(origin=coarse.data.grown_box(j)))
            src_idx = (slice(None), *region.slices(origin=cbox))
            plan.append((i, j, dst_idx, src_idx))
    return plan


def oracle_copy_overlap(dst, src):
    for i, dbox in enumerate(dst.layout):
        for j, sbox in enumerate(src.layout):
            region = dbox.intersect(sbox)
            if region.is_empty():
                continue
            dst_slc = region.slices(origin=dst.grown_box(i))
            src_slc = region.slices(origin=src.grown_box(j))
            dst.data[i][(slice(None), *dst_slc)] = src.data[j][(slice(None), *src_slc)]


# -- hierarchies ----------------------------------------------------------------


@st.composite
def hierarchies(draw):
    ndim = draw(st.integers(1, 3))
    ratio = draw(st.sampled_from([2, 4]))
    max_levels = draw(st.integers(2, 3 if ratio == 2 else 2))
    # Keep the finest level small: at most ~8K cells in 3-D.
    top = {1: 12, 2: 8, 3: 5}[ndim] if max_levels == 2 and ratio == 2 else 4
    extents = [draw(st.integers(3, top)) for _ in range(ndim)]
    lo = [draw(st.integers(-3, 3)) for _ in range(ndim)]
    h = AMRHierarchy(
        Box(tuple(lo), tuple(l + e - 1 for l, e in zip(lo, extents))),
        ncomp=2,
        nghost=draw(st.integers(1, 3)),
        ref_ratio=ratio,
        max_levels=max_levels,
        max_box_size=draw(st.integers(2, 8)),
        tag_buffer=draw(st.integers(0, 1)),
        periodic=draw(st.booleans()),
    )
    rng = np.random.default_rng(draw(st.integers(0, 2**31)))
    density = draw(st.sampled_from([0.05, 0.3, 0.9]))
    masks = {}
    for level in range(h.max_levels - 1):
        masks[level] = rng.random(h.level_domain(level).shape) < density
        h.regrid(masks)
    return h, rng


def _periodic_domain(h, level):
    return h.level_domain(level) if h.periodic else None


# -- properties -------------------------------------------------------------------


@settings(deadline=None, max_examples=60)
@given(hierarchies())
def test_exchange_plan_matches_oracle(case):
    h, _ = case
    for level, spec in enumerate(h.levels):
        domain = _periodic_domain(h, level)
        assert spec.data._exchange_plan(domain) == oracle_exchange_plan(spec.data, domain)


@settings(deadline=None, max_examples=60)
@given(hierarchies(), st.booleans())
def test_ghost_fill_plan_matches_oracle(case, interior):
    h, _ = case
    for level in range(1, len(h.levels)):
        g = h.levels[level].data.nghost
        pad = -(-g // h.ref_ratio) + 1
        got = h._ghost_fill_plan(level, pad, interior=interior)
        want = oracle_ghost_fill_plan(h, level, pad, interior)
        if want is None:
            assert got is None
            continue
        parent, inv, offsets, scatter = got
        want_parent, want_offsets, want_scatter = want
        assert np.array_equal(parent[inv], want_parent)
        assert np.array_equal(parent, np.unique(want_parent))
        for a, b in zip(offsets, want_offsets, strict=True):
            assert np.array_equal(a, b)
        assert len(scatter) == len(want_scatter)
        for (i, dst, start, stop), (wi, wdst, wstart, wstop) in zip(scatter, want_scatter):
            assert (i, start, stop) == (wi, wstart, wstop)
            assert np.array_equal(dst, wdst)


@settings(deadline=None, max_examples=60)
@given(hierarchies())
def test_avgdown_plan_matches_oracle(case):
    h, _ = case
    for level in range(1, len(h.levels)):
        fine, coarse = h.levels[level], h.levels[level - 1]
        assert h._avgdown_plan(fine, coarse) == oracle_avgdown_plan(h, fine, coarse)


@settings(deadline=None, max_examples=40)
@given(hierarchies(), st.integers(3, 8), st.integers(0, 3))
def test_copy_overlap_matches_oracle(case, max_box_size, src_ghosts):
    h, rng = case
    spec = h.levels[-1]
    # A second layout over the same index space: the covering box chopped
    # differently, so its boxes straddle the level's.
    other = BoxLayout(spec.layout.covering_box().chop(max_box_size))
    src = LevelData(other, ncomp=2, nghost=src_ghosts)
    for arr in src.data:
        arr[...] = rng.random(arr.shape)
    got = LevelData(spec.layout, ncomp=2, nghost=spec.data.nghost)
    want = LevelData(spec.layout, ncomp=2, nghost=spec.data.nghost)
    got.copy_overlap_from(src)
    oracle_copy_overlap(want, src)
    for a, b in zip(got.data, want.data, strict=True):
        assert np.array_equal(a, b)
