"""Bit-identity of the MUSCL-HLL kernel against frozen reference copies.

The ``_reference_*`` functions below are the Polytropic gas kernel as it
stood before :mod:`repro.amr.godunov` was made allocation-lean (in-place
accumulation, ``copyto`` selection, one-sided reconstruction, interior
copy-back).  They build full temporaries and nested ``where`` selections,
which makes them slow and obviously right.  Every test demands that the
solver's ``advance``, ``advance_boxes`` and ``compute_fluxes`` agree with
them bit for bit -- compared as raw 64-bit patterns, so even a ``-0.0``
where the reference has ``0.0`` fails.

States are drawn from a palette of cell regimes chosen to reach every
branch of the kernel: minmod sign changes and zero slopes, supersonic
flow either way (``sL >= 0`` and ``sR <= 0``), cold dense static gas
whose wave-speed spread falls under the ``1e-14`` guard, and negative
density and energy that trip the floors.  Two fixed cases cover what the
palette cannot: signed-zero fluxes (the divergence starts from ``+0.0``)
and a NaN cell (its slopes are zero, not NaN).
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.amr import godunov
from repro.amr.godunov import _P_FLOOR, _RHO_FLOOR, PolytropicGasSolver

G = PolytropicGasSolver.nghost


# -- frozen reference kernel -------------------------------------------------


def _reference_primitives(solver, U):
    ndim = U.shape[0] - 2
    rho = np.maximum(U[0], _RHO_FLOOR)
    vel = U[1 : 1 + ndim] / rho
    kinetic = 0.5 * rho * np.sum(vel * vel, axis=0)
    p = (solver.gamma - 1.0) * (U[-1] - kinetic)
    return rho, vel, np.maximum(p, _P_FLOOR)


def _reference_axis_slice(lead, ndim, axis, sl):
    out = [slice(None)] * lead
    for d in range(ndim):
        out.append(sl if d == axis else slice(None))
    return tuple(out)


def _reference_minmod(a, b):
    same = (a * b) > 0
    return np.where(same, np.where(np.abs(a) < np.abs(b), a, b), 0.0)


def _reference_face_states(solver, U, axis, g, ndim):
    lead = U.ndim - ndim

    def band(offset_lo, offset_hi):
        slc = [slice(None)] * lead
        for d in range(ndim):
            if d == axis:
                stop = -g + offset_hi
                slc.append(slice(g + offset_lo, stop if stop != 0 else None))
            else:
                slc.append(slice(g, -g))
        return U[tuple(slc)]

    center = band(-1, 1)
    if solver.order == 1:
        UL = center[_reference_axis_slice(lead, ndim, axis, slice(None, -1))]
        UR = center[_reference_axis_slice(lead, ndim, axis, slice(1, None))]
        return UL, UR
    left = band(-2, 0)
    right = band(0, 2)
    dl = center - left
    dr = right - center
    slope = _reference_minmod(dl, dr)
    recon_l = center + 0.5 * slope
    recon_r = center - 0.5 * slope
    UL = recon_l[_reference_axis_slice(lead, ndim, axis, slice(None, -1))]
    UR = recon_r[_reference_axis_slice(lead, ndim, axis, slice(1, None))]
    return UL, UR


def _reference_physical_flux(solver, U, axis, prims):
    rho, vel, p = prims
    vd = vel[axis]
    F = np.empty_like(U)
    F[0] = rho * vd
    for k in range(vel.shape[0]):
        F[1 + k] = rho * vel[k] * vd
    F[1 + axis] += p
    F[-1] = (U[-1] + p) * vd
    return F


def _reference_wave_speeds(solver, UL, UR, axis):
    rhoL, velL, pL = _reference_primitives(solver, UL)
    rhoR, velR, pR = _reference_primitives(solver, UR)
    cL = np.sqrt(solver.gamma * pL / rhoL)
    cR = np.sqrt(solver.gamma * pR / rhoR)
    sL = np.minimum(velL[axis] - cL, velR[axis] - cR)
    sR = np.maximum(velL[axis] + cL, velR[axis] + cR)
    return sL, sR, (rhoL, velL, pL), (rhoR, velR, pR)


def _reference_hll_flux(solver, UL, UR, axis):
    sL, sR, primsL, primsR = _reference_wave_speeds(solver, UL, UR, axis)
    FL = _reference_physical_flux(solver, UL, axis, primsL)
    FR = _reference_physical_flux(solver, UR, axis, primsR)
    denom = sR - sL
    denom = np.where(np.abs(denom) < 1e-14, 1e-14, denom)
    F_star = (sR * FL - sL * FR + (sL * sR) * (UR - UL)) / denom
    return np.where(sL >= 0, FL, np.where(sR <= 0, FR, F_star))


def _reference_fluxes(solver, arr, ndim):
    return [
        _reference_hll_flux(solver, *_reference_face_states(solver, arr, axis, G, ndim),
                            axis)
        for axis in range(ndim)
    ]


def _reference_advance_with_fluxes(solver, arr, dx, dt, fluxes, ndim):
    lead = arr.ndim - ndim
    U = arr
    interior_idx = (slice(None),) * lead + tuple(slice(G, -G) for _ in range(ndim))
    flux_div = np.zeros_like(U[interior_idx])
    for axis, F in enumerate(fluxes):
        hi = [slice(None)] * F.ndim
        lo = [slice(None)] * F.ndim
        hi[lead + axis] = slice(1, None)
        lo[lead + axis] = slice(None, -1)
        flux_div += (F[tuple(hi)] - F[tuple(lo)]) / dx
    U[interior_idx] -= dt * flux_div
    interior = U[interior_idx]
    interior[0] = np.maximum(interior[0], _RHO_FLOOR)
    rho, vel, p = _reference_primitives(solver, interior)
    kinetic = 0.5 * rho * np.sum(vel * vel, axis=0)
    interior[-1] = np.maximum(interior[-1],
                              kinetic + _P_FLOOR / (solver.gamma - 1.0))


def _reference_advance(solver, arr, dx, dt):
    ndim = arr.ndim - 1
    _reference_advance_with_fluxes(solver, arr, dx, dt,
                                   _reference_fluxes(solver, arr, ndim), ndim)


# -- states that reach every branch ------------------------------------------

#: Cell regimes, as (rho, velocity along every axis, pressure or None for
#: a raw total energy of -1).  ``smooth`` cells are perturbed randomly.
REGIMES = {
    "smooth": (1.0, 0.0, 1.0),
    "plateau": (2.0, 0.1, 3.0),  # repeated exactly: zero slopes
    "supersonic_right": (1.0, 6.0, 1.0),  # sL >= 0
    "supersonic_left": (1.0, -6.0, 1.0),  # sR <= 0
    "cold_dense": (1e17, 0.0, 0.0),  # c ~ 4e-15: |sR - sL| < 1e-14
    "negative_density": (-0.5, 0.0, 1.0),
    "negative_energy": (1.0, 0.3, None),
}
NAMES = sorted(REGIMES)


def make_state(solver, interior_shape, seed, weights):
    """A ghosted conserved-state array whose cells mix the regimes.

    Regimes are laid out in runs along the first axis, so plateaus, sign
    changes and regime interfaces all occur inside the stencils.
    """
    rng = np.random.default_rng(seed)
    ndim = len(interior_shape)
    full = tuple(n + 2 * G for n in interior_shape)
    probs = np.asarray(weights, dtype=float)
    probs = probs / probs.sum()
    picks = rng.choice(len(NAMES), size=full, p=probs)
    # Runs: copy each cell's regime to the next along axis 0 half the time.
    for i in range(1, full[0]):
        keep = rng.random(full[1:]) < 0.5
        picks[i] = np.where(keep, picks[i - 1], picks[i])
    U = np.empty((ndim + 2, *full))
    for code, name in enumerate(NAMES):
        mask = picks == code
        rho, v, p = REGIMES[name]
        count = int(mask.sum())
        if name == "smooth":
            rho_c = rho + 0.5 * rng.random(count)
            v_c = 0.4 * (rng.random((ndim, count)) - 0.5)
            p_c = p + rng.random(count)
        else:
            rho_c = np.full(count, rho)
            v_c = np.full((ndim, count), v)
            p_c = None if p is None else np.full(count, p)
        U[0][mask] = rho_c
        for d in range(ndim):
            U[1 + d][mask] = rho_c * v_c[d]
        if p_c is None:
            U[-1][mask] = -1.0
        else:
            kinetic = 0.5 * rho_c * np.sum(v_c * v_c, axis=0)
            U[-1][mask] = p_c / (solver.gamma - 1.0) + kinetic
    return U


def bits(arr):
    return np.ascontiguousarray(arr).view(np.uint64)


def assert_bits_equal(got, want):
    assert got.shape == want.shape
    assert np.array_equal(bits(got), bits(want))


shapes_1d = st.tuples(st.integers(1, 9))
shapes_2d = st.tuples(st.integers(1, 6), st.integers(1, 6))
shapes_3d = st.tuples(st.integers(1, 4), st.integers(1, 4), st.integers(1, 4))
regime_weights = st.lists(st.integers(0, 4), min_size=len(NAMES),
                          max_size=len(NAMES)).filter(lambda w: sum(w) > 0)


@st.composite
def box_sets(draw):
    """Same-dimension boxes with repeated and distinct shapes."""
    shape = draw(st.sampled_from([shapes_1d, shapes_2d, shapes_3d]))
    distinct = draw(st.lists(shape, min_size=1, max_size=3))
    picks = draw(st.lists(st.integers(0, len(distinct) - 1), min_size=1, max_size=6))
    return [distinct[i] for i in picks]


# -- branch coverage of the generator ----------------------------------------


class TestRegimesReachEveryBranch:
    def test_every_kernel_branch_is_hit(self):
        solver = PolytropicGasSolver()
        U = make_state(solver, (24, 6), seed=3, weights=[1] * len(NAMES))
        center = U[:, G - 1 : -G + 1, G:-G]
        dl = center - U[:, G - 2 : -G, G:-G]
        dr = U[:, G:, G:-G] - center
        product = dl * dr
        assert (product < 0).any() and (dl == 0).any() and (product > 0).any()
        UL, UR = _reference_face_states(solver, U, 0, G, 2)
        sL, sR, _, _ = _reference_wave_speeds(solver, UL, UR, 0)
        assert (sL >= 0).any() and (sR <= 0).any()
        assert ((sL < 0) & (sR > 0)).any()
        assert (np.abs(sR - sL) < 1e-14).any()
        assert (U[0] < _RHO_FLOOR).any()
        _, _, p = _reference_primitives(solver, U)
        assert (p == _P_FLOOR).any()


# -- bit identity ------------------------------------------------------------


class TestKernelMatchesReference:
    @settings(max_examples=60, deadline=None)
    @given(shape=st.one_of(shapes_1d, shapes_2d, shapes_3d),
           order=st.sampled_from([1, 2]), seed=st.integers(0, 2**32 - 1),
           weights=regime_weights)
    def test_compute_fluxes(self, shape, order, seed, weights):
        solver = PolytropicGasSolver(order=order)
        U = make_state(solver, shape, seed, weights)
        got = solver.compute_fluxes(U, dx=0.1)
        want = _reference_fluxes(solver, U, len(shape))
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert_bits_equal(g, w)

    @settings(max_examples=60, deadline=None)
    @given(shape=st.one_of(shapes_1d, shapes_2d, shapes_3d),
           order=st.sampled_from([1, 2]), seed=st.integers(0, 2**32 - 1),
           weights=regime_weights)
    def test_advance(self, shape, order, seed, weights):
        solver = PolytropicGasSolver(order=order)
        got = make_state(solver, shape, seed, weights)
        want = got.copy()
        solver.advance(got, dx=0.1, dt=0.004)
        _reference_advance(solver, want, dx=0.1, dt=0.004)
        assert_bits_equal(got, want)

    @settings(max_examples=60, deadline=None)
    @given(shapes=box_sets(), order=st.sampled_from([1, 2]),
           seed=st.integers(0, 2**32 - 1), weights=regime_weights,
           batch_cells=st.sampled_from([1, 40, 1 << 14, 1 << 30]))
    def test_advance_boxes(self, shapes, order, seed, weights, batch_cells):
        solver = PolytropicGasSolver(order=order)
        got = [make_state(solver, s, seed + i, weights) for i, s in enumerate(shapes)]
        want = [arr.copy() for arr in got]
        with mock.patch.object(godunov, "_BATCH_CELLS", batch_cells):
            solver.advance_boxes(got, dx=0.1, dt=0.004)
        for arr in want:
            _reference_advance(solver, arr, dx=0.1, dt=0.004)
        for g, w in zip(got, want):
            assert_bits_equal(g, w)

    @pytest.mark.parametrize("order", [1, 2])
    def test_advance_with_fluxes_matches_reference(self, order):
        solver = PolytropicGasSolver(order=order)
        got = make_state(solver, (5, 4, 3), seed=11, weights=[1] * len(NAMES))
        want = got.copy()
        fluxes = _reference_fluxes(solver, got, 3)
        solver.advance_with_fluxes(got, 0.1, 0.004, fluxes)
        _reference_advance_with_fluxes(solver, want, 0.1, 0.004, fluxes, 3)
        assert_bits_equal(got, want)

    @pytest.mark.parametrize("shape", [(6,), (5, 4), (3, 4, 2)])
    def test_advance_with_fluxes_keeps_signed_zeros(self, shape):
        # Zero momenta and flux differences of either sign: the divergence
        # must start from +0.0 (`0.0 + -0.0` is `0.0`) as the reference does.
        solver = PolytropicGasSolver()
        rng = np.random.default_rng(5)
        got = make_state(solver, shape, seed=5, weights=[1] * len(NAMES))
        got[1:-1] = np.where(rng.random(got[1:-1].shape) < 0.5, 0.0, -0.0)
        want = got.copy()
        fluxes = []
        for axis in range(len(shape)):
            faces = list(shape)
            faces[axis] += 1
            fshape = (len(shape) + 2, *faces)
            fluxes.append(np.where(rng.random(fshape) < 0.5, 0.0, -0.0))
        solver.advance_with_fluxes(got, 0.1, 0.004, fluxes)
        _reference_advance_with_fluxes(solver, want, 0.1, 0.004, fluxes, len(shape))
        assert_bits_equal(got, want)

    @pytest.mark.parametrize("axis", [0, 1])
    def test_face_states_nan_cell_gives_zero_slope(self, axis):
        # A NaN difference fails `a * b > 0`, so its slope is 0, not NaN.
        solver = PolytropicGasSolver()
        U = make_state(solver, (8, 5), seed=1, weights=[1] * len(NAMES))
        U[0, 5, 4] = np.nan
        with np.errstate(invalid="ignore"):
            got = solver._face_states(U, axis, G, 2)
            want = _reference_face_states(solver, U, axis, G, 2)
        for g, w in zip(got, want):
            assert np.isnan(w).sum() == 1
            assert_bits_equal(g, w)

