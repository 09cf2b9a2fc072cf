"""Entire solutions, the deformation family, Cayley transform, Kelvin transform."""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qheis import extremals
from qheis.errors import DomainError, SingularityError
from qheis.extremals import (
    V_AMPLITUDE,
    FamilyParams,
    cayley_contact_factor,
    cayley_forward_batch,
    cayley_inverse_batch,
    dilate_field,
    dilation_map,
    h_family,
    kelvin,
    left_translation_map,
    pde_residual,
    sigma,
    translate_field,
    ubar_field,
    v_field,
)
from qheis.frame import frame_jets, sub_laplacian
from qheis.jets import AffineMap, Hyper2, ScalarField, haar_jacobian_audit, power_compose
from qheis.quadrature import minimize_quotient, spin_rotation_map
from qheis.quaternions import TWIST, dilation, group_inv, group_mul

coords = st.floats(-2.0, 2.0, allow_nan=False)


def values(u, pts):
    return u.jets(np.atleast_2d(np.asarray(pts, dtype=float)))[0]


def rel_residual(u, pts):
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    fj = frame_jets(u, pts)
    return np.abs(pde_residual(fj)) / fj.value**1.5


# ---------------------------------------------------------------------------
# Frozen values.


def test_ubar_frozen_values(ubar):
    assert values(ubar, np.zeros(7))[0] == 1024.0
    e1 = np.array([1.0, 0, 0, 0, 0, 0, 0])
    assert values(ubar, e1)[0] == 64.0
    laplacian = sub_laplacian(frame_jets(ubar, np.zeros(7)))
    np.testing.assert_allclose(laplacian, -32768.0, rtol=1e-13)


def test_v_amplitude():
    assert V_AMPLITUDE == 2.0**11 * math.sqrt(3.0) * math.pi ** (-3.0 / 5.0)
    assert values(v_field(), np.zeros(7))[0] == V_AMPLITUDE


def test_ubar_solves_pde(ubar, rng):
    pts = rng.uniform(-3.0, 3.0, (1000, 7))
    assert np.max(rel_residual(ubar, pts)) <= 1e-9


def test_pde_rejects_negative_fields():
    from qheis.jets import constant_field

    fj = frame_jets(constant_field(2.0), np.zeros((3, 7)))
    fj.value[1] = -2.0
    with pytest.raises(DomainError, match="batch index 1"):
        pde_residual(fj)


# ---------------------------------------------------------------------------
# Symmetries of the equation.


@settings(deadline=None, max_examples=25)
@given(g0=st.tuples(*[coords] * 7), lam=st.floats(0.3, 3.0))
def test_translated_dilated_fields_stay_solutions(ubar, g0, lam):
    u = dilate_field(translate_field(ubar, np.array(g0)), lam)
    pts = np.array([[0.0] * 7, [1.0, -0.5, 0.2, 0.1, 0.4, -0.3, 0.7]])
    assert np.max(rel_residual(u, pts)) <= 1e-9


def test_translate_semantics(ubar, rng, box_points):
    g0 = rng.uniform(-1.5, 1.5, 7)
    moved = translate_field(ubar, g0)
    direct = np.array([values(ubar, group_mul(g0, p))[0] for p in box_points[:20]])
    np.testing.assert_allclose(values(moved, box_points[:20]), direct, rtol=1e-14)
    # peak sits at the inverse of the translation parameter
    assert values(moved, group_inv(g0))[0] == 1024.0


def test_dilate_semantics(ubar, box_points):
    lam = 1.7
    scaled = dilate_field(ubar, lam)
    direct = lam**4 * np.array([values(ubar, dilation(lam, p))[0] for p in box_points[:20]])
    np.testing.assert_allclose(values(scaled, box_points[:20]), direct, rtol=1e-14)


def test_family_center_is_left_translation(rng, box_points):
    g0 = rng.uniform(-1.0, 1.0, 7)
    params = FamilyParams(c=0.7, nu=2.2)
    centered = h_family(FamilyParams(c=0.7, nu=2.2, center=g0))
    # against the group law itself: a centred member is built by translate_field
    np.testing.assert_allclose(
        values(centered, box_points), values(h_family(params), group_mul(g0, box_points)),
        rtol=1e-13,
    )
    assert centered.tag == "translate(h(c=0.7,nu=2.2))"


def _points_first_family_jets(c, nu):
    """Reference: the family's hand jets built points-first, (N, 7, 7) Hessians."""
    b, e = 2.0 * c * nu * nu, 8.0 * c * nu * nu
    if np.ndim(c):
        b, e = b[:, None], e[:, None, None]

    def jets(pts, order=2):
        q, w = pts[:, :4], pts[:, 4:7]
        lin = 1.0 + nu * np.einsum("ni,ni->n", q, q)
        val = c * (lin * lin + nu * nu * np.einsum("ni,ni->n", w, w))
        slope = ((4.0 * c * nu) * lin)[:, None]
        grad = np.empty_like(pts)
        np.multiply(slope, q, out=grad[:, :4])
        np.multiply(b, w, out=grad[:, 4:7])
        hess = np.zeros((pts.shape[0], 7, 7))
        np.einsum("ni,nj->nij", q, q, out=hess[:, :4, :4])
        hess[:, :4, :4] *= e
        hess[:, range(4), range(4)] += slope
        hess[:, range(4, 7), range(4, 7)] = b
        return (val, grad, hess)[: order + 1]

    return jets


def _kernel_points(rng):
    """Generic points of [-3, 3]^7 plus rows with +-0 coordinates."""
    pts = rng.uniform(-3.0, 3.0, size=(400, 7))
    pts[:20] = 0.0
    pts[20:40, 4:] = 0.0
    pts[40:60, :4] = -0.0
    pts[60:100] = rng.integers(-1, 2, size=(40, 7))
    pts[100:120, 1::2] = -0.0
    return pts


def _assert_bitwise(field, reference, pts):
    """Equal bytes at orders 0-2 (signed zeros count); lower orders prefix order 2."""
    full = field.jet_batch(pts, 2)
    for order in (0, 1, 2):
        jet = field.jet_batch(pts, order)
        expected = reference.jet_batch(pts, order)
        assert len(jet) == len(expected) == order + 1
        for part, ref, prefix in zip(jet, expected, full):
            assert part.shape == ref.shape and part.tobytes() == ref.tobytes()
            assert part.tobytes() == prefix.tobytes()


@pytest.mark.parametrize("amplitude, build", [(2.0**10, ubar_field), (V_AMPLITUDE, v_field)])
def test_bubble_kernel_is_bitwise_the_composed_power(rng, amplitude, build):
    # ubar and v are power_compose of the hand kernel's h, and must give bit
    # for bit the power of the points-first hand jets of h
    pts = _kernel_points(rng)
    bubble = build()
    points_first = ScalarField("h", _points_first_family_jets(1.0, 1.0), AffineMap.identity())
    _assert_bitwise(bubble, power_compose(points_first, -2.0, amplitude), pts)
    assert bubble.decay == (8.0, 4.0) and bubble.biradial_map.is_identity()


def test_family_kernel_is_bitwise_the_points_first_jets(rng):
    pts = _kernel_points(rng)
    member = h_family(FamilyParams(c=1.7, nu=0.6))
    _assert_bitwise(member, ScalarField("h", _points_first_family_jets(1.7, 0.6)), pts)
    c, nu = 10.0 ** rng.uniform(-1.0, 1.0, size=(2, len(pts)))
    rows = ScalarField("rows", extremals._family_jets(c, nu))
    _assert_bitwise(rows, ScalarField("h", _points_first_family_jets(c, nu)), pts)


@pytest.mark.parametrize("alpha, coef", [(-2.0, 2.0**10), (0.5, 1.0), (2.0, -1.0)])
def test_chain_hessian_is_the_two_step_outer_product(rng, alpha, coef):
    # Hyper2._chain adds f'' g g^T into f' H a row at a time, against the
    # two-step arithmetic (outer product, scaled in place, added to f' H) on
    # h's jets at the kernel points, +-0 rows included.  The products are the
    # same, so the bytes are equal, the bubbles' power among them.  Only where
    # f' < 0 and f'' < 0 can the sign of a zero differ: there f' times a +0
    # of H is -0, which the row's +0 turns into +0 and the scaled outer
    # product's -0 leaves at -0.  Against the three-operand einsum the bytes
    # are equal everywhere
    pts = _kernel_points(rng)
    val, grad, hess = h_family(FamilyParams(c=1.7, nu=0.6)).jet_batch(pts, 2)
    fp = coef * alpha * val ** (alpha - 1.0)
    fpp = coef * alpha * (alpha - 1.0) * val ** (alpha - 2.0)
    got = Hyper2(val, grad, hess)._chain(coef * val**alpha, lambda: fp, lambda: fpp).hess
    outer = np.einsum("ni,nj->nij", grad, grad)
    outer *= fpp[:, None, None]
    want = fp[:, None, None] * hess
    want += outer
    if coef > 0.0:
        assert got.tobytes() == want.tobytes()
    else:
        assert (got + 0.0).tobytes() == (want + 0.0).tobytes()
    einsum = fp[:, None, None] * hess
    einsum += np.einsum("ni,nj,n->nij", grad, grad, fpp)
    assert got.tobytes() == einsum.tobytes()


@pytest.mark.parametrize("kind", ["ubar", "v", "h", "rows", "rows-power"])
def test_kernel_directional_jets_are_the_contracted_full_jets(rng, kind):
    # the hand kernel contracts natively, g.v from q.v_q and w.v_w, and must
    # agree with its own full gradient contracted block by block, on points
    # with +-0 coordinates too; the value is its bits
    pts = _kernel_points(rng)
    c, nu = 10.0 ** rng.uniform(-1.0, 1.0, size=(2, len(pts)))
    field = {
        "ubar": ubar_field(),
        "v": v_field(),
        "h": h_family(FamilyParams(c=1.7, nu=0.6)),
        "rows": extremals._member(c, nu, "rows"),
        "rows-power": power_compose(extremals._member(c, nu, "rows"), -2.0, 3.0),
    }[kind]
    assert field.along_jets is not None
    full = field.jet_batch(pts, 1)
    for along in (rng.normal(size=(7, 2)), rng.normal(size=(4, 7, 2))):
        blocks = along.reshape(-1, 7, 2)
        n = len(pts) // len(blocks)
        want = (full[1].reshape(len(blocks), n, 7) @ blocks).reshape(len(pts), 2)
        value, got = field.jet_batch(pts, 1, along=along)
        assert value.tobytes() == full[0].tobytes()
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want))


@pytest.mark.parametrize("npoints", [1, 2, 4])
@pytest.mark.parametrize("order", [0, 1, 2])
def test_member_batch_reads_exactly_one_point_per_member(npoints, order):
    members = extremals._member(np.ones(3), np.ones(3), "h[3]")
    with pytest.raises(ValueError, match="3 members reads 3 points, got %d" % npoints):
        members.jet_batch(np.zeros((npoints, 7)), order)
    assert len(members.jet_batch(np.zeros((3, 7)), order)[0]) == 3


def test_left_translation_map_is_the_twist_matrix(rng):
    # bitwise [[I4, 0], [q0 . TWIST, I3]] with offset g0, and the group law
    # on a batch to rounding
    pts = rng.uniform(-3.0, 3.0, size=(200, 7))
    for g0 in rng.uniform(-3.0, 3.0, size=(50, 7)):
        amap = left_translation_map(g0)
        linear = np.eye(7)
        linear[4:, :4] = np.einsum("a,asb->sb", g0[:4], TWIST)
        np.testing.assert_array_equal(amap.linear, linear)
        np.testing.assert_array_equal(amap.offset, g0)
        want = group_mul(g0, pts)
        assert np.max(np.abs(amap(pts) - want)) <= 1e-15 * np.max(np.abs(want))


@pytest.mark.parametrize("shape", [(7,), (1, 7)])
def test_left_translation_map_takes_one_centre(shape):
    g0 = np.arange(1.0, 8.0).reshape(shape)
    amap = left_translation_map(g0)
    np.testing.assert_array_equal(amap.offset, g0.reshape(7))
    g0[..., 0] = 100.0  # the offset is a copy, not an alias of the caller's array
    assert amap.offset[0] == 1.0


def test_left_translation_map_rejects_a_batch_of_centres():
    with pytest.raises(ValueError, match=r"\(2, 7\)"):
        left_translation_map(np.zeros((2, 7)))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_left_translation_map_rejects_non_finite_centres(bad):
    g0 = np.zeros(7)
    g0[5] = bad
    with pytest.raises(DomainError):
        left_translation_map(g0)


# a real number, finite and > 0: float() would take True as 1 and "2" as 2
@pytest.mark.parametrize(
    "lam", [math.nan, math.inf, -math.inf, 0.0, -1.0, True, "2", np.array([1.0, 2.0]), None]
)
@pytest.mark.parametrize(
    "entry",
    [lambda lam: dilation(lam, np.zeros(7)), dilation_map, lambda lam: dilate_field(ubar_field(), lam)],
    ids=["dilation", "dilation_map", "dilate_field"],
)
def test_dilation_factor_must_be_finite_and_positive(entry, lam):
    with pytest.raises(DomainError):
        entry(lam)


def test_dilation_factor_takes_numpy_scalars():
    np.testing.assert_array_equal(dilation_map(np.float64(2.0)).linear, dilation_map(2.0).linear)
    np.testing.assert_array_equal(dilation_map(np.int64(2)).linear, dilation_map(2.0).linear)


@pytest.mark.parametrize(
    "c,nu",
    [(True, 1.0), (1.0, True), ("2", 1.0), (1.0, "x"), (np.array([1.0, 2.0]), 1.0), (1.0, None)],
    ids=repr,
)
def test_family_params_are_real_numbers(c, nu):
    with pytest.raises(DomainError, match="c must|nu must"):
        FamilyParams(c=c, nu=nu)


@pytest.mark.parametrize("c,nu", [(0.0, 1.0), (-1.0, 1.0), (1.0, 0.0), (1.0, -2.0)])
def test_family_params_must_be_positive(c, nu):
    with pytest.raises(DomainError):
        FamilyParams(c=c, nu=nu)


@pytest.mark.parametrize(
    "c,nu", [(math.inf, 1.0), (1.0, math.inf), (math.nan, 1.0), (1.0, math.nan)]
)
def test_family_params_must_be_finite(c, nu):
    with pytest.raises(DomainError):
        FamilyParams(c=c, nu=nu)


# a center of the wrong shape is refused where it is built, not inside a
# field or a search
@pytest.mark.parametrize(
    "center",
    [np.zeros(3), np.zeros((2, 7)), np.zeros(14), np.zeros((1, 1, 7))],
    ids=["3", "2 points", "14", "1x1x7"],
)
def test_family_params_center_is_one_point(center):
    with pytest.raises(ValueError, match="7 coordinates|one center"):
        FamilyParams(center=center)
    assert FamilyParams(center=np.zeros((1, 7))).center.shape == (1, 7)


# A single point or quaternion is an (n,) or (1, n) vector, and the two
# Cayley halves share one (N, 4) shape; anything else is a ValueError
# naming the shapes, raised before numpy sees the arrays.
_HALF = np.full(4, 0.5)
_NOT_ONE = {
    "left_translation_map": (lambda: left_translation_map(np.zeros((1, 1, 7))), "(1, 1, 7)"),
    "haar_jacobian_audit": (lambda: haar_jacobian_audit(np.zeros((1, 1, 7))), "(1, 1, 7)"),
    "spin_rotation_map": (lambda: spin_rotation_map(np.full((2, 4), 0.5), _HALF), "(2, 4)"),
    "cayley-mismatched": (
        lambda: cayley_forward_batch(np.full((2, 4), 0.5), np.full((3, 4), 0.5)),
        "(2, 4) and (3, 4)",
    ),
    "cayley-rank-3": (
        lambda: cayley_forward_batch(np.full((2, 2, 4), 0.5), np.full((2, 2, 4), 0.5)),
        "(2, 2, 4)",
    ),
}


@pytest.mark.parametrize("call, shapes", list(_NOT_ONE.values()), ids=list(_NOT_ONE))
def test_single_point_arguments_refuse_other_shapes(call, shapes):
    with pytest.raises(ValueError, match=re.escape(shapes)):
        call()


def test_single_point_arguments_take_a_row(ubar):
    b = np.array([0.0, 0.6, 0.0, 0.8])
    assert spin_rotation_map(_HALF[None], b[None]).linear.tobytes() == (
        spin_rotation_map(_HALF, b).linear.tobytes()
    )
    # a (1, 7) start center is read as the (7,) one: same search, same result
    g0 = np.array([0.3, -0.2, 0.1, 0.4, 0.2, -0.1, 0.3])
    target = translate_field(dilate_field(ubar, math.sqrt(1.2)), g0)
    row, flat = (minimize_quotient(FamilyParams(center=c), target, seed=0) for c in (g0[None], g0))
    assert row.converged and flat.converged
    assert row.params.nu == flat.params.nu and abs(row.params.nu / 1.2 - 1.0) <= 1e-10
    assert row.value == flat.value
    np.testing.assert_array_equal(row.params.center, flat.params.center)


# ---------------------------------------------------------------------------
# Cayley transform on (N, 4) sphere halves and (N, 7) group points.


def _normalized(q, p):
    """The halves rescaled row by row onto the unit sphere of H^2."""
    scale = 1.0 / np.sqrt(np.sum(q * q, axis=-1) + np.sum(p * p, axis=-1))
    return q * scale[..., None], p * scale[..., None]


def test_sphere_point_normalizes():
    q, p = np.array([[2.0, 0, 0, 0]]), np.array([[0, 2.0, 0, 0]])
    g = cayley_forward_batch(q, p)
    # the forward map reads the normalized point, so a rescaled point lands alike
    np.testing.assert_array_equal(g, cayley_forward_batch(*_normalized(q, p)))
    tq, tp = cayley_inverse_batch(g)
    np.testing.assert_allclose(np.sum(tq * tq + tp * tp, axis=1), 1.0, rtol=1e-15)


def test_sphere_point_rejects_zero():
    with pytest.raises(DomainError):
        cayley_forward_batch(np.zeros((1, 4)), np.zeros((1, 4)))
    halves = np.full((2, 3, 4), 0.5)
    halves[:, 1] = 0.0  # one zero row in a batch is enough
    with pytest.raises(DomainError, match="zero point"):
        cayley_forward_batch(*halves)


def test_cayley_roundtrip_group_side(rng):
    pts = rng.uniform(-2.0, 2.0, (1000, 7))
    back = cayley_forward_batch(*cayley_inverse_batch(pts))
    np.testing.assert_allclose(back, pts, atol=1e-12)


def test_cayley_roundtrip_sphere_side(rng):
    q, p = _normalized(*rng.standard_normal((2, 50, 4)))
    tq, tp = cayley_inverse_batch(cayley_forward_batch(q, p))
    np.testing.assert_allclose(tq, q, atol=1e-12)
    np.testing.assert_allclose(tp, p, atol=1e-12)


def test_cayley_pole():
    with pytest.raises(SingularityError):
        cayley_forward_batch([0.0, 0, 0, 0], [-1.0, 0, 0, 0])


def test_cayley_batch_roundtrip(rng):
    pts = rng.uniform(-2.0, 2.0, (10_000, 7))
    q, p = cayley_inverse_batch(pts)
    np.testing.assert_allclose(np.sum(q * q + p * p, axis=1), 1.0, rtol=1e-12)
    back = cayley_forward_batch(q, p)
    again_q, again_p = cayley_inverse_batch(back)
    worst = np.max([np.max(np.abs(back - pts)), np.max(np.abs(again_q - q)),
                    np.max(np.abs(again_p - p))])
    assert worst <= 1e-12


def test_cayley_batch_with_the_pole_raises(rng):
    q, p = rng.standard_normal((2, 5, 4))
    q[3], p[3] = 0.0, [-1.0, 0.0, 0.0, 0.0]
    with pytest.raises(SingularityError):
        cayley_forward_batch(q, p)
    cayley_forward_batch(np.delete(q, 3, axis=0), np.delete(p, 3, axis=0))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("half", [0, 1])
def test_cayley_refuses_non_finite_halves(bad, half):
    # a NaN half would otherwise come back as a row of NaN
    halves = [np.zeros((2, 4)), np.full((2, 4), 0.5)]
    halves[half][1, 2] = bad
    with pytest.raises(DomainError, match="NaN or infinite"):
        cayley_forward_batch(*halves)
    with pytest.raises(DomainError, match="NaN or infinite"):
        cayley_forward_batch(halves[0][1], halves[1][1])


def test_contact_factor_frozen():
    assert cayley_contact_factor(np.zeros(7)) == 8.0
    assert cayley_contact_factor(np.array([1.0, 0, 0, 0, 0, 0, 0])) == 2.0


# ---------------------------------------------------------------------------
# Inversion and the Kelvin transform.


def test_sigma_is_an_involution(rng):
    pts = rng.uniform(-2.0, 2.0, (200, 7))
    np.testing.assert_allclose(sigma(sigma(pts)), pts, atol=1e-12)


def test_sigma_singular_at_identity():
    with pytest.raises(SingularityError):
        sigma(np.zeros(7))


def test_sigma_of_one_point_is_one_point_array():
    g = np.array([1.0, 0.5, 0, 0, 0.3, 0, 0])
    out = sigma(g)
    assert type(out) is np.ndarray and out.shape == (7,)
    np.testing.assert_allclose(sigma(out), g, atol=1e-14)


def test_kelvin_is_an_involution(ubar, rng):
    pts = rng.uniform(0.4, 2.0, (50, 7))
    twice = kelvin(kelvin(ubar))
    np.testing.assert_allclose(values(twice, pts), values(ubar, pts), rtol=1e-12)


def test_kelvin_preserves_solutions(ubar, rng):
    pts = rng.uniform(-2.0, 2.0, (500, 7))
    pts = pts[np.einsum("ni,ni->n", pts[:, :4], pts[:, :4]) > 0.25]
    assert np.max(rel_residual(kelvin(ubar), pts)) <= 1e-8


def test_kelvin_singular_at_identity(ubar):
    with pytest.raises(SingularityError):
        values(kelvin(ubar), np.zeros(7))
