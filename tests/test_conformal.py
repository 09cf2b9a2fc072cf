"""Conformal deformation tensors: projections, torsion, curvature, covectors."""

import numpy as np
import pytest

from qheis import conformal, frame
from qheis.errors import ConsistencyError, DomainError
from qheis.extremals import FamilyParams, h_family, translate_field
from qheis.jets import ScalarField, autodiff_lift, constant_field


def quartic_control():
    def g(t1, x1, y1, z1, x, y, z):
        qq = t1 * t1 + x1 * x1 + y1 * y1 + z1 * z1
        return 1.0 + qq * qq

    return autodiff_lift(g, tag="one-plus-q4")


CONTROL_POINT = np.array([1.0, 0, 0, 0, 0, 0, 0])


def frob(mats):
    mats = np.asarray(mats)
    if mats.ndim == 2:
        mats = mats[None]
    return np.sqrt(np.einsum("nab,nab->n", mats, mats))


# ---------------------------------------------------------------------------
# Casimir projections.


def test_casimir_identity_input():
    eye = np.eye(4)
    np.testing.assert_allclose(conformal.casimir_project(eye, "[3]"), eye, atol=1e-14)
    np.testing.assert_allclose(conformal.casimir_project(eye, "[-1]"), 0.0 * eye, atol=1e-14)


def test_casimir_unknown_part():
    with pytest.raises(ValueError):
        conformal.casimir_project(np.eye(4), "[2]")


def test_casimir_trace_projection(rng):
    m = rng.standard_normal((100, 4, 4))
    m = m + m.transpose(0, 2, 1)
    p3 = conformal.casimir_project(m, "[3]")
    expected = (np.trace(m, axis1=1, axis2=2) / 4.0)[:, None, None] * np.eye(4)
    assert np.max(np.abs(p3 - expected)) <= 1e-13


def test_casimir_algebra(rng):
    m = rng.standard_normal((50, 4, 4))
    m = m + m.transpose(0, 2, 1)
    p3 = conformal.casimir_project(m, "[3]")
    pm1 = conformal.casimir_project(m, "[-1]")
    assert np.max(np.abs(p3 + pm1 - m)) <= 1e-13
    assert np.max(np.abs(conformal.casimir_project(p3, "[3]") - p3)) <= 1e-13
    assert np.max(np.abs(conformal.casimir_project(pm1, "[-1]") - pm1)) <= 1e-13
    assert np.max(np.abs(np.trace(pm1, axis1=1, axis2=2))) <= 1e-12


def test_minus_one_part_twist_characterization(rng):
    # m' in the [-1] eigenspace iff m' + sum_s I_s^T m' I_s = 0; the sum is
    # written out with explicit loops so it does not reuse the module's
    # internal twist helper
    mats = frame.complex_structures().matrices
    m = rng.standard_normal((30, 4, 4))
    m = m + m.transpose(0, 2, 1)
    mp = conformal.casimir_project(m, "[-1]")
    total = mp.copy()
    for s in range(3):
        for n in range(mp.shape[0]):
            total[n] += mats[s].T @ mp[n] @ mats[s]
    assert np.max(np.abs(total)) <= 1e-12


# ---------------------------------------------------------------------------
# Corrected Hessian.


def test_sym_part_constant_and_radial(box_points):
    assert np.max(np.abs(conformal.sym_part(constant_field(2.0), box_points))) == 0.0
    qsq = autodiff_lift(
        lambda t1, x1, y1, z1, x, y, z: t1 * t1 + x1 * x1 + y1 * y1 + z1 * z1,
        tag="q-squared",
    )
    # no vertical dependence: the corrected Hessian is the raw one
    fj = frame.frame_jets(qsq, box_points)
    np.testing.assert_allclose(conformal.sym_part(qsq, box_points), fj.hess, atol=1e-12)


def test_sym_part_vertical_coordinate(box_points):
    vert = autodiff_lift(lambda t1, x1, y1, z1, x, y, z: 2.0 + x, tag="vertical-x")
    out = conformal.sym_part(vert, box_points)
    np.testing.assert_allclose(out, out.transpose(0, 2, 1), atol=1e-13)


def test_sym_part_rejects_inconsistent_jets():
    # a field whose hand-written jets violate the commutation relation
    # cannot produce a symmetric corrected Hessian
    def jets(pts, order=2):
        n = pts.shape[0]
        hess = np.zeros((n, 7, 7))
        hess[:, 0, 1] = 1.0
        hess[:, 1, 0] = -1.0
        return (np.ones(n), np.zeros((n, 7)), hess)[: order + 1]

    broken = ScalarField(tag="broken", jets=jets, biradial_map=None)
    with pytest.raises(ConsistencyError):
        conformal.sym_part(broken, np.zeros(7))


def test_sym_part_rejects_a_nan_hessian():
    def jets(pts, order=2):
        n = pts.shape[0]
        return (np.ones(n), np.zeros((n, 7)), np.full((n, 7, 7), np.nan))[: order + 1]

    broken = ScalarField(tag="nan-hessian", jets=jets, biradial_map=None)
    with pytest.raises(ConsistencyError):
        conformal.sym_part(broken, np.zeros(7))


# ---------------------------------------------------------------------------
# Torsion and the family.


def test_family_torsion_vanishes(rng):
    worst = 0.0
    for i in range(20):
        c, nu = 10.0 ** rng.uniform(-1, 1, 2)
        h = h_family(FamilyParams(c=c, nu=nu))
        if i % 2:
            h = translate_field(h, rng.uniform(-1, 1, 7))
        pts = rng.uniform(-2, 2, (20, 7))
        worst = max(worst, float(np.max(frob(conformal.torsion_T0_deformed(h, pts)))))
    assert worst <= 1e-10


def test_torsion_negative_control():
    value = float(frob(conformal.torsion_T0_deformed(quartic_control(), CONTROL_POINT))[0])
    assert value >= 1e-3
    # and it is not mysterious: the norm lands exactly on 2*sqrt(3)
    np.testing.assert_allclose(value, 2.0 * np.sqrt(3.0), rtol=1e-12)


def test_torsion_constant_field(box_points):
    assert np.max(frob(conformal.torsion_T0_deformed(constant_field(3.0), box_points))) == 0.0


def test_torsion_domain_error():
    with pytest.raises(DomainError):
        conformal.torsion_T0_deformed(constant_field(-1.0), CONTROL_POINT)


def test_u_collapse(rng, box_points):
    fields = [
        h_family(FamilyParams()),
        h_family(FamilyParams(c=4.0, nu=0.3)),
        translate_field(h_family(FamilyParams(c=0.5, nu=2.0)), rng.uniform(-1, 1, 7)),
        quartic_control(),
    ]
    worst = max(float(np.max(frob(conformal.U_deformed(f, box_points)))) for f in fields)
    assert worst <= 1e-12


# ---------------------------------------------------------------------------
# Scalar curvature.


def test_scal_constant_half_passes_base_through(box_points):
    out = conformal.scal_deformed(constant_field(0.5), box_points, base_scal=17.0)
    np.testing.assert_allclose(out, 17.0, atol=1e-12)


def test_scal_family_is_constant_384_c_nu(rng):
    for c, nu in [(2.0**-6, 1.0), (0.11, 3.0), (1.0, 1.0)]:
        h = h_family(FamilyParams(c=c, nu=nu))
        pts = rng.uniform(-2, 2, (50, 7))
        scal = np.asarray(conformal.scal_deformed(h, pts, base_scal=0.0))
        np.testing.assert_allclose(scal, 384.0 * c * nu, rtol=1e-8)


def test_scal_six_normalization():
    # the member scaled so the deformed curvature equals the dimensional
    # constant 4(Q+2)/(Q-2) = 6 at Q = 10
    h = h_family(FamilyParams(c=2.0**-6, nu=1.0))
    rng = np.random.default_rng(123)
    pts = rng.uniform(-2, 2, (50, 7))
    scal = np.asarray(conformal.scal_deformed(h, pts, base_scal=0.0))
    assert np.max(np.abs(scal / 6.0 - 1.0)) <= 1e-8
    assert 4.0 * (10.0 + 2.0) / (10.0 - 2.0) == 6.0


# ---------------------------------------------------------------------------
# Sphere-normalized residual and the divergence identity.


def test_yamabe_residual_frozen_examples():
    p = np.zeros(7)
    assert conformal.yamabe_residual_sphere_norm(constant_field(0.5), p) == 0.0
    assert conformal.yamabe_residual_sphere_norm(constant_field(1.0), p) == 2.0
    shifted = autodiff_lift(
        lambda t1, x1, y1, z1, x, y, z: t1 * t1 + x1 * x1 + y1 * y1 + z1 * z1 + 0.5,
        tag="q-squared-shifted",
    )
    np.testing.assert_allclose(conformal.yamabe_residual_sphere_norm(shifted, p), 8.0, atol=1e-12)


def test_divergence_identity_two_routes(rng, box_points):
    # raw twist evaluation vs the Casimir-projection route
    for h in (h_family(FamilyParams(c=0.8, nu=1.7)), quartic_control()):
        for _ in range(5):
            x = rng.standard_normal(4)
            a = conformal.divergence_identity_residual(h, x, box_points)
            b = conformal.divergence_identity_casimir(h, x, box_points)
            np.testing.assert_allclose(a, b, atol=1e-9)


def test_scalar_f_frozen():
    p = np.zeros(7)
    assert conformal.scalar_f(constant_field(0.5), p) == 1.0
    assert conformal.scalar_f(constant_field(1.0), p) == 1.5
    np.testing.assert_allclose(conformal.scalar_f(h_family(FamilyParams()), p), 1.5, atol=1e-14)


# ---------------------------------------------------------------------------
# The covectors D, F, A.


def test_vector_d_constant_is_zero(box_points):
    d = conformal.vector_D(constant_field(1.5), box_points)
    for part in d.parts:
        assert np.max(np.abs(part)) == 0.0


def test_vector_d_total_vs_closed_form(rng, box_points):
    # the closed form differs from the assembled total by exactly
    # (3/4) h^{-2} (sphere residual) dh
    for h in (h_family(FamilyParams(c=1.1, nu=0.6)), quartic_control()):
        d = conformal.vector_D(h, box_points)
        closed = conformal.divergence_total_closed_form(h, box_points)
        fj = frame.frame_jets(h, box_points)
        res = np.asarray(conformal.yamabe_residual_sphere_norm(h, box_points))
        corr = 0.75 * (fj.value**-2 * res)[:, None] * fj.grad
        np.testing.assert_allclose(d.total, closed - corr, atol=1e-12)


def test_vector_d_purely_vertical_field():
    # horizontal gradient vanishes, so every term carrying dh drops and the
    # vertical product term dh(xi_i) dh(I_i e_a) is zero for the same reason
    h = autodiff_lift(lambda t1, x1, y1, z1, x, y, z: 1.0 + 0.25 * x, tag="vertical-eps")
    d = conformal.vector_D(h, np.zeros(7))
    for part in d.parts:
        np.testing.assert_allclose(part, np.zeros(4), atol=1e-14)


def test_vector_f_single_term():
    i1 = frame.complex_structures().matrices[0]
    e1 = np.array([1.0, 0, 0, 0])
    f1, f2, f3 = conformal.vector_F(e1, np.zeros(4), np.zeros(4))
    # F_1(X) = -D_1(I_1 X): as a covector, component a is -(e1 . I_1 e_a)
    np.testing.assert_allclose(f1, -(e1 @ i1), atol=1e-14)


def test_vector_f_sign_pattern(rng):
    d1, d2, d3 = rng.standard_normal((3, 4))
    f1, f2, f3 = conformal.vector_F(d1, d2, d3)
    mats = frame.complex_structures().matrices
    om = [m.T for m in mats]
    np.testing.assert_allclose(f2, (d1 - d2 + d3) @ om[1].T, atol=1e-13)
    np.testing.assert_allclose(f3, (d1 + d2 - d3) @ om[2].T, atol=1e-13)


def test_vector_a_aggregate_is_sum_of_parts(rng, box_points):
    for h in (h_family(FamilyParams(c=0.9, nu=1.4)), quartic_control()):
        a1, a2, a3 = conformal.vector_A(h, box_points)
        agg = conformal.vector_A_aggregate(h, box_points)
        np.testing.assert_allclose(a1 + a2 + a3, agg, atol=1e-11)


def test_vector_a_constant_is_zero(box_points):
    for part in conformal.vector_A(constant_field(0.5), box_points):
        assert np.max(np.abs(part)) == 0.0


def test_vector_a_explicit_loop_oracle():
    # term-by-term scalar-loop evaluation of the five-term formula straight
    # from the frame jets, no einsum, no shared helper
    h = autodiff_lift(
        lambda t1, x1, y1, z1, x, y, z: 1.0 + 0.1 * t1 * t1 + 0.2 * x + 0.05 * x1 * y,
        tag="mixed-profile",
    )
    rng = np.random.default_rng(9)
    pts = rng.uniform(-1, 1, (6, 7))
    fj = frame.frame_jets(h, pts)
    mats = frame.complex_structures().matrices
    parts = conformal.vector_A(h, pts)
    for n in range(pts.shape[0]):
        v = fj.value[n]
        g = fj.grad[n]
        gsq = float(g @ g)
        for i in range(3):
            cyc = [(i + 1) % 3, (i + 2) % 3]
            for a in range(4):
                want = -0.5 * v**-2 * g[a] - 0.5 * v**-3 * gsq * g[a]
                for s in cyc:
                    isa = mats[s][:, a]
                    want -= 0.5 / v * sum(isa[b] * fj.mixed[n, b, s] for b in range(4))
                    want += 0.5 * v**-2 * fj.vert[n, s] * float(isa @ g)
                    isg = mats[s] @ g
                    want += 0.25 * v**-2 * float(isa @ fj.hess[n] @ isg)
                np.testing.assert_allclose(parts[i][n, a], want, atol=1e-11)
