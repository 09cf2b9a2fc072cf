"""Conformal deformation tensors: projections, torsion, curvature, divergence identity."""

import numpy as np
import pytest

from qheis import conformal, frame
from qheis.errors import ConsistencyError, DomainError
from qheis.extremals import FamilyParams, h_family, pde_residual, translate_field
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


@pytest.mark.parametrize("shape", [(2, 8), (3, 3), (16,), (4,)])
def test_casimir_rejects_anything_but_four_by_four(shape):
    # a (2, 8) array has the 16 entries of one matrix per row, so a flat
    # reshape inside the twist would take it silently
    with pytest.raises(ValueError, match=r"\(\.\.\., 4, 4\)"):
        conformal.casimir_project(np.ones(shape), "[3]")


def test_one_matrix_twist_is_the_three_product_sum(rng):
    m = rng.standard_normal((500, 4, 4)) * 10.0 ** rng.uniform(-6, 6, (500, 1, 1))
    want = sum(frame.OMEGA[s] @ m @ frame.IMAT[s] for s in range(3))
    got = np.moveaxis(conformal._twist(np.moveaxis(m, 0, -1)), -1, 0)  # (4, 4, N) planes
    scale = np.max(np.abs(want), axis=(1, 2))
    assert np.all(np.max(np.abs(got - want), axis=(1, 2)) <= 1e-15 * scale)


@pytest.mark.parametrize("part", ["[3]", "[-1]"])
def test_casimir_of_one_matrix_is_its_row_of_the_stack(rng, part):
    m = rng.standard_normal((64, 4, 4))
    stacked = conformal.casimir_project(m, part)
    for i in (0, 17, 63):
        one = conformal.casimir_project(m[i], part)
        assert one.shape == (4, 4)
        assert one.tobytes() == stacked[i].tobytes()


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
    mats = frame.IMAT
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


def sym_part(h, p):
    return conformal.sym_part(frame.frame_jets(h, p))


def test_sym_part_constant_and_radial(box_points):
    assert np.max(np.abs(sym_part(constant_field(2.0), box_points))) == 0.0
    qsq = autodiff_lift(
        lambda t1, x1, y1, z1, x, y, z: t1 * t1 + x1 * x1 + y1 * y1 + z1 * z1,
        tag="q-squared",
    )
    # no vertical dependence: the corrected Hessian is the raw one
    fj = frame.frame_jets(qsq, box_points)
    np.testing.assert_allclose(conformal.sym_part(fj), fj.hess, atol=1e-12)


def test_sym_part_vertical_coordinate(box_points):
    vert = autodiff_lift(lambda t1, x1, y1, z1, x, y, z: 2.0 + x, tag="vertical-x")
    out = sym_part(vert, box_points)
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
        sym_part(broken, np.zeros(7))


def test_sym_part_rejects_a_nan_hessian():
    def jets(pts, order=2):
        n = pts.shape[0]
        return (np.ones(n), np.zeros((n, 7)), np.full((n, 7, 7), np.nan))[: order + 1]

    broken = ScalarField(tag="nan-hessian", jets=jets, biradial_map=None)
    with pytest.raises(ConsistencyError):
        sym_part(broken, np.zeros(7))


# ---------------------------------------------------------------------------
# Torsion and the family.


def torsion(h, p):
    return conformal.torsion_T0_deformed(frame.frame_jets(h, p))


def test_family_torsion_vanishes(rng):
    worst = 0.0
    for i in range(20):
        c, nu = 10.0 ** rng.uniform(-1, 1, 2)
        h = h_family(FamilyParams(c=c, nu=nu))
        if i % 2:
            h = translate_field(h, rng.uniform(-1, 1, 7))
        pts = rng.uniform(-2, 2, (20, 7))
        worst = max(worst, float(np.max(frob(torsion(h, pts)))))
    assert worst <= 1e-10


def test_torsion_negative_control():
    value = float(frob(torsion(quartic_control(), CONTROL_POINT))[0])
    assert value >= 1e-3
    # and it is not mysterious: the norm lands exactly on 2*sqrt(3)
    np.testing.assert_allclose(value, 2.0 * np.sqrt(3.0), rtol=1e-12)


def test_torsion_constant_field(box_points):
    assert np.max(frob(torsion(constant_field(3.0), box_points))) == 0.0


def test_torsion_domain_error():
    with pytest.raises(DomainError):
        torsion(constant_field(-1.0), CONTROL_POINT)


def test_u_collapse(rng, box_points):
    fields = [
        h_family(FamilyParams()),
        h_family(FamilyParams(c=4.0, nu=0.3)),
        translate_field(h_family(FamilyParams(c=0.5, nu=2.0)), rng.uniform(-1, 1, 7)),
        quartic_control(),
    ]
    worst = max(
        float(np.max(frob(conformal.U_deformed(frame.frame_jets(f, box_points))))) for f in fields
    )
    assert worst <= 1e-12


# ---------------------------------------------------------------------------
# Scalar curvature.


def test_scal_family_is_constant_384_c_nu(rng):
    for c, nu in [(2.0**-6, 1.0), (0.11, 3.0), (1.0, 1.0)]:
        h = h_family(FamilyParams(c=c, nu=nu))
        pts = rng.uniform(-2, 2, (50, 7))
        scal = conformal.scal_deformed(frame.frame_jets(h, pts))
        np.testing.assert_allclose(scal, 384.0 * c * nu, rtol=1e-8)


def test_scal_six_normalization():
    # the member scaled so the deformed curvature equals the dimensional
    # constant 4(Q+2)/(Q-2) = 6 at Q = 10
    h = h_family(FamilyParams(c=2.0**-6, nu=1.0))
    rng = np.random.default_rng(123)
    pts = rng.uniform(-2, 2, (50, 7))
    scal = conformal.scal_deformed(frame.frame_jets(h, pts))
    assert np.max(np.abs(scal / 6.0 - 1.0)) <= 1e-8
    assert 4.0 * (10.0 + 2.0) / (10.0 - 2.0) == 6.0


# ---------------------------------------------------------------------------
# Sphere-normalized residual and the divergence identity, on one FrameJet.


def test_yamabe_residual_frozen_examples():
    p = np.zeros(7)

    def residual(h):
        return conformal.yamabe_residual_sphere_norm(frame.frame_jets(h, p))[0]

    assert residual(constant_field(0.5)) == 0.0
    assert residual(constant_field(1.0)) == 2.0
    shifted = autodiff_lift(
        lambda t1, x1, y1, z1, x, y, z: t1 * t1 + x1 * x1 + y1 * y1 + z1 * z1 + 0.5,
        tag="q-squared-shifted",
    )
    np.testing.assert_allclose(residual(shifted), 8.0, atol=1e-12)


def test_divergence_identity_two_routes(box_points):
    # raw twist evaluation vs the Casimir-projection route; equal covectors
    # mean equal values against every direction x
    for h in (h_family(FamilyParams(c=0.8, nu=1.7)), quartic_control()):
        fj = frame.frame_jets(h, box_points)
        a = conformal.divergence_identity_residual(fj)
        b = conformal.divergence_identity_casimir(fj)
        assert a.shape == (len(box_points), 4)
        np.testing.assert_allclose(a, b, atol=1e-9)


_FRAME_JET_FORMULAS = (
    conformal.torsion_T0_deformed,
    conformal.U_deformed,
    conformal.scal_deformed,
    conformal.yamabe_residual_sphere_norm,
    conformal.divergence_identity_residual,
    conformal.divergence_identity_casimir,
    conformal.vector_D,
    conformal.divergence_total_closed_form,
)


@pytest.mark.parametrize("value", [-1.0, 0.0, np.nan])
@pytest.mark.parametrize("formula", _FRAME_JET_FORMULAS, ids=lambda f: f.__name__)
def test_frame_jet_formulas_reject_a_non_positive_factor(formula, value, box_points):
    fj = frame.frame_jets(h_family(FamilyParams()), box_points[:5])
    fj.value[3] = value
    with pytest.raises(DomainError, match="batch index 3"):
        formula(fj)


@pytest.mark.parametrize(
    "formula",
    _FRAME_JET_FORMULAS
    + (conformal.sym_part, frame.corrected_hessian, frame.sub_laplacian, pde_residual),
    ids=lambda f: f.__name__,
)
def test_frame_jet_formulas_need_order_two(formula, box_points):
    # one guard for every reader of the Hessian, not numpy's errors on None
    with pytest.raises(ValueError, match="needs an order-2 FrameJet"):
        formula(frame.frame_jets(h_family(FamilyParams()), box_points[:5], 1))


def _read_only(fj: frame.FrameJet, layout: str) -> frame.FrameJet:
    """fj with read-only arrays, its Hessian laid out as `layout`.

    "planes": the (N, 4, 4) view of C-ordered (4, 4, N) planes, as
    `frame_jets` builds it; "rows": a C-ordered (N, 4, 4) copy.
    """
    if layout == "planes":
        hess = np.ascontiguousarray(fj.hess.transpose(1, 2, 0)).transpose(2, 0, 1)
    else:
        hess = np.array(fj.hess, order="C")
    parts = {"value": fj.value.copy(), "grad": fj.grad.copy(order="K"),
             "vert": fj.vert.copy(), "hess": hess}
    for part in parts.values():
        part.setflags(write=False)
    return frame.FrameJet(**parts)


@pytest.mark.parametrize(
    "formula",
    _FRAME_JET_FORMULAS + (conformal.sym_part, frame.corrected_hessian, frame.sub_laplacian),
    ids=lambda f: f.__name__,
)
def test_frame_jet_formulas_read_planes_and_rows_alike(formula, rng, box_points):
    # the layout of the frame Hessian changes how it is read, not one bit of
    # what is read off it; read-only jets make any write into them raise
    fields = [
        h_family(FamilyParams(c=0.8, nu=1.7)),
        translate_field(h_family(FamilyParams(c=3.0, nu=0.4)), rng.uniform(-1, 1, 7)),
        quartic_control(),
    ]
    for h in fields:
        fj = frame.frame_jets(h, box_points)
        planes = formula(_read_only(fj, "planes"))
        rows = formula(_read_only(fj, "rows"))
        assert planes.shape == rows.shape
        assert planes.tobytes() == rows.tobytes(), h.tag


# ---------------------------------------------------------------------------
# The divergence covectors D.


def test_vector_d_constant_is_zero(box_points):
    d = conformal.vector_D(frame.frame_jets(constant_field(1.5), box_points))
    assert d.shape == (3, len(box_points), 4)
    for part in d:
        assert np.max(np.abs(part)) == 0.0


def test_vector_d_total_vs_closed_form(box_points):
    # the closed form differs from the assembled total by exactly
    # (3/4) h^{-2} (sphere residual) dh
    for h in (h_family(FamilyParams(c=1.1, nu=0.6)), quartic_control()):
        fj = frame.frame_jets(h, box_points)
        d = conformal.vector_D(fj)
        closed = conformal.divergence_total_closed_form(fj)
        res = conformal.yamabe_residual_sphere_norm(fj)
        corr = 0.75 * (fj.value**-2 * res)[:, None] * fj.grad
        np.testing.assert_allclose(d.sum(0), closed - corr, atol=1e-12)


def test_vector_d_purely_vertical_field():
    # horizontal gradient vanishes, so every term carrying dh drops and the
    # vertical product term dh(xi_i) dh(I_i e_a) is zero for the same reason
    h = autodiff_lift(lambda t1, x1, y1, z1, x, y, z: 1.0 + 0.25 * x, tag="vertical-eps")
    d = conformal.vector_D(frame.frame_jets(h, np.zeros(7)))
    for part in d:
        np.testing.assert_allclose(part, np.zeros((1, 4)), atol=1e-14)
