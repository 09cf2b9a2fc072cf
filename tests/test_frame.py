"""Left-invariant frame: symbolic oracle, pinned rows, operators.

The frame module derives everything from the group product at import
time.  The oracle here re-derives the same objects through sympy from
an independently written symbolic product, so a transcription slip in
either place shows up as a mismatch.
"""

import numpy as np
import pytest
import sympy as sp

from qheis import frame
from qheis.extremals import ubar_field
from qheis.jets import autodiff_lift


# ---------------------------------------------------------------------------
# Symbolic oracle.


def _symbolic_frame_rows():
    """Push-forward of the coordinate frame at the identity under L_g."""
    t1, x1, y1, z1, x, y, z = sp.symbols("t1 x1 y1 z1 x y z", real=True)
    a = sp.symbols("a0:7", real=True)

    def qmul(u, v):
        return (
            u[0] * v[0] - u[1] * v[1] - u[2] * v[2] - u[3] * v[3],
            u[0] * v[1] + u[1] * v[0] + u[2] * v[3] - u[3] * v[2],
            u[0] * v[2] - u[1] * v[3] + u[2] * v[0] + u[3] * v[1],
            u[0] * v[3] + u[1] * v[2] - u[2] * v[1] + u[3] * v[0],
        )

    g0 = (t1, x1, y1, z1)
    q = (a[0], a[1], a[2], a[3])
    qbar = (q[0], -q[1], -q[2], -q[3])
    twist = qmul(g0, qbar)
    prod = [g0[i] + q[i] for i in range(4)]
    prod += [a[4 + s] + (x, y, z)[s] + 2 * twist[1 + s] for s in range(3)]

    jac = sp.Matrix([[sp.diff(prod[i], a[j]) for j in range(7)] for i in range(7)])
    at_id = jac.subs({a[j]: 0 for j in range(7)})
    # column j of the Jacobian at the identity is the frame field e_j at g0
    return at_id, (t1, x1, y1, z1, x, y, z)


def test_frame_rows_match_symbolic_pushforward():
    at_id, coords = _symbolic_frame_rows()
    rng = np.random.default_rng(11)
    for _ in range(10):
        p = rng.uniform(-2, 2, 7)
        subs = dict(zip(coords, p))
        numeric = np.array(at_id.subs(subs), dtype=float)
        rows = frame.frame_rows(p[None])[0]
        np.testing.assert_allclose(rows[:4], numeric[:, :4].T, atol=1e-12)


def test_pinned_rows():
    # T1, X1, Y1, Z1 at a concrete point, written out by hand
    p = np.array([0.5, -1.0, 2.0, 0.25, 7.0, -3.0, 1.5])
    t1, x1, y1, z1 = p[:4]
    expected = np.array(
        [
            [1, 0, 0, 0, 2 * x1, 2 * y1, 2 * z1],
            [0, 1, 0, 0, -2 * t1, -2 * z1, 2 * y1],
            [0, 0, 1, 0, 2 * z1, -2 * t1, -2 * x1],
            [0, 0, 0, 1, -2 * y1, 2 * x1, -2 * t1],
        ]
    )
    np.testing.assert_allclose(frame.frame_rows(p[None])[0], expected, atol=0)


def test_vertical_scale():
    assert frame.VERTICAL_SCALE == 2.0
    f = autodiff_lift(lambda t1, x1, y1, z1, x, y, z: x + 3.0 * z, tag="vertical-linear")
    vert = frame.frame_jets(f, np.zeros(7), 1).vert
    np.testing.assert_allclose(vert, [[2.0, 0.0, 6.0]], atol=0)


def test_commutators_everywhere(box_points):
    worst = np.max(
        [
            frame.commutator_audit(a, b, p)
            for p in box_points[:25]
            for a in range(4)
            for b in range(a + 1, 4)
        ]
    )
    assert worst <= 1e-13


def test_commutator_audit_checks_the_whole_batch(box_points, monkeypatch):
    assert frame.commutator_audit(0, 1, box_points) <= 1e-13
    clean_rows = frame.frame_rows

    def last_point_corrupted(points):
        rows = clean_rows(points).copy()
        rows[-1] += 1.0
        return rows

    monkeypatch.setattr(frame, "frame_rows", last_point_corrupted)
    assert frame.commutator_audit(0, 1, box_points) > 1e-3


def test_structure_residuals_clean():
    assert np.max(list(frame.structure_residuals().values())) <= 1e-13


def test_sublaplacian_of_q_squared_is_eight(box_points):
    qsq = autodiff_lift(
        lambda t1, x1, y1, z1, x, y, z: t1 * t1 + x1 * x1 + y1 * y1 + z1 * z1,
        tag="q-squared",
    )
    np.testing.assert_allclose(frame.sub_laplacian(qsq, box_points), 8.0, atol=1e-11)


def test_frame_jets_gradient_shape_and_value():
    f = autodiff_lift(lambda t1, x1, y1, z1, x, y, z: x, tag="omega-1")
    p = np.array([1.0, 0, 0, 0, 0, 0, 0])
    # dx against the frame rows at p: T1 -> 2*x1 = 0, X1 -> -2*t1 = -2,
    # Y1 -> 2*z1 = 0, Z1 -> -2*y1 = 0
    grad = frame.frame_jets(f, p, 1).grad
    assert grad.shape == (1, 4)
    np.testing.assert_allclose(grad, [[0, -2, 0, 0]], atol=0)


def test_frame_jets_order_one_is_a_prefix_of_order_two(ubar, box_points):
    one = frame.frame_jets(ubar, box_points, 1)
    two = frame.frame_jets(ubar, box_points, 2)
    assert one.hess is None and one.mixed is None
    assert two.hess.shape == (100, 4, 4) and two.mixed.shape == (100, 4, 3)
    for name in ("value", "grad", "vert"):
        np.testing.assert_array_equal(getattr(one, name), getattr(two, name))


@pytest.mark.parametrize("order", [0, 3, 1.5])
def test_frame_jets_order_is_validated(ubar, order):
    with pytest.raises(ValueError, match="order"):
        frame.frame_jets(ubar, np.zeros(7), order)


def test_ubar_origin_jets(ubar):
    p0 = np.zeros(7)
    assert ubar(p0) == 1024.0
    fj = frame.frame_jets(ubar, p0[None])
    np.testing.assert_allclose(fj.grad[0], np.zeros(4), atol=0)
    np.testing.assert_allclose(fj.vert[0], np.zeros(3), atol=0)
    # PDE at the peak: laplacian = -value^{3/2} = -2^15
    np.testing.assert_allclose(frame.sub_laplacian(ubar, p0), -32768.0, rtol=1e-12)


def test_hessian_antisymmetry_identity(ubar, box_points):
    # e_a e_b f - e_b e_a f = [e_a, e_b] f: correcting the raw frame
    # Hessian by the vertical derivatives against the fundamental forms
    # must land exactly on a symmetric matrix
    fj = frame.frame_jets(ubar, box_points)
    corrected = fj.hess + np.einsum("ns,sab->nab", fj.vert, np.stack(frame.OMEGA))
    assert np.max(np.abs(corrected - corrected.transpose(0, 2, 1))) <= 1e-10


def test_complex_structures_quaternion_relations():
    i1, i2, i3 = frame.complex_structures().matrices
    eye = np.eye(4)
    np.testing.assert_allclose(i1 @ i1, -eye, atol=1e-13)
    np.testing.assert_allclose(i2 @ i2, -eye, atol=1e-13)
    np.testing.assert_allclose(i1 @ i2, i3, atol=1e-13)
    np.testing.assert_allclose(i2 @ i1, -i3, atol=1e-13)
    for m, om in zip((i1, i2, i3), frame.complex_structures().forms):
        # omega_s(X, Y) = g(I_s X, Y) with the frame orthonormal
        np.testing.assert_allclose(om, m.T, atol=1e-13)
