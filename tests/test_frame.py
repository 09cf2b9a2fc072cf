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
from qheis.extremals import left_translation_map, ubar_field
from qheis.jets import autodiff_lift
from test_jets import _fields_of_every_kind


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


def test_frame_rows_are_the_translation_columns(rng):
    # one encoding of the group law: row a at p is column a of the linear
    # part of y -> p o y, bitwise; beyond |coords| = 2, difference quotients
    # of the group product would round
    pts = rng.uniform(-3.0, 3.0, size=(200, 7))
    rows = frame.frame_rows(pts)
    for p, row in zip(pts, rows):
        np.testing.assert_array_equal(row, left_translation_map(p).linear[:, :4].T)


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


@pytest.mark.parametrize(
    "a, b", [(-1, 0), (4, 0), (0, 4), (1, -4), (1.0, 0), (True, 0), (1, False), ("a", 1)]
)
def test_commutator_audit_takes_frame_indices_only(a, b):
    # (-1, 0) would silently audit the pair (3, 0) and (4, 0) leak an IndexError
    with pytest.raises(ValueError, match="frame index"):
        frame.commutator_audit(a, b, np.zeros(7))
    assert frame.commutator_audit(np.int64(3), 0, np.zeros(7)) == 0.0


def test_structure_residuals_clean():
    assert np.max(list(frame.structure_residuals().values())) <= 1e-13


def test_structure_residuals_are_computed_when_called(monkeypatch):
    i1, i2, i3 = frame.IMAT
    monkeypatch.setattr(frame, "IMAT", (i1, i2, -i3))
    assert frame.structure_residuals()["i1i2_i3"] == 2.0


def test_sublaplacian_of_q_squared_is_eight(box_points):
    qsq = autodiff_lift(
        lambda t1, x1, y1, z1, x, y, z: t1 * t1 + x1 * x1 + y1 * y1 + z1 * z1,
        tag="q-squared",
    )
    laplacian = frame.sub_laplacian(frame.frame_jets(qsq, box_points))
    np.testing.assert_allclose(laplacian, 8.0, atol=1e-11)


def test_frame_jets_gradient_shape_and_value():
    f = autodiff_lift(lambda t1, x1, y1, z1, x, y, z: x, tag="omega-1")
    p = np.array([1.0, 0, 0, 0, 0, 0, 0])
    # dx against the frame rows at p: T1 -> 2*x1 = 0, X1 -> -2*t1 = -2,
    # Y1 -> 2*z1 = 0, Z1 -> -2*y1 = 0
    grad = frame.frame_jets(f, p, 1).grad
    assert grad.shape == (1, 4)
    np.testing.assert_allclose(grad, [[0, -2, 0, 0]], atol=0)


@pytest.mark.parametrize("kind", sorted(_fields_of_every_kind()))
def test_frame_jets_order_one_is_a_prefix_of_order_two(kind, box_points):
    f = _fields_of_every_kind()[kind]
    one = frame.frame_jets(f, box_points, 1)
    two = frame.frame_jets(f, box_points, 2)
    assert one.hess is None
    assert two.hess.shape == (100, 4, 4)
    for name in ("value", "grad", "vert"):
        np.testing.assert_array_equal(getattr(one, name), getattr(two, name))
        assert getattr(one, name).tobytes() == getattr(two, name).tobytes()


_PINNED = np.array([0.5, -1.0, 2.0, 0.25, 7.0, -3.0, 1.5])


@pytest.mark.parametrize("kind", sorted(_fields_of_every_kind()))
def test_row_free_gradient_matches_the_frame_rows(kind):
    # the contraction with the constant 12x4 matrix against the audited
    # rows, point by point, relative to the largest component
    f = _fields_of_every_kind()[kind]
    for seed in range(3):
        pts = np.vstack([_PINNED, np.random.default_rng(seed).uniform(-2.0, 2.0, (200, 7))])
        want = np.einsum("naj,nj->na", frame.frame_rows(pts), f.jet_batch(pts, 1)[1])
        got = frame.frame_jets(f, pts, 1).grad
        scale = np.max(np.abs(want), axis=1)
        assert np.all(np.max(np.abs(got - want), axis=1) <= 1e-15 * scale)


@pytest.mark.parametrize("kind", sorted(_fields_of_every_kind()))
def test_row_free_order_two_blocks_match_the_frame_rows(kind):
    # rows @ hess @ rows^T plus the first-order term e_a(c_b^{w_s}) xi_s f
    # against the row-free expansion, point by point, relative to the
    # largest entry of the block
    f = _fields_of_every_kind()[kind]
    for seed in range(3):
        pts = np.vstack([_PINNED, np.random.default_rng(seed).uniform(-2.0, 2.0, (200, 7))])
        _, g, h = f.jet_batch(pts, 2)
        rows = frame.frame_rows(pts)
        first_order = np.einsum("bsa,ns->nab", frame._LIN[:, 4:7, :4], g[:, 4:7])
        want = rows @ h @ np.swapaxes(rows, 1, 2) + first_order
        scale = np.max(np.abs(want), axis=(1, 2))
        err = np.max(np.abs(frame.frame_jets(f, pts, 2).hess - want), axis=(1, 2))
        assert np.all(err <= 1e-15 * scale), (seed, np.max(err / scale))


def test_frame_jets_builds_no_rows(ubar, box_points, monkeypatch):
    def refuse(points):
        raise AssertionError("frame_jets contracted against the (N, 4, 7) rows")

    monkeypatch.setattr(frame, "frame_rows", refuse)
    for order in (1, 2):
        fj = frame.frame_jets(ubar, box_points, order)
        assert fj.grad.shape == (100, 4)
    assert fj.hess.shape == (100, 4, 4)


@pytest.mark.parametrize("order", [0, 3, 1.5, True])
def test_frame_jets_order_is_validated(ubar, order):
    with pytest.raises(ValueError, match="order"):
        frame.frame_jets(ubar, np.zeros(7), order)


@pytest.mark.parametrize("order", [1.0, 2.0, np.float64(2), np.int64(0)])
def test_frame_jets_order_is_a_whole_number_in_one_or_two(ubar, order):
    # the jets' rule: a float order is refused even where it equals 1 or 2
    with pytest.raises(ValueError, match="jet order"):
        frame.frame_jets(ubar, np.zeros((2, 7)), order)


@pytest.mark.parametrize("order", [np.int64(1), np.int32(2)])
def test_frame_jets_take_numpy_integer_orders(ubar, order):
    fj = frame.frame_jets(ubar, np.zeros((2, 7)), order)
    assert (fj.hess is None) == (order == 1)


def test_ubar_origin_jets(ubar):
    p0 = np.zeros(7)
    assert ubar(p0) == 1024.0
    fj = frame.frame_jets(ubar, p0[None])
    np.testing.assert_allclose(fj.grad[0], np.zeros(4), atol=0)
    np.testing.assert_allclose(fj.vert[0], np.zeros(3), atol=0)
    # PDE at the peak: laplacian = -value^{3/2} = -2^15
    np.testing.assert_allclose(frame.sub_laplacian(fj), -32768.0, rtol=1e-12)


def test_hessian_antisymmetry_identity(ubar, box_points):
    # e_a e_b f - e_b e_a f = [e_a, e_b] f: correcting the raw frame
    # Hessian by the vertical derivatives against the fundamental forms
    # must land exactly on a symmetric matrix
    fj = frame.frame_jets(ubar, box_points)
    corrected = fj.hess + np.einsum("ns,sab->nab", fj.vert, np.stack(frame.OMEGA))
    assert np.max(np.abs(corrected - corrected.transpose(0, 2, 1))) <= 1e-10


def test_complex_structures_quaternion_relations():
    i1, i2, i3 = frame.IMAT
    eye = np.eye(4)
    np.testing.assert_allclose(i1 @ i1, -eye, atol=1e-13)
    np.testing.assert_allclose(i2 @ i2, -eye, atol=1e-13)
    np.testing.assert_allclose(i1 @ i2, i3, atol=1e-13)
    np.testing.assert_allclose(i2 @ i1, -i3, atol=1e-13)
    for m, om in zip(frame.IMAT, frame.OMEGA):
        # omega_s(X, Y) = g(I_s X, Y) with the frame orthonormal
        np.testing.assert_allclose(om, m.T, atol=1e-13)
