"""Left-invariant frame and horizontal differential operators.

The horizontal frame (T1, X1, Y1, Z1) and the vertical frame (xi1, xi2, xi3)
are obtained by left-translating the coordinate directions at the identity.
Nothing here is transcribed by hand: the translation Jacobian is
[[I4, 0], [q . TWIST, I3]], read from `quaternions.TWIST`, audited against
`group_mul` at import, and the frame's affine coefficient rows and the
structure constants are both read off it.  The fundamental 2-forms are
omega_s = -TWIST[:, s, :] / 2 and the almost complex structures their
transposes.  A startup audit checks the quaternion relations (I_s^2 = -1,
I1 I2 = I3, skewness, orthogonality) and raises ConsistencyError on any
failure; `commutator_audit` compares the bracket of the rows with the
structure constants for every pair at every point in one product; like
every worst case it refuses an empty batch (ValueError).

Convention fixed by the commutators: [e_a, e_b] = -2 sum_s omega_s(e_a, e_b) xi_s
with xi_s = 2 d/dw_s, which lands on omega_1(T1, X1) = omega_1(Y1, Z1) = 1 and
cyclic; the I_s act as left multiplication by i, j, k on the frame basis.

Every frame derivative of a field comes from one call, `frame_jets(f, p,
order)`: a single jet evaluation projected onto the frame, giving the
value, e_a f and xi_s f at order 1 and adding e_a(e_b f) at order 2.
Every formula of a field's frame derivatives, here and in `conformal` and
`extremals`, takes that one `FrameJet`: the sub-Laplacian and the
corrected Hessian are read off it.
The rows are [I4 | B(q)] with B linear in q, so no order builds the
(N, 4, 7) rows.  The projection runs points-last: B is built once as
(4, 3, N) planes from one constant 4x12 matrix, and the coordinate
gradient and Hessian are read as (7, N) and (7, 7, N) planes, which the
family kernel returns without a copy.  Each term is one einsum over the
B planes, contracting s in one pass over all N points: the horizontal
gradient g_q + B g_w ("asn,sn->an"); at order 2, rows @ H = H_q + B H_w
("asn,sjn->ajn"), and its w-columns times B^T ("asn,bsn->abn"), to which
the constant first-order term and the q-columns are added, are the frame
Hessian, built as (4, 4, N) planes and returned as their (N, 4, 4) view.
The Hessian formulas (`corrected_hessian`, `sub_laplacian` and those of
`conformal`) read those planes through `_hess`, which copies any other
layout into them.  The jets are read and never written: a points-last
jet read without a copy is the field's own memory.  `frame_rows` stays
as the audited reference.

The covariant Hessian uses the canonical connection of the flat model, in
which the left-invariant frame is parallel, so hess(f)(e_a, e_b) = e_a(e_b f).
The antisymmetry audit (`corrected_hessian` vs the commutator relation) is
the runtime guard for that choice.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .errors import ConsistencyError, _max_abs, _whole
from .jets import ScalarField, _as_batch
from .quaternions import TWIST

__all__ = [
    "FrameJet",
    "frame_rows",
    "frame_jets",
    "corrected_hessian",
    "sub_laplacian",
    "commutator_audit",
    "structure_residuals",
]

_E7 = np.eye(7)

# Vertical normalization: xi_s = 2 d/dw_s (orthonormal for the model metric).
VERTICAL_SCALE = 2.0


# Row a of the horizontal frame at p is column a of the translation
# Jacobian [[I4, 0], [q . TWIST, I3]]: e_a plus the w-coefficients
# sum_c q_c TWIST[c, s, a].  _LIN[a, j, c] is the dependence of coefficient
# j of row a on coordinate c; only the w-coefficients depend, and only on q.
_BASE = _E7[:4]
_LIN = np.zeros((4, 7, 7))
_LIN[:, 4:7, :4] = TWIST.T
_VERTICAL = VERTICAL_SCALE * _E7[4:7]  # (3,7), constant rows

# B[a, s] = sum_c q_c TWIST[c, s, a], the w-columns of the rows, as
# (4, 3, N) planes: B = (_ROWS_K.T @ q^T).reshape(4, 3, N), _ROWS_K[c, (a, s)].
_ROWS_K = TWIST.transpose(0, 2, 1).reshape(4, 12)
# TWIST is antisymmetric in (a, b), so [e_a, e_b] = 2 sum_s TWIST[a, s, b] d/dw_s,
# which is -2 sum_s omega_s(e_a, e_b) xi_s for omega_s = -TWIST[:, s, :] / 2.
# I_s e_a = sum_b omega_s[a, b] e_b: its matrix is omega_s transposed.
OMEGA = tuple(-TWIST[:, s, :] / 2.0 for s in range(3))
IMAT = tuple(om.T.copy() for om in OMEGA)


def frame_rows(points) -> np.ndarray:
    """Horizontal frame coefficient rows at each point: shape (N, 4, 7).

    The audited reference for `frame_jets`, which never builds them.
    """
    return _BASE + np.einsum("ajc,nc->naj", _LIN, _as_batch(points)[0])


# e_a(c_b^{w_s}) = TWIST[a, s, b] as constant 4x4 matrices, one per vertical
# direction: the only surviving first-order term of the frame Hessian.
_DC = TWIST.transpose(1, 0, 2).copy()
_OMEGA_STACK = np.stack(OMEGA)
# [e_a, e_b] = -2 sum_s omega_s(e_a, e_b) xi_s as coefficient rows, (4, 4, 7)
_COMMUTATORS = -2.0 * np.tensordot(_OMEGA_STACK, _VERTICAL, axes=(0, 0))


def structure_residuals() -> dict[str, float]:
    """Residuals of the quaternion relations of IMAT and OMEGA, computed when called."""
    eye = np.eye(4)
    i1, i2, i3 = IMAT
    return {
        "square": _max_abs(*(m @ m + eye for m in IMAT)),
        "i1i2_i3": _max_abs(i1 @ i2 - i3),
        "skew": _max_abs(*(m + m.T for m in IMAT)),
        "orthogonal": _max_abs(*(m.T @ m - eye for m in IMAT)),
        "form_vs_structure": _max_abs(*(OMEGA[s] - IMAT[s].T for s in range(3))),
    }


# the import-time audit, from the same computation
if not _max_abs(*structure_residuals().values()) <= 1e-14:
    raise ConsistencyError(f"complex structure audit failed: {structure_residuals()}")


@dataclass(frozen=True)
class FrameJet:
    """Frame derivatives of a field at a batch of points, from one jet call.

    value (N,); grad (N, 4) = e_a f; vert (N, 3) = xi_s f; and at order 2
    hess (N, 4, 4) = e_a(e_b f), which is None at order 1.  Every block is
    contracted from the coordinate jet through the constant matrices of the
    rows' linear part, never through the (N, 4, 7) rows of `frame_rows`.
    grad and hess are transposed views of points-last planes.
    """

    value: np.ndarray
    grad: np.ndarray
    vert: np.ndarray
    hess: Optional[np.ndarray] = None


def frame_jets(f: ScalarField, p, order: int = 2) -> FrameJet:
    """Every frame derivative of f up to `order` (1 or 2, a whole number) at p.

    p is one point or an (N, 7) batch; the arrays are batched either way.
    The frame Hessian is not symmetric: its antisymmetric part carries the
    commutators, hess[a,b] - hess[b,a] = -2 sum_s omega_s(e_a, e_b) (xi_s f).
    """
    order = _whole(order, "jet order", 1, 2)
    pts, _ = _as_batch(p)
    jet = f.jet_batch(pts, order)
    # points-last planes; the jets are read, never written
    g = np.ascontiguousarray(jet[1].T)  # (7, N)
    b = (_ROWS_K.T @ pts[:, :4].T).reshape(4, 3, -1)  # B[a, s] planes
    grad = np.einsum("asn,sn->an", b, g[4:7])  # g_q + B g_w
    grad += g[:4]
    fj = FrameJet(value=jet[0], grad=grad.T, vert=VERTICAL_SCALE * jet[1][:, 4:7])
    if order == 1:
        return fj
    h = np.ascontiguousarray(jet[2].transpose(1, 2, 0))  # (7, 7, N)
    rows_h = np.einsum("asn,sjn->ajn", b, h[4:7])  # rows @ H = H_q + B H_w, (4, 7, N)
    rows_h += h[:4]
    hess = np.einsum("asn,bsn->abn", rows_h[:, 4:7], b)  # (H_qw + B H_ww) B^T
    hess += (_DC.reshape(3, 16).T @ g[4:7]).reshape(4, 4, -1)  # the first-order term
    hess += rows_h[:, :4]
    return replace(fj, hess=hess.transpose(2, 0, 1))


def _hess(fj: FrameJet) -> np.ndarray:
    """The frame Hessian of fj as C-ordered (4, 4, N) planes; order 1 is a ValueError.

    The one guard and the one reader of the Hessian for every formula,
    here and in `conformal` and `extremals`.  The planes `frame_jets`
    builds are read without a copy and any other layout is copied into
    them, so every formula reads one memory order and gives bitwise the
    same arrays from either layout.
    """
    if fj.hess is None:
        raise ValueError("a frame-Hessian formula needs an order-2 FrameJet, got order 1")
    return np.ascontiguousarray(fj.hess.transpose(1, 2, 0))


def corrected_hessian(fj: FrameJet) -> np.ndarray:
    """hess + sum_s (xi_s f) omega_s, symmetric when the conventions hold.

    Built as (4, 4, N) planes and returned as their (N, 4, 4) view.
    """
    out = (_OMEGA_STACK.reshape(3, 16).T @ fj.vert.T).reshape(4, 4, -1)
    out += _hess(fj)
    return out.transpose(2, 0, 1)


def _gradsq(fj: FrameJet) -> np.ndarray:
    """|grad_H f|^2 = sum_a (e_a f)^2, the horizontal energy density; shape (N,)."""
    return np.einsum("na,na->n", fj.grad, fj.grad)


def sub_laplacian(fj: FrameJet) -> np.ndarray:
    """(T1^2 + X1^2 + Y1^2 + Z1^2) f, the trace of the frame Hessian; shape (N,)."""
    return np.trace(_hess(fj))


def commutator_audit(p) -> float:
    """Max-norm of [e_a, e_b](p) + 2 sum_s omega_s(e_a, e_b) xi_s over every pair.

    The bracket is computed from the frame coefficient rows and their exact
    derivatives at p; the omegas are read off TWIST by a different formula,
    so this checks the convention at arbitrary points.  p is one point or
    an (N, 7) batch, audited whole, every pair (a, b) at every point; an
    empty batch is a ValueError.
    """
    # lie[n, a, b] = e_a applied to the coefficients of row b at point n
    lie = (frame_rows(p).reshape(-1, 7) @ _LIN.reshape(28, 7).T).reshape(-1, 4, 4, 7)
    return _max_abs(lie - lie.swapaxes(1, 2) - _COMMUTATORS)
