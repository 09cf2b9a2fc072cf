"""Left-invariant frame and horizontal differential operators.

The horizontal frame (T1, X1, Y1, Z1) and the vertical frame (xi1, xi2, xi3)
are obtained by left-translating the coordinate directions at the identity.
Nothing here is transcribed by hand: the translation Jacobian is
[[I4, 0], [q . TWIST, I3]], read from `quaternions.TWIST`, audited against
`group_mul` at import, and the frame's affine coefficient rows, the
structure constants, the fundamental 2-forms and the almost complex
structures are all derived from it when the module is imported.  A startup
audit checks the quaternion relations (I_s^2 = -1, I1 I2 = I3, skewness,
orthogonality) and raises ConsistencyError on any failure.

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
(N, 4, 7) rows.  The horizontal gradient is g_q + (q (x) g_w) K with one
constant 12x4 matrix K.  At order 2, B comes from one constant 4x12
matrix and rows @ H is H_q + B H_w, the q- and w-rows of the coordinate
Hessian H: its q-columns plus its w-columns times B^T, plus a constant
first-order term, are the frame Hessian.  `frame_rows` stays as the
audited reference.

The covariant Hessian uses the canonical connection of the flat model, in
which the left-invariant frame is parallel, so hess(f)(e_a, e_b) = e_a(e_b f).
The antisymmetry audit (`corrected_hessian` vs the commutator relation) is
the runtime guard for that choice.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .errors import ConsistencyError, _whole
from .jets import ScalarField, _as_batch, _max_abs
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

# grad_a = g_a + sum_{c,s} q_c g_{w_s} TWIST[c, s, a]: _GRAD_K[(c, s), a]
# contracts the flattened outer product q (x) g_w, shape (N, 12).
_GRAD_K = TWIST.reshape(12, 4)
# B[a, s] = sum_c q_c TWIST[c, s, a], the w-columns of the rows:
# B = (q @ _ROWS_K).reshape(4, 3), with _ROWS_K[c, (a, s)].
_ROWS_K = TWIST.transpose(0, 2, 1).reshape(4, 12)


def _derive_structures():
    """Fundamental forms and complex structures, from the structure constants.

    [e_a, e_b]^j = sum_i c_a^i d_i(c_b^j) - c_b^i d_i(c_a^j); with affine rows
    the derivative matrices are the constant _LIN blocks and the bracket is
    point-independent, which is verified below at pseudo-random points.
    """
    rng = np.random.default_rng(7)
    pts = np.vstack([np.zeros(7), rng.uniform(-2.0, 2.0, size=(4, 7))])
    rows = frame_rows(pts)  # (5,4,7)
    brackets = np.einsum("nai,bji->nabj", rows, _LIN) - np.einsum(
        "nbi,aji->nabj", rows, _LIN
    )
    spread = np.max(np.abs(brackets - brackets[0]))
    if spread > 1e-13:
        raise ConsistencyError(f"frame brackets are point-dependent (spread {spread})")
    bracket = brackets[0]  # (4,4,7)
    if np.max(np.abs(bracket[:, :, :4])) > 1e-14:
        raise ConsistencyError("horizontal bracket components should vanish")
    # [e_a,e_b] = -2 sum_s omega_s(e_a,e_b) xi_s and xi_s = 2 d/dw_s,
    # so the d/dw_s coefficient is -4 omega_s(e_a, e_b).
    omegas = tuple(-bracket[:, :, 4 + s] / 4.0 for s in range(3))
    # I_s e_a = sum_b omega_s[a, b] e_b, i.e. the matrix on coordinate
    # vectors is omega_s transposed.
    imats = tuple(om.T.copy() for om in omegas)
    return omegas, imats


def frame_rows(points) -> np.ndarray:
    """Horizontal frame coefficient rows at each point: shape (N, 4, 7).

    The audited reference for `frame_jets`, which never builds them.
    """
    return _BASE + np.einsum("ajc,nc->naj", _LIN, _as_batch(points)[0])


OMEGA, IMAT = _derive_structures()

# e_a(c_b^{w_s}) = TWIST[a, s, b] as constant 4x4 matrices, one per vertical
# direction: the only surviving first-order term of the frame Hessian.
_DC = TWIST.transpose(1, 0, 2).copy()
_OMEGA_STACK = np.stack(OMEGA)


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
    value, grad = jet[0], jet[1]
    twisted = (pts[:, :4, None] * grad[:, None, 4:7]).reshape(-1, 12)
    fj = FrameJet(
        value=value,
        grad=grad[:, :4] + twisted @ _GRAD_K,
        vert=VERTICAL_SCALE * grad[:, 4:7],
    )
    if order == 1:
        return fj
    hess = jet[2]
    b = (pts[:, :4] @ _ROWS_K).reshape(-1, 4, 3)
    row_hess = hess[:, :4, :] + b @ hess[:, 4:, :]  # rows @ hess
    first_order = (grad[:, 4:7] @ _DC.reshape(3, 16)).reshape(-1, 4, 4)
    return replace(
        fj, hess=row_hess[:, :, :4] + row_hess[:, :, 4:] @ np.swapaxes(b, 1, 2) + first_order
    )


def corrected_hessian(fj: FrameJet) -> np.ndarray:
    """hess + sum_s (xi_s f) omega_s, symmetric when the conventions hold."""
    return fj.hess + np.einsum("ns,sab->nab", fj.vert, _OMEGA_STACK)


def sub_laplacian(fj: FrameJet) -> np.ndarray:
    """(T1^2 + X1^2 + Y1^2 + Z1^2) f, the trace of the frame Hessian; shape (N,)."""
    return np.trace(fj.hess, axis1=1, axis2=2)


def commutator_audit(a: int, b: int, p) -> float:
    """Max-norm of [e_a, e_b](p) + 2 sum_s omega_s(e_a, e_b) xi_s.

    The bracket is recomputed honestly from the frame coefficients and their
    exact derivatives at p; the omegas are the import-time constants, so this
    checks the derived convention at arbitrary points.  A batch of points is
    audited whole: the result is the maximum over every point.  a and b are
    frame indices, integers in {0, 1, 2, 3}; anything else is a ValueError.
    """
    a, b = (_whole(i, "frame index", 0, 3) for i in (a, b))
    pts, _ = _as_batch(p)
    rows = frame_rows(pts)
    bracket = rows[:, a] @ _LIN[b].T - rows[:, b] @ _LIN[a].T   # (N, 7)
    expected = np.zeros(7)
    for s in range(3):
        expected -= 2.0 * OMEGA[s][a, b] * _VERTICAL[s]
    return float(np.max(np.abs(bracket - expected)))
