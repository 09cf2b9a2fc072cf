"""Left-invariant frame and horizontal differential operators.

The horizontal frame (T1, X1, Y1, Z1) and the vertical frame (xi1, xi2, xi3)
are obtained by left-translating the coordinate directions at the identity.
Nothing here is transcribed by hand: the group product is affine in its
second argument, so exact difference quotients of `group_mul` recover the
translation Jacobian, and the frame's affine coefficient rows, the structure
constants, the fundamental 2-forms and the almost complex structures are all
derived from it when the module is imported.  A startup audit checks the
quaternion relations (I_s^2 = -1, I1 I2 = I3, skewness, orthogonality) and
raises ConsistencyError on any failure.

Convention fixed by the commutators: [e_a, e_b] = -2 sum_s omega_s(e_a, e_b) xi_s
with xi_s = 2 d/dw_s, which lands on omega_1(T1, X1) = omega_1(Y1, Z1) = 1 and
cyclic; the I_s act as left multiplication by i, j, k on the frame basis.

Every frame derivative of a field comes from one call, `frame_jets(f, p,
order)`: a single jet evaluation projected onto the frame rows, giving the
value, e_a f and xi_s f at order 1 and adding e_a(e_b f) and e_a(xi_s f) at
order 2.  The sub-Laplacian and the corrected Hessian are read off it.

The covariant Hessian uses the canonical connection of the flat model, in
which the left-invariant frame is parallel, so hess(f)(e_a, e_b) = e_a(e_b f).
The antisymmetry audit (`corrected_hessian` vs the commutator relation) is
the runtime guard for that choice.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .errors import ConsistencyError
from .jets import ScalarField, _as_batch, _max_abs
from .quaternions import group_mul

__all__ = [
    "ComplexStructures",
    "FrameJet",
    "frame_rows",
    "frame_jets",
    "complex_structures",
    "corrected_hessian",
    "sub_laplacian",
    "commutator_audit",
    "structure_residuals",
]

_E7 = np.eye(7)

# Vertical normalization: xi_s = 2 d/dw_s (orthonormal for the model metric).
VERTICAL_SCALE = 2.0


def _translation_jacobian(g0: np.ndarray) -> np.ndarray:
    """d(g0 o y)/dy, exact because the product is affine in y.

    Column a is (g0 o e_a - g0 o (-e_a)) / 2.
    """
    plus = group_mul(g0, _E7)        # rows: g0 o e_a
    minus = group_mul(g0, -_E7)
    return (plus - minus).T / 2.0


def _derive_affine_frame():
    """Affine decomposition of the frame rows from the group law.

    Row a of the horizontal frame at p is column a of the translation
    Jacobian J(p); J is affine in p, so J(p) = J0 + sum_c p_c * JC[c], with
    all pieces extracted exactly from J at 0 and at the coordinate points.
    """
    j0 = _translation_jacobian(np.zeros(7))
    jc = np.array([_translation_jacobian(_E7[c]) - j0 for c in range(7)])
    # Affinity check at a point that is not a coordinate vector.
    probe = np.array([0.3, -1.1, 0.7, 2.0, -0.4, 1.3, 0.9])
    recon = j0 + np.einsum("c,cjk->jk", probe, jc)
    if np.max(np.abs(recon - _translation_jacobian(probe))) > 1e-14:
        raise ConsistencyError("translation Jacobian is not affine in the base point")
    base = j0[:, :4].T                      # (4,7): row a = e_a coefficients at 0
    # lin[a, j, c]: dependence of coefficient j of row a on coordinate c
    lin = np.transpose(jc[:, :, :4], (2, 1, 0))
    vertical = VERTICAL_SCALE * j0[:, 4:7].T  # (3,7), constant rows
    if np.any(jc[:, :, 4:7] != 0.0):
        raise ConsistencyError("vertical translation directions are not constant")
    if np.any(lin[:, :4, :] != 0.0) or np.any(lin[:, :, 4:] != 0.0):
        # Needed for the constant first-order Hessian correction below.
        raise ConsistencyError("frame rows have unexpected coordinate dependence")
    return base, lin, vertical


_BASE, _LIN, _VERTICAL = _derive_affine_frame()


def _derive_structures():
    """Structure constants, fundamental forms and complex structures.

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
    return bracket, omegas, imats


def frame_rows(points) -> np.ndarray:
    """Horizontal frame coefficient rows at each point: shape (N, 4, 7)."""
    pts, _ = _as_batch(points)
    return _BASE + np.einsum("ajc,nc->naj", _LIN, pts)


_BRACKET, OMEGA, IMAT = _derive_structures()

# e_a(c_b^{w_s}) as constant 4x4 matrices, one per vertical direction:
# the only surviving first-order term of the frame Hessian.
_DC = np.array([[[_LIN[b, 4 + s, a] for b in range(4)] for a in range(4)] for s in range(3)])
_OMEGA_STACK = np.stack(OMEGA)


def _verify_structures() -> dict[str, float]:
    eye = np.eye(4)
    res = {}
    i1, i2, i3 = IMAT
    res["square"] = _max_abs(*(m @ m + eye for m in IMAT))
    res["i1i2_i3"] = _max_abs(i1 @ i2 - i3)
    res["skew"] = _max_abs(*(m + m.T for m in IMAT))
    res["orthogonal"] = _max_abs(*(m.T @ m - eye for m in IMAT))
    res["form_vs_structure"] = _max_abs(*(OMEGA[s] - IMAT[s].T for s in range(3)))
    worst = _max_abs(*res.values())
    if not worst <= 1e-14:
        raise ConsistencyError(f"complex structure audit failed: {res}")
    return res


_STRUCTURE_RESIDUALS = _verify_structures()


def structure_residuals() -> dict[str, float]:
    """Residuals of the import-time quaternion-relation audit."""
    return dict(_STRUCTURE_RESIDUALS)


@dataclass(frozen=True)
class ComplexStructures:
    """The three almost complex structures and fundamental 2-forms.

    matrices[s] acts on frame-coordinate vectors; forms[s][a, b] is
    omega_s(e_a, e_b).  Derived from commutators at import, audited there.
    """

    matrices: tuple[np.ndarray, np.ndarray, np.ndarray]
    forms: tuple[np.ndarray, np.ndarray, np.ndarray]


def complex_structures() -> ComplexStructures:
    return ComplexStructures(
        matrices=tuple(m.copy() for m in IMAT),
        forms=tuple(om.copy() for om in OMEGA),
    )


@dataclass(frozen=True)
class FrameJet:
    """Frame derivatives of a field at a batch of points, from one jet call.

    value (N,); grad (N, 4) = e_a f; vert (N, 3) = xi_s f; and at order 2
    hess (N, 4, 4) = e_a(e_b f) and mixed (N, 4, 3) = e_a(xi_s f), which are
    None at order 1.
    """

    value: np.ndarray
    grad: np.ndarray
    vert: np.ndarray
    hess: Optional[np.ndarray] = None
    mixed: Optional[np.ndarray] = None


def frame_jets(f: ScalarField, p, order: int = 2) -> FrameJet:
    """Every frame derivative of f up to `order` (1 or 2) at p.

    p is one point or an (N, 7) batch; the arrays are batched either way.
    The frame Hessian is not symmetric: its antisymmetric part carries the
    commutators, hess[a,b] - hess[b,a] = -2 sum_s omega_s(e_a, e_b) (xi_s f).
    """
    if order not in (1, 2):
        raise ValueError(f"frame jet order must be 1 or 2, got {order!r}")
    pts, _ = _as_batch(p)
    jet = f.jet_batch(pts, order)
    value, grad = jet[0], jet[1]
    rows = frame_rows(pts)
    fj = FrameJet(
        value=value,
        grad=np.einsum("naj,nj->na", rows, grad),
        vert=VERTICAL_SCALE * grad[:, 4:7],
    )
    if order == 1:
        return fj
    hess = jet[2]
    chc = rows @ hess @ np.swapaxes(rows, 1, 2)
    first_order = np.einsum("sab,ns->nab", _DC, grad[:, 4:7])
    return replace(
        fj,
        hess=chc + first_order,
        mixed=VERTICAL_SCALE * np.einsum("naj,njk->nak", rows, hess)[:, :, 4:7],
    )


def corrected_hessian(fj: FrameJet) -> np.ndarray:
    """hess + sum_s (xi_s f) omega_s, symmetric when the conventions hold."""
    return fj.hess + np.einsum("ns,sab->nab", fj.vert, _OMEGA_STACK)


def sub_laplacian(f: ScalarField, p) -> np.ndarray:
    """(T1^2 + X1^2 + Y1^2 + Z1^2) f, the trace of the frame Hessian; shape (N,)."""
    return np.trace(frame_jets(f, p).hess, axis1=1, axis2=2)


def commutator_audit(a: int, b: int, p) -> float:
    """Max-norm of [e_a, e_b](p) + 2 sum_s omega_s(e_a, e_b) xi_s.

    The bracket is recomputed honestly from the frame coefficients and their
    exact derivatives at p; the omegas are the import-time constants, so this
    checks the derived convention at arbitrary points.  A batch of points is
    audited whole: the result is the maximum over every point.
    """
    pts, _ = _as_batch(p)
    rows = frame_rows(pts)
    bracket = rows[:, a] @ _LIN[b].T - rows[:, b] @ _LIN[a].T   # (N, 7)
    expected = np.zeros(7)
    for s in range(3):
        expected -= 2.0 * OMEGA[s][a, b] * _VERTICAL[s]
    return float(np.max(np.abs(bracket - expected)))
