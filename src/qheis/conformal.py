"""Conformal-deformation tensors and projection algebra on the flat model.

Everything below deforms the standard structure by eta -> (2h)^{-1} eta for a
positive conformal factor h and evaluates, pointwise and in closed form, the
tensors that decide whether the deformed structure is Einstein-type: the
symmetric corrected Hessian, its invariant [3] / [-1] split under the
averaged action of the three complex structures, the deformed torsion pieces
and the deformed scalar curvature.  All coefficients are the
seven-dimensional ones; nothing here generalizes to higher quaternionic
dimension.

Every formula except `casimir_project`, which acts on matrices, is a pure
function of one order-2 `FrameJet` of h: a caller takes
`frame.frame_jets(h, points)` once and reads every tensor from it.  All but
`sym_part` divide by h and raise DomainError unless it is positive at every
point; an order-1 jet is a ValueError.  `sym_part` and the three formulas
that read it take a worst case, so they refuse an empty batch (ValueError).

Two identities of the divergence formula behind the sharp constant (the
argument Jerison and Lee gave on the CR Heisenberg group) are checked by
independent routes from the same jet:

* the divergence-identity covector, from the raw twist-averaged Hessian and
  from the Casimir projection of the corrected Hessian;
* the sum of the covectors D_1 + D_2 + D_3 against its closed form, which
  differ by exactly 3/4 h^{-2} times the sphere-normalized Yamabe residual
  times dh.

Two conventions fixed once:

* nabla-dh means the covariant Hessian of the canonical connection, in which
  the left-invariant frame is parallel, so its horizontal block is the plain
  frame Hessian e_a(e_b h).  It is not symmetric; the symmetric correction is
  `sym_part`.  In the twist-averaged combinations of the divergence
  covectors the difference between the two is killed by the averaging, which
  the `divergence-identity-routes` check of `verify-conformal` pins down.
* |grad h|^2 is the horizontal gradient squared norm, xi-directions excluded.

Scalar-curvature normalization: the flat structure has qc-scalar curvature 0,
so `scal_deformed` carries no base-curvature term, and the deformations are
compared against the sphere value baked into the constants
2 - 4h + 3h^{-1}|grad h|^2 (sphere scalar curvature scaled to 8(n+2) = 24,
i.e. Scal = 48 convention divided by the metric factor 2).
"""

from __future__ import annotations

import numpy as np

from .errors import ConsistencyError, DomainError, _max_abs
from .frame import IMAT, OMEGA, FrameJet, _gradsq, _hess, corrected_hessian, sub_laplacian

__all__ = [
    "sym_part",
    "casimir_project",
    "torsion_T0_deformed",
    "U_deformed",
    "scal_deformed",
    "yamabe_residual_sphere_norm",
    "divergence_identity_residual",
    "divergence_identity_casimir",
    "vector_D",
    "divergence_total_closed_form",
]

_SYM_TOL = 1e-9
_EYE4 = np.eye(4)


def _require_positive(fj: FrameJet) -> None:
    """DomainError unless the factor is positive at every point; NaN is not.

    Every formula here reads the Hessian, so an order-1 jet is a ValueError.
    """
    _hess(fj)
    bad = np.flatnonzero(~(fj.value > 0.0))
    if bad.size:
        raise DomainError(
            f"conformal factor is not positive at batch index {bad[0]} "
            f"(value {fj.value[bad[0]]!r})"
        )


def _sphere_term(fj: FrameJet) -> np.ndarray:
    """2 - 4h + 3h^{-1}|grad h|^2, the sphere-normalized zeroth-order term."""
    return 2.0 - 4.0 * fj.value + 3.0 * _gradsq(fj) / fj.value


# Row-major flattening of (4, 4, N) planes turns OMEGA[s] @ m @ IMAT[s]
# into kron(OMEGA[s], IMAT[s]^T) @ vec(m), so the planes are twisted by one
# (16, 16) @ (16, N) product with the sum.  It is stored Fortran-ordered
# because then one matrix (a BLAS gemv) and a stack (gemm) add each entry's
# three terms in the same order; C-ordered they did not, bitwise.
_TWIST_K = np.asfortranarray(sum(np.kron(OMEGA[s], IMAT[s].T) for s in range(3)))


def _twist(m: np.ndarray) -> np.ndarray:
    """Average over the complex structures, sum_s m(I_s ., I_s .), of (4, 4, N) planes."""
    return (_TWIST_K @ m.reshape(16, -1)).reshape(m.shape)


def sym_part(fj: FrameJet) -> np.ndarray:
    """Corrected horizontal Hessian nabla-dh + sum_s dh(xi_s) omega_s, symmetrized.

    The correction cancels the commutator part of the frame Hessian exactly;
    a survivor beyond 1e-9 means the frame conventions are broken, which is
    worth a hard stop rather than a silent symmetrization.  Built as
    (4, 4, N) planes and returned as their (N, 4, 4) view.
    """
    s = corrected_hessian(fj).transpose(1, 2, 0)
    worst = _max_abs(s - s.swapaxes(0, 1))
    if not worst <= _SYM_TOL:  # a NaN asymmetry fails too
        raise ConsistencyError(
            f"corrected Hessian asymmetry {worst:.3e} exceeds {_SYM_TOL}"
        )
    return (0.5 * (s + s.swapaxes(0, 1))).transpose(2, 0, 1)


def casimir_project(m, part: str) -> np.ndarray:
    """Eigenspace projections of the twist average on symmetric matrices.

    part "[3]" is (twist + 1)/4, part "[-1]" is (3 - twist)/4; they are
    complementary idempotents on the symmetric 4x4 matrices, and in this
    dimension the "[3]" image is spanned by the identity.  Accepts a single
    matrix or a stack, shaped (..., 4, 4); any other shape is a ValueError.
    A stack is projected as (4, 4, N) planes: the (N, 4, 4) view of planes,
    as the formulas below pass it, is read and returned without a copy.
    """
    m = np.asarray(m, dtype=float)
    if m.shape[-2:] != (4, 4):
        raise ValueError(f"casimir_project needs (..., 4, 4) matrices, got shape {m.shape}")
    planes = m.reshape(-1, 4, 4).transpose(1, 2, 0)
    tw = _twist(planes)
    if part == "[3]":
        out = (planes + tw) / 4.0
    elif part == "[-1]":
        out = (3.0 * planes - tw) / 4.0
    else:
        raise ValueError(f"unknown Casimir part {part!r}; expected '[3]' or '[-1]'")
    return out.transpose(2, 0, 1).reshape(m.shape)


def torsion_T0_deformed(fj: FrameJet) -> np.ndarray:
    """Deformed horizontal torsion h^{-1} [sym_part]_{[-1]}; zero iff Einstein-type."""
    _require_positive(fj)
    return casimir_project(sym_part(fj), "[-1]") / fj.value[:, None, None]


def U_deformed(fj: FrameJet) -> np.ndarray:
    """Trace-free [3] part of the deformed second torsion component.

    Computed honestly as (2h)^{-1} tracefree P_{[3]}(sym_part - 2h^{-1} dh (x) dh)
    rather than returning zeros: its identical vanishing is a seven-dimension
    collapse the test suite asserts, not an assumption baked in here.
    """
    _require_positive(fj)
    dh = fj.grad.T  # (4, N); the tensors below are (4, 4, N) planes
    inner = sym_part(fj).transpose(1, 2, 0) - 2.0 * (dh[:, None] * dh) / fj.value
    p3 = casimir_project(inner.transpose(2, 0, 1), "[3]").transpose(1, 2, 0)
    tracefree = p3 - np.trace(p3) / 4.0 * _EYE4[:, :, None]
    return (tracefree / (2.0 * fj.value)).transpose(2, 0, 1)


def scal_deformed(fj: FrameJet) -> np.ndarray:
    """Deformed qc-scalar curvature -72 h^{-1}|grad h|^2 + 24 laplacian(h) of the flat model."""
    _require_positive(fj)
    return -72.0 * _gradsq(fj) / fj.value + 24.0 * sub_laplacian(fj)


# ---------------------------------------------------------------------------
# The divergence identity, evaluated on one order-2 FrameJet per batch.


def yamabe_residual_sphere_norm(fj: FrameJet) -> np.ndarray:
    """laplacian(h) - (2 - 4h + 3h^{-1}|grad h|^2) at each point, shape (N,).

    Vanishing at every point means the deformation by h has constant scalar
    curvature equal to the sphere value; this is not a residual of the flat
    family, which satisfies a different normalization.
    """
    _require_positive(fj)
    return sub_laplacian(fj) - _sphere_term(fj)


def _vector_ingredients(fj: FrameJet):
    """Shared contractions for the divergence covectors.

    omdh[s]  = omega_s-image of the horizontal gradient, (N, 4)
    twist[s] = omega_s nabla-dh I_s applied to the gradient, (N, 4)
    mdh      = nabla-dh applied to the gradient, (N, 4)
    """
    hess, dh = _hess(fj), fj.grad
    omdh = [dh @ OMEGA[s].T for s in range(3)]
    twist = [
        (OMEGA[s] @ np.einsum("abn,bn->an", hess, IMAT[s] @ dh.T)).T
        for s in range(3)
    ]
    mdh = np.einsum("abn,bn->an", hess, dh.T).T
    return dh, omdh, twist, mdh


def divergence_identity_residual(fj: FrameJet) -> np.ndarray:
    """The divergence-identity integrand as a covector, shape (N, 4).

    Against a direction x it reads nabla-dh(x, grad h)
    + sum_s nabla-dh(I_s x, I_s grad h) - (2 - 4h + 3h^{-1}|grad h|^2) dh(x),
    so it vanishes for every x exactly when this covector does.  It is zero
    whenever the sphere-normalized equation holds; in general it is the
    equation residual times dh.
    """
    _require_positive(fj)
    dh, _, twist, mdh = _vector_ingredients(fj)
    return mdh + twist[0] + twist[1] + twist[2] - _sphere_term(fj)[:, None] * dh


def divergence_identity_casimir(fj: FrameJet) -> np.ndarray:
    """Independent route to `divergence_identity_residual` through the projections.

    Uses 4 P_{[3]}(sym_part) applied to the gradient in place of the raw
    twist-averaged Hessian; equality of the two routes is the algebraic
    content of the [3]-projection being the trace part.
    """
    _require_positive(fj)
    p3 = casimir_project(sym_part(fj), "[3]")
    return 4.0 * np.einsum("nab,nb->na", p3, fj.grad) - _sphere_term(fj)[:, None] * fj.grad


def vector_D(fj: FrameJet) -> np.ndarray:
    """The three divergence-formula covectors D_1, D_2, D_3, stacked (3, N, 4).

    D_i(e_a) = 1/4 h^{-2} (2 - 4h + 3h^{-1}|grad h|^2) dh(e_a)
             + h^{-2} dh(xi_i) dh(I_i e_a)
             - 1/2 h^{-2} [nabla-dh(I_j e_a, I_j grad h) + nabla-dh(I_k e_a, I_k grad h)]
    for (i, j, k) cyclic.
    """
    _require_positive(fj)
    dh, omdh, twist, _ = _vector_ingredients(fj)
    inv2 = fj.value**-2
    scal = _sphere_term(fj)
    parts = []
    for i in range(3):
        j, k = (i + 1) % 3, (i + 2) % 3
        parts.append(
            0.25 * (inv2 * scal)[:, None] * dh
            + inv2[:, None] * fj.vert[:, i : i + 1] * omdh[i]
            - 0.5 * inv2[:, None] * (twist[j] + twist[k])
        )
    return np.stack(parts)


def divergence_total_closed_form(fj: FrameJet) -> np.ndarray:
    """Closed form of the total divergence covector, shape (N, 4).

    1/4 h^{-2} [3 nabla-dh(X, grad h) - sum_s nabla-dh(I_s X, I_s grad h)]
    + h^{-2} sum_s dh(xi_s) dh(I_s X).  Differs from vector_D(...).sum(0) by
    exactly 3/4 h^{-2} times the Yamabe residual times dh(X); equal on
    solutions.
    """
    _require_positive(fj)
    dh, omdh, twist, mdh = _vector_ingredients(fj)
    inv2 = (fj.value**-2)[:, None]
    out = 0.25 * inv2 * (3.0 * mdh - (twist[0] + twist[1] + twist[2]))
    return out + inv2 * sum(fj.vert[:, s : s + 1] * omdh[s] for s in range(3))
