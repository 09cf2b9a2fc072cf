"""Conformal-deformation tensors and projection algebra on the flat model.

Everything below deforms the standard structure by eta -> (2h)^{-1} eta for a
positive conformal factor h and evaluates, pointwise and in closed form, the
tensors that decide whether the deformed structure is Einstein-type: the
symmetric corrected Hessian, its invariant [3] / [-1] split under the
averaged action of the three complex structures, the deformed torsion pieces,
the deformed scalar curvature, and the first-order vector quantities built
from them.  All coefficients are the seven-dimensional ones; nothing here
generalizes to higher quaternionic dimension.

Two conventions fixed once:

* nabla-dh means the covariant Hessian of the canonical connection, in which
  the left-invariant frame is parallel, so its horizontal block is the plain
  frame Hessian e_a(e_b h).  It is not symmetric; the symmetric correction is
  `sym_part`.  In the twist-averaged combinations used by the vector
  quantities the difference between the two is killed by the averaging, which
  `test_conformal` pins down.
* |grad h|^2 is the horizontal gradient squared norm, xi-directions excluded.

Scalar-curvature normalization: the flat structure has qc-scalar curvature 0
and the deformations are compared against the sphere value baked into the
constants 2 - 4h + 3h^{-1}|grad h|^2 (sphere scalar curvature scaled to
8(n+2) = 24, i.e. Scal = 48 convention divided by the metric factor 2).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConsistencyError, DomainError
from .frame import IMAT, OMEGA, FrameJet, frame_jets
from .jets import ScalarField, _as_batch

__all__ = [
    "sym_part",
    "casimir_project",
    "torsion_T0_deformed",
    "U_deformed",
    "scal_deformed",
    "yamabe_residual_sphere_norm",
    "sphere_scal_term",
    "divergence_identity_residual",
    "divergence_identity_casimir",
    "DParts",
    "vector_D",
    "divergence_total_closed_form",
    "vector_F",
    "scalar_f",
    "vector_A",
    "vector_A_aggregate",
]

_SYM_TOL = 1e-9
_EYE4 = np.eye(4)
_OMEGA_STACK = np.stack(OMEGA)


def _pack(h: ScalarField, p, positive: bool) -> tuple[bool, FrameJet]:
    pts, squeeze = _as_batch(p)
    h._check_domain(pts)
    fj = frame_jets(h, pts)
    if positive and np.any(fj.value <= 0.0):
        bad = pts[fj.value <= 0.0][0]
        raise DomainError(f"conformal factor '{h.tag}' is not positive at {bad}")
    return squeeze, fj


def _sq(arr: np.ndarray, squeeze: bool):
    return arr[0] if squeeze else arr


def _gradsq(fj: FrameJet) -> np.ndarray:
    return np.einsum("na,na->n", fj.grad, fj.grad)


def _twist(m: np.ndarray) -> np.ndarray:
    """Average over the complex structures: sum_s m(I_s ., I_s .)."""
    return sum(OMEGA[s] @ m @ IMAT[s] for s in range(3))


def _sym_from_jet(fj: FrameJet) -> np.ndarray:
    s = fj.hess + np.einsum("ns,sab->nab", fj.vert, _OMEGA_STACK)
    worst = np.max(np.abs(s - np.swapaxes(s, 1, 2)))
    if worst > _SYM_TOL:
        raise ConsistencyError(
            f"corrected Hessian asymmetry {worst:.3e} exceeds {_SYM_TOL}"
        )
    return 0.5 * (s + np.swapaxes(s, 1, 2))


def sym_part(h: ScalarField, p) -> np.ndarray:
    """Corrected horizontal Hessian nabla-dh + sum_s dh(xi_s) omega_s.

    The correction cancels the commutator part of the frame Hessian exactly;
    a survivor beyond 1e-9 means the frame conventions are broken, which is
    worth a hard stop rather than a silent symmetrization.
    """
    squeeze, fj = _pack(h, p, positive=False)
    return _sq(_sym_from_jet(fj), squeeze)


def casimir_project(m, part: str) -> np.ndarray:
    """Eigenspace projections of the twist average on symmetric matrices.

    part "[3]" is (twist + 1)/4, part "[-1]" is (3 - twist)/4; they are
    complementary idempotents on the symmetric 4x4 matrices, and in this
    dimension the "[3]" image is spanned by the identity.  Accepts a single
    matrix or a stack.
    """
    m = np.asarray(m, dtype=float)
    tw = _twist(m)
    if part == "[3]":
        return (m + tw) / 4.0
    if part == "[-1]":
        return (3.0 * m - tw) / 4.0
    raise ValueError(f"unknown Casimir part {part!r}; expected '[3]' or '[-1]'")


def torsion_T0_deformed(h: ScalarField, p) -> np.ndarray:
    """Deformed horizontal torsion h^{-1} [sym_part]_{[-1]}; zero iff Einstein-type."""
    squeeze, fj = _pack(h, p, positive=True)
    s = _sym_from_jet(fj)
    out = casimir_project(s, "[-1]") / fj.value[:, None, None]
    return _sq(out, squeeze)


def U_deformed(h: ScalarField, p) -> np.ndarray:
    """Trace-free [3] part of the deformed second torsion component.

    Computed honestly as (2h)^{-1} tracefree P_{[3]}(sym_part - 2h^{-1} dh (x) dh)
    rather than returning zeros: its identical vanishing is a seven-dimension
    collapse the test suite asserts, not an assumption baked in here.
    """
    squeeze, fj = _pack(h, p, positive=True)
    s = _sym_from_jet(fj)
    outer = np.einsum("na,nb->nab", fj.grad, fj.grad)
    inner = s - 2.0 * outer / fj.value[:, None, None]
    p3 = casimir_project(inner, "[3]")
    tracefree = p3 - (np.trace(p3, axis1=1, axis2=2) / 4.0)[:, None, None] * _EYE4
    out = tracefree / (2.0 * fj.value[:, None, None])
    return _sq(out, squeeze)


def scal_deformed(h: ScalarField, p, base_scal: float = 0.0):
    """Deformed qc-scalar curvature 2h*s - 72 h^{-1}|grad h|^2 + 24 laplacian(h)."""
    squeeze, fj = _pack(h, p, positive=True)
    lap = np.trace(fj.hess, axis1=1, axis2=2)
    out = 2.0 * fj.value * base_scal - 72.0 * _gradsq(fj) / fj.value + 24.0 * lap
    return float(out[0]) if squeeze else out


def sphere_scal_term(h: ScalarField, p):
    """The zeroth-order term 2 - 4h + 3h^{-1}|grad h|^2 of the sphere-normalized equation."""
    squeeze, fj = _pack(h, p, positive=True)
    out = 2.0 - 4.0 * fj.value + 3.0 * _gradsq(fj) / fj.value
    return float(out[0]) if squeeze else out


def yamabe_residual_sphere_norm(h: ScalarField, p):
    """laplacian(h) - (2 - 4h + 3h^{-1}|grad h|^2); plain formula evaluation.

    Vanishing at every point means the deformation by h has constant scalar
    curvature equal to the sphere value; this is not a residual of the flat
    family, which satisfies a different normalization.
    """
    squeeze, fj = _pack(h, p, positive=True)
    lap = np.trace(fj.hess, axis1=1, axis2=2)
    out = lap - (2.0 - 4.0 * fj.value + 3.0 * _gradsq(fj) / fj.value)
    return float(out[0]) if squeeze else out


def _vector_ingredients(fj: FrameJet):
    """Shared contractions for the D / A / E quantities.

    omdh[s]  = omega_s-image of the horizontal gradient, (N, 4)
    twist[s] = omega_s nabla-dh I_s applied to the gradient, (N, 4)
    mdh      = nabla-dh applied to the gradient, (N, 4)
    """
    dh = fj.grad
    omdh = [dh @ OMEGA[s].T for s in range(3)]
    twist = [
        (fj.hess @ (dh @ IMAT[s].T)[:, :, None])[:, :, 0] @ OMEGA[s].T
        for s in range(3)
    ]
    mdh = np.einsum("nab,nb->na", fj.hess, dh)
    return dh, omdh, twist, mdh


def divergence_identity_residual(h: ScalarField, x, p):
    """The divergence-identity integrand against direction x.

    nabla-dh(x, grad h) + sum_s nabla-dh(I_s x, I_s grad h)
    - (2 - 4h + 3h^{-1}|grad h|^2) dh(x).  Zero for every x whenever the
    sphere-normalized equation holds; in general it is the equation residual
    times dh(x), which `test_conformal` uses as a cross-check.
    """
    squeeze, fj = _pack(h, p, positive=True)
    x = np.asarray(x, dtype=float)
    dh, _, twist, mdh = _vector_ingredients(fj)
    scal = 2.0 - 4.0 * fj.value + 3.0 * _gradsq(fj) / fj.value
    evec = mdh + twist[0] + twist[1] + twist[2] - scal[:, None] * dh
    out = evec @ x
    return float(out[0]) if squeeze else out


def divergence_identity_casimir(h: ScalarField, x, p):
    """Independent route to `divergence_identity_residual` through the projections.

    Uses 4 P_{[3]}(sym_part) applied to the gradient in place of the raw
    twist-averaged Hessian; equality of the two routes is the algebraic
    content of the [3]-projection being the trace part.
    """
    squeeze, fj = _pack(h, p, positive=True)
    x = np.asarray(x, dtype=float)
    p3 = casimir_project(_sym_from_jet(fj), "[3]")
    scal = 2.0 - 4.0 * fj.value + 3.0 * _gradsq(fj) / fj.value
    evec = 4.0 * np.einsum("nab,nb->na", p3, fj.grad) - scal[:, None] * fj.grad
    out = evec @ x
    return float(out[0]) if squeeze else out


@dataclass(frozen=True)
class DParts:
    """The three divergence covectors and their sum, components against e_a."""

    d1: np.ndarray
    d2: np.ndarray
    d3: np.ndarray

    @property
    def total(self) -> np.ndarray:
        return self.d1 + self.d2 + self.d3

    @property
    def parts(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        return (self.d1, self.d2, self.d3)


def vector_D(h: ScalarField, p) -> DParts:
    """The three divergence-formula covectors D_1, D_2, D_3.

    D_i(e_a) = 1/4 h^{-2} (2 - 4h + 3h^{-1}|grad h|^2) dh(e_a)
             + h^{-2} dh(xi_i) dh(I_i e_a)
             - 1/2 h^{-2} [nabla-dh(I_j e_a, I_j grad h) + nabla-dh(I_k e_a, I_k grad h)]
    for (i, j, k) cyclic.
    """
    squeeze, fj = _pack(h, p, positive=True)
    dh, omdh, twist, _ = _vector_ingredients(fj)
    inv2 = fj.value**-2
    scal = 2.0 - 4.0 * fj.value + 3.0 * _gradsq(fj) / fj.value
    parts = []
    for i in range(3):
        j, k = (i + 1) % 3, (i + 2) % 3
        d = (
            0.25 * (inv2 * scal)[:, None] * dh
            + inv2[:, None] * fj.vert[:, i : i + 1] * omdh[i]
            - 0.5 * inv2[:, None] * (twist[j] + twist[k])
        )
        parts.append(_sq(d, squeeze))
    return DParts(*parts)


def divergence_total_closed_form(h: ScalarField, p) -> np.ndarray:
    """Closed form of the total divergence covector.

    1/4 h^{-2} [3 nabla-dh(X, grad h) - sum_s nabla-dh(I_s X, I_s grad h)]
    + h^{-2} sum_s dh(xi_s) dh(I_s X).  Differs from vector_D(...).total by
    exactly 3/4 h^{-2} times the Yamabe residual times dh(X); equal on
    solutions.
    """
    squeeze, fj = _pack(h, p, positive=True)
    dh, omdh, twist, mdh = _vector_ingredients(fj)
    inv2 = (fj.value**-2)[:, None]
    out = 0.25 * inv2 * (3.0 * mdh - (twist[0] + twist[1] + twist[2]))
    out = out + inv2 * sum(fj.vert[:, s : s + 1] * omdh[s] for s in range(3))
    return _sq(out, squeeze)


def vector_F(d1, d2, d3) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """F_s from the D_s: F_1(X) = (-D_1 + D_2 + D_3)(I_1 X), indices cyclic."""
    d1 = np.asarray(d1, dtype=float)
    d2 = np.asarray(d2, dtype=float)
    d3 = np.asarray(d3, dtype=float)
    f1 = (-d1 + d2 + d3) @ OMEGA[0].T
    f2 = (d1 - d2 + d3) @ OMEGA[1].T
    f3 = (d1 + d2 - d3) @ OMEGA[2].T
    return f1, f2, f3


def scalar_f(h: ScalarField, p):
    """The scalar 1/2 + h + 1/4 h^{-1}|grad h|^2 entering the divergence identity."""
    squeeze, fj = _pack(h, p, positive=True)
    out = 0.5 + fj.value + 0.25 * _gradsq(fj) / fj.value
    return float(out[0]) if squeeze else out


def vector_A(h: ScalarField, p) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The three stated covectors A_1, A_2, A_3; formula evaluation only.

    A_i(e_a) = -1/2 h^{-2} dh(e_a) - 1/2 h^{-3}|grad h|^2 dh(e_a)
             - 1/2 h^{-1} sum_{s in {j,k}} nabla-dh(I_s e_a, xi_s)
             + 1/2 h^{-2} sum_{s in {j,k}} dh(xi_s) dh(I_s e_a)
             + 1/4 h^{-2} sum_{s in {j,k}} nabla-dh(I_s e_a, I_s grad h)
    with (i, j, k) cyclic.  No geometric claim on the flat model is attached.
    """
    squeeze, fj = _pack(h, p, positive=True)
    dh, omdh, twist, _ = _vector_ingredients(fj)
    inv1 = fj.value**-1
    inv2 = fj.value**-2
    inv3 = fj.value**-3
    gsq = _gradsq(fj)
    mixrot = [fj.mixed[:, :, s] @ OMEGA[s].T for s in range(3)]
    out = []
    for i in range(3):
        j, k = (i + 1) % 3, (i + 2) % 3
        a = (
            -0.5 * inv2[:, None] * dh
            - 0.5 * (inv3 * gsq)[:, None] * dh
            - 0.5 * inv1[:, None] * (mixrot[j] + mixrot[k])
            + 0.5
            * inv2[:, None]
            * (fj.vert[:, j : j + 1] * omdh[j] + fj.vert[:, k : k + 1] * omdh[k])
            + 0.25 * inv2[:, None] * (twist[j] + twist[k])
        )
        out.append(_sq(a, squeeze))
    return tuple(out)


def vector_A_aggregate(h: ScalarField, p) -> np.ndarray:
    """The displayed aggregate A = A_1 + A_2 + A_3, assembled independently.

    Each twist sum runs over all three structures with doubled weight relative
    to the per-part formula; kept as a separate code path so agreement with
    summing `vector_A` is a real test.
    """
    squeeze, fj = _pack(h, p, positive=True)
    dh, omdh, twist, _ = _vector_ingredients(fj)
    inv1 = (fj.value**-1)[:, None]
    inv2 = (fj.value**-2)[:, None]
    inv3 = (fj.value**-3)[:, None]
    gsq = _gradsq(fj)[:, None]
    mixrot_sum = sum(fj.mixed[:, :, s] @ OMEGA[s].T for s in range(3))
    vert_sum = sum(fj.vert[:, s : s + 1] * omdh[s] for s in range(3))
    out = (
        -1.5 * inv2 * dh
        - 1.5 * inv3 * gsq * dh
        - inv1 * mixrot_sum
        + inv2 * vert_sum
        + 0.5 * inv2 * (twist[0] + twist[1] + twist[2])
    )
    return _sq(out, squeeze)
