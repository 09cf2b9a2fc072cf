"""Explicit solution families, Cayley transforms, and the Kelvin transform.

The closed-form conformal factors

    h_{c,nu}(q, w) = c [(1 + nu |q|^2)^2 + nu^2 |w|^2]

and the amplitude-normalized powers built on them (ubar with amplitude 2^10,
the extremal v with amplitude 2^11 sqrt(3) pi^{-3/5}) are the only fields in
the package with hand-written jets; everything else differentiates formulas
forward.  The hand jets keep the quadrature hot path cheap and are pinned
against the forward-mode lift in the tests.

The sphere <-> group dictionary is the quaternionic Cayley pair with the
boundary identification (q, w) <-> (q, |q|^2 - w), the inversion sigma, and
the Kelvin transform (Ku)(g) = (|q|^4 + |w|^2)^{-2} u(sigma(g)); the exponent
is -(Q - 2)/2 with homogeneous dimension Q = 10.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .errors import DomainError, SingularityError
from .frame import frame_jets
from .jets import (
    AffineMap,
    ScalarField,
    _as_batch,
    affine_pullback,
    compose_through_map,
    power_compose,
)
from .quaternions import (
    GroupPoint,
    Quaternion,
    as_point,
    group_mul,
    quat_mul,
)

__all__ = [
    "FamilyParams",
    "SpherePoint",
    "h_family",
    "ubar_field",
    "v_field",
    "pde_residual",
    "left_translation_map",
    "dilation_map",
    "translate_field",
    "dilate_field",
    "cayley_forward",
    "cayley_inverse",
    "cayley_contact_factor",
    "sigma",
    "kelvin",
]

_E7 = np.eye(7)

V_AMPLITUDE = 2.0**11 * math.sqrt(3.0) * math.pi ** (-3.0 / 5.0)


# ---------------------------------------------------------------------------
# Parameter and sphere-point types.


@dataclass(frozen=True)
class FamilyParams:
    """Scale, concentration and center of one family member; c, nu > 0."""

    c: float = 1.0
    nu: float = 1.0
    center: Optional[Union[GroupPoint, np.ndarray]] = None

    def __post_init__(self):
        if not (self.c > 0.0 and self.nu > 0.0):
            raise DomainError(f"family parameters must be positive, got c={self.c}, nu={self.nu}")


@dataclass(frozen=True)
class SpherePoint:
    """A point of the unit sphere in H^2, renormalized on construction."""

    q: Quaternion
    p: Quaternion

    def __post_init__(self):
        norm2 = float(self.q.array @ self.q.array + self.p.array @ self.p.array)
        if norm2 == 0.0:
            raise DomainError("cannot normalize the zero point of H^2")
        scale = 1.0 / math.sqrt(norm2)
        if abs(scale - 1.0) > 1e-12:
            object.__setattr__(self, "q", Quaternion.from_array(self.q.array * scale))
            object.__setattr__(self, "p", Quaternion.from_array(self.p.array * scale))

    @staticmethod
    def from_arrays(q, p) -> "SpherePoint":
        return SpherePoint(Quaternion.from_array(np.asarray(q, dtype=float)),
                           Quaternion.from_array(np.asarray(p, dtype=float)))


# ---------------------------------------------------------------------------
# The conformal-factor family and its powers.


def _family_jets(c: float, nu: float):
    """Hand-differentiated jets of c[(1 + nu r^2)^2 + nu^2 rho^2], up to `order`."""

    def jets(pts: np.ndarray, order: int = 2):
        q = pts[:, :4]
        w = pts[:, 4:7]
        r2 = np.einsum("ni,ni->n", q, q)
        lin = 1.0 + nu * r2
        val = c * (lin * lin + nu * nu * np.einsum("ni,ni->n", w, w))
        if order == 0:
            return (val,)
        grad = np.empty_like(pts)
        grad[:, :4] = (4.0 * c * nu) * lin[:, None] * q
        grad[:, 4:7] = (2.0 * c * nu * nu) * w
        if order == 1:
            return val, grad
        hess = np.zeros((pts.shape[0], 7, 7))
        hess[:, :4, :4] = (8.0 * c * nu * nu) * np.einsum("ni,nj->nij", q, q)
        diag = np.arange(4)
        hess[:, diag, diag] += (4.0 * c * nu) * lin[:, None]
        vdiag = np.arange(4, 7)
        hess[:, vdiag, vdiag] = 2.0 * c * nu * nu
        return val, grad, hess

    return jets


def h_family(params: FamilyParams) -> ScalarField:
    """The qc-Einstein conformal factor with the given scale, concentration, center."""
    base = ScalarField(
        tag=f"h(c={params.c:g},nu={params.nu:g})",
        jets=_family_jets(params.c, params.nu),
        biradial_map=AffineMap.identity(),
        decay=(-4.0, -2.0),
    )
    if params.center is None:
        return base
    center = as_point(params.center)
    if not np.any(center):
        return base
    return affine_pullback(
        base,
        left_translation_map(center),
        tag=base.tag + f"@{np.array2string(center, precision=3)}",
    )


def ubar_field() -> ScalarField:
    """The amplitude-2^10 entire solution 2^10 [(1+|q|^2)^2 + |w|^2]^{-2}."""
    return power_compose(h_family(FamilyParams()), -2.0, 2.0**10, tag="ubar")


def v_field() -> ScalarField:
    """The mass-normalized extremal 2^11 sqrt(3) pi^{-3/5} [(1+|q|^2)^2+|w|^2]^{-2}."""
    return power_compose(h_family(FamilyParams()), -2.0, V_AMPLITUDE, tag="v")


def pde_residual(u: ScalarField, p):
    """Residual laplacian(u) + u^{3/2} of the entire-solution equation."""
    pts, squeeze = _as_batch(p)
    fj = frame_jets(u, pts)
    if np.any(fj.value < 0.0):
        bad = pts[fj.value < 0.0][0]
        raise DomainError(f"field '{u.tag}' is negative at {bad}; u^(3/2) undefined")
    out = np.trace(fj.hess, axis1=1, axis2=2) + fj.value**1.5
    return float(out[0]) if squeeze else out


# ---------------------------------------------------------------------------
# Group motions as field transforms.


def left_translation_map(g0) -> AffineMap:
    """The affine map p -> g0 o p, extracted exactly from the group product."""
    g0 = as_point(g0)
    linear = (group_mul(g0, _E7) - group_mul(g0, -_E7)).T / 2.0
    return AffineMap(linear=linear, offset=group_mul(g0, np.zeros(7)))


def dilation_map(lam: float) -> AffineMap:
    if lam <= 0.0:
        raise DomainError(f"dilation factor must be positive, got {lam}")
    return AffineMap(linear=np.diag([lam] * 4 + [lam * lam] * 3), offset=np.zeros(7))


def translate_field(u: ScalarField, g0, tag: Optional[str] = None) -> ScalarField:
    """The pullback p -> u(g0 o p); centers the bump of u at inverse(g0)."""
    amap = left_translation_map(g0)
    return affine_pullback(u, amap, tag=tag or f"translate({u.tag})")


def dilate_field(u: ScalarField, lam: float, tag: Optional[str] = None) -> ScalarField:
    """The solution-preserving rescaling p -> lam^4 u(delta_lam p)."""
    amap = dilation_map(lam)
    return affine_pullback(u, amap, amplitude=lam**4, tag=tag or f"dilate({u.tag},{lam:g})")


# ---------------------------------------------------------------------------
# Cayley pair, inversion, Kelvin transform.


def cayley_forward(s: SpherePoint) -> GroupPoint:
    """Sphere minus the pole (q=0, p=-1) to the group, through the boundary model.

    q1 = (1+p)^{-1} q and p1 = (1+p)^{-1}(1-p) land on Re p1 = |q1|^2; the
    group point is (q1, -Im p1).
    """
    p = s.p.array
    one_plus = p.copy()
    one_plus[0] += 1.0
    n2 = float(one_plus @ one_plus)
    if n2 == 0.0:
        raise SingularityError("the Cayley transform has its pole at (q=0, p=-1)")
    inv = np.array([one_plus[0], -one_plus[1], -one_plus[2], -one_plus[3]]) / n2
    q1 = quat_mul(inv, s.q.array)
    one_minus = -p
    one_minus[0] += 1.0
    p1 = quat_mul(inv, one_minus)
    out = np.concatenate([q1, -p1[1:4]])
    return GroupPoint.from_array(out)


def cayley_inverse(g) -> SpherePoint:
    """Group to sphere: lift (q, w) to the boundary point p1 = |q|^2 - w first."""
    arr = as_point(g)
    q1 = arr[:4]
    p1 = np.array([float(q1 @ q1), -arr[4], -arr[5], -arr[6]])
    one_plus = p1.copy()
    one_plus[0] += 1.0
    n2 = float(one_plus @ one_plus)
    # n2 = (1+|q|^2)^2 + |w|^2 >= 1 on the group; the guard is for form only.
    if n2 == 0.0:
        raise SingularityError("inverse Cayley transform evaluated at its pole")
    inv = np.array([one_plus[0], -one_plus[1], -one_plus[2], -one_plus[3]]) / n2
    q = 2.0 * quat_mul(inv, q1)
    one_minus = -p1
    one_minus[0] += 1.0
    p = quat_mul(one_minus, inv)
    return SpherePoint.from_arrays(q, p)


def cayley_contact_factor(g):
    """Conformal factor 8/|1+p1|^2 = 8/[(1+|q|^2)^2+|w|^2] of the contact pullback."""
    arr = as_point(g)
    pts, squeeze = _as_batch(arr)
    r2 = np.einsum("ni,ni->n", pts[:, :4], pts[:, :4])
    w2 = np.einsum("ni,ni->n", pts[:, 4:7], pts[:, 4:7])
    out = 8.0 / ((1.0 + r2) ** 2 + w2)
    return float(out[0]) if squeeze else out


def _sigma_arrays(pts: np.ndarray) -> np.ndarray:
    q = pts[:, :4]
    w = pts[:, 4:7]
    r2 = np.einsum("ni,ni->n", q, q)
    denom = r2 * r2 + np.einsum("ni,ni->n", w, w)  # |p'|^2 with p' = |q|^2 - w
    if np.any(denom == 0.0):
        raise SingularityError("sigma is undefined at the group identity")
    # (p')^{-1} = conj(p')/|p'|^2 and conj(p') = |q|^2 + w.
    pinv = np.concatenate([r2[:, None], w], axis=1) / denom[:, None]
    out = np.empty_like(pts)
    out[:, :4] = -quat_mul(pinv, q)
    out[:, 4:7] = -w / denom[:, None]
    return out


def sigma(g):
    """The inversion q -> -(|q|^2 - w)^{-1} q, w -> -w/(|q|^4+|w|^2); an involution."""
    arr = as_point(g)
    pts, squeeze = _as_batch(arr)
    out = _sigma_arrays(pts)
    if isinstance(g, GroupPoint):
        return GroupPoint.from_array(out[0])
    return out[0] if squeeze else out


def _qmul_h(a, b):
    """Hamilton product on 4-tuples of Hyper2/scalars (i*j = k convention)."""
    return (
        a[0] * b[0] - a[1] * b[1] - a[2] * b[2] - a[3] * b[3],
        a[0] * b[1] + a[1] * b[0] + a[2] * b[3] - a[3] * b[2],
        a[0] * b[2] - a[1] * b[3] + a[2] * b[0] + a[3] * b[1],
        a[0] * b[3] + a[1] * b[2] - a[2] * b[1] + a[3] * b[0],
    )


def _sigma_components(t1, x1, y1, z1, x, y, z):
    r2 = t1 * t1 + x1 * x1 + y1 * y1 + z1 * z1
    denom = r2 * r2 + x * x + y * y + z * z
    inv = denom**-1.0
    pinv = (r2 * inv, x * inv, y * inv, z * inv)
    q2 = _qmul_h(pinv, (t1, x1, y1, z1))
    return (-q2[0], -q2[1], -q2[2], -q2[3], -x * inv, -y * inv, -z * inv)


def kelvin(u: ScalarField, tag: Optional[str] = None) -> ScalarField:
    """The Kelvin transform (|q|^4 + |w|^2)^{-2} u(sigma(g)).

    Maps entire solutions to solutions away from the origin; evaluating the
    result at the identity raises SingularityError.  The bi-radial
    certificate survives only in the untranslated gauge, where sigma acts
    radially on (|q|, |w|).
    """

    def prefactor(t1, x1, y1, z1, x, y, z):
        r2 = t1 * t1 + x1 * x1 + y1 * y1 + z1 * z1
        return (r2 * r2 + x * x + y * y + z * z) ** -2.0

    def at_identity(pts: np.ndarray) -> np.ndarray:
        return ~np.any(pts != 0.0, axis=1)

    cert = None
    decay = None
    if u.biradial_map is not None and u.biradial_map.is_identity():
        cert = AffineMap.identity()
        try:
            at0 = float(u(np.zeros(7)))
        except DomainError:
            at0 = 0.0
        if at0 > 0.0:
            decay = (8.0, 4.0)
    return compose_through_map(
        u,
        _sigma_components,
        tag=tag or f"kelvin({u.tag})",
        prefactor=prefactor,
        biradial_map=cert,
        decay=decay,
        singular=at_identity,
    )
