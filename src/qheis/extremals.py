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
from .frame import FrameJet, frame_jets
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
    _hamilton,
    as_point,
    as_quat,
    group_mul,
    quat_conj,
    quat_mul,
    quat_norm2,
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
    "cayley_forward_batch",
    "cayley_inverse_batch",
    "cayley_contact_factor",
    "sigma",
    "kelvin",
]

_E7 = np.eye(7)
# Rows e_a, then -e_a, then 0: one group product yields a translation's
# linear part (by central differences, exact) and its offset.
_TRANSLATION_PROBE = np.vstack([_E7, -_E7, np.zeros((1, 7))])

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
        q, p = _sphere_normalize(self.q.array[None], self.p.array[None])
        object.__setattr__(self, "q", Quaternion.from_array(q[0]))
        object.__setattr__(self, "p", Quaternion.from_array(p[0]))

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
    out = _yamabe_residual(frame_jets(u, pts), u.tag, pts)
    return float(out[0]) if squeeze else out


def _yamabe_residual(fj: FrameJet, tag: str, pts: np.ndarray) -> np.ndarray:
    """laplacian(u) + u^{3/2} from the order-2 frame jets of u at pts."""
    if np.any(fj.value < 0.0):
        bad = pts[fj.value < 0.0][0]
        raise DomainError(f"field '{tag}' is negative at {bad}; u^(3/2) undefined")
    return np.trace(fj.hess, axis1=1, axis2=2) + fj.value**1.5


# ---------------------------------------------------------------------------
# Group motions as field transforms.


def left_translation_map(g0) -> AffineMap:
    """The affine map p -> g0 o p, extracted exactly from the group product."""
    moved = group_mul(as_point(g0), _TRANSLATION_PROBE)
    linear = (moved[:7] - moved[7:14]).T / 2.0
    return AffineMap(linear=linear, offset=moved[14])


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


def _sphere_normalize(q: np.ndarray, p: np.ndarray):
    """The SpherePoint rule on (N, 4) halves: rescale rows onto the unit sphere.

    A row is rescaled only when its scale 1/|(q, p)| is off 1 by more than
    1e-12, so an already normalized point is returned bitwise unchanged.
    """
    norm2 = quat_norm2(q) + quat_norm2(p)
    if np.any(norm2 == 0.0):
        raise DomainError("cannot normalize the zero point of H^2")
    scale = 1.0 / np.sqrt(norm2)
    scale[np.abs(scale - 1.0) <= 1e-12] = 1.0
    return q * scale[:, None], p * scale[:, None]


def _one_plus_inverse(p: np.ndarray, where: str) -> np.ndarray:
    """(1 + p)^{-1} row by row; a row with p = -1 is the transform's pole."""
    one_plus = p.copy()
    one_plus[:, 0] += 1.0
    n2 = quat_norm2(one_plus)
    if np.any(n2 == 0.0):
        raise SingularityError(f"{where} has its pole at (q=0, p=-1)")
    return quat_conj(one_plus) / n2[:, None]


def cayley_forward_batch(q, p) -> np.ndarray:
    """Sphere to group on (N, 4) halves (q, p), normalized first; returns (N, 7).

    q1 = (1+p)^{-1} q and p1 = (1+p)^{-1}(1-p) land on Re p1 = |q1|^2; the
    group point is (q1, -Im p1).  Any row at the pole (q=0, p=-1) raises
    SingularityError.
    """
    q, p = _sphere_normalize(np.atleast_2d(as_quat(q)), np.atleast_2d(as_quat(p)))
    inv = _one_plus_inverse(p, "the Cayley transform")
    one_minus = -p
    one_minus[:, 0] += 1.0
    return np.concatenate([quat_mul(inv, q), -quat_mul(inv, one_minus)[:, 1:4]], axis=1)


def cayley_inverse_batch(g) -> tuple[np.ndarray, np.ndarray]:
    """Group to sphere on an (N, 7) batch; returns the normalized halves (q, p).

    Each point (q, w) is lifted to the boundary point p1 = |q|^2 - w first.
    """
    pts, _ = _as_batch(g)
    q1 = pts[:, :4]
    p1 = np.concatenate([quat_norm2(q1)[:, None], -pts[:, 4:7]], axis=1)
    # |1 + p1|^2 = (1+|q|^2)^2 + |w|^2 >= 1 on the group; the guard is for form only.
    inv = _one_plus_inverse(p1, "the inverse Cayley transform")
    one_minus = -p1
    one_minus[:, 0] += 1.0
    return _sphere_normalize(2.0 * quat_mul(inv, q1), quat_mul(one_minus, inv))


def cayley_forward(s: SpherePoint) -> GroupPoint:
    """Sphere minus the pole (q=0, p=-1) to the group; see `cayley_forward_batch`."""
    return GroupPoint.from_array(cayley_forward_batch(s.q.array, s.p.array)[0])


def cayley_inverse(g) -> SpherePoint:
    """Group to sphere for one point; see `cayley_inverse_batch`."""
    arr = as_point(g)
    if arr.ndim != 1:
        raise ValueError("cayley_inverse takes a single point; use cayley_inverse_batch")
    q, p = cayley_inverse_batch(arr)
    return SpherePoint.from_arrays(q[0], p[0])


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


def _sigma_components(t1, x1, y1, z1, x, y, z):
    r2 = t1 * t1 + x1 * x1 + y1 * y1 + z1 * z1
    denom = r2 * r2 + x * x + y * y + z * z
    inv = denom**-1.0
    pinv = (r2 * inv, x * inv, y * inv, z * inv)
    q2 = _hamilton(pinv, (t1, x1, y1, z1))
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
