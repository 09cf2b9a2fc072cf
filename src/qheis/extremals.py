"""Explicit solution families, Cayley transforms, and the Kelvin transform.

The closed-form conformal factors

    h_{c,nu}(q, w) = c [(1 + nu |q|^2)^2 + nu^2 |w|^2]

carry the only hand-written jets in the package; everything else
differentiates formulas forward.  One hand kernel, `_family_jets`, gives
the jets of h alone: h_family (or, with per-row c and nu, one member per
point) is that kernel, and the amplitude-normalized powers ubar (amplitude
2^10) and the extremal v (amplitude 2^11 sqrt(3) pi^{-3/5}) are
`power_compose` of it at exponent -2, so the power's chain rule is written
once, in `jets`.  The kernel builds order-2 Hessians
points-last, so each step runs over all points at once instead of over 7
or 49 entries per point, and reads a batch's slopes along given
directions (the bubble search's slice directions) without building the
full gradient; `power_compose` carries that path through the power.  The hand
jets keep the quadrature and the bubble search cheap and are pinned
against the forward-mode lift in the tests.

The sphere <-> group dictionary is the quaternionic Cayley pair with the
boundary identification (q, w) <-> (q, |q|^2 - w), the inversion sigma, and
the Kelvin transform (Ku)(g) = (|q|^4 + |w|^2)^{-2} u(sigma(g)); the exponent
is -(Q - 2)/2 with homogeneous dimension Q = 10.  Points are arrays only: a
group point has shape (..., 7), and a point of the unit sphere in H^2 is a
pair of (N, 4) halves (q, p), which the Cayley kernels take and return.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import DomainError, SingularityError, _positive
from .frame import FrameJet, sub_laplacian
from .jets import (
    AffineMap,
    ScalarField,
    _as_batch,
    affine_pullback,
    autodiff_lift,
    compose,
    power_compose,
)
from .quaternions import (
    TWIST,
    _hamilton,
    _single,
    as_point,
    as_quat,
    quat_conj,
    quat_mul,
    quat_norm2,
)

__all__ = [
    "FamilyParams",
    "h_family",
    "ubar_field",
    "v_field",
    "pde_residual",
    "left_translation_map",
    "dilation_map",
    "translate_field",
    "dilate_field",
    "cayley_forward_batch",
    "cayley_inverse_batch",
    "cayley_contact_factor",
    "sigma",
    "kelvin",
]

V_AMPLITUDE = 2.0**11 * math.sqrt(3.0) * math.pi ** (-3.0 / 5.0)


# ---------------------------------------------------------------------------
# Family parameters.


@dataclass(frozen=True)
class FamilyParams:
    """Scale, concentration and center of one family member.

    c and nu are finite and > 0; a center is one group point, shape (7,)
    or (1, 7), else ValueError.
    """

    c: float = 1.0
    nu: float = 1.0
    center: Optional[np.ndarray] = None

    def __post_init__(self):
        _positive(self.c, "c")
        _positive(self.nu, "nu")
        shape = None if self.center is None else np.shape(self.center)
        if shape not in (None, (7,), (1, 7)):
            raise ValueError(f"FamilyParams takes one center, shape (7,) or (1, 7), got {shape}")


class SpherePoint:
    """Placeholder: only the bench tracer's import holds this name.

    Nothing in qheis creates or accepts it; a point of the sphere is a pair
    of (N, 4) halves.  The name goes once that import goes.
    """


# ---------------------------------------------------------------------------
# The conformal-factor family and its powers.


def _family_jets(c, nu):
    """Hand-differentiated jets of h = c[(1 + nu r^2)^2 + nu^2 rho^2], r = |q|,
    rho = |w|, up to `order`; c and nu are scalars, or (N,) arrays giving each
    of the N rows its own member, which then read exactly N points, else
    ValueError.  Orders 1 and 2 are built points-last, in place through the
    (7, N) and (7, 7, N) transposed views of the (N, 7) gradient and the
    (N, 7, 7) Hessian it returns, so a scalar or per-row slope and b
    broadcast along the points.

    Given directions `along`, (7, d) as `ScalarField.jet_batch` checks
    them, at order 1 the kernel is the field's `along_jets` and returns
    (value, g . v) for v = (v_q; v_w),
        g . v = slope q.v_q + b w.v_w,
    built points-last on (d, N) planes, with no (N, 7) gradient.
    """
    b, e = 2.0 * c * nu * nu, 8.0 * c * nu * nu
    rows = len(b) if np.ndim(b) else None

    def jets(pts: np.ndarray, order: int = 2, along=None):
        if rows is not None and len(pts) != rows:
            raise ValueError(f"a batch of {rows} members reads {rows} points, got {len(pts)}")
        q = pts[:, :4]
        w = pts[:, 4:7]
        r2 = np.einsum("ni,ni->n", q, q)
        lin = 1.0 + nu * r2
        val = c * (lin * lin + nu * nu * np.einsum("ni,ni->n", w, w))
        if order == 0:
            return (val,)
        slope = (4.0 * c * nu) * lin
        if along is not None:
            # q.v_q and w.v_w as (d, N) planes, one matmul per part; a
            # per-point slope or b broadcasts along the points
            g_v = along[:4].T @ q.T
            g_v *= slope
            w_v = along[4:].T @ w.T
            w_v *= b
            g_v += w_v
            return val, g_v.T
        grad = np.empty((7, len(pts))).T
        np.multiply(q.T, slope, out=grad.T[:4])
        np.multiply(w.T, b, out=grad.T[4:7])
        if order == 1:
            return val, grad
        qt = np.ascontiguousarray(q.T)
        hess = np.zeros((len(pts), 7, 7))
        view = hess.transpose(1, 2, 0)  # (7, 7, N), filled in place
        # e q q^T + slope I4 on the q-block and b I3 on the w-block, added a
        # q-row at a time onto the zeros, whose +0 turns a -0 product of
        # coordinates into +0
        for i in range(4):
            row = qt[i] * qt
            row *= e
            row[i] += slope
            view[i, :4] += row
        for j in range(4, 7):
            view[j, j] += b
        return val, grad, hess

    return jets


def _member(c, nu, tag: str) -> ScalarField:
    """h for the member (c, nu) of the family, by the hand kernel, which at
    order 1 is also its native directional path; (N,) arrays c and nu make
    it a batch of N points, row i read by member i; another point count is
    a ValueError naming both lengths."""
    kernel = _family_jets(c, nu)
    return ScalarField(
        tag=tag,
        jets=kernel,
        biradial_map=AffineMap.identity(),
        decay=(-4.0, -2.0),
        along_jets=lambda pts, along: kernel(pts, 1, along),
    )


def h_family(params: FamilyParams) -> ScalarField:
    """The qc-Einstein conformal factor with the given scale, concentration, center.

    A nonzero center is the `translate_field` of the centred member.
    """
    base = _member(params.c, params.nu, f"h(c={params.c:g},nu={params.nu:g})")
    if not np.any(params.center):
        return base
    return translate_field(base, params.center)


def ubar_field() -> ScalarField:
    """The amplitude-2^10 entire solution 2^10 [(1+|q|^2)^2 + |w|^2]^{-2}."""
    return power_compose(_member(1.0, 1.0, "h"), -2.0, 2.0**10, tag="ubar")


def v_field() -> ScalarField:
    """The mass-normalized extremal 2^11 sqrt(3) pi^{-3/5} [(1+|q|^2)^2+|w|^2]^{-2}."""
    return power_compose(_member(1.0, 1.0, "h"), -2.0, V_AMPLITUDE, tag="v")


def pde_residual(fj: FrameJet) -> np.ndarray:
    """Residual laplacian(u) + u^{3/2} of the entire-solution equation, shape (N,).

    Read from the order-2 FrameJet of u; a negative value is a DomainError.
    """
    bad = np.flatnonzero(fj.value < 0.0)
    if bad.size:
        raise DomainError(
            f"field is negative at batch index {bad[0]} (value {fj.value[bad[0]]!r}); "
            "u^(3/2) undefined"
        )
    return sub_laplacian(fj) + fj.value**1.5


# ---------------------------------------------------------------------------
# Group motions as field transforms.


def left_translation_map(g0) -> AffineMap:
    """p -> g0 o p: linear part [[I4, 0], [q0 . TWIST, I3]], offset a copy of g0.

    g0 is one point, shape (7,) or (1, 7); a batch is a ValueError.
    """
    g0 = _single(as_point(g0), "left_translation_map").copy()
    linear = np.eye(7)
    linear[4:, :4] = np.tensordot(g0[:4], TWIST, axes=1)
    return AffineMap(linear=linear, offset=g0)


def dilation_map(lam: float) -> AffineMap:
    """The linear map delta_lam = diag(lam I4, lam^2 I3); lam finite and > 0."""
    lam = _positive(lam, "dilation factor")
    return AffineMap(linear=np.diag([lam] * 4 + [lam * lam] * 3), offset=np.zeros(7))


def translate_field(u: ScalarField, g0) -> ScalarField:
    """The pullback p -> u(g0 o p); centers the bump of u at inverse(g0)."""
    return affine_pullback(u, left_translation_map(g0), tag=f"translate({u.tag})")


def dilate_field(u: ScalarField, lam: float) -> ScalarField:
    """The solution-preserving rescaling p -> lam^4 u(delta_lam p)."""
    amap = dilation_map(lam)
    return affine_pullback(u, amap, amplitude=lam**4, tag=f"dilate({u.tag},{lam:g})")


# ---------------------------------------------------------------------------
# Cayley pair, inversion, Kelvin transform.


def _sphere_normalize(q: np.ndarray, p: np.ndarray):
    """Rescale the rows of (N, 4) halves onto the unit sphere of H^2.

    A row is rescaled only when its scale 1/|(q, p)| is off 1 by more than
    1e-12, so an already normalized point is returned bitwise unchanged.
    A NaN or infinite component is no point of H^2: DomainError.  Both
    Cayley kernels pass their sphere halves through here.
    """
    if np.count_nonzero(np.isfinite(q)) + np.count_nonzero(np.isfinite(p)) != q.size + p.size:
        raise DomainError("sphere point has a NaN or infinite component")
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
    q, p = np.atleast_2d(as_quat(q)), np.atleast_2d(as_quat(p))
    if q.ndim != 2 or q.shape != p.shape:
        raise ValueError(f"Cayley halves are two (N, 4) batches, got {q.shape} and {p.shape}")
    q, p = _sphere_normalize(q, p)
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


def cayley_contact_factor(g):
    """Conformal factor 8/|1+p1|^2 = 8/h of the contact pullback, h the unit member."""
    return 8.0 / h_family(FamilyParams())(g)


def _sigma_components(t1, x1, y1, z1, x, y, z):
    """The inversion on coordinates, arrays or Hyper2 alike: (image, |q|^4+|w|^2).

    The one copy of the formula, shared by `sigma` and `kelvin`.  A point
    where the denominator vanishes (the group identity) raises
    SingularityError before any division.
    """
    r2 = t1 * t1 + x1 * x1 + y1 * y1 + z1 * z1
    denom = r2 * r2 + x * x + y * y + z * z  # |p'|^2 with p' = |q|^2 - w
    if np.any(getattr(denom, "val", denom) == 0.0):
        raise SingularityError("sigma is undefined at the group identity")
    # (p')^{-1} = conj(p')/|p'|^2 and conj(p') = |q|^2 + w; its w-part
    # w/|p'|^2 is also the image's w, negated.  The image's negations are
    # folded into the inverse, one negation instead of seven
    ninv = -(denom**-1.0)
    xi, yi, zi = x * ninv, y * ninv, z * ninv
    return (*_hamilton((r2 * ninv, xi, yi, zi), (t1, x1, y1, z1)), xi, yi, zi), denom


def sigma(g):
    """The inversion q -> -(|q|^2 - w)^{-1} q, w -> -w/(|q|^4+|w|^2); an involution."""
    pts, squeeze = _as_batch(g)
    image, _ = _sigma_components(*pts.T)
    out = np.stack(image, axis=1)
    return out[0] if squeeze else out


def kelvin(u: ScalarField) -> ScalarField:
    """The Kelvin transform (|q|^4 + |w|^2)^{-2} u(sigma(g)).

    Maps entire solutions to solutions away from the origin; evaluating the
    result at the identity raises SingularityError.  It is the lifted formula
    denom**-2 * compose(u, sigma(x)), sharing sigma's code, so its jets at
    order k ask u for order k and build nothing above it.  The bi-radial
    certificate survives only in the untranslated gauge, where sigma acts
    radially on (|q|, |w|).
    """

    def formula(*coords):
        image, denom = _sigma_components(*coords)
        return denom**-2.0 * compose(u, image)

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
    return autodiff_lift(formula, tag=f"kelvin({u.tag})", biradial_map=cert, decay=decay)
