"""Quaternion arithmetic and the 7-dimensional quaternionic Heisenberg group.

Conventions used everywhere in the package:

* a quaternion is an array of shape (..., 4) in (w, x, y, z) order,
  w the real part, with i*j = k;
* a group point is an array of shape (..., 7) in coordinate order
  (t1, x1, y1, z1, x, y, z): columns 0:4 are the quaternion part q,
  columns 4:7 the vertical (imaginary-quaternion) part w;
* the group product is (q0, w0) o (q, w) = (q0 + q, w + w0 + 2 Im(q0 * conj(q)))
  and the parabolic dilation, for a finite lam > 0, scales q by lam and w by lam**2;
* the twist is bilinear, 2 Im(q0 conj(q)) = q0 . TWIST . q with the constant
  TWIST[a, s, b] = 2 Im(e_a conj(e_b))_s, so left translation by (q0, w0) has
  the linear part [[I4, 0], [q0 . TWIST, I3]], q0 . TWIST being
  np.tensordot(q0, TWIST, axes=1).  TWIST is read off `group_mul` and
  audited against it at import; the frame, the translates of the extremal
  and the bubble search all read it.

All functions broadcast over leading axes and are pure.
"""

from __future__ import annotations

import numpy as np

from .errors import ConsistencyError, DomainError, _positive

__all__ = [
    "quat_mul",
    "quat_conj",
    "quat_norm2",
    "quat_inv",
    "group_mul",
    "group_inv",
    "dilation",
    "TWIST",
    "as_quat",
    "as_point",
]


def as_quat(a) -> np.ndarray:
    """Coerce an array-like to a float array of shape (..., 4)."""
    a = np.asarray(a, dtype=float)
    if a.shape[-1] != 4:
        raise ValueError(f"quaternion needs 4 components, got shape {a.shape}")
    return a


def as_point(g) -> np.ndarray:
    """Coerce an array-like to a float array of shape (..., 7).

    A NaN or infinite coordinate is no point of the group: DomainError.
    """
    g = np.asarray(g, dtype=float)
    if g.shape[-1] != 7:
        raise ValueError(f"group point needs 7 coordinates, got shape {g.shape}")
    # count_nonzero: the cheapest all() on the small batches of the suites
    if np.count_nonzero(np.isfinite(g)) != g.size:
        raise DomainError("group point has a NaN or infinite coordinate")
    return g


def _hamilton(a, b) -> tuple:
    """Hamilton product on 4-tuples of components (i*j = k convention).

    The one copy of the formula: the components may be floats, arrays or
    forward-mode jets, so `quat_mul` and the Kelvin map share it.
    """
    aw, ax, ay, az = a
    bw, bx, by, bz = b
    return (
        aw * bw - ax * bx - ay * by - az * bz,
        aw * bx + ax * bw + ay * bz - az * by,
        aw * by - ax * bz + ay * bw + az * bx,
        aw * bz + ax * by - ay * bx + az * bw,
    )


def quat_mul(a, b) -> np.ndarray:
    """Hamilton product a*b, broadcasting over leading axes."""
    a = as_quat(a)
    b = as_quat(b)
    parts = _hamilton([a[..., i] for i in range(4)], [b[..., i] for i in range(4)])
    return np.stack(parts, axis=-1)


def quat_conj(a) -> np.ndarray:
    a = as_quat(a)
    return a * np.array([1.0, -1.0, -1.0, -1.0])


def quat_norm2(a) -> np.ndarray:
    a = as_quat(a)
    return np.sum(a * a, axis=-1)


def quat_inv(a) -> np.ndarray:
    """Multiplicative inverse conj(a)/|a|^2; zero quaternion is a domain error."""
    a = as_quat(a)
    n2 = quat_norm2(a)
    if np.any(n2 == 0.0):
        raise DomainError("zero quaternion has no inverse")
    return quat_conj(a) / n2[..., None]


def group_mul(g0, g) -> np.ndarray:
    """Group product g0 o g; left translation of g by g0."""
    g0 = as_point(g0)
    g = as_point(g)
    q0, w0 = g0[..., 0:4], g0[..., 4:7]
    q, w = g[..., 0:4], g[..., 4:7]
    twist = quat_mul(q0, quat_conj(q))[..., 1:4]
    out = np.empty(np.broadcast_shapes(g0.shape, g.shape), dtype=float)
    out[..., 0:4] = q0 + q
    out[..., 4:7] = w + w0 + 2.0 * twist
    return out


def group_inv(g) -> np.ndarray:
    """Two-sided group inverse (-q, -w)."""
    return -as_point(g)


_E7 = np.eye(7)

# TWIST[a, s, b] = 2 Im(e_a conj(e_b))_s: the w-part of e_a o e_b, shape (4, 3, 4).
TWIST = np.ascontiguousarray(group_mul(_E7[:4, None], _E7[None, :4])[..., 4:7].swapaxes(1, 2))
TWIST.flags.writeable = False  # shared by frame, extremals and quadrature


def _audit_twist(twist: np.ndarray) -> None:
    """ConsistencyError unless `group_mul` is (q0 + q, w0 + w + q0 . twist . q) to 1e-13."""
    g0, g = np.random.default_rng(0).uniform(-2.0, 2.0, (2, 8, 7))
    affine = g0 + g
    affine[:, 4:7] += np.einsum("na,asb,nb->ns", g0[:, :4], twist, g[:, :4])
    worst = float(np.max(np.abs(group_mul(g0, g) - affine)))
    if not worst <= 1e-13:  # a NaN fails too
        raise ConsistencyError(f"group law is not its affine form through TWIST: {worst:.3e}")


_audit_twist(TWIST)


def dilation(lam, g) -> np.ndarray:
    """Parabolic dilation (q, w) -> (lam*q, lam^2*w), lam finite and > 0."""
    lam = _positive(lam, "dilation factor")
    g = as_point(g)
    out = g.copy()
    out[..., 0:4] *= lam
    out[..., 4:7] *= lam * lam
    return out


class GroupPoint:
    """Placeholder: only the bench tracer's import holds this name.

    Nothing in qheis creates or accepts it; a group point is an array of
    shape (..., 7).  The name goes once that import goes.
    """
