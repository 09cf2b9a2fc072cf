"""Scalar fields with exact first and second Euclidean derivatives.

A field evaluates batches of points (N, 7) to jets up to a requested order:
order 0 gives (value (N,),), order 1 adds the gradient (N, 7) and order 2
the symmetric Hessian (N, 7, 7).  Each lower-order jet is bitwise the
matching prefix of the order-2 jet, so a caller that needs only values or
gradients asks for them and never pays for 7x7 Hessians.  Jets come either
from hand-differentiated closed forms (the solution families) or from
forward automatic differentiation with full 7-direction seeding
(`Hyper2`, a truncated-Taylor number carrying value, gradient and Hessian
through arithmetic).  Forward mode is seeded at the requested order and
builds nothing above it; `compose` carries it through a smooth map, so a
transform such as Kelvin's is an ordinary lifted formula.

An affine pullback of an affine pullback is folded on construction: the
maps compose through `AffineMap.after` and the amplitudes multiply, so a
chain of group motions costs one chain-rule step, not one per motion.
Central finite differences serve only as independent audits, never in
place of jets: `haar_jacobian_audit` here, and the finite-difference
oracle for the jets that the tests keep.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import DomainError, _whole
from .quaternions import as_point

__all__ = [
    "JetBatch",
    "ScalarField",
    "AffineMap",
    "Hyper2",
    "autodiff_lift",
    "constant_field",
    "affine_pullback",
    "power_compose",
    "compose",
    "exp",
    "log",
    "sqrt",
]

DIM = 7

# A batch of jets up to some order: value (N,), gradient (N,7), Hessian
# (N,7,7), truncated after the requested order.
JetBatch = tuple[np.ndarray, ...]


@dataclass(frozen=True)
class AffineMap:
    """Affine self-map of R^7, p -> linear @ p + offset."""

    linear: np.ndarray
    offset: np.ndarray

    @classmethod
    def identity(cls) -> "AffineMap":
        return cls(np.eye(DIM), np.zeros(DIM))

    def __call__(self, points: np.ndarray) -> np.ndarray:
        return points @ self.linear.T + self.offset

    def after(self, other: "AffineMap") -> "AffineMap":
        """self o other (apply `other` first)."""
        return AffineMap(
            self.linear @ other.linear,
            self.linear @ other.offset + self.offset,
        )

    def is_identity(self) -> bool:
        return bool(
            np.array_equal(self.linear, np.eye(DIM)) and not np.any(self.offset)
        )

    @property
    def det(self) -> float:
        return float(np.linalg.det(self.linear))


@dataclass(frozen=True)
class ScalarField:
    """An immutable scalar field on R^7 evaluating to jets of order 0, 1 or 2.

    `jets(points, order)` maps points (N, 7) to (value (N,),) for order 0,
    (value, grad (N, 7)) for order 1 and (value, grad, hess (N, 7, 7)) for
    order 2.  It must be deterministic, equal points giving bitwise-equal
    jets, and a lower order must return bitwise the prefix of order 2.

    `biradial_map`, when set, certifies that the field depends on a point p
    only through (|q|, |w|) of A(p) for the stored affine map A.  A field
    carries one only when its builder passes one: it defaults to None, and
    the family constructors, `constant_field`, the pullbacks, powers and the
    Kelvin transform pass or carry it.  The reduced quadrature in
    `quadrature` requires it.  `decay` declares exact asymptotic orders
    (d_r, d_rho): |field| ~ r**-d_r and ~ rho**-d_rho, with negative entries
    meaning growth.
    """

    tag: str
    jets: Callable[[np.ndarray, int], JetBatch]
    biradial_map: Optional[AffineMap] = None
    decay: Optional[tuple[float, float]] = None

    def __call__(self, points) -> np.ndarray:
        """Values only (same batching convention as `jets`)."""
        pts, squeeze = _as_batch(points)
        val = self.jets(pts, 0)[0]
        return float(val[0]) if squeeze else val

    def jet_batch(self, points: np.ndarray, order: int = 2) -> JetBatch:
        """Batch evaluation of the jets up to `order`, a whole number in 0..2."""
        order = _whole(order, "jet order", 0, 2)
        pts, _ = _as_batch(points)
        return self.jets(pts, order)


def _as_batch(points) -> tuple[np.ndarray, bool]:
    pts = as_point(points)
    if pts.ndim == 1:
        return pts[None, :], True
    return pts, False


def _max_abs(*parts) -> float:
    """Largest |entry| over every part; a NaN anywhere gives NaN.

    The one reducer for residuals: Python's max(worst, x) keeps `worst`
    when x is NaN, so a broken check would read as a pass.
    """
    return float(np.max([np.max(np.abs(part)) for part in parts]))


# ---------------------------------------------------------------------------
# Forward mode, truncated at the seeded order.


class Hyper2:
    """Batched truncated-Taylor scalar: value (N,), gradient (N,7), Hessian (N,7,7).

    Parts above the order the coordinates were seeded with are None and are
    never built: order 0 carries the value only, order 1 adds the gradient.
    Supports +, -, *, /, ** with floats, arrays and other Hyper2 operands of
    the same order; exp, log and sqrt are the module-level functions, which
    a formula calls by name (numpy's ufuncs do not take a Hyper2).
    All 7 directions are seeded at once, so one pass through a formula yields
    the jet.  Each part is computed by the same arithmetic at every order, so
    a lower order is bitwise the prefix of a higher one.
    """

    __slots__ = ("val", "grad", "hess")
    __array_priority__ = 100  # keep numpy from absorbing our operands

    def __init__(self, val, grad, hess):
        self.val = val
        self.grad = grad
        self.hess = hess

    @property
    def order(self) -> int:
        return 0 if self.grad is None else 1 if self.hess is None else 2

    # -- seeding ---------------------------------------------------------

    @staticmethod
    def seed(points: np.ndarray, order: int) -> tuple["Hyper2", ...]:
        """One Hyper2 per coordinate, with unit gradient seeds from order 1."""
        points = np.asarray(points, dtype=float)
        n = points.shape[0]
        out = []
        for i in range(DIM):
            grad = hess = None
            if order >= 1:
                grad = np.zeros((n, DIM))
                grad[:, i] = 1.0
            if order == 2:
                hess = np.zeros((n, DIM, DIM))
            out.append(Hyper2(points[:, i].copy(), grad, hess))
        return tuple(out)

    def _coerce(self, other) -> "Hyper2":
        if isinstance(other, Hyper2):
            return other
        if np.isscalar(other) or isinstance(other, np.ndarray):
            val = np.broadcast_to(np.asarray(other, dtype=float), self.val.shape).copy()
            n = val.shape[0]
            return Hyper2(
                val,
                None if self.grad is None else np.zeros((n, DIM)),
                None if self.hess is None else np.zeros((n, DIM, DIM)),
            )
        return NotImplemented

    # -- ring operations --------------------------------------------------

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return Hyper2(
            self.val + o.val,
            None if self.grad is None else self.grad + o.grad,
            None if self.hess is None else self.hess + o.hess,
        )

    __radd__ = __add__

    def __neg__(self):
        return Hyper2(
            -self.val,
            None if self.grad is None else -self.grad,
            None if self.hess is None else -self.hess,
        )

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self + (-o)  # IEEE a - b is a + (-b), bit for bit

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        grad = hess = None
        if self.grad is not None:
            grad = self.grad * o.val[:, None] + o.grad * self.val[:, None]
        if self.hess is not None:
            cross = np.einsum("ni,nj->nij", self.grad, o.grad)
            hess = (
                self.hess * o.val[:, None, None]
                + o.hess * self.val[:, None, None]
                + cross
                + np.swapaxes(cross, 1, 2)
            )
        return Hyper2(self.val * o.val, grad, hess)

    __rmul__ = __mul__

    def _reciprocal(self) -> "Hyper2":
        if np.any(self.val == 0.0):
            raise DomainError("division by a zero value in forward-mode evaluation")
        iv = 1.0 / self.val
        return self._chain(iv, lambda: -(iv * iv), lambda: 2.0 * iv**3)

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self * o._reciprocal()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        return o * self._reciprocal()

    def __pow__(self, r):
        r = float(r)
        if r == 0.0:
            return self._coerce(1.0)
        if r == 1.0:
            return self
        v = self.val
        if not r.is_integer() and np.any(v <= 0.0):
            raise DomainError(f"non-integer power {r} of a non-positive value")
        if r.is_integer() and np.any(v == 0.0) and r < 0:
            raise DomainError("negative power of zero")
        return self._chain(
            v**r,
            lambda: r * v ** (r - 1.0),
            lambda: r * (r - 1.0) * v ** (r - 2.0),
        )

    def _chain(self, f, fp, fpp) -> "Hyper2":
        """Compose with a scalar function: f(v), and thunks for f'(v), f''(v).

        A derivative is evaluated only when the order carries it.
        """
        grad = hess = None
        if self.grad is not None:
            d1 = fp()
            grad = d1[:, None] * self.grad
        if self.hess is not None:
            outer = np.einsum("ni,nj->nij", self.grad, self.grad)
            hess = d1[:, None, None] * self.hess + fpp()[:, None, None] * outer
        return Hyper2(f, grad, hess)


def exp(x):
    if isinstance(x, Hyper2):
        e = np.exp(x.val)
        return x._chain(e, lambda: e, lambda: e)
    return np.exp(x)


def log(x):
    if isinstance(x, Hyper2):
        if np.any(x.val <= 0.0):
            raise DomainError("log of a non-positive value")
        return x._chain(np.log(x.val), lambda: 1.0 / x.val, lambda: -1.0 / x.val**2)
    return np.log(x)


def sqrt(x):
    if isinstance(x, Hyper2):
        if np.any(x.val < 0.0):
            raise DomainError("sqrt of a negative value")
        s = np.sqrt(x.val)
        return x._chain(s, lambda: 0.5 / s, lambda: -0.25 / (s * x.val))
    return np.sqrt(x)


def autodiff_lift(g, tag: str = "autodiff", biradial_map=None, decay=None) -> ScalarField:
    """Lift a plain function of 7 reals to a ScalarField by forward propagation.

    `g` receives the 7 coordinates as Hyper2 numbers seeded at the requested
    order and must combine them with arithmetic, the exp/log/sqrt helpers
    and `compose`; no finite differencing is involved, and nothing above the
    requested order is built.  A lifted field is assumed non-bi-radial unless
    a certificate is passed explicitly.
    """

    def jets(points: np.ndarray, order: int = 2) -> JetBatch:
        out = g(*Hyper2.seed(points, order))
        if not isinstance(out, Hyper2):  # constant formula
            return constant_field(out).jets(points, order)
        if order < 2:
            return (out.val, out.grad)[: order + 1]
        return out.val, out.grad, 0.5 * (out.hess + np.swapaxes(out.hess, 1, 2))

    return ScalarField(tag=tag, jets=jets, biradial_map=biradial_map, decay=decay)


def compose(u: ScalarField, coords) -> Hyper2:
    """u(y) as a Hyper2, for a map y given by 7 Hyper2 coordinates.

    `u` is asked for the order the coordinates carry, and the chain rule is
    assembled exactly up to it:
        w_i  = sum_k u_k y_k,i
        w_ij = sum_kl u_kl y_k,i y_l,j + sum_k u_k y_k,ij.
    """
    order = coords[0].order
    jet = u.jet_batch(np.stack([c.val for c in coords], axis=1), order)
    grad = hess = None
    if order >= 1:
        ygrad = np.stack([c.grad for c in coords], axis=1)  # [n,k,i] = dy_k/dx_i
        grad = np.einsum("nk,nki->ni", jet[1], ygrad)
    if order == 2:
        # sum_k u_k y_k,ij accumulated in place, k in order: no (N,7,7,7) stack
        hess = jet[1][:, 0, None, None] * coords[0].hess
        for k in range(1, DIM):
            hess += jet[1][:, k, None, None] * coords[k].hess
        hess += np.swapaxes(ygrad, 1, 2) @ jet[2] @ ygrad
    return Hyper2(jet[0], grad, hess)


def constant_field(c: float) -> ScalarField:
    """The constant c, bi-radial under the identity."""
    c = float(c)

    def jets(points: np.ndarray, order: int = 2) -> JetBatch:
        n = points.shape[0]
        out = (np.full(n, c),)
        if order >= 1:
            out += (np.zeros((n, DIM)),)
        if order == 2:
            out += (np.zeros((n, DIM, DIM)),)
        return out

    return ScalarField(f"const({c})", jets, AffineMap.identity(), decay=(0.0, 0.0))


# ---------------------------------------------------------------------------
# Combinators used by the solution families and transforms.


@dataclass(frozen=True, eq=False)
class _Pullback:
    """Jets of p -> amplitude * base(A(p)), with the exact affine chain rule."""

    base: ScalarField
    amap: AffineMap
    amplitude: float

    def __call__(self, points: np.ndarray, order: int = 2) -> JetBatch:
        lin = self.amap.linear
        amp = self.amplitude
        jet = self.base.jets(self.amap(points), order)
        out = (amp * jet[0],)
        if order >= 1:
            grad = jet[1] @ lin
            grad *= amp
            out += (grad,)
        if order == 2:
            hess = lin.T @ (jet[2] @ lin)  # lin^T H lin, batched
            hess *= amp
            out += (hess,)
        return out


def affine_pullback(u: ScalarField, amap: AffineMap, amplitude: float = 1.0,
                    tag: Optional[str] = None) -> ScalarField:
    """amplitude * u(A(p)) with exact chain rule (A affine, so no curvature term).

    When u is itself a pullback b1 * v(B(p)), the result is recorded as the
    single pullback (amplitude * b1) * v((B o A)(p)), so its jets take one
    chain-rule step however many motions were stacked.
    """
    if isinstance(u.jets, _Pullback):
        inner = u.jets
        jets = _Pullback(inner.base, inner.amap.after(amap), amplitude * inner.amplitude)
    else:
        jets = _Pullback(u, amap, amplitude)

    cert = u.biradial_map.after(amap) if u.biradial_map is not None else None
    return ScalarField(
        tag=tag or f"pullback({u.tag})",
        jets=jets,
        biradial_map=cert,
        decay=u.decay,
    )


def power_compose(u: ScalarField, alpha: float, coefficient: float = 1.0,
                  tag: Optional[str] = None) -> ScalarField:
    """coefficient * u**alpha, requiring u > 0 where evaluated (alpha non-integer ok)."""

    def jets(points: np.ndarray, order: int = 2) -> JetBatch:
        jet = u.jets(points, order)
        val = jet[0]
        if np.any(val <= 0.0):
            raise DomainError(f"power of non-positive base in '{u.tag}'")
        out = (coefficient * val**alpha,)
        if order >= 1:
            grad = jet[1]
            fp = coefficient * alpha * val ** (alpha - 1.0)
            out += (fp[:, None] * grad,)
        if order == 2:
            fpp = coefficient * alpha * (alpha - 1.0) * val ** (alpha - 2.0)
            # fp H + fpp g g^T, built in two (N, 7, 7) arrays
            hess = fp[:, None, None] * jet[2]
            outer = np.einsum("ni,nj->nij", grad, grad)
            outer *= fpp[:, None, None]
            hess += outer
            out += (hess,)
        return out

    decay = None
    if u.decay is not None:
        # exact order ~ r**-d, so u**alpha has order ~ r**-(alpha d)
        decay = (alpha * u.decay[0], alpha * u.decay[1])
    return ScalarField(
        tag=tag or f"{coefficient}*({u.tag})^{alpha}",
        jets=jets,
        biradial_map=u.biradial_map,
        decay=decay,
    )


# ---------------------------------------------------------------------------
# Independent oracle.


def haar_jacobian_audit(g0) -> float:
    """|det(Jacobian of left translation by g0) - 1| by central differences of step 1e-5.

    Left translations preserve Lebesgue measure on R^7 (Haar = Lebesgue);
    this checks that numerically rather than assuming it.
    """
    from .quaternions import group_mul

    step = 1e-5
    g0 = as_point(g0).reshape(DIM)
    jac = np.empty((DIM, DIM))
    rng_pt = np.zeros(DIM)
    for j in range(DIM):
        ej = np.zeros(DIM)
        ej[j] = step
        jac[:, j] = (group_mul(g0, rng_pt + ej) - group_mul(g0, rng_pt - ej)) / (2 * step)
    return float(abs(np.linalg.det(jac) - 1.0))
