"""Scalar fields with exact first and second Euclidean derivatives.

A field evaluates batches of points (N, 7) to jets up to a requested order:
order 0 gives (value (N,),), order 1 adds the gradient (N, 7) and order 2
the symmetric Hessian (N, 7, 7).  Each lower-order jet is bitwise the
matching prefix of the order-2 jet, so a caller that needs only values or
gradients asks for them and never pays for 7x7 Hessians.  Jets come either
from hand-differentiated closed forms (the solution families) or from
second-order forward automatic differentiation with full 7-direction
seeding (`Hyper2`, a truncated-Taylor number carrying value, gradient and
Hessian through arithmetic); the forward-mode fields always propagate to
order 2 and return the requested prefix.

An affine pullback of an affine pullback is folded on construction: the
maps compose through `AffineMap.after` and the amplitudes multiply, so a
chain of group motions costs one chain-rule step, not one per motion.
Central finite differences are kept as an independent audit and never
substitute for jets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import DomainError, SingularityError
from .quaternions import as_point

__all__ = [
    "Jet2",
    "JetBatch",
    "ScalarField",
    "AffineMap",
    "Hyper2",
    "eval_jet",
    "autodiff_lift",
    "finite_diff_audit",
    "constant_field",
    "affine_pullback",
    "power_compose",
    "compose_through_map",
    "exp",
    "log",
    "sqrt",
]

DIM = 7

# A batch of jets up to some order: value (N,), gradient (N,7), Hessian
# (N,7,7), truncated after the requested order.
JetBatch = tuple[np.ndarray, ...]

JET_ORDERS = (0, 1, 2)


@dataclass(frozen=True)
class Jet2:
    """Value, Euclidean gradient and Hessian of a scalar field at one point.

    The Hessian is rebuilt from its upper triangle on construction, so the
    stored matrix is exactly symmetric bit for bit.
    """

    value: float
    grad: np.ndarray
    hess: np.ndarray

    def __post_init__(self):
        grad = np.asarray(self.grad, dtype=float).reshape(DIM)
        hess = np.asarray(self.hess, dtype=float).reshape(DIM, DIM)
        upper = np.triu(hess)
        hess = upper + upper.T - np.diag(np.diag(upper))
        object.__setattr__(self, "value", float(self.value))
        object.__setattr__(self, "grad", grad)
        object.__setattr__(self, "hess", hess)


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
    `domain` is an optional validity mask; evaluating outside raises
    DomainError.

    `biradial_map`, when set, certifies that the field depends on a point p
    only through (|q|, |w|) of A(p) for the stored affine map A.  Constructors
    and the translate/dilate/rotation pullbacks maintain the certificate; the
    reduced quadrature in `quadrature` requires it.  `decay` declares exact
    asymptotic orders (d_r, d_rho): |field| ~ r**-d_r and ~ rho**-d_rho, with
    negative entries meaning growth.
    """

    tag: str
    jets: Callable[[np.ndarray, int], JetBatch]
    domain: Optional[Callable[[np.ndarray], np.ndarray]] = None
    biradial_map: Optional[AffineMap] = AffineMap.identity()
    decay: Optional[tuple[float, float]] = None

    def __call__(self, points) -> np.ndarray:
        """Values only (same batching convention as `jets`)."""
        pts, squeeze = _as_batch(points)
        self._check_domain(pts)
        val = self.jets(pts, 0)[0]
        return float(val[0]) if squeeze else val

    def jet_batch(self, points: np.ndarray, order: int = 2) -> JetBatch:
        """Domain-checked batch evaluation of the jets up to `order`."""
        if order not in JET_ORDERS:
            raise ValueError(f"jet order must be one of {JET_ORDERS}, got {order!r}")
        pts, _ = _as_batch(points)
        self._check_domain(pts)
        return self.jets(pts, order)

    def _check_domain(self, pts: np.ndarray) -> None:
        if self.domain is not None:
            ok = np.asarray(self.domain(pts))
            if not np.all(ok):
                bad = pts[~ok][0]
                raise DomainError(f"field '{self.tag}' evaluated outside its domain at {bad}")


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


def eval_jet(f: ScalarField, p) -> Jet2:
    """Evaluate one point to a Jet2 (accepts a GroupPoint or a 7-array)."""
    pts, _ = _as_batch(p)
    if pts.shape[0] != 1:
        raise ValueError("eval_jet takes a single point; use jet_batch for batches")
    f._check_domain(pts)
    val, grad, hess = f.jets(pts, 2)
    return Jet2(val[0], grad[0], hess[0])


# ---------------------------------------------------------------------------
# Second-order forward mode.


class Hyper2:
    """Batched truncated-Taylor scalar: value (N,), gradient (N,7), Hessian (N,7,7).

    Supports +, -, *, /, ** with floats and other Hyper2 operands, plus
    exp/log/sqrt through the module-level functions.  All 7 directions are
    seeded at once, so one pass through a formula yields the full jet.
    """

    __slots__ = ("val", "grad", "hess")
    __array_priority__ = 100  # keep numpy from absorbing our operands

    def __init__(self, val, grad, hess):
        self.val = val
        self.grad = grad
        self.hess = hess

    # -- seeding ---------------------------------------------------------

    @staticmethod
    def seed(points: np.ndarray) -> tuple["Hyper2", ...]:
        """One Hyper2 per coordinate with unit gradient seeds."""
        points = np.asarray(points, dtype=float)
        n = points.shape[0]
        out = []
        for i in range(DIM):
            grad = np.zeros((n, DIM))
            grad[:, i] = 1.0
            out.append(Hyper2(points[:, i].copy(), grad, np.zeros((n, DIM, DIM))))
        return tuple(out)

    @staticmethod
    def constant(c, n: int) -> "Hyper2":
        return Hyper2(
            np.full(n, float(c)), np.zeros((n, DIM)), np.zeros((n, DIM, DIM))
        )

    def _coerce(self, other) -> "Hyper2":
        if isinstance(other, Hyper2):
            return other
        if np.isscalar(other) or isinstance(other, np.ndarray):
            val = np.broadcast_to(np.asarray(other, dtype=float), self.val.shape).copy()
            n = val.shape[0]
            return Hyper2(val, np.zeros((n, DIM)), np.zeros((n, DIM, DIM)))
        return NotImplemented

    # -- ring operations --------------------------------------------------

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return Hyper2(self.val + o.val, self.grad + o.grad, self.hess + o.hess)

    __radd__ = __add__

    def __neg__(self):
        return Hyper2(-self.val, -self.grad, -self.hess)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return Hyper2(self.val - o.val, self.grad - o.grad, self.hess - o.hess)

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        cross = np.einsum("ni,nj->nij", self.grad, o.grad)
        return Hyper2(
            self.val * o.val,
            self.grad * o.val[:, None] + o.grad * self.val[:, None],
            self.hess * o.val[:, None, None]
            + o.hess * self.val[:, None, None]
            + cross
            + np.swapaxes(cross, 1, 2),
        )

    __rmul__ = __mul__

    def _reciprocal(self) -> "Hyper2":
        if np.any(self.val == 0.0):
            raise DomainError("division by a zero value in forward-mode evaluation")
        iv = 1.0 / self.val
        grad = -self.grad * (iv * iv)[:, None]
        outer = np.einsum("ni,nj->nij", self.grad, self.grad)
        hess = -self.hess * (iv * iv)[:, None, None] + 2.0 * outer * (iv**3)[:, None, None]
        return Hyper2(iv, grad, hess)

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
        if not r.is_integer() and np.any(self.val <= 0.0):
            raise DomainError(f"non-integer power {r} of a non-positive value")
        if r.is_integer() and np.any(self.val == 0.0) and r < 0:
            raise DomainError("negative power of zero")
        return self._chain(
            self.val**r,
            r * self.val ** (r - 1.0),
            r * (r - 1.0) * self.val ** (r - 2.0),
        )

    def _chain(self, f, fp, fpp) -> "Hyper2":
        """Compose with a scalar function given f(v), f'(v), f''(v)."""
        outer = np.einsum("ni,nj->nij", self.grad, self.grad)
        return Hyper2(
            f,
            fp[:, None] * self.grad,
            fp[:, None, None] * self.hess + fpp[:, None, None] * outer,
        )

    # Method forms so np.exp / np.log / np.sqrt work on object arrays and
    # inside lifted formulas written with the numpy names.
    def exp(self):
        e = np.exp(self.val)
        return self._chain(e, e, e)

    def log(self):
        return log(self)

    def sqrt(self):
        return sqrt(self)


def exp(x):
    if isinstance(x, Hyper2):
        e = np.exp(x.val)
        return x._chain(e, e, e)
    return np.exp(x)


def log(x):
    if isinstance(x, Hyper2):
        if np.any(x.val <= 0.0):
            raise DomainError("log of a non-positive value")
        return x._chain(np.log(x.val), 1.0 / x.val, -1.0 / x.val**2)
    return np.log(x)


def sqrt(x):
    if isinstance(x, Hyper2):
        if np.any(x.val < 0.0):
            raise DomainError("sqrt of a negative value")
        s = np.sqrt(x.val)
        return x._chain(s, 0.5 / s, -0.25 / (s * x.val))
    return np.sqrt(x)


def autodiff_lift(g, tag: str = "autodiff", domain=None, biradial_map=None, decay=None) -> ScalarField:
    """Lift a plain function of 7 reals to a ScalarField by forward propagation.

    `g` receives the 7 coordinates as Hyper2 numbers and must combine them
    with arithmetic and the exp/log/sqrt helpers; no finite differencing is
    involved.  A lifted field is assumed non-bi-radial unless a certificate
    is passed explicitly.  The propagation always runs to order 2; lower
    orders return the prefix.
    """

    def jets(points: np.ndarray, order: int = 2) -> JetBatch:
        out = g(*Hyper2.seed(points))
        if not isinstance(out, Hyper2):  # constant formula
            return constant_field(out).jets(points, order)
        hess = 0.5 * (out.hess + np.swapaxes(out.hess, 1, 2))
        return (out.val, out.grad, hess)[: order + 1]

    return ScalarField(tag=tag, jets=jets, domain=domain, biradial_map=biradial_map, decay=decay)


def constant_field(c: float, tag: Optional[str] = None) -> ScalarField:
    c = float(c)

    def jets(points: np.ndarray, order: int = 2) -> JetBatch:
        n = points.shape[0]
        out = (np.full(n, c),)
        if order >= 1:
            out += (np.zeros((n, DIM)),)
        if order == 2:
            out += (np.zeros((n, DIM, DIM)),)
        return out

    return ScalarField(tag=tag or f"const({c})", jets=jets, decay=(0.0, 0.0))


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
            out += (amp * (jet[1] @ lin),)
        if order == 2:
            out += (amp * (lin.T @ (jet[2] @ lin)),)  # lin^T H lin, batched
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

    domain = None
    if jets.base.domain is not None:
        domain = lambda pts: jets.base.domain(jets.amap(pts))  # noqa: E731

    cert = u.biradial_map.after(amap) if u.biradial_map is not None else None
    return ScalarField(
        tag=tag or f"pullback({u.tag})",
        jets=jets,
        domain=domain,
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
            outer = np.einsum("ni,nj->nij", grad, grad)
            out += (fp[:, None, None] * jet[2] + fpp[:, None, None] * outer,)
        return out

    decay = None
    if u.decay is not None:
        # exact order ~ r**-d, so u**alpha has order ~ r**-(alpha d)
        decay = (alpha * u.decay[0], alpha * u.decay[1])
    return ScalarField(
        tag=tag or f"{coefficient}*({u.tag})^{alpha}",
        jets=jets,
        domain=u.domain,
        biradial_map=u.biradial_map,
        decay=decay,
    )


def compose_through_map(u: ScalarField, map_components, tag: str,
                        domain=None, prefactor=None, biradial_map=None,
                        decay=None, singular=None) -> ScalarField:
    """Field p -> prefactor(p) * u(y(p)) for a smooth map y given coordinatewise.

    `map_components(x0..x6 as Hyper2) -> sequence of 7 Hyper2` supplies the
    map's jets by forward propagation; `prefactor`, if given, is a plain
    7-real function lifted the same way.  The chain rule is assembled exactly:
        w_i  = sum_k u_k y_k,i
        w_ij = sum_kl u_kl y_k,i y_l,j + sum_k u_k y_k,ij.

    `singular(points) -> bool mask`, if given, marks points where the map
    itself blows up; hitting one raises SingularityError before any division.
    The jets are always assembled to order 2; lower orders return the prefix.
    """

    def jets(points: np.ndarray, order: int = 2) -> JetBatch:
        if singular is not None:
            mask = np.asarray(singular(points))
            if np.any(mask):
                raise SingularityError(
                    f"field '{tag}' evaluated at a singular point {points[mask][0]}"
                )
        seeds = Hyper2.seed(points)
        comps = map_components(*seeds)
        yval = np.stack([c.val for c in comps], axis=1)          # (N,7)
        ygrad = np.stack([c.grad for c in comps], axis=1)        # (N,7,7): [n,k,i] = dy_k/dx_i
        yhess = np.stack([c.hess for c in comps], axis=1)        # (N,7,7,7)
        uval, ugrad, uhess = u.jet_batch(yval)
        wval = uval
        wgrad = np.einsum("nk,nki->ni", ugrad, ygrad)
        wh = np.swapaxes(ygrad, 1, 2) @ uhess @ ygrad
        wh = wh + np.einsum("nk,nkij->nij", ugrad, yhess)
        if prefactor is None:
            hess = 0.5 * (wh + np.swapaxes(wh, 1, 2))
            return (wval, wgrad, hess)[: order + 1]
        phi = prefactor(*Hyper2.seed(points))
        cross = np.einsum("ni,nj->nij", phi.grad, wgrad)
        hess = (
            phi.hess * wval[:, None, None]
            + cross
            + np.swapaxes(cross, 1, 2)
            + phi.val[:, None, None] * wh
        )
        hess = 0.5 * (hess + np.swapaxes(hess, 1, 2))
        return (
            phi.val * wval,
            phi.grad * wval[:, None] + phi.val[:, None] * wgrad,
            hess,
        )[: order + 1]

    return ScalarField(tag=tag, jets=jets, domain=domain,
                       biradial_map=biradial_map, decay=decay)


# ---------------------------------------------------------------------------
# Independent oracle.


def finite_diff_audit(f: ScalarField, p, step: float) -> float:
    """Max discrepancy between the field's jets and central finite differences.

    An audit, not a derivative engine: O(step^2) truncation plus roundoff
    limits agreement to roughly 1e-6 at step 1e-4 for order-one fields.
    """
    if step <= 0.0:
        raise ValueError("step must be positive")
    p = as_point(p).reshape(DIM)
    jet = eval_jet(f, p)

    def value(x):
        return f(x)

    diffs = []
    for i in range(DIM):
        ei = np.zeros(DIM)
        ei[i] = step
        fp, fm = value(p + ei), value(p - ei)
        diffs.append((fp - fm) / (2 * step) - jet.grad[i])
        d2 = (fp - 2 * jet.value + fm) / step**2
        diffs.append(d2 - jet.hess[i, i])
        for j in range(i + 1, DIM):
            ej = np.zeros(DIM)
            ej[j] = step
            mixed = (
                value(p + ei + ej) - value(p + ei - ej)
                - value(p - ei + ej) + value(p - ei - ej)
            ) / (4 * step**2)
            diffs.append(mixed - jet.hess[i, j])
    return _max_abs(diffs)


def haar_jacobian_audit(g0, step: float = 1e-5) -> float:
    """|det(Jacobian of left translation by g0) - 1| by central differences.

    Left translations preserve Lebesgue measure on R^7 (Haar = Lebesgue);
    this checks that numerically rather than assuming it.
    """
    from .quaternions import group_mul

    g0 = as_point(g0).reshape(DIM)
    jac = np.empty((DIM, DIM))
    rng_pt = np.zeros(DIM)
    for j in range(DIM):
        ej = np.zeros(DIM)
        ej[j] = step
        jac[:, j] = (group_mul(g0, rng_pt + ej) - group_mul(g0, rng_pt - ej)) / (2 * step)
    return float(abs(np.linalg.det(jac) - 1.0))
