"""Scalar fields with exact first and second Euclidean derivatives.

A field evaluates batches of points (N, 7) to jets up to a requested order:
order 0 gives (value (N,),), order 1 adds the gradient (N, 7) and order 2
the symmetric Hessian (N, 7, 7).  Each lower-order jet is bitwise the
matching prefix of the order-2 jet, so a caller that needs only values or
gradients asks for them and never pays for 7x7 Hessians.  A caller that
reads a field's slopes only along d directions passes them as `along`, one
(7, d) matrix for the batch, and gets the order-1 gradient contracted with
them as (N, d); a caller with other directions for other points makes one
call per set.  The family's hand kernel computes the contraction natively,
`power_compose` by the chain rule, and any other field contracts its full
gradient.  Jets come either from hand-differentiated closed forms (the
solution families) or from forward automatic differentiation that seeds
every direction at once (`Hyper2`, a truncated-Taylor number carrying value,
gradient and Hessian through arithmetic, in the dimension of its seed).  Forward mode is seeded at the
requested order and builds nothing above it; `compose` carries it through
a smooth map, so a transform such as Kelvin's is an ordinary lifted
formula.  A seed x_k carries its axis k with its unit gradient and zero
Hessian, and a product with a seed is a rank-one update that skips that
known zero.

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

from .errors import DomainError, _finite, _max_abs, _whole
from .quaternions import as_point, group_mul

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
# (N,7,7), truncated after the requested order; read along d directions,
# value and gradient (N,d).
JetBatch = tuple[np.ndarray, ...]


@dataclass(frozen=True)
class AffineMap:
    """Affine self-map of R^7, p -> linear @ p + offset.

    The linear part is (7, 7) and the offset (7,), else ValueError; a NaN
    or infinite entry is a DomainError.
    """

    linear: np.ndarray
    offset: np.ndarray

    def __post_init__(self):
        shapes = np.shape(self.linear), np.shape(self.offset)
        if shapes != ((DIM, DIM), (DIM,)):
            raise ValueError(f"AffineMap takes (7, 7) and (7,) parts, got shapes {shapes}")
        if not (np.isfinite(self.linear).all() and np.isfinite(self.offset).all()):
            raise DomainError("AffineMap has a NaN or infinite entry")

    @classmethod
    def identity(cls) -> "AffineMap":
        return cls(np.eye(DIM), np.zeros(DIM))

    def __call__(self, points: np.ndarray) -> np.ndarray:
        # float whatever the parts' dtype, so the offset can be added in place
        out = np.matmul(points, self.linear.T, dtype=float)
        out += self.offset
        return out

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
    Only the shapes are fixed, not the memory order: the family's hand
    kernel returns its gradient and Hessian as transposed views of (7, N)
    and (7, 7, N) planes, and a field built on it may pass such views on.
    Callers read jets and must not write into them: copy first.

    `biradial_map`, when set, certifies that the field depends on a point p
    only through (|q|, |w|) of A(p) for the stored affine map A.  A field
    carries one only when its builder passes one: it defaults to None, and
    the family constructors, `constant_field`, the pullbacks, powers and the
    Kelvin transform pass or carry it.  The reduced quadrature in
    `quadrature` requires it.  `decay` declares exact asymptotic orders
    (d_r, d_rho): |field| ~ r**-d_r and ~ rho**-d_rho, with negative entries
    meaning growth.

    `along_jets`, when set, is the field's native directional path:
    `along_jets(points, along)` returns what `jet_batch(points, 1, along)`
    returns with checked (7, d) directions, without building the (N, 7)
    gradient.  Without it `jet_batch` contracts the full gradient.  The
    family's hand kernel sets it, and `power_compose` carries it when its
    base has one.
    """

    tag: str
    jets: Callable[[np.ndarray, int], JetBatch]
    biradial_map: Optional[AffineMap] = None
    decay: Optional[tuple[float, float]] = None
    along_jets: Optional[Callable[[np.ndarray, np.ndarray], JetBatch]] = None

    def __call__(self, points) -> np.ndarray:
        """Values only (same batching convention as `jets`)."""
        pts, squeeze = _as_batch(points)
        val = self.jets(pts, 0)[0]
        return float(val[0]) if squeeze else val

    def jet_batch(self, points: np.ndarray, order: int = 2, along=None) -> JetBatch:
        """Batch evaluation of the jets up to `order`, a whole number in 0..2.

        With `along`, directions (7, d) shared by the batch, order 1 gives
        the gradient contracted with them: (value, grad @ along (N, d)).
        Another order or another shape is a ValueError, a NaN or infinite
        direction a DomainError.
        """
        order = _whole(order, "jet order", 0, 2)
        pts, _ = _as_batch(points)
        if along is None:
            return self.jets(pts, order)
        along = _directions(along, order)
        if self.along_jets is not None:
            return self.along_jets(pts, along)
        val, grad = self.jets(pts, 1)
        return val, grad @ along


def _directions(along, order: int) -> np.ndarray:
    """`jet_batch`'s rule for directions: order 1 and a finite (7, d) matrix, d >= 1."""
    if order != 1:
        raise ValueError(f"directional jets are order 1, got {order}")
    along = np.asarray(along, dtype=float)
    if along.ndim != 2 or along.shape[0] != DIM or 0 in along.shape:
        raise ValueError(f"directions are (7, d), got shape {along.shape}")
    if np.count_nonzero(np.isfinite(along)) != along.size:
        raise DomainError("a direction has a NaN or infinite entry")
    return along


def _as_batch(points) -> tuple[np.ndarray, bool]:
    """The package's one batch rule: a (7,) point, flagged to squeeze, or an (N, 7) batch."""
    pts = as_point(points)
    if pts.ndim == 1:
        return pts[None, :], True
    if pts.ndim > 2:
        raise ValueError(f"points are one (7,) point or an (N, 7) batch, got shape {pts.shape}")
    return pts, False


# ---------------------------------------------------------------------------
# Forward mode, truncated at the seeded order.


class Hyper2:
    """Batched truncated-Taylor scalar: value (N,), gradient (N, n), Hessian (N, n, n).

    n is read off the (N, n) points of the seed.  Parts above the seeded
    order are None and are never built: order 0 carries the value only,
    order 1 adds the gradient.  A number operand, a float or one value per
    point (N,), builds no jet: + and - move the value, * and / scale each
    part.  Hyper2 operands are of the same order.  exp, log and sqrt are the
    module-level functions, which a formula calls by name (numpy's ufuncs do
    not take a Hyper2).  All n directions are seeded at once, so one pass
    through a formula yields the jet.  Each part is computed by the same
    arithmetic at every order, so a lower order is bitwise the prefix of a
    higher one.

    A seed, the coordinate x_k that `seed` returns, also carries its axis k:
    its gradient is e_k and its Hessian zero.  The Hessian is still built,
    since `compose` reads the coordinates' Hessians, but a product with a
    seed never reads it: it is the rank-one update `_seeded`, one (N, n, n)
    pass instead of about six.  Any other result, a negated seed included,
    carries no axis and takes the general product.
    """

    __slots__ = ("val", "grad", "hess", "_axis")
    __array_priority__ = 100  # keep numpy from absorbing our operands

    def __init__(self, val, grad, hess):
        self.val = val
        self.grad = grad
        self.hess = hess
        self._axis = None  # k for the seed of coordinate k, else None

    @property
    def order(self) -> int:
        return 0 if self.grad is None else 1 if self.hess is None else 2

    # -- seeding ---------------------------------------------------------

    @staticmethod
    def seed(points: np.ndarray, order: int) -> tuple["Hyper2", ...]:
        """One Hyper2 per coordinate of the (N, n) points, with unit gradient seeds from order 1.

        Each carries its axis, so a product with it skips its zero Hessian.
        """
        points = np.asarray(points, dtype=float)
        n, dim = points.shape
        out = []
        for i in range(dim):
            grad = hess = None
            if order >= 1:
                grad = np.zeros((n, dim))
                grad[:, i] = 1.0
            if order == 2:
                hess = np.zeros((n, dim, dim))
            x = Hyper2(points[:, i].copy(), grad, hess)
            x._axis = i
            out.append(x)
        return tuple(out)

    def _partwise(self, op, *others) -> "Hyper2":
        """op on each part this order carries, with the matching parts of `others`."""
        parts = zip(*((x.val, x.grad, x.hess) for x in (self, *others)))
        return Hyper2(*(None if p[0] is None else op(*p) for p in parts))

    # -- ring operations --------------------------------------------------

    def __add__(self, other):
        if isinstance(other, Hyper2):
            return self._partwise(np.add, other)
        if not _is_number(other):
            return NotImplemented
        return Hyper2(self.val + other, self.grad, self.hess)

    __radd__ = __add__

    def __neg__(self):
        return self._partwise(np.negative)

    def __sub__(self, other):
        if isinstance(other, Hyper2):
            return self._partwise(np.subtract, other)
        if not _is_number(other):
            return NotImplemented
        return Hyper2(self.val - other, self.grad, self.hess)

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __mul__(self, o):
        if not isinstance(o, Hyper2):
            if not _is_number(o):
                return NotImplemented
            # a float scales as it is, one value per point down each part's points axis
            return self._partwise(lambda part: part * np.reshape(o, np.shape(o) + (1,) * (part.ndim - 1)))
        if self.grad is not None:
            if self._axis is not None:
                return self._seeded(o)
            if o._axis is not None:  # swapped here, not by o * self: one product
                return o._seeded(self)
        grad = hess = None
        if self.grad is not None:
            grad = self.grad * o.val[:, None]
            grad += o.grad * self.val[:, None]
        if self.hess is not None:
            hess = self.hess * o.val[:, None, None]
            hess += o.hess * self.val[:, None, None]
            hess += np.einsum("ni,nj->nij", self.grad, o.grad)
            hess += np.einsum("ni,nj->nij", o.grad, self.grad)  # the transpose, unstrided
        return Hyper2(self.val * o.val, grad, hess)

    __rmul__ = __mul__

    def _seeded(self, other: "Hyper2") -> "Hyper2":
        """self * other for the seed self = x_k, as a rank-one update.

        The gradient is other.grad x_k with other.val added at k; the
        Hessian is other.hess x_k (zero if other is a seed too) with
        other.grad added to row k, then to column k.  These are the general
        product's nonzero terms in its order, so on finite operands the
        result is its bits but for the sign of a zero entry: only products
        with the seed's zero Hessian and the zero entries of e_k are skipped.
        """
        k, xk = self._axis, self.val
        grad = other.grad * xk[:, None]
        grad[:, k] += other.val
        hess = None
        if self.hess is not None:
            if other._axis is None:
                hess = other.hess * xk[:, None, None]
            else:
                hess = np.zeros(self.hess.shape)
            hess[:, k, :] += other.grad
            hess[:, :, k] += other.grad
        return Hyper2(xk * other.val, grad, hess)

    def _reciprocal(self) -> "Hyper2":
        iv = _inverse(self.val)
        return self._chain(iv, lambda: -(iv * iv), lambda: 2.0 * iv**3)

    def __truediv__(self, other):
        if isinstance(other, Hyper2):
            return self * other._reciprocal()
        return self * _inverse(other) if _is_number(other) else NotImplemented

    def __rtruediv__(self, other):
        return self._reciprocal() * other if _is_number(other) else NotImplemented

    def __pow__(self, r):
        r = float(r)
        if r == 0.0:
            return self._partwise(np.zeros_like) + 1.0  # whatever the value holds
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

        A derivative is evaluated only when the order carries it.  The
        Hessian is f' H plus f'' g g^T, the products (g_i g_j) f'' of an
        outer product scaled afterwards, added into f' H a row at a time, so
        no (N, n, n) array is built beside the base's Hessian and f' H.
        Each row is summed into zeros first, as an einsum would, so a zero
        entry of f'' g g^T is +0 even where f'' < 0.
        """
        grad = hess = None
        if self.grad is not None:
            d1 = fp()
            grad = d1[:, None] * self.grad
        if self.hess is not None:
            hess = d1[:, None, None] * self.hess
            d2 = fpp()[:, None]
            for i in range(self.grad.shape[1]):
                row = self.grad[:, i, None] * self.grad
                row *= d2
                row += 0.0
                hess[:, i] += row
        return Hyper2(f, grad, hess)


def _is_number(other) -> bool:
    """A number operand of Hyper2: a scalar, or an array of one value per point."""
    return np.isscalar(other) or (isinstance(other, np.ndarray) and other.ndim <= 1)


def _inverse(v):
    """1 / v, a DomainError if v has a zero value."""
    if np.any(v == 0.0):
        raise DomainError("division by a zero value in forward-mode evaluation")
    return 1.0 / v


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
        for k in range(1, len(coords)):
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
    chain-rule step however many motions were stacked.  The amplitude is a
    finite real number, else DomainError, as for the map's parts.
    """
    _finite(amplitude, "pullback amplitude")
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
    """coefficient * u**alpha by `Hyper2._chain`; u > 0 where evaluated (alpha non-integer ok).

    alpha and the coefficient are finite real numbers of any sign, else
    DomainError.  The result has a native directional path exactly when u
    has one: g.v -> f' g.v.
    """
    _finite(alpha, "power exponent")
    _finite(coefficient, "power coefficient")

    def power(val):  # f(val), and thunks for f'(val), f''(val)
        if np.any(val <= 0.0):
            raise DomainError(f"power of non-positive base in '{u.tag}'")
        return (
            coefficient * val**alpha,
            lambda: coefficient * alpha * val ** (alpha - 1.0),
            lambda: coefficient * alpha * (alpha - 1.0) * val ** (alpha - 2.0),
        )

    def jets(points: np.ndarray, order: int = 2) -> JetBatch:
        jet = u.jets(points, order)
        out = Hyper2(*jet, *(None,) * (2 - order))._chain(*power(jet[0]))
        return (out.val, out.grad, out.hess)[: order + 1]

    def along_jets(points: np.ndarray, along: np.ndarray) -> JetBatch:
        val, g_v = u.along_jets(points, along)
        f, fp, _ = power(val)
        return f, np.multiply(g_v.T, fp()).T

    decay = None
    if u.decay is not None:
        # exact order ~ r**-d, so u**alpha has order ~ r**-(alpha d)
        decay = (alpha * u.decay[0], alpha * u.decay[1])
    return ScalarField(
        tag=tag or f"{coefficient}*({u.tag})^{alpha}",
        jets=jets,
        biradial_map=u.biradial_map,
        decay=decay,
        along_jets=None if u.along_jets is None else along_jets,
    )


# ---------------------------------------------------------------------------
# Independent oracle.


def haar_jacobian_audit(g0) -> float:
    """Worst |det(Jacobian of left translation by g0) - 1| by central differences of step 1e-5.

    g0 is one (7,) point or an (N, 7) batch, audited whole; an empty batch
    is a ValueError.  Left translations preserve Lebesgue measure on R^7
    (Haar = Lebesgue); this checks that numerically rather than assuming it.
    """
    step = 1e-5
    g0, _ = _as_batch(g0)
    e = step * np.eye(DIM)
    # row j of the difference is column j of each centre's Jacobian
    diff = group_mul(g0[:, None], e) - group_mul(g0[:, None], -e)
    return _max_abs(np.linalg.det(diff.swapaxes(1, 2) / (2 * step)) - 1.0)
