"""Integration over the group and the Folland-Stein quotient machinery.

Haar measure is Lebesgue measure on R^7.  A function that depends on a
point only through (r, rho) = (|q|, |omega|) integrates against the
reduced measure

    dH = (2 pi^2 r^3 dr) (4 pi rho^2 drho),

the factors being the areas of S^3 and S^2.  The reduced quadrature
compactifies each half-line with r = t/(1-t) and applies a composite
Gauss-Legendre rule on dyadic panels of [0, 1); refinement doubles the
panel count, and the difference between consecutive refinements serves
as the error estimate.

Fields that carry a bi-radial certificate (see ScalarField.biradial_map)
are reduced to two dimensions exactly: the quadrature nodes are pulled
back through the certified affine map and the weights pick up 1/|det A|.
Everything else goes through the Monte Carlo routine, which importance
samples the two radii with heavy-tailed folded Student-t proposals so
that inverse-polynomial decay keeps a finite variance.

The quotient of interest is

    Q(u) = integral |grad_H u|^2 dH / (integral u^{5/2} dH)^{4/5},

invariant under amplitude scaling, left translation and the parabolic
dilations.  `fs_quotient` evaluates it with the gradient computed
honestly in the left-invariant frame; `minimize_quotient` searches the
concentration/center family for it by symmetrizing the target over
origin-fixing rotations and driving the symmetrized profile's quotient
down with Nelder-Mead.
"""

from __future__ import annotations

import io
import csv
import math
import warnings
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
from scipy import optimize

from . import frame
from .errors import AccuracyError, ConsistencyError, DomainError
from .extremals import (
    FamilyParams,
    dilation_map,
    left_translation_map,
    ubar_field,
)
from .jets import DIM, AffineMap, ScalarField, affine_pullback, power_compose
from .quaternions import group_inv, quat_conj, quat_mul

__all__ = [
    "BiRadialIntegrand",
    "QuadratureResult",
    "MCResult",
    "QuotientReport",
    "MinimizeResult",
    "BestConstantReport",
    "biradial_rule",
    "integrate_biradial",
    "convergence_csv",
    "reduced_integrand",
    "integrate_field",
    "integrate_mc",
    "fs_quotient",
    "spin_rotation_map",
    "minimize_quotient",
    "best_constant_report",
    "GAUGE_INTEGRAL_CLOSED_FORM",
]

_SPHERE3 = 2.0 * math.pi**2  # area of the unit sphere in R^4
_SPHERE2 = 4.0 * math.pi     # area of the unit sphere in R^3

# integrability thresholds for the reduced measure: r^3 r^-d_r needs
# d_r > 4 and rho^2 rho^-d_rho needs d_rho > 3.  Necessary, not
# sufficient; genuine divergence still surfaces as AccuracyError.
_MIN_DECAY_R = 4.0
_MIN_DECAY_RHO = 3.0

_EVAL_BLOCK = 1 << 17  # nodes per evaluation block, keeps jets bounded


def _beta(a: float, b: float) -> float:
    return math.gamma(a) * math.gamma(b) / math.gamma(a + b)


#: integral of [(1+r^2)^2 + rho^2]^{-5} dH, by the Beta reduction:
#: substitute rho = (1+r^2) u in the inner integral, then reduce both
#: half-line integrals with  int_0^inf s^{2a-1} (1+s^2)^{-(a+b)} ds
#: = B(a, b)/2.  The result is 8 pi^3 * B(3/2,7/2)/2 * B(2,5)/2
#: = pi^4/384.
GAUGE_INTEGRAL_CLOSED_FORM = (
    8.0 * math.pi**3 * (0.5 * _beta(1.5, 3.5)) * (0.5 * _beta(2.0, 5.0))
)


# ---------------------------------------------------------------------------
# Reduced two-dimensional quadrature.


@dataclass(frozen=True)
class BiRadialIntegrand:
    """A function of (r, rho) to be integrated against dH.

    `fn` must accept equal-length arrays and return the values; `decay`
    declares the asymptotic orders (d_r, d_rho) and is validated against
    the measure's integrability thresholds on construction.
    """

    fn: Callable[[np.ndarray, np.ndarray], np.ndarray]
    decay: tuple[float, float]
    tag: str = "biradial"

    def __post_init__(self):
        d_r, d_rho = self.decay
        if not d_r > _MIN_DECAY_R:
            raise DomainError(
                f"integrand '{self.tag}': radial decay {d_r} does not beat "
                f"the r^3 measure weight (need > {_MIN_DECAY_R:g})"
            )
        if not d_rho > _MIN_DECAY_RHO:
            raise DomainError(
                f"integrand '{self.tag}': vertical decay {d_rho} does not "
                f"beat the rho^2 measure weight (need > {_MIN_DECAY_RHO:g})"
            )


def _panel_nodes(level: int, n_nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Composite Gauss-Legendre nodes and weights on [0, 1), 2^level panels."""
    x, w = np.polynomial.legendre.leggauss(n_nodes)
    m = 1 << level
    half = 0.5 / m
    centers = (np.arange(m) + 0.5) / m
    t = (centers[:, None] + half * x[None, :]).ravel()
    wt = np.tile(half * w, m)
    return t, wt


def biradial_rule(level: int, n_nodes: int = 12):
    """Tensor quadrature rule for dH on the (r, rho) quarter-plane.

    Returns flat arrays (r, rho, weight); the weight already contains
    the sphere areas, the r^3 rho^2 measure factors and the Jacobians of
    the compactification t -> t/(1-t) on both axes.
    """
    if level < 0:
        raise ValueError("refinement level must be nonnegative")
    t, wt = _panel_nodes(level, n_nodes)
    radius = t / (1.0 - t)
    jac = 1.0 / (1.0 - t) ** 2
    w_r = _SPHERE3 * radius**3 * jac * wt
    w_rho = _SPHERE2 * radius**2 * jac * wt
    r = np.repeat(radius, radius.size)
    rho = np.tile(radius, radius.size)
    w = np.multiply.outer(w_r, w_rho).ravel()
    return r, rho, w


def _rule_sum(integrand: BiRadialIntegrand, r, rho, w) -> float:
    total = 0.0
    for lo in range(0, r.size, _EVAL_BLOCK):
        hi = lo + _EVAL_BLOCK
        vals = np.asarray(integrand.fn(r[lo:hi], rho[lo:hi]), dtype=float)
        total += float(w[lo:hi] @ vals)
    return total


@dataclass(frozen=True)
class QuadratureResult:
    """Converged estimate with its refinement history."""

    value: float
    error: float
    table: tuple  # rows (level, estimate, error estimate, cells)
    converged: bool = True


def integrate_biradial(
    integrand: BiRadialIntegrand,
    tol: float = 1e-9,
    min_level: int = 1,
    max_level: int = 7,
    n_nodes: int = 12,
) -> QuadratureResult:
    """Adaptive dyadic refinement until successive estimates agree.

    Convergence means |I_k - I_{k-1}| <= tol * |I_k|.  On failure raises
    AccuracyError carrying the best estimate, its error and the table.
    """
    rows = []
    prev: Optional[float] = None
    for level in range(min_level, max_level + 1):
        r, rho, w = biradial_rule(level, n_nodes)
        est = _rule_sum(integrand, r, rho, w)
        err = math.nan if prev is None else abs(est - prev)
        rows.append((level, est, err, r.size))
        if prev is not None and err <= tol * abs(est):
            return QuadratureResult(est, err, tuple(rows))
        prev = est
    last_level, est, err, _ = rows[-1]
    exc = AccuracyError(
        f"integrand '{integrand.tag}' did not converge to rtol {tol:g} "
        f"by level {last_level} (last delta {err:.3e})",
        value=est,
        error=err,
    )
    exc.table = tuple(rows)
    raise exc


def convergence_csv(table) -> str:
    """Render a refinement table as CSV (level, estimate, error, cells)."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["level", "estimate", "error_estimate", "cells"])
    for level, est, err, cells in table:
        writer.writerow([level, repr(est), "" if math.isnan(err) else repr(err), cells])
    return buf.getvalue()


# ---------------------------------------------------------------------------
# Reduction of certified fields.


def _certificate(u: ScalarField) -> AffineMap:
    if u.biradial_map is None:
        raise DomainError(
            f"field '{u.tag}' carries no bi-radial certificate; "
            "integrate_mc handles general fields"
        )
    return u.biradial_map


def _require_decay(u: ScalarField) -> tuple[float, float]:
    if u.decay is None:
        raise DomainError(f"field '{u.tag}' declares no decay exponents")
    return u.decay


def _slice_points(r: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """Representative points with |q| = r, |omega| = rho."""
    pts = np.zeros((r.size, DIM))
    pts[:, 0] = r
    pts[:, 6] = rho
    return pts


def _node_map(cert: AffineMap) -> tuple[Callable[[np.ndarray, np.ndarray], np.ndarray], float]:
    """Pull slice points back through the certificate; weight factor 1/|det|."""
    inv = np.linalg.inv(cert.linear)
    offset = cert.offset

    def nodes(r: np.ndarray, rho: np.ndarray) -> np.ndarray:
        return (_slice_points(r, rho) - offset) @ inv.T

    return nodes, 1.0 / abs(cert.det)


def reduced_integrand(u: ScalarField, power: float = 1.0) -> BiRadialIntegrand:
    """Two-dimensional integrand of u**power for a certified field."""
    cert = _certificate(u)
    d_r, d_rho = _require_decay(u)
    nodes, scale = _node_map(cert)

    def fn(r: np.ndarray, rho: np.ndarray) -> np.ndarray:
        vals = u(nodes(r, rho))
        return scale * vals if power == 1.0 else scale * vals**power

    tag = u.tag if power == 1.0 else f"({u.tag})^{power:g}"
    return BiRadialIntegrand(fn=fn, decay=(power * d_r, power * d_rho), tag=tag)


def integrate_field(u: ScalarField, power: float = 1.0, **kwargs) -> QuadratureResult:
    """Integral of u**power dH through the certificate reduction."""
    return integrate_biradial(reduced_integrand(u, power), **kwargs)


# ---------------------------------------------------------------------------
# Monte Carlo for fields without a certificate.


def _fold_t2_weight(r: np.ndarray) -> np.ndarray:
    # reciprocal of the folded Student-t(2) density 2^{-1/2} (1+r^2/2)^{-3/2}
    return math.sqrt(2.0) * (1.0 + 0.5 * r * r) ** 1.5


def _fold_cauchy_weight(rho: np.ndarray) -> np.ndarray:
    # reciprocal of the folded Cauchy density (2/pi) (1+rho^2)^{-1}
    return (0.5 * math.pi) * (1.0 + rho * rho)


@dataclass(frozen=True)
class MCResult:
    """Importance-sampling estimate with a plain standard error."""

    value: float
    stderr: float
    samples: int
    seed: int
    warning: Optional[str] = None


def integrate_mc(
    u: ScalarField,
    samples: int,
    seed: int = 0,
    chunk: int = 1 << 17,
) -> MCResult:
    """Monte Carlo integral of u dH for fields of inverse-polynomial decay.

    The radii are importance sampled from folded Student-t distributions,
    |t(2)| for r and |t(1)| for rho; the Cauchy tail on rho is what keeps
    the weight variance finite down to the integrability threshold.  The
    directions are uniform on the spheres.  A split-half comparison of
    the standard error flags estimators whose tails are too heavy for
    the central limit theorem to have kicked in.
    """
    if samples < 1000:
        raise ValueError("Monte Carlo needs at least 1000 samples")
    rng = np.random.default_rng(seed)
    half = samples // 2
    tot = totsq = 0.0
    htot = htotsq = 0.0
    done = 0
    while done < samples:
        k = min(chunk, samples - done)
        r = np.abs(rng.standard_t(2, k))
        rho = np.abs(rng.standard_t(1, k))
        qdir = rng.standard_normal((k, 4))
        qdir /= np.linalg.norm(qdir, axis=1, keepdims=True)
        wdir = rng.standard_normal((k, 3))
        wdir /= np.linalg.norm(wdir, axis=1, keepdims=True)
        pts = np.concatenate([r[:, None] * qdir, rho[:, None] * wdir], axis=1)
        vals = np.asarray(u(pts), dtype=float)
        # weight = u / proposal density; written multiplicatively so the
        # r -> 0 limit (weight -> 0) never divides by zero
        wgt = (
            vals
            * (_SPHERE3 * r**3)
            * _fold_t2_weight(r)
            * (_SPHERE2 * rho**2)
            * _fold_cauchy_weight(rho)
        )
        tot += float(wgt.sum())
        totsq += float(wgt @ wgt)
        m = min(k, max(0, half - done))
        if m > 0:
            htot += float(wgt[:m].sum())
            htotsq += float(wgt[:m] @ wgt[:m])
        done += k

    mean = tot / samples
    var = max(0.0, (totsq - samples * mean * mean) / (samples - 1))
    stderr = math.sqrt(var / samples)

    hmean = htot / half
    hvar = max(0.0, (htotsq - half * hmean * hmean) / max(1, half - 1))
    hstderr = math.sqrt(hvar / half)

    warning = None
    # finite variance halves the squared error when the sample doubles;
    # a full-sample stderr above 0.9x the half-sample one says otherwise
    if stderr > 0.9 * hstderr and stderr > 0.0:
        warning = (
            f"standard error is not shrinking with sample size "
            f"({stderr:.3e} full vs {hstderr:.3e} on half); "
            "the weight distribution looks heavy-tailed"
        )
        warnings.warn(warning, RuntimeWarning, stacklevel=2)
    return MCResult(value=mean, stderr=stderr, samples=samples, seed=seed, warning=warning)


# ---------------------------------------------------------------------------
# The Folland-Stein quotient of a certified field.


@dataclass(frozen=True)
class QuotientReport:
    """Numerator, denominator and quotient of the Sobolev functional."""

    numerator: float    # integral |grad_H u|^2 dH
    mass: float         # integral u^{5/2} dH
    denominator: float  # mass^{4/5}
    quotient: float
    error: float        # first-order propagation of the quadrature errors
    numerator_result: QuadratureResult
    mass_result: QuadratureResult


def _energy_density(u: ScalarField, pts: np.ndarray) -> np.ndarray:
    """|grad_H u|^2 at each point, from order-1 frame jets."""
    g = frame.frame_jets(u, pts, 1).grad
    return np.einsum("na,na->n", g, g)


def _energy_integrand(u: ScalarField) -> BiRadialIntegrand:
    """|grad_H u|^2 as a reduced integrand, via the certificate."""
    cert = _certificate(u)
    d_r, d_rho = _require_decay(u)
    nodes, scale = _node_map(cert)

    def fn(r: np.ndarray, rho: np.ndarray) -> np.ndarray:
        return scale * _energy_density(u, nodes(r, rho))

    # each horizontal derivative gains one order in r and, through the
    # linear-in-q frame coefficients, one in rho as well
    return BiRadialIntegrand(
        fn=fn,
        decay=(2.0 * (d_r + 1.0), 2.0 * (d_rho + 1.0)),
        tag=f"|grad({u.tag})|^2",
    )


def _energy_biradial_audit(u: ScalarField, seed: int = 0) -> None:
    """Check that the horizontal energy really is bi-radial under the cert.

    The certificate promises u(p) = F(|q|, |omega|) of A(p).  For the
    reduction of the numerator we additionally need |grad_H u|^2 to be
    constant on the same level sets; that holds for certificates built
    from group motions but not for arbitrary affine maps, so probe it.
    """
    cert = _certificate(u)
    inv = np.linalg.inv(cert.linear)
    rng = np.random.default_rng(seed)
    base = np.array([[0.7, 0.3, -0.4, 0.2, 0.5, -0.3, 0.6],
                     [1.4, -0.2, 0.8, -0.5, -0.9, 0.4, 1.1]])
    ref_pts = (base - cert.offset) @ inv.T
    ref = _energy_density(u, ref_pts)
    for _ in range(2):
        a = _unit_quaternion(rng)
        b = _unit_quaternion(rng)
        k = spin_rotation_map(a, b)
        rot_pts = (base @ k.linear.T - cert.offset) @ inv.T
        rot = _energy_density(u, rot_pts)
        resid = float(np.max(np.abs(rot - ref) / np.maximum(np.abs(ref), 1e-300)))
        if not resid <= 1e-8:  # a NaN spread fails too
            raise ConsistencyError(
                f"horizontal energy of '{u.tag}' is not bi-radial under its "
                f"declared certificate (relative spread {resid:.3e}); the "
                "reduced quadrature would be wrong"
            )


def fs_quotient(
    u: ScalarField,
    tol: float = 1e-9,
    max_level: int = 7,
    n_nodes: int = 12,
    audit: bool = True,
) -> QuotientReport:
    """Sobolev quotient of a certified, positive, decaying field.

    The numerator uses the honest frame gradient at the pulled-back
    nodes; nothing is assumed about the field beyond its certificate,
    which is itself probed unless `audit` is switched off.
    """
    if audit:
        _energy_biradial_audit(u)
    num = integrate_biradial(
        _energy_integrand(u), tol=tol, max_level=max_level, n_nodes=n_nodes
    )
    mass = integrate_biradial(
        reduced_integrand(u, 2.5), tol=tol, max_level=max_level, n_nodes=n_nodes
    )
    denom = mass.value**0.8
    quotient = num.value / denom
    err = num.error / denom + 0.8 * num.value * mass.error / mass.value**1.8
    return QuotientReport(
        numerator=num.value,
        mass=mass.value,
        denominator=denom,
        quotient=quotient,
        error=err,
        numerator_result=num,
        mass_result=mass,
    )


# ---------------------------------------------------------------------------
# Origin-fixing rotations and the family search.


def _unit_quaternion(rng: np.random.Generator) -> np.ndarray:
    v = rng.standard_normal(4)
    return v / np.linalg.norm(v)


def spin_rotation_map(a, b) -> AffineMap:
    """The automorphism (q, omega) -> (a q conj(b), a omega conj(a)).

    For unit quaternions a, b this fixes the origin, preserves |q| and
    |omega|, Haar measure and the horizontal metric, and is a group
    automorphism; the maps form the natural rotation group of the slice
    decomposition.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    lin = np.zeros((DIM, DIM))
    eye4 = np.eye(4)
    for j in range(4):
        lin[:4, j] = quat_mul(quat_mul(a, eye4[j]), quat_conj(b))
    eye_im = np.eye(4)[1:]  # pure-imaginary basis i, j, k
    for s in range(3):
        lin[4:7, 4 + s] = quat_mul(quat_mul(a, eye_im[s]), quat_conj(a))[1:4]
    return AffineMap(lin, np.zeros(DIM))


class _ProfileRule:
    """Precomputed rotated-slice geometry for the search objective.

    The objective symmetrizes a field over a fixed set of rotations and
    takes the quotient of the resulting bi-radial profile F(r, rho); for
    a bi-radial function the horizontal energy density is exactly
    F_r^2 + 4 r^2 F_rho^2, so values and Euclidean gradients on the
    rotated slices are all that is needed.
    """

    def __init__(self, level: int, n_nodes: int, rotations: int, seed: int):
        self.r, self.rho, self.w = biradial_rule(level, n_nodes)
        slices = _slice_points(self.r, self.rho)
        rng = np.random.default_rng(seed)
        maps = [spin_rotation_map(_unit_quaternion(rng), _unit_quaternion(rng))
                for _ in range(rotations)]
        self.points = np.concatenate([slices @ k.linear.T for k in maps])
        # d/dr and d/drho of the rotated slice point, one direction per map
        self.dirs_r = np.stack([k.linear[:, 0] for k in maps])
        self.dirs_rho = np.stack([k.linear[:, 6] for k in maps])
        self.n_maps = rotations
        self.n_nodes = self.r.size

    def quotient(self, u: ScalarField) -> float:
        value, _ = self._evaluate(u)
        return value

    def objective(self, u: ScalarField, gamma: float) -> float:
        """Profile quotient plus gamma times the symmetrization defect.

        The defect is the rotation variance of the field on the slice,
        integrated and normalized like the quotient.  It vanishes
        identically when the field is bi-radial, so it adds nothing at
        the answer (not even quadrature noise, since the integrand is
        zero there rather than small-by-cancellation), while restoring
        strong convexity in the vertical center directions, where the
        averaged profile alone responds only at second order with a
        tiny constant.
        """
        value, defect = self._evaluate(u)
        return value + gamma * defect

    def _evaluate(self, u: ScalarField) -> tuple[float, float]:
        val, grad = u.jet_batch(self.points, 1)
        val = val.reshape(self.n_maps, self.n_nodes)
        grad = grad.reshape(self.n_maps, self.n_nodes, DIM)
        profile = val.mean(axis=0)
        d_r = np.einsum("mnj,mj->mn", grad, self.dirs_r).mean(axis=0)
        d_rho = np.einsum("mnj,mj->mn", grad, self.dirs_rho).mean(axis=0)
        energy = d_r**2 + 4.0 * self.r**2 * d_rho**2
        num = float(self.w @ energy)
        mass = float(self.w @ profile**2.5)
        denom = mass**0.8
        defect = float(self.w @ val.var(axis=0)) / denom
        return num / denom, defect


_LOG_NU_BOUND = 4.0
_CENTER_BOUND = 5.0


@dataclass(frozen=True)
class MinimizeResult:
    """Outcome of the concentration/center search.

    `value` re-evaluates the symmetrized-profile objective at the
    optimum on a finer rule; it exceeds the extremal quotient exactly
    to the extent the recovered motion fails to center the target.
    `report` is the certificate-route quotient of the de-transformed
    target, which for any exact family member equals the extremal value
    identically (the quotient is invariant under the family motions),
    so it serves as a consistency reference rather than a fit measure.
    """

    params: FamilyParams
    value: float            # objective at the optimum, fine rule
    objective_value: float  # objective at the optimum, search rule
    report: QuotientReport
    converged: bool
    nfev: int
    restarts: int
    message: str


def _detransformed(target: ScalarField, nu: float, center: np.ndarray) -> ScalarField:
    """Undo a candidate (nu, center): shift back, then widen by nu^{-1/2}.

    The two motions compose into one affine pullback so the evaluation
    chain stays short inside the optimizer's inner loop.
    """
    mu = nu**-0.5
    amap = left_translation_map(group_inv(center)).after(dilation_map(mu))
    return affine_pullback(target, amap, amplitude=mu**4, tag="search-detransform")


def _peak_seed(
    target: ScalarField, init: FamilyParams, bounds: np.ndarray
) -> tuple[np.ndarray, int]:
    """Starting point from the target's maximum and its curvature there.

    A translated, dilated bubble peaks exactly at its center, and the
    ratio of the sub-Laplacian to the value at the peak scales linearly
    with the concentration (it is amplitude-free), so for family
    members the seed is already the answer and Nelder-Mead only has to
    confirm it.  For anything else it is still a sensible warm start.
    """
    center0 = np.zeros(DIM) if init.center is None else np.asarray(init.center, dtype=float)
    # the candidate center undoes a left translation, so the bubble
    # translated by g peaks at inv(g); search near the inverse and
    # invert the location found
    loc0 = group_inv(center0)

    def negval(p: np.ndarray) -> float:
        try:
            return -float(target(p))
        except DomainError:
            return math.inf

    peak = optimize.minimize(
        negval,
        loc0,
        method="Nelder-Mead",
        options={
            "initial_simplex": np.vstack([loc0, loc0 + 0.05 * np.eye(DIM)]),
            "fatol": 1e-13,
            "xatol": 1e-8,
            "maxfev": 2000,
        },
    )
    height = -peak.fun
    center = group_inv(peak.x)
    log_nu = math.log(init.nu)
    if math.isfinite(height) and height > 0.0:
        # the unit bubble has sub_laplacian/value = -32 at its peak and
        # the ratio scales by nu along the family
        unit = ubar_field()
        peak_ratio = frame.sub_laplacian(unit, np.zeros(DIM))[0] / unit(np.zeros(DIM))
        ratio = frame.sub_laplacian(target, peak.x)[0] / height
        if ratio < 0.0:
            log_nu = math.log(ratio / peak_ratio)
    theta = np.concatenate([[log_nu], center])
    return np.clip(theta, -bounds, bounds), int(peak.nfev)


def minimize_quotient(
    init: FamilyParams,
    target: Optional[ScalarField] = None,
    *,
    seed: int = 0,
    rotations: int = 3,
    level: int = 2,
    n_nodes: int = 10,
    restarts: int = 3,
    maxiter: int = 2000,
    fatol: float = 2e-7,
    xatol: float = 2e-5,
    gamma: float = 10.0,
) -> MinimizeResult:
    """Recover the concentration and center of a translated, dilated bubble.

    The objective at a candidate center undoes the candidate motion,
    symmetrizes the result over a fixed set of origin-fixing rotations,
    and takes the quotient of that bi-radial profile, plus `gamma`
    times the symmetrization defect (see _ProfileRule.objective).  Both
    terms vanish above the extremal baseline exactly when the
    de-transformed target is the centered bubble, so the minimum
    recovers the planted center; the defect term supplies the
    vertical-direction curvature that the averaged profile alone
    lacks.  Recalibrating nu merely slides the de-transformed field
    along the dilation family, so neither term can see it: the descent
    would random-walk along that flat valley if allowed.  The
    concentration is therefore fixed to the peak-curvature estimate
    (exact for family members, amplitude-free in general) and the
    descent runs over the center alone.

    `init` seeds a cheap peak search on raw target values; Nelder-Mead
    then descends over the center from the peak estimate, with
    jittered-simplex restarts.  The reported value re-evaluates the
    pure profile quotient at the optimum on a finer rule.
    """
    if target is None:
        target = ubar_field()
    bounds = np.concatenate([[_LOG_NU_BOUND], np.full(DIM, _CENTER_BOUND)])
    center0 = np.zeros(DIM) if init.center is None else np.asarray(init.center, dtype=float)
    if abs(math.log(init.nu)) > _LOG_NU_BOUND or np.any(np.abs(center0) > _CENTER_BOUND):
        raise ValueError("initial guess outside the search box")

    theta0, nfev = _peak_seed(target, init, bounds)
    nu_opt = math.exp(theta0[0])
    rule = _ProfileRule(level, n_nodes, rotations, seed)
    rng = np.random.default_rng(seed)

    def objective(theta: np.ndarray) -> float:
        value = rule.objective(_detransformed(target, nu_opt, theta), gamma)
        excess = np.maximum(0.0, np.abs(theta) - _CENTER_BOUND)
        return value + 1e3 * float(excess @ excess)

    best = None
    used = 0
    message = ""
    start = theta0[1:]
    for attempt in range(restarts + 1):
        step = 5e-4 if attempt == 0 else 2e-4 * rng.uniform(0.5, 1.5)
        simplex = np.vstack([start, start + step * np.eye(DIM)])
        res = optimize.minimize(
            objective,
            start,
            method="Nelder-Mead",
            options={
                "initial_simplex": simplex,
                "fatol": fatol,
                "xatol": xatol,
                "maxiter": maxiter,
                "maxfev": maxiter,
            },
        )
        nfev += res.nfev
        used += 1
        improved = best is None or best.fun - res.fun > fatol
        if best is None or res.fun < best.fun:
            best = res
            message = res.message
            start = res.x
        if not improved:
            break

    center_opt = best.x.copy()
    fine = _ProfileRule(level + 1, n_nodes + 2, rotations, seed)
    value = fine.quotient(_detransformed(target, nu_opt, center_opt))
    report = fs_quotient(_detransformed(target, nu_opt, center_opt))
    return MinimizeResult(
        params=FamilyParams(c=1.0, nu=nu_opt, center=center_opt),
        value=value,
        objective_value=float(best.fun),
        report=report,
        converged=bool(best.success),
        nfev=nfev,
        restarts=used,
        message=message,
    )


# ---------------------------------------------------------------------------
# The best-constant reconciliation report.


@dataclass(frozen=True)
class RatioLine:
    """One computed/printed comparison; consistent means within 1e-3 of 1."""

    name: str
    ratio: float
    consistent: bool


@dataclass(frozen=True)
class BestConstantReport:
    """Computed integrals and quotient next to the printed constants.

    The printed record is internally inconsistent (its stated fifth
    power of the constant coincides with the reciprocal square of the
    printed embedding constant, which under the advertised relation is
    the constant itself, not its fifth power), so this report refuses to
    pick a winner: it lists every candidate and flags each ratio.
    """

    gauge_integral: float          # computed integral of the gauge kernel
    gauge_error: float
    gauge_closed_form: float       # pi^4 / 384 by the Beta reduction
    mass_integral: float           # computed integral of ubar^{5/2}
    mass_error: float
    mass_closed_form: float        # 2^25 * pi^4 / 384
    mass_mc: MCResult
    quotient_report: QuotientReport
    lambda_as_quotient: float      # reading: the constant is the quotient
    lambda_as_fifth_power: float   # reading: the constant's 5th power is it
    s2_printed: float
    s2_alt_printed: float
    lambda5_printed: float
    lambda_from_s2: float
    sphere_constant_printed: float
    gamma_amplitude_printed: float
    gamma_chain_value: float
    ratios: tuple
    gauge_table: tuple
    mass_table: tuple

    def as_text(self) -> str:
        lines = [
            "computed:",
            f"  gauge-kernel integral     {self.gauge_integral:.12g}  (+/- {self.gauge_error:.2e})",
            f"  Beta closed form          {self.gauge_closed_form:.12g}",
            f"  ubar^{{5/2}} integral       {self.mass_integral:.12g}  (+/- {self.mass_error:.2e})",
            f"  2^25 x closed form        {self.mass_closed_form:.12g}",
            f"  Monte Carlo cross-check   {self.mass_mc.value:.8g}  (+/- {self.mass_mc.stderr:.2e})",
            f"  Sobolev quotient          {self.quotient_report.quotient:.12g}"
            f"  (+/- {self.quotient_report.error:.2e})",
            f"  constant if quotient      {self.lambda_as_quotient:.12g}",
            f"  constant^5 if quotient^5  {self.lambda_as_fifth_power:.12g}",
            "printed:",
            f"  embedding constant        {self.s2_printed:.12g}",
            f"  alternate embedding       {self.s2_alt_printed:.12g}",
            f"  constant fifth power      {self.lambda5_printed:.12g}",
            f"  reciprocal square of s2   {self.lambda_from_s2:.12g}",
            f"  sphere eigenvalue bound   {self.sphere_constant_printed:.12g}",
            f"  concentrated amplitude    {self.gamma_amplitude_printed:.12g}",
            f"  Gamma-chain mass value    {self.gamma_chain_value:.12g}",
            "ratios (flag = differs from 1 by more than 1e-3):",
        ]
        for line in self.ratios:
            flag = "ok  " if line.consistent else "FLAG"
            lines.append(f"  [{flag}] {line.name}: {line.ratio:.9g}")
        return "\n".join(lines)


def _ratio(name: str, num: float, den: float) -> RatioLine:
    ratio = num / den
    return RatioLine(name=name, ratio=ratio, consistent=abs(ratio - 1.0) <= 1e-3)


def best_constant_report(
    tol: float = 1e-9,
    mc_samples: int = 200_000,
    seed: int = 0,
) -> BestConstantReport:
    """Quadrature, Monte Carlo and closed forms for the sharp constant."""

    def gauge_kernel(r: np.ndarray, rho: np.ndarray) -> np.ndarray:
        return ((1.0 + r * r) ** 2 + rho * rho) ** -5.0

    gauge = integrate_biradial(
        BiRadialIntegrand(fn=gauge_kernel, decay=(20.0, 10.0), tag="gauge-kernel"),
        tol=tol,
    )
    ubar = ubar_field()
    mass = integrate_field(ubar, power=2.5, tol=tol)
    mass_closed = 2.0**25 * GAUGE_INTEGRAL_CLOSED_FORM
    mc = integrate_mc(power_compose(ubar, 2.5, tag="ubar^2.5"), mc_samples, seed=seed)
    quot = fs_quotient(ubar, tol=tol)

    s2 = 2.0 * math.sqrt(3.0) * math.pi ** (-0.6)
    s2_alt = 15.0**0.1 / (math.pi**0.4 * 2.0 * math.sqrt(2.0))
    lambda5_printed = math.pi**1.2 / 12.0
    lambda_from_s2 = s2**-2.0
    sphere_const = 48.0 * (4.0 * math.pi) ** 0.2
    gamma_amp = 32.0 * math.pi ** (-17.0 / 50.0) * 2.0**0.2 * 15.0**0.4
    gamma_chain = 2.0**25 * math.pi**3.5 * math.gamma(3.5) / math.gamma(7.0)

    q5 = quot.quotient**5
    ratios = (
        _ratio("gauge quadrature / Beta closed form", gauge.value, GAUGE_INTEGRAL_CLOSED_FORM),
        _ratio("mass quadrature / 2^25 x closed form", mass.value, mass_closed),
        _ratio("Gamma-chain value / mass quadrature", gamma_chain, mass.value),
        _ratio("quotient^5 / mass quadrature", q5, mass.value),
        _ratio("printed constant^5 / computed quotient^5", lambda5_printed, q5),
        _ratio("printed constant^5 / computed quotient", lambda5_printed, quot.quotient),
        _ratio("printed constant^5 / printed s2^-2", lambda5_printed, lambda_from_s2),
        _ratio("printed s2 / alternate printed s2", s2, s2_alt),
    )
    return BestConstantReport(
        gauge_integral=gauge.value,
        gauge_error=gauge.error,
        gauge_closed_form=GAUGE_INTEGRAL_CLOSED_FORM,
        mass_integral=mass.value,
        mass_error=mass.error,
        mass_closed_form=mass_closed,
        mass_mc=mc,
        quotient_report=quot,
        lambda_as_quotient=quot.quotient,
        lambda_as_fifth_power=q5,
        s2_printed=s2,
        s2_alt_printed=s2_alt,
        lambda5_printed=lambda5_printed,
        lambda_from_s2=lambda_from_s2,
        sphere_constant_printed=sphere_const,
        gamma_amplitude_printed=gamma_amp,
        gamma_chain_value=gamma_chain,
        ratios=ratios,
        gauge_table=gauge.table,
        mass_table=mass.table,
    )
