"""Integration over the group and the Folland-Stein quotient machinery.

Haar measure is Lebesgue measure on R^7.  A function that depends on a
point only through (r, rho) = (|q|, |omega|) integrates against the
reduced measure

    dH = (2 pi^2 r^3 dr) (4 pi rho^2 drho),

the factors being the areas of S^3 and S^2.  The reduced quadrature
compactifies each half-line with r = t/(1-t) and applies a composite
Gauss-Legendre rule on dyadic panels of [0, 1); refinement doubles the
panel count.  The error of level k is estimated geometrically from the
deltas d_k = |I_k - I_{k-1}| as d_k^2 / d_{k-1}, the rule converging
faster than linearly, and never below a rounding floor of
sqrt(nodes) * eps * |I_k|.

Fields that carry a bi-radial certificate (see ScalarField.biradial_map)
are reduced to two dimensions exactly: the quadrature nodes are pulled
back through the certified affine map and the weights pick up 1/|det A|.
Everything else goes through the Monte Carlo routine, which importance
samples the two radii with heavy-tailed folded Student-t proposals so
that inverse-polynomial decay keeps a finite variance.  Each sample is
read by inversion from one row of seven uniforms: the radii from their
distribution functions, the directions from the Hopf split of S^3 and
Archimedes' rule on S^2, so no sample depends on the block size the
samples are drawn in.

The quotient of interest is

    Q(u) = integral |grad_H u|^2 dH / (integral u^{5/2} dH)^{4/5},

invariant under amplitude scaling, left translation and the parabolic
dilations.  `fs_quotient` evaluates it with the gradient computed
honestly in the left-invariant frame; `minimize_quotient` searches the
concentration/center family for it.  Every extremal is a translated,
dilated ubar, so a damped Newton ascent on the target's order-2 jets finds
its peak, whose location and curvature give the center and nu, and one
pass of the target's rotation-symmetrized profile certifies them: it
returns the quotient and the rotation defect, which vanishes for the
centered bubble.  Both are plain numpy.  The pass reads the target
through one folded pullback at the rule's own points: the candidate
motion composes with the target's affine map, so the points take one
affine map, and the pullback's base takes one order-1 jet call per
rotation.  The two slice directions of each rotation are contracted with
the map's linear part once per rotation, so no point's gradient is pulled
back whole.
"""

from __future__ import annotations

import io
import csv
import functools
import math
import warnings
from dataclasses import dataclass
from typing import Callable, ClassVar, Optional

import numpy as np

from . import frame
from .errors import AccuracyError, ConsistencyError, DomainError, _positive, _whole
from .extremals import (
    FamilyParams,
    dilation_map,
    left_translation_map,
    ubar_field,
)
from .jets import DIM, AffineMap, ScalarField, affine_pullback, power_compose
from .quaternions import (
    _single, as_point, as_quat, group_inv, quat_conj, quat_mul, quat_norm2,
)

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
# Monte Carlo samples per block.  The draws do not depend on it; a block's
# temporaries stay small enough to be reused from the heap instead of
# being mapped, and faulted in, afresh.
_MC_CHUNK = 1 << 13

# The reduced rule: refinement starts at 2 panels per half-line, each
# panel a 12-node Gauss-Legendre rule.
_MIN_LEVEL = 1
_MAX_LEVEL = 7
_N_NODES = 12

# The error estimate's rounding floor is sqrt(nodes) * _ROUNDING * |I_k|: a
# sum of n rounded terms is good to about sqrt(n) ulps.
_ROUNDING = np.finfo(float).eps


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

#: integral of ubar^{5/2} dH, whose integrand is 2^25 times the gauge kernel
_MASS_CLOSED_FORM = 2.0**25 * GAUGE_INTEGRAL_CLOSED_FORM


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


@functools.lru_cache(maxsize=32)
def _panel_nodes(level: int) -> tuple[np.ndarray, np.ndarray]:
    """Composite Gauss-Legendre nodes and weights on [0, 1), 2^level panels
    of `_N_NODES` nodes each.

    Cached, so the arrays are read-only: every caller shares them.
    """
    x, w = np.polynomial.legendre.leggauss(_N_NODES)
    m = 1 << level
    half = 0.5 / m
    centers = (np.arange(m) + 0.5) / m
    t = (centers[:, None] + half * x[None, :]).ravel()
    wt = np.tile(half * w, m)
    t.flags.writeable = False
    wt.flags.writeable = False
    return t, wt


def biradial_rule(level: int):
    """Tensor quadrature rule for dH on the (r, rho) quarter-plane.

    Returns flat arrays (r, rho, weight) on 2^level panels of `_N_NODES`
    Gauss-Legendre nodes per half-line; the weight already contains the
    sphere areas, the r^3 rho^2 measure factors and the Jacobians of the
    compactification t -> t/(1-t) on both axes.  `level` is an integer
    >= 0; anything else is a ValueError.
    """
    t, wt = _panel_nodes(_whole(level, "level", 0))
    radius = t / (1.0 - t)
    jac = 1.0 / (1.0 - t) ** 2
    w_r = _SPHERE3 * radius**3 * jac * wt
    w_rho = _SPHERE2 * radius**2 * jac * wt
    r = np.repeat(radius, radius.size)
    rho = np.tile(radius, radius.size)
    w = np.multiply.outer(w_r, w_rho).ravel()
    return r, rho, w


def _rule_sums(fn, r, rho, w) -> list[float]:
    """The rule's sum of each row of fn(r, rho), evaluated in node blocks."""
    totals = None
    for lo in range(0, r.size, _EVAL_BLOCK):
        hi = lo + _EVAL_BLOCK
        rows = fn(r[lo:hi], rho[lo:hi])
        if totals is None:
            totals = [0.0] * len(rows)
        totals = [
            total + float(w[lo:hi] @ np.asarray(row, dtype=float))
            for total, row in zip(totals, rows)
        ]
    return totals


@dataclass(frozen=True)
class QuadratureResult:
    """Converged estimate with its refinement history."""

    value: float
    error: float
    table: tuple  # rows (level, estimate, error estimate, cells)


def _refine(fn, tags, tol: float) -> tuple[QuadratureResult, ...]:
    """The refinement loop for the rows of one integrand on shared nodes.

    fn(r, rho) returns one array of values per entry of `tags`.  The rows
    stop together, at the first level where every row's own error estimate
    passes, and every row's table ends at that level.  When no level up to
    `_MAX_LEVEL` passes, the first row that fails at the last level raises
    AccuracyError with its table.
    """
    tables = [[] for _ in tags]
    for level in range(_MIN_LEVEL, _MAX_LEVEL + 1):
        r, rho, w = biradial_rule(level)
        for rows, est in zip(tables, _rule_sums(fn, r, rho, w)):
            err = math.nan
            if rows:
                delta = abs(est - rows[-1][1])
                prev_delta = abs(rows[-1][1] - rows[-2][1]) if len(rows) > 1 else None
                raw = delta if not prev_delta else delta * delta / prev_delta
                # np.maximum, not the builtin max, so that a NaN propagates: a
                # NaN level and the two after it can never be accepted
                err = float(np.maximum(raw, math.sqrt(r.size) * _ROUNDING * abs(est)))
            rows.append((level, est, err, r.size))
        # False on the first level, whose err is NaN
        passed = [rows[-1][2] <= tol * abs(rows[-1][1]) for rows in tables]
        if all(passed):
            return tuple(QuadratureResult(rows[-1][1], rows[-1][2], tuple(rows)) for rows in tables)
    i = passed.index(False)
    last_level, est, err, _ = tables[i][-1]
    exc = AccuracyError(
        f"integrand '{tags[i]}' did not converge to rtol {tol:g} "
        f"by level {last_level} (error estimate {err:.3e})",
        value=est,
        error=err,
    )
    exc.table = tuple(tables[i])
    raise exc


def integrate_biradial(integrand: BiRadialIntegrand, tol: float = 1e-9) -> QuadratureResult:
    """Adaptive dyadic refinement until the estimated error is small enough.

    With d_k = |I_k - I_{k-1}|, the error of level k is estimated as
    max(d_k^2 / d_{k-1}, sqrt(nodes) * eps * |I_k|) (d_k alone where there
    is no d_{k-1} or it is 0), the D1^2/D2 estimate of Bailey, Jeyabalan
    and Li (Exp. Math. 14, 2005) with a rounding floor.  Convergence means
    that estimate is <= tol * |I_k|, at one of the levels 1 to 7
    (`_MAX_LEVEL`).  On failure raises AccuracyError carrying the best
    estimate, its error and the table.  `tol` must be a finite number > 0;
    anything else raises DomainError before the integrand is evaluated.
    """
    tol = _positive(tol, "tol")
    return _refine(lambda r, rho: (integrand.fn(r, rho),), (integrand.tag,), tol)[0]


def convergence_csv(table) -> str:
    """Render a refinement table as CSV (level, estimate, error, cells).

    `error_estimate` is the geometric estimate of `integrate_biradial`,
    empty on the first level, which has no delta.
    """
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["level", "estimate", "error_estimate", "cells"])
    for level, est, err, cells in table:
        writer.writerow([level, repr(est), "" if math.isnan(err) else repr(err), cells])
    return buf.getvalue()


# ---------------------------------------------------------------------------
# Reduction of certified fields.


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


def _node_map(u: ScalarField) -> tuple[Callable[[np.ndarray], np.ndarray], float]:
    """Pull points back through u's certificate; weight factor 1/|det|."""
    cert = u.biradial_map
    if cert is None:
        raise DomainError(
            f"field '{u.tag}' carries no bi-radial certificate; "
            "integrate_mc handles general fields"
        )
    inv = np.linalg.inv(cert.linear)

    def pull(pts: np.ndarray) -> np.ndarray:
        return (pts - cert.offset) @ inv.T

    return pull, 1.0 / abs(cert.det)


def reduced_integrand(u: ScalarField, power: float = 1.0) -> BiRadialIntegrand:
    """Two-dimensional integrand of u**power for a certified field.

    Its `fn` also takes `values`, u at the pulled-back nodes, so that a
    pass which has already evaluated u there need not evaluate it again.
    A non-integer power needs u >= 0: a negative or NaN value at any node
    raises DomainError at that level, instead of NaN levels that end in
    AccuracyError.  Power 1 is a signed integral.
    """
    pull, scale = _node_map(u)
    d_r, d_rho = _require_decay(u)
    tag = u.tag if power == 1.0 else f"({u.tag})^{power:g}"
    real_power = not float(power).is_integer()

    def fn(r: np.ndarray, rho: np.ndarray, values: Optional[np.ndarray] = None) -> np.ndarray:
        vals = u(pull(_slice_points(r, rho))) if values is None else values
        if power == 1.0:
            return scale * vals
        if real_power and not np.all(vals >= 0.0):  # False on NaN
            raise DomainError(f"integrand '{tag}' needs '{u.tag}' >= 0 at every node")
        return scale * vals**power

    return BiRadialIntegrand(fn=fn, decay=(power * d_r, power * d_rho), tag=tag)


def integrate_field(u: ScalarField, power: float = 1.0, tol: float = 1e-9) -> QuadratureResult:
    """Integral of u**power dH through the certificate reduction."""
    return integrate_biradial(reduced_integrand(u, power), tol)


# ---------------------------------------------------------------------------
# Monte Carlo for fields without a certificate.


# The reciprocal proposal density, up to the radial factors: the sphere
# areas 2 pi^2 and 4 pi times the reciprocal folded Student-t(2) density
# constant sqrt(2) (of 2^{-1/2} (1+r^2/2)^{-3/2}) and folded Cauchy
# constant pi/2 (of (2/pi) (1+rho^2)^{-1}).
_MC_WEIGHT = _SPHERE3 * _SPHERE2 * math.sqrt(2.0) * (0.5 * math.pi)


def _mc_points(rng: np.random.Generator, k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """k samples of the proposal: the radii r, rho and the points, (k, 7).

    One draw, rng.random((k, 7)); sample i reads row i, (a, b, s, z, e1,
    e2, e3), by inversion, so no sample depends on how the stream is
    split into blocks:

    - r = a sqrt(2 / ((1 - a)(1 + a))), the folded t(2), whose
      distribution function is r / sqrt(2 + r^2);
    - rho = tan(pi b / 2), the folded Cauchy;
    - q / r = (sqrt(1 - s) e^{i theta1}, sqrt(s) e^{i theta2}), uniform on
      S^3 by the Hopf split;
    - omega / rho = (sqrt(1 - h^2) e^{i theta3}, h), h = 2 z - 1, uniform
      on S^2 by Archimedes' rule;
    - theta_j = 2 pi (e_j - 1/2), whose (cos, sin) is
      ((1 - t^2), 2 t) / (1 + t^2) with t = tan(pi (e_j - 1/2)): one tan
      costs a fraction of a sin and a cos.
    """
    a, b, s, z, *angles = rng.random((k, DIM)).T
    h = 2.0 * z - 1.0
    # (1 - a)(1 + a), not 1 - a^2, keeps the tail's relative accuracy
    r = a * np.sqrt(2.0 / ((1.0 - a) * (1.0 + a)))
    rho = np.tan((0.5 * np.pi) * b)
    pts = np.empty((k, DIM))
    circles = (r * np.sqrt(1.0 - s), r * np.sqrt(s), rho * np.sqrt((1.0 - h) * (1.0 + h)))
    for j, (c, e) in enumerate(zip(circles, angles)):
        t = np.tan(np.pi * (e - 0.5))
        t2 = t * t
        c /= 1.0 + t2
        np.multiply(c, 1.0 - t2, out=pts[:, 2 * j])
        t *= c
        np.multiply(t, 2.0, out=pts[:, 2 * j + 1])
    np.multiply(rho, h, out=pts[:, 6])
    return r, rho, pts


def _mc_weights(u: ScalarField, rng: np.random.Generator, k: int) -> np.ndarray:
    """u / proposal density at k fresh samples; only the weights outlive the call."""
    r, rho, pts = _mc_points(rng, k)
    vals = np.asarray(u(pts), dtype=float)
    # written multiplicatively so the r -> 0 limit (weight -> 0) never
    # divides by zero
    r2 = r * r
    rho2 = rho * rho
    t = 1.0 + 0.5 * r2
    return vals * _MC_WEIGHT * (r2 * r) * (t * np.sqrt(t)) * (rho2 * (1.0 + rho2))


def _stderr(total: float, total_sq: float, n: int) -> float:
    """The standard error of a mean of n weights from their sum and sum of squares."""
    mean = total / n
    # np.maximum, unlike max, keeps a NaN variance NaN instead of 0.0
    var = float(np.maximum(0.0, (total_sq - n * mean * mean) / (n - 1)))
    return math.sqrt(var / n)


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
) -> MCResult:
    """Monte Carlo integral of u dH for fields of inverse-polynomial decay.

    The radii are importance sampled from folded Student-t distributions,
    |t(2)| for r and |t(1)| for rho; the Cauchy tail on rho is what keeps
    the weight variance finite down to the integrability threshold.  The
    directions are uniform on the spheres.  A split-half comparison of
    the standard error flags estimators whose tails are too heavy for
    the central limit theorem to have kicked in.  `samples` must be an
    integer of at least 1000 and `seed` one of at least 0, so that the
    recorded seed reproduces the estimate; anything else raises ValueError.

    Sample i reads row i of one stream of (samples, 7) uniforms (see
    _mc_points); the rows are drawn in blocks of at most `_MC_CHUNK`, and
    the block size changes no sample.  The weight is u times the
    reciprocal proposal density _MC_WEIGHT r^3 t^{3/2} rho^2 (1 + rho^2),
    t = 1 + r^2/2.  The warning compares the full-sample stderr with the
    smaller of the two half-sample ones.
    """
    samples = _whole(samples, "Monte Carlo samples", 1000)
    seed = _whole(seed, "seed", 0)
    rng = np.random.default_rng(seed)
    half = samples // 2
    tot = totsq = 0.0
    htot = htotsq = 0.0
    done = 0
    while done < samples:
        k = min(_MC_CHUNK, samples - done)
        wgt = _mc_weights(u, rng, k)
        # sums of squares by einsum, not a BLAS dot, whose rounding can
        # depend on the BLAS thread count
        tot += float(wgt.sum())
        totsq += float(np.einsum("i,i->", wgt, wgt))
        m = min(k, max(0, half - done))
        if m > 0:
            htot += float(wgt[:m].sum())
            htotsq += float(np.einsum("i,i->", wgt[:m], wgt[:m]))
        done += k

    mean = tot / samples
    stderr = _stderr(tot, totsq, samples)
    # the second half's sums are the full sums less the first half's
    halves = (_stderr(htot, htotsq, half), _stderr(tot - htot, totsq - htotsq, samples - half))

    warning = None
    # finite variance halves the squared error when the sample doubles; a
    # full-sample stderr above 0.9x the smaller half-sample one says
    # otherwise.  One dominant weight W reads about 2W/n in the half that
    # holds it and W/n in the full sample: only the other half shows it.
    if stderr > 0.9 * min(halves) and stderr > 0.0:
        warning = (
            f"standard error is not shrinking with sample size "
            f"({stderr:.3e} full vs {halves[0]:.3e} and {halves[1]:.3e} on the halves); "
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


# a name of this module's own, so a seeded fault can replace the density here alone
_energy_density = frame._gradsq


@functools.cache
def _energy_probe() -> np.ndarray:
    """The energy audit's probe: two base points, then two rotations of them, (6, 7).

    The rotations are drawn from generator seed 0 and built once per
    process; the array is shared, hence read-only.
    """
    rng = np.random.default_rng(0)
    base = np.array([[0.7, 0.3, -0.4, 0.2, 0.5, -0.3, 0.6],
                     [1.4, -0.2, 0.8, -0.5, -0.9, 0.4, 1.1]])
    turns = [spin_rotation_map(_unit_quaternion(rng), _unit_quaternion(rng)) for _ in range(2)]
    pts = np.concatenate([base] + [base @ k.linear.T for k in turns])
    pts.flags.writeable = False
    return pts


def _energy_biradial_audit(u: ScalarField) -> None:
    """Check that the horizontal energy really is bi-radial under the cert.

    The certificate promises u(p) = F(|q|, |omega|) of A(p).  For the
    reduction of the numerator we additionally need |grad_H u|^2 to be
    constant on the same level sets; that holds for certificates built
    from group motions but not for arbitrary affine maps, so probe it.
    """
    pull, _ = _node_map(u)
    # the base points and two rotations of them, in one frame pass
    density = _energy_density(frame.frame_jets(u, pull(_energy_probe()), 1)).reshape(3, -1)
    ref = density[0]
    resid = float(np.max(np.abs(density[1:] - ref) / np.maximum(np.abs(ref), 1e-300)))
    if not resid <= 1e-8:  # a NaN spread fails too
        raise ConsistencyError(
            f"horizontal energy of '{u.tag}' is not bi-radial under its "
            f"declared certificate (relative spread {resid:.3e}); the "
            "reduced quadrature would be wrong"
        )


def fs_quotient(
    u: ScalarField,
    tol: float = 1e-9,
) -> QuotientReport:
    """Sobolev quotient of a certified, positive, decaying field.

    The numerator uses the honest frame gradient at the pulled-back
    nodes; nothing is assumed about the field beyond its certificate,
    which is itself probed first.  One order-1 frame pass per level
    gives both rows: the gradient makes the numerator and the value,
    raised to 5/2, the mass.  The rows stop together, at the first level
    where both pass, so the mass row is `integrate_field(u, 2.5)` carried
    on to the numerator's level when that is the later one.  The mass
    row's decay check covers the numerator's, whose orders 2(d + 1)
    exceed (4, 3) once 2.5 d does.  `tol` is checked as there, before
    anything is evaluated.
    """
    tol = _positive(tol, "tol")
    _energy_biradial_audit(u)
    mass_row = reduced_integrand(u, 2.5)
    pull, scale = _node_map(u)

    def rows(r: np.ndarray, rho: np.ndarray):
        jet = frame.frame_jets(u, pull(_slice_points(r, rho)), 1)
        return scale * _energy_density(jet), mass_row.fn(r, rho, jet.value)

    num, mass = _refine(rows, (f"|grad({u.tag})|^2", mass_row.tag), tol)
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


_E4 = np.eye(4)


def spin_rotation_map(a, b) -> AffineMap:
    """The automorphism (q, omega) -> (a q conj(b), a omega conj(a)).

    For unit quaternions a, b this fixes the origin, preserves |q| and
    |omega|, Haar measure and the horizontal metric, and is a group
    automorphism; the maps form the natural rotation group of the slice
    decomposition.  a and b are unit quaternions, (4,) or (1, 4) with
    |a|^2 and |b|^2 within 1e-12 of 1; another shape is a ValueError, and
    anything else, a NaN included, a DomainError.
    """
    a = _single(as_quat(a), "spin_rotation_map")
    b = _single(as_quat(b), "spin_rotation_map")
    if not (abs(quat_norm2(a) - 1.0) <= 1e-12 and abs(quat_norm2(b) - 1.0) <= 1e-12):
        raise DomainError(f"spin_rotation_map needs unit quaternions, got a={a}, b={b}")
    lin = np.zeros((DIM, DIM))
    # row j of each product is the image of basis quaternion j
    lin[:4, :4] = quat_mul(quat_mul(a, _E4), quat_conj(b)).T
    lin[4:7, 4:7] = quat_mul(quat_mul(a, _E4[1:]), quat_conj(a))[:, 1:4].T
    return AffineMap(lin, np.zeros(DIM))


def _detransformed(target: ScalarField, nu: float, center: np.ndarray) -> ScalarField:
    """Undo a candidate (nu, center): shift back, then widen by nu^{-1/2}.

    The field is mu^4 target(center^{-1} . delta_mu(x)), mu = nu^{-1/2}.
    The two motions compose into one affine pullback, folded with the
    target's own when it is one, so the result keeps the target's
    bi-radial certificate and `fs_quotient` can take it.
    """
    mu = nu**-0.5
    amap = left_translation_map(group_inv(center)).after(dilation_map(mu))
    return affine_pullback(target, amap, amplitude=mu**4, tag="search-detransform")


class _ProfileRule:
    """Precomputed rotated-slice geometry for the search's certificate: the
    level-3 reduced rule under 3 origin-fixing rotations drawn from `seed`.

    The objective symmetrizes a field over a fixed set of rotations and
    takes the quotient of the resulting bi-radial profile F(r, rho); for
    a bi-radial function the horizontal energy density is exactly
    F_r^2 + 4 r^2 F_rho^2, so values and slopes along the two slice
    directions of each rotation are all that is needed.
    """

    def __init__(self, seed: int):
        self.r, self.rho, self.w = biradial_rule(3)
        slices = _slice_points(self.r, self.rho)
        rng = np.random.default_rng(seed)
        maps = [spin_rotation_map(_unit_quaternion(rng), _unit_quaternion(rng)) for _ in range(3)]
        self.points = np.concatenate([slices @ k.linear.T for k in maps])
        # d/dr and d/drho of the rotated slice point, (maps, 2, 7)
        self.dirs = np.stack([k.linear[:, [0, 6]].T for k in maps])
        self.n_maps = len(maps)
        self.n_nodes = self.r.size
        for arr in (self.r, self.rho, self.w, self.points, self.dirs):
            arr.flags.writeable = False  # shared through _profile_rule

    def objective(self, target: ScalarField, nu: float, center: np.ndarray) -> tuple[float, float]:
        """Profile quotient of the de-transformed target, and its rotation defect.

        The candidate (nu, center) is undone as in `_detransformed`: the
        target is read at y = center^{-1} . delta_mu(x), mu = nu^{-1/2},
        times mu^4.  The value is the quotient of the profile averaged over
        the rotations.  The defect is the rotation spread, the variance of
        the field over the rotations integrated with the rule's weights,
        divided by the energy numerator.  It vanishes identically when the
        field is bi-radial, so at a family member's own motion it is
        rounding in each value, not a difference of two quotients, and it
        grows quadratically with the error of the center.  Where the
        de-transformed target has no mass on the rule (it has moved off
        every node) the quotient is undefined and both come back NaN; with
        no energy the defect is NaN.

        One order-1 pass reads the target through the one folded pullback
        amp * base(A x) that `_detransformed` builds (the candidate motion
        composed with the target's map), at the rule's own points x, one
        rotation at a time: each rotation's points go through A and the
        base takes one jet call of them.  The rotation's two slice
        directions become v = lin(A) @ dirs in the base's coordinates, and
        the call reads the base along them (`jet_batch`'s `along`), so the
        slopes are amp grad_y f . v and no point's gradient is pulled back
        whole.  The calls write into (m, n) value and (m, n, 2) slope
        planes, so the pass holds one rotation's temporaries at a time.
        """
        m, n = self.n_maps, self.n_nodes
        pull = _detransformed(target, nu, center).jets  # always one folded _Pullback
        lin, amp = pull.amap.linear, pull.amplitude
        v = lin @ np.swapaxes(self.dirs, 1, 2)  # the slice directions in base coordinates, (m, 7, 2)
        val = np.empty((m, n))
        slope = np.empty((m, n, 2))  # d/dr, d/drho per map
        for k, points in enumerate(self.points.reshape(m, n, DIM)):
            val[k], slope[k] = pull.base.jet_batch(pull.amap(points), 1, along=v[k])
        val *= amp
        slope *= amp
        profile = val.mean(axis=0)
        p_r, p_rho = slope.mean(axis=0).T
        energy = p_r**2 + frame.VERTICAL_SCALE**2 * self.r**2 * p_rho**2
        num = float(self.w @ energy)
        mass = float(self.w @ profile**2.5)
        if not mass > 0.0:  # nothing of the target left on the rule: no quotient
            return math.nan, math.nan
        spread = float(self.w @ val.var(axis=0))
        return num / mass**0.8, spread / num if num > 0.0 else math.nan


#: One `_ProfileRule` per seed, built once per process and shared, hence
#: read-only.
_profile_rule = functools.lru_cache(maxsize=4)(_ProfileRule)

# On the certificate's rule, at the peak seed, a translated, dilated ubar
# reads a defect of about 1e-32 and a Kelvin image of one below 1e-22; a
# center moved by 1e-5 bubble widths (nu^{-1/2} horizontally, nu^{-1}
# vertically) in every coordinate reads 1.5e-11 to 1.3e-9 for nu from 0.01
# to 100, so _DEFECT_TOL sits ten orders above the seeds.
_DEFECT_TOL = 1e-12
_PEAK_TRIALS = 30  # damped Newton trials of the peak search


@dataclass(frozen=True)
class MinimizeResult:
    """Outcome of the concentration/center search.

    `params` is the (nu, center) read off the target's peak.  `value` is the
    symmetrized-profile quotient there; it exceeds the extremal quotient
    exactly to the extent the motion fails to center the target.  `defect`
    is the rotation spread over the energy numerator from the same pass
    (see _ProfileRule.objective), NaN when the peak gives no seed.  `nfev`
    counts the peak search's jet calls.  `converged` says whether the peak
    gave the seed and the defect is at most `_DEFECT_TOL`, and `message`
    which test failed, with the defect.  `restarts` (one start) is a class
    constant, kept for the bench tracer.
    """

    params: FamilyParams
    value: float  # profile quotient at the peak seed
    defect: float  # rotation spread / energy numerator at the peak seed
    converged: bool
    nfev: int
    message: str
    restarts: ClassVar[int] = 1


def _newton_peak(target: ScalarField, start: np.ndarray):
    """Maximize `target` from `start` by damped Newton on order-2 jets.

    Levenberg-Marquardt damping: the step solves (shift I - H) s = g with
    shift = lam plus H's largest eigenvalue when that is positive, so the
    step always points uphill.  A trial that does not climb, or leaves the
    domain, is refused and lam grows tenfold; an accepted one shrinks it
    tenfold.  Plain Newton diverges from starts a tenth away, where the
    Hessian is indefinite.  The search stops once an accepted step is below
    1e-14 relative size, or after _PEAK_TRIALS trials.  At the top the
    values are flat to rounding and the ascent test can refuse the last
    steps, so a search out of trials still stops at its last accepted point
    when the Hessian there is negative definite and the plain Newton step
    -H^{-1} g is at most 1e-10 relative size.  Returns (peak, height,
    accepted steps, jet calls, stopped), `stopped` saying whether a step
    test ended it; the height is NaN when the start itself is outside the
    domain.
    """
    p = np.array(start, dtype=float)
    try:
        val, g, hess = (part[0] for part in target.jet_batch(p, 2))
    except DomainError:
        return p, math.nan, 0, 1, False
    calls = 1
    steps = 0
    scale = float(np.max(np.abs(hess))) or 1.0
    lam = 1e-3 * scale
    for _ in range(_PEAK_TRIALS):
        shift = max(float(np.linalg.eigvalsh(hess)[-1]), 0.0) + lam
        step = np.linalg.solve(shift * np.eye(DIM) - hess, g)
        trial = p + step
        calls += 1
        try:
            jet = [part[0] for part in target.jet_batch(trial, 2)]
        except DomainError:
            jet = None
        if jet is None or not jet[0] >= val:  # refused, also on a NaN
            lam = max(10.0 * lam, 1e-12 * scale)
            continue
        p, (val, g, hess) = trial, jet
        steps += 1
        lam *= 0.1
        if np.max(np.abs(step)) <= 1e-14 * (1.0 + np.max(np.abs(p))):
            return p, float(val), steps, calls, True
    # out of trials, where the ascent test may refuse steps on a top flat to
    # rounding: a negative definite Hessian whose plain Newton step is this
    # small still marks the peak
    if np.linalg.eigvalsh(hess)[-1] < 0.0:
        step = np.linalg.solve(hess, -g)
        if np.max(np.abs(step)) <= 1e-10 * (1.0 + np.max(np.abs(p))):
            return p, float(val), steps, calls, True
    return p, float(val), steps, calls, False


def _peak_seed(
    target: ScalarField, nu0: float, center0: np.ndarray
) -> tuple[float, np.ndarray, int, bool]:
    """Starting (nu, center) from the target's peak and its curvature.

    A translated, dilated bubble peaks exactly at its center, and the
    ratio of the sub-Laplacian to the value at the peak scales linearly
    with the concentration (it is amplitude-free), so for family
    members the seed is the answer to rounding, and `minimize_quotient`
    only certifies it.  Returns nu and the center as measured, the jet
    calls of the peak search, and whether the peak gave the seed: only
    when the step test stopped the peak search and nu is finite and > 0;
    if not, nu0 is kept.
    """
    # the candidate center undoes a left translation, so the bubble
    # translated by g peaks at inv(g); search near the inverse and
    # invert the location found
    peak, height, _, calls, stopped = _newton_peak(target, group_inv(center0))
    if stopped and height > 0.0:
        # the unit bubble has sub_laplacian/value = -32 at its peak and
        # the ratio scales by nu along the family
        nu = float(frame.sub_laplacian(frame.frame_jets(target, peak))[0]) / height / -32.0
        if 0.0 < nu < math.inf:  # False on NaN
            return nu, group_inv(peak), calls, True
    return nu0, group_inv(peak), calls, False


def minimize_quotient(init: FamilyParams, target: ScalarField, *, seed: int = 0) -> MinimizeResult:
    """Recover the concentration and center of a translated, dilated bubble.

    Every extremal is a translated, dilated ubar, which peaks at its center
    with a curvature that fixes nu.  So `init` starts a damped Newton ascent
    to the target's peak (see _newton_peak), and the peak's location and
    curvature are the result (see _peak_seed).  No box holds either: the
    result is the nu and center measured.  One order-1 pass of the target,
    de-transformed by that motion and symmetrized over a fixed set of
    origin-fixing rotations on the level-3 rule, then certifies it: it gives
    the reported value, the quotient of the symmetrized profile, and the
    defect, the rotation spread over the energy numerator (see
    _ProfileRule.objective).  The defect vanishes when the de-transformed
    target is the centered bubble and grows quadratically with the error
    of the center.  `converged` means that the peak gave the seed (its
    search stopped by its step test, with nu finite and > 0) and that the
    defect is at most `_DEFECT_TOL` (1e-12), which a center off by 1e-5
    bubble widths exceeds.  Nothing else is integrated.  `seed` (the
    rotations) is an integer >= 0.

    A seed that is off is not polished: nothing descends from the peak, so
    a target whose peak is not its center reads unconverged, with its
    defect.  When the peak gives no seed, nu stays at `init.nu`, the center
    is the peak search's last point, and the defect is NaN.
    """
    seed = _whole(seed, "seed", 0)  # also the key of the cached rule
    center0 = np.zeros(DIM) if init.center is None else as_point(init.center).reshape(DIM)
    nu_opt, center_opt, nfev, peaked = _peak_seed(target, init.nu, center0)
    rule = _profile_rule(seed)
    value, defect = rule.objective(target, nu_opt, center_opt)
    if peaked:
        converged = defect <= _DEFECT_TOL  # False on NaN
        test = "<=" if converged else "not <="
        message = f"defect {defect:.2e} {test} {_DEFECT_TOL:.0e} at the peak seed"
    else:
        converged, defect = False, math.nan
        message = f"peak seed failed, nu kept at {nu_opt:.6g}; defect nan"
    return MinimizeResult(
        params=FamilyParams(c=1.0, nu=nu_opt, center=center_opt),
        value=value,
        defect=defect,
        converged=converged,
        nfev=nfev,
        message=message,
    )

# ---------------------------------------------------------------------------
# The best-constant reconciliation report.


# The integrand of GAUGE_INTEGRAL_CLOSED_FORM as a function of (r, rho).
_GAUGE_KERNEL = BiRadialIntegrand(
    fn=lambda r, rho: ((1.0 + r * r) ** 2 + rho * rho) ** -5.0,
    decay=(20.0, 10.0),
    tag="gauge-kernel",
)

# A ratio is consistent when within this of 1; the audit grades by it too.
_RATIO_TOL = 1e-3


# The printed constants the ratio lines read, and all seven as
# (label, value) in display order.
_S2 = 2.0 * math.sqrt(3.0) * math.pi ** (-0.6)
_S2_ALT = 15.0**0.1 / (math.pi**0.4 * 2.0 * math.sqrt(2.0))
_LAMBDA5 = math.pi**1.2 / 12.0
_S2_INV2 = _S2**-2.0
_GAMMA_MASS = 2.0**25 * math.pi**3.5 * math.gamma(3.5) / math.gamma(7.0)
_PRINTED = (
    ("embedding constant", _S2),
    ("alternate embedding", _S2_ALT),
    ("constant fifth power", _LAMBDA5),
    ("reciprocal square of s2", _S2_INV2),
    ("sphere eigenvalue bound", 48.0 * (4.0 * math.pi) ** 0.2),
    ("concentrated amplitude", 32.0 * math.pi ** (-17.0 / 50.0) * 2.0**0.2 * 15.0**0.4),
    ("Gamma-chain mass value", _GAMMA_MASS),
)


@dataclass(frozen=True)
class RatioLine:
    """One computed/printed comparison; consistent means within _RATIO_TOL of 1.

    An informational ratio involves a printed constant: its mismatch is a
    finding to display, not a check to fail.
    """

    name: str
    ratio: float
    informational: bool

    @property
    def consistent(self) -> bool:
        return abs(self.ratio - 1.0) <= _RATIO_TOL


@dataclass(frozen=True)
class BestConstantReport:
    """Computed integrals and quotient next to the printed constants.

    The printed record is internally inconsistent (its stated fifth
    power of the constant coincides with the reciprocal square of the
    printed embedding constant, which under the advertised relation is
    the constant itself, not its fifth power), so this report refuses to
    pick a winner: it lists every candidate and flags each ratio.  The
    mass integral is the quotient's own mass row.
    """

    gauge: QuadratureResult         # the gauge kernel's integral
    quotient_report: QuotientReport  # ubar's quotient and its mass row
    mass_mc: MCResult               # Monte Carlo cross-check of the mass
    ratios: tuple

    gauge_closed_form: ClassVar[float] = GAUGE_INTEGRAL_CLOSED_FORM  # pi^4 / 384
    mass_closed_form: ClassVar[float] = _MASS_CLOSED_FORM            # 2^25 pi^4 / 384

    @property
    def gauge_integral(self) -> float:
        return self.gauge.value

    @property
    def mass_integral(self) -> float:
        return self.quotient_report.mass

    def as_text(self) -> str:
        quot, mass, mc = self.quotient_report, self.quotient_report.mass_result, self.mass_mc
        computed = (
            ("gauge-kernel integral", f"{self.gauge.value:.12g}  (+/- {self.gauge.error:.2e})"),
            ("Beta closed form", f"{self.gauge_closed_form:.12g}"),
            ("ubar^{5/2} integral", f"{mass.value:.12g}  (+/- {mass.error:.2e})"),
            ("2^25 x closed form", f"{self.mass_closed_form:.12g}"),
            ("Monte Carlo cross-check", f"{mc.value:.8g}  (+/- {mc.stderr:.2e})"),
            ("Sobolev quotient", f"{quot.quotient:.12g}  (+/- {quot.error:.2e})"),
            ("constant if quotient", f"{quot.quotient:.12g}"),
            ("constant^5 if quotient^5", f"{quot.quotient**5:.12g}"),
        )
        lines = ["computed:", *(f"  {label:<26}{text}" for label, text in computed), "printed:"]
        lines += [f"  {label:<26}{value:.12g}" for label, value in _PRINTED]
        lines.append(f"ratios (flag = differs from 1 by more than {_RATIO_TOL:g}):")
        for line in self.ratios:
            flag = "ok  " if line.consistent else "FLAG"
            lines.append(f"  [{flag}] {line.name}: {line.ratio:.9g}")
        return "\n".join(lines)


def best_constant_report(mc_samples: int = 200_000, seed: int = 0) -> BestConstantReport:
    """Quadrature, Monte Carlo and closed forms for the sharp constant.

    The gauge integral runs at tol 1e-10, ubar's quotient at the default
    1e-9.  `mc_samples` (an integer >= 1000) and `seed` (>= 0) are checked
    as `integrate_mc` checks them, before any quadrature: ValueError.
    """
    mc_samples = _whole(mc_samples, "Monte Carlo samples", 1000)
    seed = _whole(seed, "seed", 0)
    gauge = integrate_biradial(_GAUGE_KERNEL, tol=1e-10)
    ubar = ubar_field()
    quot = fs_quotient(ubar)
    mass = quot.mass  # the ubar^{5/2} integral, computed once
    mc = integrate_mc(power_compose(ubar, 2.5, tag="ubar^2.5"), mc_samples, seed=seed)

    q5 = quot.quotient**5
    ratios = tuple(
        RatioLine(name, num / den, informational)
        for name, num, den, informational in (
            ("gauge quadrature / Beta closed form", gauge.value, GAUGE_INTEGRAL_CLOSED_FORM, False),
            ("mass quadrature / 2^25 x closed form", mass, _MASS_CLOSED_FORM, False),
            ("Gamma-chain value / mass quadrature", _GAMMA_MASS, mass, False),
            ("quotient^5 / mass quadrature", q5, mass, False),
            # each informational line involves a printed constant
            ("printed constant^5 / computed quotient^5", _LAMBDA5, q5, True),
            ("printed constant^5 / computed quotient", _LAMBDA5, quot.quotient, True),
            ("printed constant^5 / printed s2^-2", _LAMBDA5, _S2_INV2, True),
            ("printed s2 / alternate printed s2", _S2, _S2_ALT, True),
        )
    )
    return BestConstantReport(gauge=gauge, quotient_report=quot, mass_mc=mc, ratios=ratios)
