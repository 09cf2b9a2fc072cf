"""Verification suites, the 6x6 coupling-matrix audit, and report plumbing.

The divergence identity behind the sharp embedding constant packages the
quadratic expression in the covectors (D_1, D_2, D_3, A_1, A_2, A_3) as
<QV, V> for a constant symmetric 6x6 matrix Q acting blockwise on the six
4-vectors.  Q is encoded here as integer numerators over 3 so the entries
carry no transcription noise, and it is audited two ways: its spectrum
against the closed form {0, 0, 2(2-sqrt2), 2(2+sqrt2), 10, 10}, and the
quadratic form against an independently coded cyclic-sum evaluation.  The
two zero eigenvalues make Q positive semi-definite, not definite; the
kernel pairs D-blocks against A-blocks, which is what lets the identity
absorb gradient terms of either sign.
Both audits check a transcription, no more: `PAPER.md` holds only the
source paper's abstract, so the link from the A_s covectors and the
divergence formula to Q cannot be derived in this repository, and nothing
here computes the A_s.

The rest of the module is plumbing: named check suites over the other
modules, each adding Report records whose pass flag is derived, never
stored: max_residual <= tolerance, the one pass rule, which a NaN fails:

* frames: commutators, corrected-Hessian symmetry, structure constants,
  and the left-invariance of frame jets that the family torsion rests on;
* conformal: family torsion with its negative control, the U collapse,
  the divergence identity by two routes and the D covectors against their
  closed form, the Casimir projections, the scalar curvature;
* extremal: the PDE residual of the entire solution, moved and not, and
  its peak amplitude;
* cayley: Cayley roundtrips, the inversion involution, the Kelvin PDE;
* quadrature: the Gaussian closed form, then the gauge closed form, the
  Monte Carlo mass, quotient invariance and the parts identity, graded
  from the one record `best-constant` computes;
* qmatrix: the spectrum and quadratic form of the coupling matrix;
* quotient-min: a planted, moved bubble and the search that recovers it,
  with the search's own certificate;

and "all" runs the first six in that order, skipping quotient-min.  One
runner, `run_suite`, seeds each suite's generator from the config's seed
and hands it a fresh recorder.  Each check draws its whole sample at once and
evaluates it in one batched array pass, with one exception:
`einstein-family-torsion` draws and evaluates its members per block of
`_FAMILY_BLOCK` members, three generator calls and one field whose rows
are the members per block, which bounds its memory at any sample count; by
left-invariance h o tau_g0 is read as h at the moved points g0 p.  The
only per-item loops left run over short lists of fields.  Every residual
is reduced with one NaN-propagating reducer, so a NaN anywhere fails its
check instead of vanishing inside Python's max, and an empty batch, which
has no worst case, is a ValueError.
Control checks that must *fail to vanish* store the shortfall
max(0, floor - observed) as their residual so the same rule applies.
Suites are deterministic given a seed; wall-clock seconds are the only
field allowed to differ between runs, and `reports_equal` compares
everything but them, taking a NaN residual as equal to a NaN residual.
One recorder, `_Checks`, builds every line: a line's seconds run from the
previous check's lines (or the start of the suite) to its own, so they
cover the work between checks too, such as sample draws, and lines graded
from one computation share one time.
"""

from __future__ import annotations

import csv
import io
import json
import math
import time
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import conformal, extremals, frame
from .errors import DomainError, _max_abs, _whole
from .extremals import (
    FamilyParams,
    cayley_forward_batch,
    cayley_inverse_batch,
    dilate_field,
    h_family,
    kelvin,
    pde_residual,
    sigma,
    translate_field,
    ubar_field,
    v_field,
)
from .jets import autodiff_lift
from .quadrature import (
    BiRadialIntegrand,
    _DEFECT_TOL,
    _RATIO_TOL,
    best_constant_report,
    fs_quotient,
    integrate_biradial,
    minimize_quotient,
    power_compose,
)
from .quaternions import group_mul

__all__ = [
    "QMATRIX",
    "Q_SPECTRUM",
    "Report",
    "SuiteConfig",
    "q_spectrum",
    "quadratic_form_audit",
    "suite_names",
    "run_suite",
    "best_constant_reports",
    "emit",
    "reports_equal",
]


# ---------------------------------------------------------------------------
# The coupling matrix.

# Integer numerators over a common denominator 3.  Block structure:
# D-diagonal 2, A-diagonal 22/3, matched D-A coupling 10/3, everything
# else -2/3.
_Q_NUMERATORS = np.array(
    [
        [6, 0, 0, 10, -2, -2],
        [0, 6, 0, -2, 10, -2],
        [0, 0, 6, -2, -2, 10],
        [10, -2, -2, 22, -2, -2],
        [-2, 10, -2, -2, 22, -2],
        [-2, -2, 10, -2, -2, 22],
    ],
    dtype=float,
)

QMATRIX = _Q_NUMERATORS / 3.0

_SQRT2 = math.sqrt(2.0)

# Closed-form eigenvalues, ascending to match eigvalsh output.
Q_SPECTRUM = np.array(
    [0.0, 0.0, 2.0 * (2.0 - _SQRT2), 2.0 * (2.0 + _SQRT2), 10.0, 10.0]
)


def q_spectrum() -> np.ndarray:
    """Eigenvalues of the coupling matrix, ascending."""
    return np.linalg.eigvalsh(QMATRIX)


def quadratic_form_audit(V) -> float:
    """|<QV, V> - cyclic-sum expression| for 6-block vectors of 4-vectors.

    V has shape (6, 4), or (N, 6, 4) for a batch, whose worst case is
    returned (NaN if any block is NaN; an empty batch is a ValueError).
    The first route contracts the matrix against Euclidean inner products
    of the blocks.  The second evaluates, per cyclic rotation (i, j, k) of
    (1, 2, 3),

        g(D_i, 3 A_i - A_j - A_k + 2 D_i)
      + g(A_i, (22 A_i - 2 A_j - 2 A_k + 11 D_i - D_j - D_k) / 3)

    and never touches QMATRIX, so agreement is a genuine transcription
    check of the displayed matrix rather than of one encoding against
    itself.
    """
    V = np.asarray(V, dtype=float)
    if V.shape[-2:] != (6, 4) or V.ndim not in (2, 3):
        raise ValueError(f"expected a (6, 4) or (N, 6, 4) block vector, got shape {V.shape}")
    V = V.reshape(-1, 6, 4)
    matrix_route = np.einsum("ij,nia,nja->n", QMATRIX, V, V)

    def inner(x, y):  # row-wise g(x, y) of (N, 4) stacks
        return (x[:, None, :] @ y[:, :, None])[:, 0, 0]

    D, A = V[:, :3], V[:, 3:]
    cyclic = 0.0
    for i in range(3):
        j, k = (i + 1) % 3, (i + 2) % 3
        cyclic = cyclic + inner(D[:, i], 3.0 * A[:, i] - A[:, j] - A[:, k] + 2.0 * D[:, i])
        cyclic = cyclic + inner(
            A[:, i],
            (22.0 * A[:, i] - 2.0 * A[:, j] - 2.0 * A[:, k] + 11.0 * D[:, i] - D[:, j] - D[:, k])
            / 3.0,
        )
    return _max_abs(matrix_route - cyclic)


# ---------------------------------------------------------------------------
# Reports.


@dataclass(frozen=True)
class Report:
    """One named check: sample count, worst residual, tolerance, timing.

    The verdict `passed` is derived, not stored: max_residual <= tolerance,
    so a NaN residual fails.
    """

    check: str
    samples: int
    max_residual: float
    tolerance: float
    provenance: str
    seconds: float

    @property
    def passed(self) -> bool:
        return bool(self.max_residual <= self.tolerance)

    def as_dict(self) -> dict:
        return {
            "check": self.check,
            "samples": self.samples,
            "max_residual": self.max_residual,
            "tolerance": self.tolerance,
            "pass": self.passed,
            "provenance": self.provenance,
            "seconds": self.seconds,
        }


@dataclass(frozen=True)
class SuiteConfig:
    """Knobs shared by every suite.

    `seed` is an integer >= 0 and `samples`, when set, an integer >= 1;
    neither may be a bool.  `samples` overrides each check's primary
    sample count (checks with a hard minimum clamp it).  Tolerances are
    not a knob: every check grades at its own.
    """

    seed: int = 0
    samples: Optional[int] = None

    def __post_init__(self):
        _whole(self.seed, "seed", 0)
        if self.samples is not None:
            _whole(self.samples, "samples", 1)

    def samples_or(self, default: int) -> int:
        """The overriding sample count, or `default` when none is set."""
        return default if self.samples is None else self.samples


class _Checks:
    """The one place report lines are timed and built.

    `add(*lines)` takes (check, samples, residual, tolerance, provenance)
    tuples.  Its lines share one lap of the clock, the time since the
    previous `add` (or since construction), so the laps of a run add up to
    its wall time.  Each line keeps its own tolerance; its verdict is
    `Report.passed`.
    """

    def __init__(self):
        self.reports: list[Report] = []
        self._lap = time.perf_counter()

    def add(self, *lines) -> None:
        now = time.perf_counter()
        seconds, self._lap = now - self._lap, now
        self.reports.extend(
            Report(check, int(samples), float(residual), float(tolerance), provenance, seconds)
            for check, samples, residual, tolerance, provenance in lines
        )


def reports_equal(a, b) -> bool:
    """Field-by-field equality ignoring the wall-clock seconds.

    Residuals compare by value with NaN equal to NaN, so two runs that fail
    a line by the same NaN residual are equal.
    """
    a, b = list(a), list(b)
    if len(a) != len(b):
        return False
    keyed = lambda r: (r.check, r.samples, r.tolerance, r.passed, r.provenance)
    return all(
        keyed(x) == keyed(y)
        and (x.max_residual == y.max_residual
             or math.isnan(x.max_residual) and math.isnan(y.max_residual))
        for x, y in zip(a, b)
    )


# ---------------------------------------------------------------------------
# Shared test fields.


def _quartic_control() -> "ScalarField":
    # 1 + |q|^4: positive, not in the conformal-factor family, so the
    # deformed torsion must NOT vanish on it.
    def g(t1, x1, y1, z1, x, y, z):
        qq = t1 * t1 + x1 * x1 + y1 * y1 + z1 * z1
        return 1.0 + qq * qq

    return autodiff_lift(g, tag="one-plus-q4")


_CONTROL_POINT = np.array([1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0])

# Family members per batched torsion pass (20 points each): bounds the
# order-2 jet arrays of one pass, and so peak memory, at any sample count.
_FAMILY_BLOCK = 100


def _frobenius(mats: np.ndarray) -> np.ndarray:
    return np.sqrt(np.einsum("nab,nab->n", mats, mats))


# ---------------------------------------------------------------------------
# Suites.


def _suite_frames(config: SuiteConfig, rng: np.random.Generator, checks: _Checks) -> None:
    n = config.samples_or(100)
    pts = rng.uniform(-2.0, 2.0, size=(n, 7))
    checks.add(("frame-commutators", n, frame.commutator_audit(pts), 1e-13, "derived"))

    fields = [
        ubar_field(),
        v_field(),
        h_family(FamilyParams(c=1.3, nu=0.7)),
    ]
    asymmetry = []
    for f in fields:
        corrected = frame.corrected_hessian(frame.frame_jets(f, pts))
        asymmetry.append(corrected - corrected.transpose(0, 2, 1))
    checks.add(("hessian-antisymmetry", n * len(fields), _max_abs(*asymmetry), 1e-10, "derived"))

    worst = _max_abs(*frame.structure_residuals().values())
    checks.add(("structure-constants", 1, worst, 1e-13, "derived"))

    g0 = rng.uniform(-1.0, 1.0, size=7)  # left-invariance: f o tau_g0 at p is f at g0 p
    moved = group_mul(g0, pts)
    rel = []  # per block, relative to the block's largest entry
    for f in fields:
        a, b = frame.frame_jets(translate_field(f, g0), pts), frame.frame_jets(f, moved)
        rel += [_max_abs(getattr(a, k) - getattr(b, k)) / _max_abs(getattr(b, k))
                for k in ("value", "grad", "vert", "hess")]
    checks.add(("frame-left-invariance", n * len(fields), _max_abs(rel), 1e-12, "cross-check"))


def _family_blocks(rng: np.random.Generator, npairs: int):
    """Yield the family sample as (c, nu, g0, points), `_FAMILY_BLOCK` members at a time.

    A block of m members is three `rng.uniform` calls: log10 of (c, nu) on
    [-1, 1), a translation g0 on [-1, 1)^7, which is zero on the even
    members (counted across blocks), and 20 points a member on [-2, 2)^7,
    as one (20m, 7) array.
    """
    for start in range(0, npairs, _FAMILY_BLOCK):
        m = min(_FAMILY_BLOCK, npairs - start)
        c, nu = 10.0 ** rng.uniform(-1.0, 1.0, (2, m))
        g0 = rng.uniform(-1.0, 1.0, (m, 7))
        g0[(start + np.arange(m)) % 2 == 0] = 0.0
        yield c, nu, g0, rng.uniform(-2.0, 2.0, (20 * m, 7))


def _suite_conformal(config: SuiteConfig, rng: np.random.Generator, checks: _Checks) -> None:
    npairs = config.samples_or(20)
    torsion, family = [], []
    for c, nu, g0, pts in _family_blocks(rng, npairs):
        if not family:  # the first block: its first five members, as fields
            family = [h_family(FamilyParams(c[i], nu[i], g0[i])) for i in range(min(5, len(c)))]
        h = extremals._member(np.repeat(c, 20), np.repeat(nu, 20), "h[block]")
        fj = frame.frame_jets(h, group_mul(np.repeat(g0, 20, axis=0), pts))
        torsion.append(_frobenius(conformal.torsion_T0_deformed(fj)))
    checks.add(("einstein-family-torsion", npairs * 20, _max_abs(*torsion), 1e-8, "computed"))

    quartic = _quartic_control()
    control = frame.frame_jets(quartic, _CONTROL_POINT)
    frob = float(_frobenius(conformal.torsion_T0_deformed(control))[0])
    shortfall = float(np.maximum(0.0, 1e-3 - frob))  # NaN stays NaN
    checks.add(("torsion-negative-control", 1, shortfall, 0.0, "control"))

    # The U collapse, the divergence identity by two routes, and the D
    # covectors' total against its closed form, which differ by 3/4 h^-2
    # (sphere residual) dh: all from one FrameJet per field, the last two
    # normalised per field.
    pts = rng.uniform(-2.0, 2.0, size=(20, 7))
    fields = family[:5] + [quartic]
    collapse, routes, closed = [], [], []
    for h in fields:
        fj = frame.frame_jets(h, pts)
        collapse.append(_frobenius(conformal.U_deformed(fj)))
        raw = conformal.divergence_identity_residual(fj)
        routes.append(_max_abs(raw - conformal.divergence_identity_casimir(fj)) / _max_abs(raw))
        total = conformal.vector_D(fj).sum(0)
        sphere = conformal.yamabe_residual_sphere_norm(fj)
        expected = conformal.divergence_total_closed_form(fj) - (
            0.75 * (fj.value**-2 * sphere)[:, None] * fj.grad
        )
        closed.append(_max_abs(total - expected) / _max_abs(total))
    npts = len(fields) * 20
    checks.add(
        ("u-collapse", npts, _max_abs(*collapse), 1e-12, "computed"),
        ("divergence-identity-routes", npts, _max_abs(*routes), 1e-12, "cross-check"),
        ("divergence-closed-form", npts, _max_abs(*closed), 1e-12, "closed-form"),
    )

    nmats = config.samples_or(100)
    m = rng.standard_normal((nmats, 4, 4))
    m = m + m.transpose(0, 2, 1)
    p3 = conformal.casimir_project(m, "[3]")
    pm1 = conformal.casimir_project(m, "[-1]")
    trace_part = (np.trace(m, axis1=1, axis2=2) / 4.0)[:, None, None] * np.eye(4)
    checks.add(("casimir-trace-projection", nmats, _max_abs(p3 - trace_part), 1e-13, "computed"))

    algebra = _max_abs(
        p3 + pm1 - m,
        conformal.casimir_project(p3, "[3]") - p3,
        conformal.casimir_project(pm1, "[-1]") - pm1,
        np.trace(pm1, axis1=1, axis2=2),
    )
    checks.add(("casimir-algebra", nmats, algebra, 1e-13, "computed"))

    h6 = h_family(FamilyParams(c=2.0**-6, nu=1.0))
    pts = rng.uniform(-2.0, 2.0, size=(50, 7))
    scal = conformal.scal_deformed(frame.frame_jets(h6, pts))
    checks.add((
        "scalar-curvature-constant",
        50,
        _max_abs(scal / 6.0 - 1.0),
        1e-8,
        "closed-form 6 = 4(Q+2)/(Q-2), Q = 10",
    ))


def _relative_pde_residual(u, pts: np.ndarray) -> float:
    fj = frame.frame_jets(u, pts)
    return _max_abs(pde_residual(fj) / fj.value**1.5)


def _suite_extremal(config: SuiteConfig, rng: np.random.Generator, checks: _Checks) -> None:
    n = config.samples_or(1000)
    ubar = ubar_field()
    pts = rng.uniform(-3.0, 3.0, size=(n, 7))
    checks.add(("yamabe-pde", n, _relative_pde_residual(ubar, pts), 1e-9, "computed"))

    g0 = rng.uniform(-2.0, 2.0, size=7)
    lam = rng.uniform(0.3, 3.0)
    moved = translate_field(dilate_field(ubar, lam), g0)
    checks.add(("yamabe-pde-moved", n, _relative_pde_residual(moved, pts), 1e-9, "computed"))

    residual = abs(ubar(np.zeros(7)) / 1024.0 - 1.0)
    checks.add(("peak-amplitude", 1, residual, 1e-13, "closed-form"))


def _suite_cayley(config: SuiteConfig, rng: np.random.Generator, checks: _Checks) -> None:
    n = config.samples_or(1000)
    pts = rng.uniform(-2.0, 2.0, size=(n, 7))
    pts = pts[np.linalg.norm(pts[:, :4], axis=1) > 0.05]
    away = pts[np.linalg.norm(pts[:, :4], axis=1) > 0.5]
    if len(away) == 0:
        raise DomainError(
            f"cayley suite: none of the {n} sample points has |q| > 0.5; use more samples"
        )

    q, p = cayley_inverse_batch(pts)
    back = cayley_forward_batch(q, p)
    again_q, again_p = cayley_inverse_batch(back)
    worst = _max_abs(back - pts, again_q - q, again_p - p)
    checks.add(("cayley-roundtrip", len(pts), worst, 1e-12, "computed"))

    worst = _max_abs(sigma(sigma(pts)) - pts)
    checks.add(("sigma-involution", len(pts), worst, 1e-12, "computed"))

    ku = kelvin(ubar_field())
    checks.add(("kelvin-pde", len(away), _relative_pde_residual(ku, away), 1e-8, "computed"))


def _best_constant_record(config: SuiteConfig):
    """`best_constant_report` at the config's seed, with at least 1000 Monte Carlo samples."""
    return best_constant_report(mc_samples=max(1000, config.samples_or(200_000)), seed=config.seed)


def _suite_quadrature(config: SuiteConfig, rng: np.random.Generator, checks: _Checks) -> None:
    gauss = integrate_biradial(
        BiRadialIntegrand(
            lambda r, rho: np.exp(-r * r - rho * rho),
            decay=(math.inf, math.inf),
            tag="gaussian",
        ),
        tol=1e-10,
    )
    residual = abs(gauss.value / math.pi**3.5 - 1.0)
    checks.add(("gaussian-closed-form", gauss.table[-1][3], residual, 1e-8, "closed-form"))

    # the gauge integral, the Monte Carlo mass and ubar's quotient: the
    # best-constant record, graded here rather than computed again
    record = _best_constant_record(config)
    residual = abs(record.gauge_integral / record.gauge_closed_form - 1.0)
    mc = record.mass_mc
    # no error estimate (stderr 0) cannot certify agreement; NaN stays NaN
    z = abs(mc.value - record.mass_closed_form) / mc.stderr if mc.stderr else math.inf
    checks.add(
        ("gauge-closed-form", record.gauge.table[-1][3], residual, 1e-8, "closed-form"),
        ("mass-mc-agreement", mc.samples, z, 3.0, "cross-check"),
    )

    ubar = ubar_field()
    base = record.quotient_report
    variants = [
        power_compose(ubar, 1.0, 7.3, tag="amplitude"),
        translate_field(ubar, rng.uniform(-1.5, 1.5, size=7)),
        dilate_field(ubar, 1.7),
    ]
    worst = _max_abs(*(fs_quotient(u).quotient / base.quotient - 1.0 for u in variants))
    checks.add(("quotient-invariance", len(variants), worst, 1e-5, "computed"))

    residual = abs(base.numerator / base.mass - 1.0)
    checks.add(("parts-identity", 1, residual, 1e-4, "derived"))


def _suite_qmatrix(config: SuiteConfig, rng: np.random.Generator, checks: _Checks) -> None:
    residual = _max_abs(q_spectrum() - Q_SPECTRUM)
    checks.add(
        ("q-spectrum", 6, residual, 1e-12, "closed-form {0, 0, 2(2-sqrt2), 2(2+sqrt2), 10, 10}")
    )

    n = config.samples_or(100)
    worst = quadratic_form_audit(rng.standard_normal((n, 6, 4)))
    checks.add(("q-quadratic-form", n, worst, 1e-12, "derived"))


def _suite_quotient_min(config: SuiteConfig, rng: np.random.Generator, checks: _Checks) -> None:
    """Plant a translated, dilated bubble and grade the search that recovers it.

    Besides the planted motion, the search's own certificate is graded: its
    rotation defect against `_DEFECT_TOL`.  A failed peak seed has a NaN
    defect, which fails the line.
    """
    ubar = ubar_field()
    g0 = rng.uniform(-0.5, 0.5, size=7)
    nu = float(np.exp(rng.uniform(-0.5, 0.5)))
    target = translate_field(dilate_field(ubar, math.sqrt(nu)), g0)
    start = FamilyParams(
        nu=nu * float(np.exp(rng.uniform(-0.15, 0.15))),
        center=g0 + rng.uniform(-0.1, 0.1, size=7),
    )
    result = minimize_quotient(start, target, seed=config.seed)
    reference = fs_quotient(ubar).quotient
    center_res = _max_abs(np.asarray(result.params.center) - g0)
    checks.add(
        ("quotient-min-value", 1, abs(result.value / reference - 1.0), 1e-4, "computed"),
        ("quotient-min-center", 1, center_res, 1e-3, "computed"),
        ("quotient-min-concentration", 1, abs(result.params.nu / nu - 1.0), 1e-6, "computed"),
        ("quotient-min-defect", 1, result.defect, _DEFECT_TOL, "computed"),
    )


_SUITES: dict[str, Callable[[SuiteConfig, np.random.Generator, _Checks], None]] = {
    "frames": _suite_frames,
    "conformal": _suite_conformal,
    "extremal": _suite_extremal,
    "cayley": _suite_cayley,
    "quadrature": _suite_quadrature,
    "qmatrix": _suite_qmatrix,
    "quotient-min": _suite_quotient_min,
}

# "all" runs the verification suites; the planted-bubble search stays its own command
_ALL = tuple(name for name in _SUITES if name != "quotient-min")


def suite_names() -> tuple[str, ...]:
    return tuple(_SUITES) + ("all",)


def run_suite(name: str, config: Optional[SuiteConfig] = None) -> list[Report]:
    """Run one named suite, or the verification suites of "all" in order.

    The runner seeds and records each suite: a suite gets a generator
    seeded from `config.seed` and its own recorder, so its lines do not
    depend on which suites ran before it.
    """
    config = config or SuiteConfig()
    if name != "all" and name not in _SUITES:
        raise ValueError(
            f"unknown suite {name!r}; expected one of {', '.join(suite_names())}"
        )
    out = []
    for suite in _ALL if name == "all" else (name,):
        checks = _Checks()
        _SUITES[suite](config, np.random.default_rng(config.seed), checks)
        out.extend(checks.reports)
    return out


# ---------------------------------------------------------------------------
# The report builder of the one non-suite command, best-constant.


def best_constant_reports(config: Optional[SuiteConfig] = None):
    """The reconciliation record plus its ratio lines as Report records.

    Ratios between computed quantities are asserted at the record's own
    consistency tolerance.  Ratios that involve the printed reference
    constants are informational: the mismatch there is the finding the
    report exists to display, so those lines carry a sentinel tolerance
    of 1e9 and always pass.  Every line carries the measured time of the
    one record.  Returns the full record (for its text rendering and
    convergence tables) alongside the reports.
    """
    config = config or SuiteConfig()
    checks = _Checks()
    record = _best_constant_record(config)
    checks.add(*(
        (line.name, 1, abs(line.ratio - 1.0), 1e9, "informational") if line.informational
        else (line.name, 1, abs(line.ratio - 1.0), _RATIO_TOL, "computed")
        for line in record.ratios
    ))
    return record, checks.reports


# ---------------------------------------------------------------------------
# Serialization.


def _json_value(v):
    """`v` for strict JSON: a NaN or infinite float becomes "nan", "inf" or "-inf".

    RFC 8259 has no token for them, and a check that fails by NaN is the
    case its report must still carry.
    """
    if isinstance(v, float) and not math.isfinite(v):
        return str(float(v))
    return v


def emit(reports, fmt: str, suite: str = "", seed: int = 0) -> str:
    """Render reports as json (schema'd envelope), csv, or an aligned table."""
    reports = list(reports)
    if fmt == "json":
        rows = [{k: _json_value(v) for k, v in r.as_dict().items()} for r in reports]
        doc = {"suite": suite, "seed": seed, "reports": rows}
        return json.dumps(doc, indent=2, allow_nan=False)
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(
            ["check", "samples", "max_residual", "tolerance", "pass", "provenance", "seconds"]
        )
        for r in reports:
            writer.writerow(
                [r.check, r.samples, repr(r.max_residual), repr(r.tolerance),
                 r.passed, r.provenance, f"{r.seconds:.3f}"]
            )
        return buf.getvalue()
    if fmt == "text":
        lines = []
        width = max((len(r.check) for r in reports), default=0)
        for r in reports:
            verdict = "PASS" if r.passed else "FAIL"
            lines.append(
                f"[{verdict}] {r.check:<{width}}  residual {r.max_residual:9.3e}"
                f"  tol {r.tolerance:9.3e}  n={r.samples}  ({r.seconds:.2f}s)"
            )
        npass = sum(r.passed for r in reports)
        header = f"suite {suite!r}, seed {seed}: " if suite else ""
        lines.append(f"{header}{npass}/{len(reports)} checks passed")
        return "\n".join(lines) + "\n"
    raise ValueError(f"unknown format {fmt!r}; expected json, csv, or text")
