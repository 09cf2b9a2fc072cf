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

The rest of the module is plumbing: named check suites over the other
modules (frames, conformal, extremal, cayley, quadrature, qmatrix, all),
each returning Report records with a pass flag that is definitionally
max_residual <= tolerance.  Each check draws its whole sample at once and
evaluates it in one batched array pass; the only per-item loops left run
over the family members of `einstein-family-torsion` and over short lists
of fields.  Every residual is reduced with one NaN-propagating reducer, so
a NaN anywhere fails its check instead of vanishing inside Python's max.
Control checks that must *fail to vanish* store the shortfall
max(0, floor - observed) as their residual so the same rule applies.
Suites are deterministic given a seed; wall-clock seconds are the only
field allowed to differ between runs, and `reports_equal` compares
everything but them.
"""

from __future__ import annotations

import csv
import io
import json
import math
import numbers
import time
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import conformal, frame
from .errors import DomainError
from .extremals import (
    FamilyParams,
    _yamabe_residual,
    cayley_forward_batch,
    cayley_inverse_batch,
    dilate_field,
    h_family,
    kelvin,
    sigma,
    translate_field,
    ubar_field,
    v_field,
)
from .jets import _max_abs, autodiff_lift
from .quadrature import (
    GAUGE_INTEGRAL_CLOSED_FORM,
    BiRadialIntegrand,
    best_constant_report,
    fs_quotient,
    integrate_biradial,
    integrate_mc,
    minimize_quotient,
    power_compose,
)

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
    "quotient_min_reports",
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
    returned (NaN if any block is NaN).  The first route contracts the
    matrix against Euclidean inner products of the blocks.  The second
    evaluates, per cyclic rotation (i, j, k) of (1, 2, 3),

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
    """One named check: sample count, worst residual, verdict, timing."""

    check: str
    samples: int
    max_residual: float
    tolerance: float
    passed: bool
    provenance: str
    seconds: float

    def __post_init__(self):
        if self.passed != (self.max_residual <= self.tolerance):
            raise ValueError(
                f"report '{self.check}': pass flag contradicts "
                f"residual {self.max_residual} vs tolerance {self.tolerance}"
            )

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

    `samples` overrides each check's primary sample count (checks with a
    hard minimum clamp it); `tol` replaces every tolerance in the suite,
    which is meant for exploratory reruns, not for the shipped defaults.
    """

    seed: int = 0
    samples: Optional[int] = None
    tol: Optional[float] = None

    def __post_init__(self):
        n = self.samples
        integral = isinstance(n, numbers.Integral) and not isinstance(n, bool)
        if not (n is None or (integral and n > 0)):
            raise ValueError(f"samples must be None or a positive integer, got {n!r}")

    def samples_or(self, default: int) -> int:
        """The overriding sample count, or `default` when none is set."""
        return default if self.samples is None else self.samples


def _report(
    check: str,
    samples: int,
    residual: float,
    tolerance: float,
    provenance: str,
    t0: float,
    config: SuiteConfig,
) -> Report:
    if config.tol is not None:
        tolerance = config.tol
    residual = float(residual)
    return Report(
        check=check,
        samples=int(samples),
        max_residual=residual,
        tolerance=float(tolerance),
        passed=bool(residual <= tolerance),
        provenance=provenance,
        seconds=time.perf_counter() - t0,
    )


def reports_equal(a, b) -> bool:
    """Field-by-field equality ignoring the wall-clock seconds."""
    a, b = list(a), list(b)
    if len(a) != len(b):
        return False
    keyed = lambda r: (r.check, r.samples, r.max_residual, r.tolerance, r.passed, r.provenance)
    return all(keyed(x) == keyed(y) for x, y in zip(a, b))


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


def _frobenius(mats: np.ndarray) -> np.ndarray:
    mats = np.asarray(mats)
    if mats.ndim == 2:
        mats = mats[None]
    return np.sqrt(np.einsum("nab,nab->n", mats, mats))


# ---------------------------------------------------------------------------
# Suites.


def _suite_frames(config: SuiteConfig) -> list[Report]:
    rng = np.random.default_rng(config.seed)
    n = config.samples_or(100)
    reports = []

    t0 = time.perf_counter()
    pts = rng.uniform(-2.0, 2.0, size=(n, 7))
    worst = _max_abs(
        *(frame.commutator_audit(a, b, pts) for a in range(4) for b in range(a + 1, 4))
    )
    reports.append(
        _report("frame-commutators", n, worst, 1e-13, "derived", t0, config)
    )

    t0 = time.perf_counter()
    fields = [
        ubar_field(),
        v_field(),
        h_family(FamilyParams(c=1.3, nu=0.7)),
    ]
    asymmetry = []
    for f in fields:
        corrected = frame.corrected_hessian(frame.frame_jets(f, pts))
        asymmetry.append(corrected - corrected.transpose(0, 2, 1))
    worst = _max_abs(*asymmetry)
    reports.append(
        _report(
            "hessian-antisymmetry",
            n * len(fields),
            worst,
            1e-10,
            "derived",
            t0,
            config,
        )
    )

    t0 = time.perf_counter()
    worst = _max_abs(*frame.structure_residuals().values())
    reports.append(
        _report("structure-constants", 1, worst, 1e-13, "derived", t0, config)
    )
    return reports


def _suite_conformal(config: SuiteConfig) -> list[Report]:
    rng = np.random.default_rng(config.seed)
    npairs = config.samples_or(20)
    reports = []

    t0 = time.perf_counter()
    torsion = []
    family = []
    for idx in range(npairs):
        c, nu = 10.0 ** rng.uniform(-1.0, 1.0, size=2)
        h = h_family(FamilyParams(c=c, nu=nu))
        if idx % 2:  # exercise the left-translated members too
            h = translate_field(h, rng.uniform(-1.0, 1.0, size=7))
        family.append(h)
        pts = rng.uniform(-2.0, 2.0, size=(20, 7))
        torsion.append(_frobenius(conformal.torsion_T0_deformed(h, pts)))
    worst = _max_abs(*torsion)
    reports.append(
        _report(
            "einstein-family-torsion", npairs * 20, worst, 1e-8, "computed", t0, config
        )
    )

    t0 = time.perf_counter()
    frob = float(_frobenius(conformal.torsion_T0_deformed(_quartic_control(), _CONTROL_POINT))[0])
    shortfall = float(np.maximum(0.0, 1e-3 - frob))  # NaN stays NaN
    reports.append(
        _report("torsion-negative-control", 1, shortfall, 0.0, "control", t0, config)
    )

    t0 = time.perf_counter()
    pts = rng.uniform(-2.0, 2.0, size=(20, 7))
    worst = _max_abs(
        *(_frobenius(conformal.U_deformed(h, pts)) for h in family[:5] + [_quartic_control()])
    )
    reports.append(
        _report("u-collapse", 6 * 20, worst, 1e-12, "computed", t0, config)
    )

    t0 = time.perf_counter()
    nmats = config.samples_or(100)
    m = rng.standard_normal((nmats, 4, 4))
    m = m + m.transpose(0, 2, 1)
    p3 = conformal.casimir_project(m, "[3]")
    pm1 = conformal.casimir_project(m, "[-1]")
    trace_part = (np.trace(m, axis1=1, axis2=2) / 4.0)[:, None, None] * np.eye(4)
    worst = _max_abs(p3 - trace_part)
    reports.append(
        _report("casimir-trace-projection", nmats, worst, 1e-13, "computed", t0, config)
    )

    t0 = time.perf_counter()
    algebra = _max_abs(
        p3 + pm1 - m,
        conformal.casimir_project(p3, "[3]") - p3,
        conformal.casimir_project(pm1, "[-1]") - pm1,
        np.trace(pm1, axis1=1, axis2=2),
    )
    reports.append(
        _report("casimir-algebra", nmats, algebra, 1e-13, "computed", t0, config)
    )

    t0 = time.perf_counter()
    h6 = h_family(FamilyParams(c=2.0**-6, nu=1.0))
    pts = rng.uniform(-2.0, 2.0, size=(50, 7))
    scal = conformal.scal_deformed(h6, pts, base_scal=0.0)
    worst = _max_abs(np.asarray(scal) / 6.0 - 1.0)
    reports.append(
        _report(
            "scalar-curvature-constant",
            50,
            worst,
            1e-8,
            "closed-form 6 = 4(Q+2)/(Q-2), Q = 10",
            t0,
            config,
        )
    )
    return reports


def _relative_pde_residual(u, pts: np.ndarray) -> float:
    fj = frame.frame_jets(u, pts)
    return _max_abs(_yamabe_residual(fj, u.tag, pts) / fj.value**1.5)


def _suite_extremal(config: SuiteConfig) -> list[Report]:
    rng = np.random.default_rng(config.seed)
    n = config.samples_or(1000)
    ubar = ubar_field()
    reports = []

    t0 = time.perf_counter()
    pts = rng.uniform(-3.0, 3.0, size=(n, 7))
    reports.append(
        _report(
            "yamabe-pde",
            n,
            _relative_pde_residual(ubar, pts),
            1e-9,
            "computed",
            t0,
            config,
        )
    )

    t0 = time.perf_counter()
    g0 = rng.uniform(-2.0, 2.0, size=7)
    lam = rng.uniform(0.3, 3.0)
    moved = translate_field(dilate_field(ubar, lam), g0)
    reports.append(
        _report(
            "yamabe-pde-moved",
            n,
            _relative_pde_residual(moved, pts),
            1e-9,
            "computed",
            t0,
            config,
        )
    )

    t0 = time.perf_counter()
    residual = abs(ubar(np.zeros(7)) / 1024.0 - 1.0)
    reports.append(
        _report("peak-amplitude", 1, residual, 1e-13, "closed-form", t0, config)
    )
    return reports


def _suite_cayley(config: SuiteConfig) -> list[Report]:
    rng = np.random.default_rng(config.seed)
    n = config.samples_or(1000)
    pts = rng.uniform(-2.0, 2.0, size=(n, 7))
    pts = pts[np.linalg.norm(pts[:, :4], axis=1) > 0.05]
    away = pts[np.linalg.norm(pts[:, :4], axis=1) > 0.5]
    if len(away) == 0:
        raise DomainError(
            f"cayley suite: none of the {n} sample points has |q| > 0.5; use more samples"
        )
    reports = []

    t0 = time.perf_counter()
    q, p = cayley_inverse_batch(pts)
    back = cayley_forward_batch(q, p)
    again_q, again_p = cayley_inverse_batch(back)
    worst = _max_abs(back - pts, again_q - q, again_p - p)
    reports.append(
        _report("cayley-roundtrip", len(pts), worst, 1e-12, "computed", t0, config)
    )

    t0 = time.perf_counter()
    worst = _max_abs(sigma(sigma(pts)) - pts)
    reports.append(
        _report("sigma-involution", len(pts), worst, 1e-12, "computed", t0, config)
    )

    t0 = time.perf_counter()
    ku = kelvin(ubar_field())
    reports.append(
        _report(
            "kelvin-pde",
            len(away),
            _relative_pde_residual(ku, away),
            1e-8,
            "computed",
            t0,
            config,
        )
    )
    return reports


def _suite_quadrature(config: SuiteConfig) -> list[Report]:
    rng = np.random.default_rng(config.seed)
    reports = []

    t0 = time.perf_counter()
    gauss = integrate_biradial(
        BiRadialIntegrand(
            lambda r, rho: np.exp(-r * r - rho * rho),
            decay=(math.inf, math.inf),
            tag="gaussian",
        ),
        tol=1e-10,
    )
    residual = abs(gauss.value / math.pi**3.5 - 1.0)
    reports.append(
        _report("gaussian-closed-form", gauss.table[-1][3], residual, 1e-8, "closed-form", t0, config)
    )

    t0 = time.perf_counter()
    gauge = integrate_biradial(
        BiRadialIntegrand(
            lambda r, rho: ((1.0 + r * r) ** 2 + rho * rho) ** -5.0,
            decay=(20.0, 10.0),
            tag="gauge-kernel",
        ),
        tol=1e-10,
    )
    residual = abs(gauge.value / GAUGE_INTEGRAL_CLOSED_FORM - 1.0)
    reports.append(
        _report("gauge-closed-form", gauge.table[-1][3], residual, 1e-8, "closed-form", t0, config)
    )

    ubar = ubar_field()
    t0 = time.perf_counter()
    n = max(1000, config.samples_or(200_000))
    mass_field = power_compose(ubar, 2.5, tag="ubar-mass")
    mc = integrate_mc(mass_field, n, seed=config.seed)
    closed = 2.0**25 * math.pi**4 / 384.0
    z = abs(mc.value - closed) / mc.stderr
    reports.append(_report("mass-mc-agreement", n, z, 3.0, "cross-check", t0, config))

    t0 = time.perf_counter()
    base = fs_quotient(ubar)
    variants = [
        power_compose(ubar, 1.0, 7.3, tag="amplitude"),
        translate_field(ubar, rng.uniform(-1.5, 1.5, size=7)),
        dilate_field(ubar, 1.7),
    ]
    worst = _max_abs(*(fs_quotient(u).quotient / base.quotient - 1.0 for u in variants))
    reports.append(
        _report("quotient-invariance", len(variants), worst, 1e-5, "computed", t0, config)
    )

    t0 = time.perf_counter()
    residual = abs(base.numerator / base.mass - 1.0)
    reports.append(
        _report("parts-identity", 1, residual, 1e-4, "derived", t0, config)
    )
    return reports


def _suite_qmatrix(config: SuiteConfig) -> list[Report]:
    rng = np.random.default_rng(config.seed)
    reports = []

    t0 = time.perf_counter()
    residual = _max_abs(q_spectrum() - Q_SPECTRUM)
    reports.append(
        _report(
            "q-spectrum",
            6,
            residual,
            1e-12,
            "closed-form {0, 0, 2(2-sqrt2), 2(2+sqrt2), 10, 10}",
            t0,
            config,
        )
    )

    t0 = time.perf_counter()
    n = config.samples_or(100)
    worst = quadratic_form_audit(rng.standard_normal((n, 6, 4)))
    reports.append(
        _report("q-quadratic-form", n, worst, 1e-12, "derived", t0, config)
    )
    return reports


_SUITES: dict[str, Callable[[SuiteConfig], list[Report]]] = {
    "frames": _suite_frames,
    "conformal": _suite_conformal,
    "extremal": _suite_extremal,
    "cayley": _suite_cayley,
    "quadrature": _suite_quadrature,
    "qmatrix": _suite_qmatrix,
}


def suite_names() -> tuple[str, ...]:
    return tuple(_SUITES) + ("all",)


def run_suite(name: str, config: Optional[SuiteConfig] = None) -> list[Report]:
    """Execute one named suite (or all of them, in declaration order)."""
    config = config or SuiteConfig()
    if name == "all":
        out = []
        for suite in _SUITES.values():
            out.extend(suite(config))
        return out
    try:
        suite = _SUITES[name]
    except KeyError:
        raise ValueError(
            f"unknown suite {name!r}; expected one of {', '.join(suite_names())}"
        ) from None
    return suite(config)


# ---------------------------------------------------------------------------
# Report builders for the two non-suite commands.


def best_constant_reports(config: Optional[SuiteConfig] = None):
    """The reconciliation record plus its ratio lines as Report records.

    Ratios between computed quantities are asserted at 1e-3.  Ratios that
    involve the printed reference constants are informational: the
    mismatch there is the finding the report exists to display, so those
    lines carry a sentinel tolerance and always pass.  Returns the full
    record (for its text rendering and convergence tables) alongside the
    reports.
    """
    config = config or SuiteConfig()
    t0 = time.perf_counter()
    record = best_constant_report(
        seed=config.seed, mc_samples=max(1000, config.samples_or(200_000))
    )
    seconds = time.perf_counter() - t0
    reports = []
    for line in record.ratios:
        informational = "printed" in line.name
        residual = abs(line.ratio - 1.0)
        if informational:
            tolerance = 1e9
        elif config.tol is not None:
            tolerance = config.tol
        else:
            tolerance = 1e-3
        reports.append(
            Report(
                check=line.name,
                samples=1,
                max_residual=float(residual),
                tolerance=float(tolerance),
                passed=bool(residual <= tolerance),
                provenance="informational" if informational else "computed",
                seconds=seconds / len(record.ratios),
            )
        )
    return record, reports


def quotient_min_reports(config: Optional[SuiteConfig] = None) -> list[Report]:
    """Plant a translated, dilated bubble and grade the search that recovers it."""
    config = config or SuiteConfig()
    rng = np.random.default_rng(config.seed)
    ubar = ubar_field()

    g0 = rng.uniform(-0.5, 0.5, size=7)
    nu = float(np.exp(rng.uniform(-0.5, 0.5)))
    target = translate_field(dilate_field(ubar, math.sqrt(nu)), g0)
    start = FamilyParams(
        nu=nu * float(np.exp(rng.uniform(-0.15, 0.15))),
        center=g0 + rng.uniform(-0.1, 0.1, size=7),
    )

    t0 = time.perf_counter()
    result = minimize_quotient(start, target, seed=config.seed)
    elapsed = time.perf_counter() - t0
    reference = fs_quotient(ubar).quotient

    value_res = abs(result.value / reference - 1.0)
    center_res = _max_abs(np.asarray(result.params.center) - g0)
    nu_res = abs(result.params.nu / nu - 1.0)
    third = elapsed / 3.0

    def entry(check, residual, tol):
        tol = config.tol if config.tol is not None else tol
        return Report(
            check=check,
            samples=1,
            max_residual=float(residual),
            tolerance=float(tol),
            passed=bool(residual <= tol),
            provenance="computed",
            seconds=third,
        )

    return [
        entry("quotient-min-value", value_res, 1e-4),
        entry("quotient-min-center", center_res, 1e-3),
        entry("quotient-min-concentration", nu_res, 1e-6),
    ]


# ---------------------------------------------------------------------------
# Serialization.


def emit(reports, fmt: str, suite: str = "", seed: int = 0) -> str:
    """Render reports as json (schema'd envelope), csv, or an aligned table."""
    reports = list(reports)
    if fmt == "json":
        doc = {"suite": suite, "seed": seed, "reports": [r.as_dict() for r in reports]}
        return json.dumps(doc, indent=2)
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
