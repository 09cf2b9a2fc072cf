"""Inputs, work items and output checks of the three benchmark workloads.

Each workload is a list of items drawn from the workload seed.  An item is
handed to qheis, and its output is graded against references that qheis
does not compute itself: the `scipy.special.beta` closed forms of the
gauge and mass integrals, the planted bubble of a recovery, and the
tolerances of the acceptance gate.

* ``recover``   plants a translated, dilated ``ubar`` and runs
  ``minimize_quotient`` from a perturbed start, drawn as in
  ``audit.quotient_min_reports``.
* ``integrate`` runs ``best_constant_report`` with 200k Monte Carlo
  samples, then ``fs_quotient`` on ``ubar`` and three seeded variants
  (scaled, translated, dilated).
* ``verify``    runs the non-quadrature suites at one seed each with
  ``samples=1000``.

qheis is called through its module attributes (``quadrature.fs_quotient``,
not a name bound here), so the tracer's patches reach every call.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import beta

from qheis import audit, extremals, jets, quadrature

#: integral of [(1+r^2)^2 + rho^2]^-5 dH = 8 pi^3 B(3/2,7/2)/2 B(2,5)/2.
GAUGE_CLOSED = 8.0 * math.pi**3 * (0.5 * beta(1.5, 3.5)) * (0.5 * beta(2.0, 5.0))
#: integral of ubar^{5/2} dH; ubar = 2^10 x the gauge kernel^{2/5}.
MASS_CLOSED = 2.0**25 * GAUGE_CLOSED
#: Q(ubar) = mass^{1/5}, because integration by parts of the entire-solution
#: equation makes the numerator equal to the mass.
QUOTIENT_CLOSED = MASS_CLOSED**0.2

#: The search's rotation set, fixed as in acceptance criterion 6: items differ
#: in the planted bubble and the start only.  A seed per item would triple
#: the variance of the work per item (CV 15 % instead of 8 %).
SEARCH_SEED = 0

MC_SAMPLES = 200_000
#: Every Monte Carlo estimate uses the acceptance gate's seed.  z <= 3 bounds
#: one fixed draw: fresh draws misfire on a correct estimator, whose weights
#: are heavy-tailed (seed 38 of seeds 0-79 gives z = 3.12).
MC_SEED = 0
VERIFY_SUITES = ("frames", "conformal", "extremal", "cayley", "qmatrix")

#: Seconds one item takes on a 2-core x86 machine (Python 3.11, numpy 2.4,
#: scipy 1.17).  They only size a run: ``--seconds`` buys that many items.
NOMINAL_ITEM_S = {"recover": 2.0, "integrate": 1.0, "verify": 1.0}

NAMES = tuple(NOMINAL_ITEM_S)


def item_count(name: str, seconds: float) -> int:
    """Items in one run: enough to fill `seconds` at the nominal item cost."""
    return max(2, round(seconds / NOMINAL_ITEM_S[name]))


def make_inputs(name: str, seed: int, count: int) -> list[dict]:
    """The run's items, a pure function of (name, seed, count)."""
    if name not in NOMINAL_ITEM_S:
        raise ValueError(f"unknown workload {name!r}; expected one of {', '.join(NAMES)}")
    rng = np.random.default_rng(seed)
    items = []
    for _ in range(count):
        if name == "recover":
            g0 = rng.uniform(-0.5, 0.5, size=7)
            nu = float(np.exp(rng.uniform(-0.5, 0.5)))
            items.append({
                "g0": g0,
                "nu": nu,
                "start_nu": nu * float(np.exp(rng.uniform(-0.15, 0.15))),
                "start_center": g0 + rng.uniform(-0.1, 0.1, size=7),
            })
        elif name == "integrate":
            items.append({
                "amplitude": float(np.exp(rng.uniform(-2.0, 2.0))),
                "translation": rng.uniform(-1.5, 1.5, size=7),
                "dilation": float(np.exp(rng.uniform(-0.7, 0.7))),
            })
        else:
            items.append({"suite_seed": int(rng.integers(2**31))})
    return items


def run_item(name: str, item: dict):
    """Hand one item to qheis and return its raw output."""
    if name == "recover":
        ubar = extremals.ubar_field()
        target = extremals.translate_field(
            extremals.dilate_field(ubar, math.sqrt(item["nu"])), item["g0"]
        )
        start = extremals.FamilyParams(nu=item["start_nu"], center=item["start_center"])
        return quadrature.minimize_quotient(start, target, seed=SEARCH_SEED)
    if name == "integrate":
        record = quadrature.best_constant_report(mc_samples=MC_SAMPLES, seed=MC_SEED)
        ubar = extremals.ubar_field()
        variants = [
            jets.power_compose(ubar, 1.0, item["amplitude"], tag="scaled"),
            extremals.translate_field(ubar, item["translation"]),
            extremals.dilate_field(ubar, item["dilation"]),
        ]
        quotients = [quadrature.fs_quotient(u).quotient for u in [ubar] + variants]
        return record, quotients
    config = audit.SuiteConfig(seed=item["suite_seed"], samples=1000)
    return {suite: audit.run_suite(suite, config) for suite in VERIFY_SUITES}


def worst(values) -> float:
    """Largest magnitude; NaN anywhere gives NaN, unlike Python's max."""
    return float(np.max(np.abs(np.asarray(values, dtype=float))))


def grade(name: str, item: dict, output) -> list[tuple[str, float, float]]:
    """(check, residual, tolerance) for every output check of one item."""
    if name == "recover":
        return [
            ("recover-value", abs(output.value / QUOTIENT_CLOSED - 1.0), 1e-4),
            ("recover-center", worst(np.asarray(output.params.center) - item["g0"]), 1e-3),
            ("recover-concentration", abs(output.params.nu / item["nu"] - 1.0), 1e-6),
        ]
    if name == "integrate":
        record, (base, *variants) = output
        mc = record.mass_mc
        return [
            ("gauge-closed-form", abs(record.gauge_integral / GAUGE_CLOSED - 1.0), 1e-8),
            ("mass-closed-form", abs(record.mass_integral / MASS_CLOSED - 1.0), 1e-8),
            ("mass-mc-z", abs(mc.value - MASS_CLOSED) / mc.stderr, 3.0),
            ("quotient-closed-form", abs(base / QUOTIENT_CLOSED - 1.0), 1e-8),
            ("quotient-invariance", worst([q / base - 1.0 for q in variants]), 1e-5),
        ]
    return [
        (f"{suite}:{report.check}", report.max_residual, report.tolerance)
        for suite, reports in output.items()
        for report in reports
    ]


def passed(residual: float, tolerance: float) -> bool:
    """A check passes only with a finite residual within its tolerance."""
    return math.isfinite(residual) and residual <= tolerance
