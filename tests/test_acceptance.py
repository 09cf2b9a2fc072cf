"""Acceptance gate: every stated criterion at its stated tolerance.

Each test emits exactly one `criterion N: PASS/FAIL` line (through the
capture so the verdicts always reach the terminal) and then asserts.
"""

import math
import time

import numpy as np
import pytest
from scipy import special

from qheis import audit, conformal, frame
from qheis.extremals import (
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
)
from qheis.jets import autodiff_lift, power_compose
from qheis.quadrature import (
    best_constant_report,
    fs_quotient,
    integrate_biradial,
    integrate_mc,
    minimize_quotient,
    BiRadialIntegrand,
)

GAUGE_ORACLE = 8.0 * math.pi**3 * (0.5 * special.beta(1.5, 3.5)) * (0.5 * special.beta(2.0, 5.0))


@pytest.fixture
def announce(capsys):
    def _announce(n, ok, detail):
        with capsys.disabled():
            print(f"criterion {n}: {'PASS' if ok else 'FAIL'} -- {detail}")
        assert ok, f"criterion {n}: {detail}"

    return _announce


def rel_residual(u, pts):
    fj = frame.frame_jets(u, np.atleast_2d(pts))
    return np.max(np.abs(pde_residual(u, pts)) / fj.value**1.5)


def test_criterion_1_entire_solution(announce, ubar, rng):
    t0 = time.perf_counter()
    pts = rng.uniform(-3.0, 3.0, (1000, 7))
    moved = translate_field(ubar, np.array([0.7, -0.3, 0.2, 0.5, -0.8, 0.4, 1.1]))
    fields = [ubar, moved] + [dilate_field(ubar, lam) for lam in (0.3, 0.77, 1.9, 3.0)]
    worst = np.max([rel_residual(u, pts) for u in fields])
    dt = time.perf_counter() - t0
    ok = worst <= 1e-9 and dt < 5.0
    announce(1, ok, f"PDE relative residual {worst:.2e} (tol 1e-9) on 1000 points, "
                    f"translated and dilated variants, {dt:.2f}s (< 5s)")


def test_criterion_2_family_torsion(announce, rng):
    t0 = time.perf_counter()
    norms = []
    for i in range(20):
        c, nu = 10.0 ** rng.uniform(-1.0, 1.0, 2)
        h = h_family(FamilyParams(c=c, nu=nu))
        if i % 2:
            h = translate_field(h, rng.uniform(-1.0, 1.0, 7))
        pts = rng.uniform(-2.0, 2.0, (20, 7))
        t = conformal.torsion_T0_deformed(h, pts)
        norms.append(np.sqrt(np.einsum("nab,nab->n", t, t)))
    worst = np.max(norms)
    control = autodiff_lift(
        lambda t1, x1, y1, z1, x, y, z: 1.0 + (t1**2 + x1**2 + y1**2 + z1**2) ** 2,
        tag="one-plus-q4",
    )
    tc = conformal.torsion_T0_deformed(control, np.array([1.0, 0, 0, 0, 0, 0, 0]))
    control_norm = float(np.sqrt(np.einsum("ab,ab->", tc, tc)))
    dt = time.perf_counter() - t0
    ok = worst <= 1e-8 and control_norm >= 1e-3 and dt < 5.0
    announce(2, ok, f"family torsion {worst:.2e} (tol 1e-8) over 20 members x 20 points; "
                    f"control norm {control_norm:.3f} (floor 1e-3), {dt:.2f}s (< 5s)")


def test_criterion_3_u_tensor_and_projection(announce, rng):
    u_tensors = []
    for c, nu in [(1.0, 1.0), (4.0, 0.3), (0.2, 5.0)]:
        h = h_family(FamilyParams(c=c, nu=nu))
        pts = rng.uniform(-2.0, 2.0, (30, 7))
        u_tensors.append(conformal.U_deformed(h, pts))
    worst_u = np.max(np.abs(u_tensors))
    m = rng.standard_normal((100, 4, 4))
    m = m + m.transpose(0, 2, 1)
    p3 = conformal.casimir_project(m, "[3]")
    target = (np.trace(m, axis1=1, axis2=2) / 4.0)[:, None, None] * np.eye(4)
    worst_p = float(np.max(np.abs(p3 - target)))
    ok = worst_u <= 1e-12 and worst_p <= 1e-13
    announce(3, ok, f"U tensor {worst_u:.2e} (tol 1e-12); trace projection "
                    f"{worst_p:.2e} (tol 1e-13) on 100 random symmetric matrices")


def test_criterion_4_scalar_curvature(announce, rng):
    h = h_family(FamilyParams(c=2.0**-6, nu=1.0))
    pts = rng.uniform(-2.0, 2.0, (50, 7))
    scal = np.asarray(conformal.scal_deformed(h, pts, base_scal=0.0))
    spread = float(np.max(np.abs(scal / 6.0 - 1.0)))
    ok = spread <= 1e-8 and 4.0 * (10.0 + 2.0) / (10.0 - 2.0) == 6.0
    announce(4, ok, f"deformed scalar curvature = 6 = 4(Q+2)/(Q-2) at Q=10, relative "
                    f"spread {spread:.2e} (tol 1e-8) over 50 points")


def test_criterion_5_best_constant(announce):
    gauge = integrate_biradial(
        BiRadialIntegrand(
            fn=lambda r, rho: ((1.0 + r * r) ** 2 + rho * rho) ** -5.0,
            decay=(20.0, 10.0),
            tag="gauge",
        ),
        tol=1e-10,
    )
    quad_vs_closed = abs(gauge.value / GAUGE_ORACLE - 1.0)
    record = best_constant_report(mc_samples=200_000)
    z = abs(record.mass_mc.value - record.mass_closed_form) / record.mass_mc.stderr
    n_ratios = len(record.ratios)
    text = record.as_text()
    displays_all = n_ratios >= 8 and all(line.name in text for line in record.ratios)
    flags = any(not line.consistent for line in record.ratios)
    ok = quad_vs_closed <= 1e-8 and z <= 3.0 and displays_all and flags
    announce(5, ok, f"gauge quadrature vs re-derived closed form {quad_vs_closed:.2e} "
                    f"(tol 1e-8); MC z = {z:.2f} (<= 3); reconciliation displays "
                    f"{n_ratios} candidate ratios with inconsistencies flagged")


def test_criterion_6_quotient_and_search(announce, ubar):
    t0 = time.perf_counter()
    ref = fs_quotient(ubar)
    variants = [
        power_compose(ubar, 1.0, 7.3, tag="scaled"),
        translate_field(ubar, np.array([0.9, 0.1, -0.5, 0.3, -0.2, 0.8, 0.4])),
        dilate_field(ubar, 1.7),
    ]
    worst_inv = np.max([abs(fs_quotient(u).quotient / ref.quotient - 1.0) for u in variants])
    parts = abs(ref.numerator / ref.mass - 1.0)

    g0 = np.array([0.3, -0.2, 0.1, 0.4, 0.2, -0.1, 0.3])
    nu_true = 1.44
    target = translate_field(dilate_field(ubar, math.sqrt(nu_true)), g0)
    rng = np.random.default_rng(11)
    values, centers = [], []
    for _ in range(10):
        start = FamilyParams(
            nu=nu_true * float(np.exp(rng.uniform(-0.2, 0.2))),
            center=g0 + rng.uniform(-0.12, 0.12, 7),
        )
        res = minimize_quotient(start, target, seed=0)
        values.append(abs(res.value / ref.quotient - 1.0))
        centers.append(np.asarray(res.params.center) - g0)
    worst_val = np.max(values)
    worst_center = np.max(np.abs(centers))
    dt = time.perf_counter() - t0
    ok = worst_inv <= 1e-5 and parts <= 1e-4 and worst_val <= 1e-4 and worst_center <= 1e-3 and dt < 60.0
    announce(6, ok, f"quotient invariances {worst_inv:.2e} (tol 1e-5); parts identity "
                    f"{parts:.2e} (tol 1e-4); 10 perturbed starts: value {worst_val:.2e} "
                    f"(tol 1e-4), center {worst_center:.2e} (tol 1e-3), {dt:.1f}s (< 60s)")


def test_criterion_7_coupling_matrix(announce, rng):
    spec_dev = float(np.max(np.abs(audit.q_spectrum() - audit.Q_SPECTRUM)))
    form_dev = np.max(
        [audit.quadratic_form_audit(rng.standard_normal((6, 4))) for _ in range(100)]
    )
    ok = spec_dev <= 1e-12 and form_dev <= 1e-12
    announce(7, ok, f"spectrum deviation {spec_dev:.2e} (tol 1e-12); quadratic form vs "
                    f"cyclic expansion {form_dev:.2e} (tol 1e-12) on 100 random vectors")


def test_criterion_8_cayley_and_kelvin(announce, ubar, rng):
    pts = rng.uniform(-2.0, 2.0, (1000, 7))
    worst_round = np.max(np.abs(cayley_forward_batch(*cayley_inverse_batch(pts)) - pts))
    nonzero = pts[np.einsum("ni,ni->n", pts[:, :4], pts[:, :4]) > 1e-4]
    worst_sigma = float(np.max(np.abs(sigma(sigma(nonzero)) - nonzero)))
    far = pts[np.einsum("ni,ni->n", pts[:, :4], pts[:, :4]) > 0.25]
    worst_pde = rel_residual(kelvin(ubar), far)
    ok = worst_round <= 1e-12 and worst_sigma <= 1e-12 and worst_pde <= 1e-8
    announce(8, ok, f"Cayley roundtrip {worst_round:.2e} and inversion involution "
                    f"{worst_sigma:.2e} (tol 1e-12) on 1000 points; Kelvin-transformed "
                    f"solution residual {worst_pde:.2e} (tol 1e-8)")


def test_criterion_9_frame_audits(announce, ubar, rng):
    pts = rng.uniform(-2.0, 2.0, (100, 7))
    worst_comm = np.max(
        [frame.commutator_audit(a, b, pts) for a in range(4) for b in range(a + 1, 4)]
    )
    shipped = [
        ubar,
        h_family(FamilyParams(c=0.5, nu=2.0)),
        translate_field(ubar, np.array([0.4, -0.6, 0.2, 0.1, 0.9, -0.2, 0.5])),
        autodiff_lift(
            lambda t1, x1, y1, z1, x, y, z: 1.0 + (t1**2 + x1**2 + y1**2 + z1**2) ** 2,
            tag="one-plus-q4",
        ),
    ]
    omega_stack = np.stack(frame.OMEGA)
    asymmetry = []
    for u in shipped:
        fj = frame.frame_jets(u, pts)
        m = fj.hess + np.einsum("ns,sab->nab", fj.vert, omega_stack)
        asymmetry.append(m - m.transpose(0, 2, 1))
    worst_sym = np.max(np.abs(asymmetry))
    ok = worst_comm <= 1e-13 and worst_sym <= 1e-10
    announce(9, ok, f"frame commutator audit {worst_comm:.2e} (tol 1e-13) at 100 points; "
                    f"corrected-Hessian asymmetry {worst_sym:.2e} (tol 1e-10) on "
                    f"{len(shipped)} shipped fields")
