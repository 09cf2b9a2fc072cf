"""Integration against Haar measure and the Sobolev quotient machinery.

The closed forms used as oracles here are re-derived from scratch through
scipy's Beta function, not copied from the module under test.
"""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special

from qheis.errors import AccuracyError, ConsistencyError, DomainError
from qheis.extremals import (
    FamilyParams,
    dilate_field,
    h_family,
    translate_field,
    ubar_field,
)
from qheis.frame import frame_jets
from qheis.jets import constant_field, power_compose
from qheis.quadrature import (
    GAUGE_INTEGRAL_CLOSED_FORM,
    BiRadialIntegrand,
    best_constant_report,
    convergence_csv,
    fs_quotient,
    integrate_biradial,
    integrate_field,
    integrate_mc,
    _energy_biradial_audit,
    minimize_quotient,
    spin_rotation_map,
)
from qheis.quaternions import group_mul

# ---------------------------------------------------------------------------
# Oracles.  Both half-line reductions of the gauge integral are instances of
#   int_0^inf s^(2a-1) (1+s^2)^(-a-b) ds = B(a, b) / 2,
# applied after substituting rho = (1+r^2) u; sphere areas 2 pi^2 and 4 pi.

GAUGE = 8.0 * math.pi**3 * (0.5 * special.beta(1.5, 3.5)) * (0.5 * special.beta(2.0, 5.0))
MASS = 2.0**25 * GAUGE
QUOTIENT_REF = MASS**0.2
GAUSSIAN_7D = math.pi**3.5


def test_gauge_closed_form_oracle():
    np.testing.assert_allclose(GAUGE, math.pi**4 / 384.0, rtol=1e-15)
    np.testing.assert_allclose(GAUGE_INTEGRAL_CLOSED_FORM, GAUGE, rtol=1e-15)


# ---------------------------------------------------------------------------
# The reduced rule.


def test_biradial_gaussian():
    res = integrate_biradial(
        BiRadialIntegrand(
            fn=lambda r, rho: np.exp(-r * r - rho * rho), decay=(50.0, 50.0), tag="gaussian"
        ),
        tol=1e-11,
    )
    assert res.converged
    np.testing.assert_allclose(res.value, GAUSSIAN_7D, rtol=1e-10)


def test_biradial_gauge_kernel():
    res = integrate_biradial(
        BiRadialIntegrand(
            fn=lambda r, rho: ((1.0 + r * r) ** 2 + rho * rho) ** -5.0,
            decay=(20.0, 10.0),
            tag="gauge",
        ),
        tol=1e-11,
    )
    np.testing.assert_allclose(res.value, GAUGE, rtol=1e-10)


def test_biradial_zero():
    res = integrate_biradial(
        BiRadialIntegrand(fn=lambda r, rho: 0.0 * r, decay=(9.0, 9.0), tag="zero")
    )
    assert res.value == 0.0


@pytest.mark.parametrize("decay", [(4.0, 9.0), (3.9, 9.0), (9.0, 3.0), (9.0, 2.0)])
def test_decay_at_or_below_threshold_rejected(decay):
    # the measure carries r^3 dr and rho^2 drho, so integrability needs
    # strictly more than (4, 3)
    with pytest.raises(DomainError):
        BiRadialIntegrand(fn=lambda r, rho: r, decay=decay, tag="divergent")


def test_accuracy_error_carries_estimate():
    integrand = BiRadialIntegrand(
        fn=lambda r, rho: ((1.0 + r * r) ** 2 + rho * rho) ** -5.0,
        decay=(20.0, 10.0),
        tag="gauge",
    )
    with pytest.raises(AccuracyError) as info:
        integrate_biradial(integrand, tol=1e-16, max_level=3)
    assert info.value.value == pytest.approx(GAUGE, rel=1e-8)
    assert info.value.error is not None


def test_convergence_csv_format():
    res = integrate_biradial(
        BiRadialIntegrand(fn=lambda r, rho: np.exp(-r - rho), decay=(50.0, 50.0), tag="e")
    )
    lines = convergence_csv(res.table).strip().splitlines()
    assert lines[0] == "level,estimate,error_estimate,cells"
    assert len(lines) == len(res.table) + 1
    # estimates round-trip exactly through repr
    assert float(lines[-1].split(",")[1]) == res.value


# ---------------------------------------------------------------------------
# Certificate reduction of fields.


def test_mass_integral_of_ubar(ubar):
    res = integrate_field(ubar, power=2.5, tol=1e-10)
    np.testing.assert_allclose(res.value, MASS, rtol=1e-9)


def test_mass_integral_translated(ubar):
    moved = translate_field(ubar, np.array([0.8, -0.4, 0.1, 0.6, 1.2, -0.7, 0.3]))
    res = integrate_field(moved, power=2.5, tol=1e-10)
    np.testing.assert_allclose(res.value, MASS, rtol=1e-8)


def test_integrate_field_requires_certificate(ubar):
    bald = dataclasses.replace(ubar, biradial_map=None)
    with pytest.raises(DomainError):
        integrate_field(bald)


def test_integrate_field_requires_decay(ubar):
    vague = dataclasses.replace(ubar, decay=None)
    with pytest.raises(DomainError):
        integrate_field(vague)


# ---------------------------------------------------------------------------
# Monte Carlo.


def test_mc_mass_within_three_sigma(ubar):
    mc = integrate_mc(power_compose(ubar, 2.5, tag="mass"), 100_000, seed=0)
    assert mc.warning is None
    assert abs(mc.value - MASS) <= 3.0 * mc.stderr


def test_mc_translation_invariance(ubar):
    moved = translate_field(ubar, np.array([0.5, 0.2, -0.3, 0.1, 0.4, 0.0, -0.6]))
    mc = integrate_mc(power_compose(moved, 2.5, tag="moved-mass"), 100_000, seed=1)
    assert abs(mc.value - MASS) <= 3.0 * mc.stderr


def test_mc_zero_field():
    mc = integrate_mc(constant_field(0.0), 2000, seed=0)
    assert mc.value == 0.0 and mc.stderr == 0.0


def test_mc_minimum_sample_size(ubar):
    with pytest.raises(ValueError):
        integrate_mc(ubar, 999)


# ---------------------------------------------------------------------------
# The quotient.


def test_quotient_of_ubar(ubar):
    rep = fs_quotient(ubar)
    np.testing.assert_allclose(rep.quotient, QUOTIENT_REF, rtol=1e-9)
    np.testing.assert_allclose(rep.mass, MASS, rtol=1e-9)
    assert rep.quotient == rep.numerator / rep.denominator
    # for this field the numerator is the mass: integrate the equation
    # against u and integrate by parts
    np.testing.assert_allclose(rep.numerator, rep.mass, rtol=1e-8)


def test_quotient_invariances(ubar):
    ref = fs_quotient(ubar).quotient
    variants = [
        power_compose(ubar, 1.0, 7.3, tag="scaled"),
        translate_field(ubar, np.array([0.9, 0.1, -0.5, 0.3, -0.2, 0.8, 0.4])),
        dilate_field(ubar, 1.7),
        dilate_field(translate_field(ubar, np.array([0.2, 0.6, 0.0, -0.1, 0.5, -0.3, 0.2])), 0.6),
    ]
    for u in variants:
        assert abs(fs_quotient(u).quotient / ref - 1.0) <= 1e-5


def test_energy_audit_rejects_a_nan_gradient(ubar):
    def jets(pts, order=2):
        out = ubar.jets(pts, order)
        if order == 0:
            return out
        return (out[0], np.full_like(out[1], math.nan)) + out[2:]

    broken = dataclasses.replace(ubar, tag="ubar-nan-gradient", jets=jets)
    _energy_biradial_audit(ubar)
    with pytest.raises(ConsistencyError, match="not bi-radial"):
        _energy_biradial_audit(broken)


def test_energy_profile_identity(ubar, rng):
    # |grad_H ubar|^2 against the hand-written profile derivatives of
    # F(r, rho) = 1024 [(1+r^2)^2 + rho^2]^{-2}:
    # |grad_H u|^2 = F_r^2 + 4 r^2 F_rho^2
    pts = rng.uniform(-2.0, 2.0, (200, 7))
    g = frame_jets(ubar, pts, 1).grad
    lhs = np.einsum("na,na->n", g, g)
    r2 = np.einsum("ni,ni->n", pts[:, :4], pts[:, :4])
    rho2 = np.einsum("ni,ni->n", pts[:, 4:7], pts[:, 4:7])
    a = (1.0 + r2) ** 2 + rho2
    f_r = -8192.0 * np.sqrt(r2) * (1.0 + r2) / a**3
    f_rho = -4096.0 * np.sqrt(rho2) / a**3
    np.testing.assert_allclose(lhs, f_r**2 + 4.0 * r2 * f_rho**2, rtol=1e-10)


# ---------------------------------------------------------------------------
# Origin-fixing rotations.


unit4 = st.tuples(*[st.floats(-1.0, 1.0)] * 4).filter(lambda v: sum(x * x for x in v) > 0.1)


@settings(deadline=None, max_examples=30)
@given(a=unit4, b=unit4)
def test_spin_rotation_properties(a, b):
    a = np.array(a) / np.linalg.norm(a)
    b = np.array(b) / np.linalg.norm(b)
    amap = spin_rotation_map(a, b)
    assert abs(abs(amap.det) - 1.0) <= 1e-12
    assert np.max(np.abs(amap.offset)) == 0.0
    rng = np.random.default_rng(3)
    g, h = rng.uniform(-1.5, 1.5, (2, 7))
    # radius pair is preserved
    img = amap(g)
    np.testing.assert_allclose(img[:4] @ img[:4], g[:4] @ g[:4], rtol=1e-12)
    np.testing.assert_allclose(img[4:] @ img[4:], g[4:] @ g[4:], rtol=1e-12)
    # group automorphism
    np.testing.assert_allclose(
        amap(group_mul(g, h)), group_mul(amap(g), amap(h)), atol=1e-12
    )


def test_spin_rotation_fixes_ubar(ubar, rng):
    a = rng.standard_normal(4)
    b = rng.standard_normal(4)
    amap = spin_rotation_map(a / np.linalg.norm(a), b / np.linalg.norm(b))
    pts = rng.uniform(-2.0, 2.0, (50, 7))
    np.testing.assert_allclose(ubar(amap(pts)), ubar(pts), rtol=1e-13)


# ---------------------------------------------------------------------------
# Bubble recovery.


def test_minimize_recovers_planted_motion(ubar):
    g0 = np.array([0.3, -0.2, 0.1, 0.4, 0.2, -0.1, 0.3])
    nu = 1.44
    target = translate_field(dilate_field(ubar, math.sqrt(nu)), g0)
    start = FamilyParams(nu=1.2, center=g0 + 0.08)
    result = minimize_quotient(start, target, seed=0)
    assert result.converged
    np.testing.assert_allclose(result.params.nu, nu, rtol=1e-12)
    assert np.max(np.abs(np.asarray(result.params.center) - g0)) <= 1e-3
    assert abs(result.value / QUOTIENT_REF - 1.0) <= 1e-4
    # certificate-route quotient of the de-transformed target
    np.testing.assert_allclose(result.report.quotient, QUOTIENT_REF, rtol=1e-8)


def test_minimize_from_the_truth(ubar):
    g0 = np.array([-0.1, 0.2, 0.0, 0.1, -0.3, 0.2, 0.1])
    target = translate_field(ubar, g0)
    result = minimize_quotient(FamilyParams(center=g0), target, seed=0)
    np.testing.assert_allclose(result.params.nu, 1.0, rtol=1e-12)
    assert np.max(np.abs(np.asarray(result.params.center) - g0)) <= 1e-6


def test_minimize_rejects_out_of_box_start(ubar):
    with pytest.raises(ValueError):
        minimize_quotient(FamilyParams(center=np.full(7, 40.0)), ubar)


def test_centered_bubble_is_extremal(ubar, rng):
    # jiggled family members never beat the centered one by more than rule noise
    ref = fs_quotient(ubar).quotient
    for _ in range(3):
        g0 = rng.uniform(-0.4, 0.4, 7)
        lam = math.exp(rng.uniform(-0.3, 0.3))
        u = translate_field(dilate_field(ubar, lam), g0)
        assert fs_quotient(u).quotient >= ref * (1.0 - 5e-4)


# ---------------------------------------------------------------------------
# The reconciliation record.


@pytest.fixture(scope="module")
def record():
    return best_constant_report(mc_samples=50_000)


def test_best_constant_computed_block_consistent(record):
    names = [line.name for line in record.ratios]
    assert names[0] == "gauge quadrature / Beta closed form"
    for line in record.ratios:
        if "printed" not in line.name:
            assert line.consistent, line.name
            np.testing.assert_allclose(line.ratio, 1.0, rtol=1e-6)


def test_best_constant_printed_block_flags(record):
    flagged = {line.name: line for line in record.ratios if "printed" in line.name}
    assert not flagged["printed constant^5 / computed quotient^5"].consistent
    assert not flagged["printed constant^5 / computed quotient"].consistent
    # the two printed normalizations disagree with the computation yet
    # agree with each other; that coincidence is the internal tell
    assert flagged["printed constant^5 / printed s2^-2"].consistent
    np.testing.assert_allclose(
        flagged["printed constant^5 / printed s2^-2"].ratio, 1.0, rtol=1e-12
    )


def test_best_constant_text_rendering(record):
    text = record.as_text()
    assert "computed:" in text and "printed:" in text
    for line in record.ratios:
        assert line.name in text
