"""Integration against Haar measure and the Sobolev quotient machinery.

The closed forms used as oracles here are re-derived from scratch through
scipy's Beta function, not copied from the module under test.
"""

import ast
import dataclasses
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special, stats

import qheis
from qheis import audit, quadrature
from qheis.errors import AccuracyError, ConsistencyError, DomainError
from qheis.extremals import (
    FamilyParams,
    dilate_field,
    h_family,
    kelvin,
    sigma,
    translate_field,
    ubar_field,
)
from qheis.frame import frame_jets, sub_laplacian
from qheis.jets import AffineMap, ScalarField, autodiff_lift, constant_field, power_compose
from qheis.quadrature import (
    GAUGE_INTEGRAL_CLOSED_FORM,
    BestConstantReport,
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
from qheis.quaternions import group_inv, group_mul, quat_conj, quat_mul

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


def test_accuracy_error_carries_estimate(monkeypatch):
    integrand = BiRadialIntegrand(
        fn=lambda r, rho: ((1.0 + r * r) ** 2 + rho * rho) ** -5.0,
        decay=(20.0, 10.0),
        tag="gauge",
    )
    monkeypatch.setattr(quadrature, "_MAX_LEVEL", 3)
    with pytest.raises(AccuracyError) as info:
        integrate_biradial(integrand, tol=1e-16)
    assert info.value.value == pytest.approx(GAUGE, rel=1e-8)
    assert info.value.error is not None


def _gate_integrands():
    ubar = ubar_field()
    return {
        "gauge": (
            BiRadialIntegrand(
                fn=lambda r, rho: ((1.0 + r * r) ** 2 + rho * rho) ** -5.0,
                decay=(20.0, 10.0),
                tag="gauge",
            ),
            GAUGE,
        ),
        "mass": (quadrature.reduced_integrand(ubar, 2.5), MASS),
        "gaussian": (
            BiRadialIntegrand(
                fn=lambda r, rho: np.exp(-r * r - rho * rho), decay=(50.0, 50.0), tag="gaussian"
            ),
            GAUSSIAN_7D,
        ),
        # integrating the equation against ubar by parts makes the numerator the mass
        "numerator": (quadrature._energy_integrand(ubar), MASS),
    }


@pytest.mark.parametrize(
    "name, tol, accepted",
    [
        ("gauge", 1e-9, 3),
        ("gauge", 1e-11, 3),
        ("mass", 1e-9, 3),
        ("mass", 1e-11, 3),
        ("gaussian", 1e-9, 3),
        ("gaussian", 1e-11, 3),
        ("numerator", 1e-9, 3),
        ("numerator", 1e-11, 4),
    ],
)
def test_error_estimate_bounds_the_true_error(name, tol, accepted):
    # the geometric estimate alone undershoots where rounding dominates
    # (gauge at level 3, numerator at level 4); the floor must cover it
    integrand, exact = _gate_integrands()[name]
    res = integrate_biradial(integrand, tol=tol)
    assert res.table[-1][0] == accepted
    assert res.error <= tol * abs(res.value)
    for level, est, err, _ in res.table:
        if level >= 3:
            assert err >= abs(est - exact), (level, err, abs(est - exact))


@pytest.mark.parametrize("poisoned", ["every-level", "level-3-only"])
def test_a_nan_node_is_never_accepted(poisoned, monkeypatch):
    # a NaN at level 3 alone leaves levels 4 and 5 finite and in
    # agreement, but both estimates lean on the NaN delta of level 4
    def fn(r, rho):
        vals = np.exp(-r * r - rho * rho)
        if poisoned == "every-level" or r.size == 9216:
            vals[r.size // 2] = math.nan
        return vals

    integrand = BiRadialIntegrand(fn=fn, decay=(50.0, 50.0), tag="nan-node")
    monkeypatch.setattr(quadrature, "_MAX_LEVEL", 5)
    with pytest.raises(AccuracyError) as info:
        integrate_biradial(integrand)
    assert math.isnan(info.value.error)


def test_a_zero_previous_delta_falls_back_to_the_delta(monkeypatch):
    # levels 1 and 2 agree exactly, so level 3 has no ratio to extrapolate
    script = {576: 1.0, 2304: 1.0, 9216: 1.0 + 1e-3}
    monkeypatch.setattr(quadrature, "_rule_sums", lambda fn, r, rho, w: [script[r.size]])
    monkeypatch.setattr(quadrature, "_MAX_LEVEL", 3)
    integrand = BiRadialIntegrand(fn=lambda r, rho: r, decay=(9.0, 9.0), tag="scripted")
    with pytest.raises(AccuracyError) as info:
        integrate_biradial(integrand, tol=1e-16)
    assert info.value.table[2][2] == abs((1.0 + 1e-3) - 1.0)


def test_the_cached_panel_rule_cannot_be_poisoned():
    t, wt = quadrature._panel_nodes(2, 12)
    for arr in (t, wt):
        with pytest.raises(ValueError):
            arr[0] = 0.5
    again = quadrature._panel_nodes(2, 12)
    assert again[0] is t and again[1] is wt


def _unevaluable_integrand():
    def fn(r, rho):
        raise AssertionError("the integrand was evaluated")

    return BiRadialIntegrand(fn=fn, decay=(9.0, 9.0), tag="unevaluable")


def _unevaluable_field(ubar):
    def jets(pts, order=2):
        raise AssertionError("the field was evaluated")

    return dataclasses.replace(ubar, tag="unevaluable", jets=jets)


# a NaN or negative tol can never be met, so the loop would run every level
@pytest.mark.parametrize("bad", [math.nan, -1.0, 0.0, math.inf, -math.inf, True, "1e-9", None])
def test_a_bad_tolerance_is_refused_before_any_evaluation(ubar, bad):
    with pytest.raises(ValueError, match="tol"):
        integrate_biradial(_unevaluable_integrand(), tol=bad)
    with pytest.raises(ValueError, match="tol"):
        integrate_field(_unevaluable_field(ubar), 2.5, tol=bad)
    with pytest.raises(ValueError, match="tol"):
        fs_quotient(_unevaluable_field(ubar), tol=bad)


# the deepest level is the constant _MAX_LEVEL: any max_level at all is an
# unknown keyword, refused before anything is evaluated
@pytest.mark.parametrize("bad", [2.5, 3.0, 0, -1, math.nan, True, "3", None])
def test_a_bad_max_level_is_refused_before_any_evaluation(ubar, bad):
    with pytest.raises(TypeError, match="max_level"):
        integrate_biradial(_unevaluable_integrand(), max_level=bad)
    with pytest.raises(TypeError, match="max_level"):
        integrate_field(_unevaluable_field(ubar), 2.5, max_level=bad)


# a float or a bool is no whole number: a ValueError that names the argument
@pytest.mark.parametrize(
    "args, name", [((2.5,), "level"), ((True,), "level"), ((-1,), "level"), ((1, 2.5), "n_nodes")]
)
def test_biradial_rule_takes_whole_numbers_only(args, name):
    with pytest.raises(ValueError, match=name):
        quadrature.biradial_rule(*args)


def test_max_level_one_is_the_first_level_alone(monkeypatch):
    monkeypatch.setattr(quadrature, "_MAX_LEVEL", 1)
    with pytest.raises(AccuracyError) as info:
        integrate_biradial(_gate_integrands()["gauge"][0])
    assert [row[0] for row in info.value.table] == [1]


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


def test_a_hand_built_field_carries_no_certificate(ubar):
    # ubar shifted by hand is not bi-radial about the origin: with an identity
    # certificate by default it integrated to 89,230.6 against a mass of 8.5e6
    shift = np.array([0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 3.0])

    def jets(pts, order=2):
        return ubar.jets(pts - shift, order)

    shifted = ScalarField("hand-shifted", jets, decay=(8.0, 4.0))
    assert shifted.biradial_map is None
    with pytest.raises(DomainError, match="carries no bi-radial certificate"):
        integrate_field(shifted, 2.5)
    assert constant_field(1.0).biradial_map.is_identity()


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


@pytest.mark.parametrize("alpha, heavy", [(0.8, True), (2.5, False)])
def test_mc_warns_on_heavy_tailed_weights(ubar, alpha, heavy):
    # ubar^0.8 has a finite integral, but its weight under the Cauchy tail of
    # the rho proposal has an infinite variance: the standard error stops
    # shrinking with the sample size, which is what the warning reads
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        mc = integrate_mc(power_compose(ubar, alpha), 4000, seed=0)
    assert (mc.warning is not None) == heavy
    assert [w.category for w in caught] == [RuntimeWarning] * heavy
    if heavy:
        assert str(caught[0].message) == mc.warning
        assert "heavy-tailed" in mc.warning


def test_mc_translation_invariance(ubar):
    moved = translate_field(ubar, np.array([0.5, 0.2, -0.3, 0.1, 0.4, 0.0, -0.6]))
    mc = integrate_mc(power_compose(moved, 2.5, tag="moved-mass"), 100_000, seed=1)
    assert abs(mc.value - MASS) <= 3.0 * mc.stderr


def _mc_textbook(u, samples, seed, chunk):
    """The estimate by the textbook route: u over the proposal density of the point.

    Row i of the uniforms, (a, b, s, z, e1, e2, e3), gives the radii as
    scipy's t(2) and t(1) quantiles at (1 + a)/2 and (1 + b)/2 and the
    angles theta_j = 2 pi e_j - pi; the directions are the Hopf
    coordinates (sqrt(1-s) cos theta1, sqrt(1-s) sin theta1, sqrt(s) cos
    theta2, sqrt(s) sin theta2) and (sqrt(1-h^2) cos theta3, sqrt(1-h^2)
    sin theta3, h), h = 2z - 1.  The point (r theta, rho phi) has the
    density of r, twice scipy's t(2) density, over the area 2 pi^2 r^3 of
    its sphere, times the same for rho with t(1) and 4 pi rho^2.
    """
    rng = np.random.default_rng(seed)
    weights = []
    for lo in range(0, samples, chunk):
        k = min(chunk, samples - lo)
        a, b, s, z, *e = rng.random((k, 7)).T
        r = stats.t.ppf((1.0 + a) / 2.0, 2)
        rho = stats.t.ppf((1.0 + b) / 2.0, 1)
        theta = [2.0 * math.pi * x - math.pi for x in e]
        h = 2.0 * z - 1.0
        q = np.stack([
            np.sqrt(1.0 - s) * np.cos(theta[0]), np.sqrt(1.0 - s) * np.sin(theta[0]),
            np.sqrt(s) * np.cos(theta[1]), np.sqrt(s) * np.sin(theta[1]),
        ], axis=1)
        w = np.stack([
            np.sqrt(1.0 - h**2) * np.cos(theta[2]), np.sqrt(1.0 - h**2) * np.sin(theta[2]), h,
        ], axis=1)
        pts = np.hstack([r[:, None] * q, rho[:, None] * w])
        density_q = 2.0 * stats.t.pdf(r, 2) / (2.0 * math.pi**2 * r**3)
        density_w = 2.0 * stats.t.pdf(rho, 1) / (4.0 * math.pi * rho**2)
        weights.append(u(pts) / (density_q * density_w))
    weights = np.concatenate(weights)
    half = samples // 2
    return (
        weights.mean(),
        weights.std(ddof=1) / math.sqrt(samples),
        [part.std(ddof=1) / math.sqrt(part.size) for part in (weights[:half], weights[half:])],
    )


@pytest.mark.parametrize("seed", [0, 3])
def test_mc_matches_the_textbook_importance_weight(ubar, seed, monkeypatch):
    # chunks of 1024 over 3000 samples: two block boundaries, and the
    # half-sample split (1500) falls inside the second block
    monkeypatch.setattr(quadrature, "_MC_CHUNK", 1024)
    u = power_compose(translate_field(ubar, np.array([0.4, -0.3, 0.2, 0.1, 0.5, -0.2, 0.3])), 2.5)
    value, stderr, half_stderrs = _mc_textbook(u, 3000, seed, 1024)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        mc = integrate_mc(u, 3000, seed=seed)
    np.testing.assert_allclose(mc.value, value, rtol=1e-12)
    np.testing.assert_allclose(mc.stderr, stderr, rtol=1e-12)
    assert (mc.warning is not None) == (stderr > 0.9 * min(half_stderrs))


@pytest.mark.parametrize("where", [0, 1999])
def test_mc_warns_on_one_dominant_weight_in_either_half(where):
    # one nonzero weight W: the half that holds it reads 2W/n, the full
    # sample W/n and the other half 0, so only the other half shows it
    def jets(pts, order=2):
        value = np.zeros(len(pts))
        value[where] = 1.0
        return (value,)

    field = ScalarField(tag="one-weight", jets=jets, decay=(0.0, 0.0))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        mc = integrate_mc(field, 2000, seed=0)
    assert [w.category for w in caught] == [RuntimeWarning]
    assert str(caught[0].message) == mc.warning
    full, first, second = (f"{x:.3e}" for x in (mc.stderr, 2.0 * mc.stderr, 0.0))
    halves = (first, second) if where < 1000 else (second, first)
    assert f"({full} full vs {halves[0]} and {halves[1]} on the halves)" in mc.warning


def _block_weights(u, samples, chunk, seed):
    rng = np.random.default_rng(seed)
    return np.concatenate([
        quadrature._mc_weights(u, rng, min(chunk, samples - lo)) for lo in range(0, samples, chunk)
    ])


@pytest.mark.parametrize("chunk", [1024, 3000])
def test_mc_block_size_changes_no_sample(ubar, chunk, monkeypatch):
    # 10,000 samples split 8192 + 1808 at the default block size, and
    # differently at each other size: the weights stay bitwise, only the
    # order of the sums moves
    u = power_compose(translate_field(ubar, np.array([0.4, -0.3, 0.2, 0.1, 0.5, -0.2, 0.3])), 2.5)
    assert quadrature._MC_CHUNK not in (1024, 3000)
    reference = _block_weights(u, 10_000, quadrature._MC_CHUNK, 5)
    assert _block_weights(u, 10_000, chunk, 5).tobytes() == reference.tobytes()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        default = integrate_mc(u, 10_000, seed=5)
        monkeypatch.setattr(quadrature, "_MC_CHUNK", chunk)
        blocked = integrate_mc(u, 10_000, seed=5)
    np.testing.assert_allclose(blocked.value, default.value, rtol=1e-14)
    np.testing.assert_allclose(blocked.stderr, default.stderr, rtol=1e-13)


def test_mc_points_lie_at_their_radii():
    r, rho, pts = quadrature._mc_points(np.random.default_rng(0), 100_000)
    np.testing.assert_allclose(np.linalg.norm(pts[:, :4], axis=1), r, rtol=1e-15)
    np.testing.assert_allclose(np.linalg.norm(pts[:, 4:], axis=1), rho, rtol=1e-15)


def test_mc_proposal_has_the_folded_t_radii_and_uniform_directions():
    # the folded t(2) and t(1) distribution functions are 2 F - 1; a
    # coordinate of a uniform point of S^3 has the semicircle density
    # (2/pi) sqrt(1 - x^2), one of S^2 is uniform on [-1, 1]
    r, rho, pts = quadrature._mc_points(np.random.default_rng(0), 20_000)
    readings = {
        "r": stats.kstest(r, lambda x: 2.0 * stats.t.cdf(x, 2) - 1.0),
        "rho": stats.kstest(rho, lambda x: 2.0 * stats.t.cdf(x, 1) - 1.0),
    }
    for j in range(4):
        readings[f"q{j}"] = stats.kstest(pts[:, j] / r, stats.semicircular.cdf)
    for j in range(3):
        readings[f"w{j}"] = stats.kstest(pts[:, 4 + j] / rho, stats.uniform(-1.0, 2.0).cdf)
    assert {name: ks.pvalue for name, ks in readings.items() if not ks.pvalue > 1e-3} == {}


def test_mc_mass_reading_is_pinned(ubar):
    # the best-constant report's reading: a change to the draws or the
    # order in which a row of uniforms is read moves it by far more than
    # rounding.  The stderr keeps a tolerance: the block size moves it by
    # an ulp, through the order of its sums.
    mc = integrate_mc(power_compose(ubar, 2.5, tag="ubar^2.5"), 200_000, seed=0)
    assert mc.value == 8524571.647174142
    np.testing.assert_allclose(mc.stderr, 30950.806259077286, rtol=1e-13)


def test_mc_reading_does_not_depend_on_the_blas_thread_count():
    # the same readings in fresh interpreters with one and two BLAS threads
    # (OpenBLAS reads the variable at load), compared bit for bit: the
    # best-constant seed 0, and seeds 3 and 4, whose stderr a dot split
    # across two threads moves by an ulp or two
    src = str(Path(qheis.__file__).resolve().parents[1])
    code = (
        "from qheis.extremals import ubar_field\n"
        "from qheis.quadrature import integrate_mc, power_compose\n"
        "u = power_compose(ubar_field(), 2.5)\n"
        "for seed in (0, 3, 4):\n"
        "    mc = integrate_mc(u, 200_000, seed=seed)\n"
        "    print(mc.value.hex(), mc.stderr.hex())"
    )
    readings = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
        )
        readings.append(out.stdout.split())
    assert len(readings[0]) == 6 and readings[0] == readings[1]


def test_mc_zero_field():
    mc = integrate_mc(constant_field(0.0), 2000, seed=0)
    assert mc.value == 0.0 and mc.stderr == 0.0


@pytest.mark.parametrize("where", [0, 1999])
def test_mc_nan_weight_is_a_nan_stderr(where):
    # sample 0 sits in the half-sample statistics too, sample 1999 only in
    # the full ones; max(0.0, nan) would have read either as stderr 0.0
    def jets(pts, order=2):
        value = np.ones(len(pts))
        value[where] = math.nan
        return (value,)

    field = ScalarField(tag="one-nan-sample", jets=jets, decay=(0.0, 0.0))
    mc = integrate_mc(field, 2000, seed=0)
    assert math.isnan(mc.value) and math.isnan(mc.stderr)


def test_mc_minimum_sample_size(ubar):
    with pytest.raises(ValueError):
        integrate_mc(ubar, 999)


# nan < 1000 is False, so a bare comparison would let NaN through
@pytest.mark.parametrize("bad", [math.nan, 1000.5, 2000.0, "2000", None])
def test_mc_rejects_a_non_integer_sample_count(ubar, bad):
    with pytest.raises(ValueError, match="samples"):
        integrate_mc(ubar, bad)


def test_mc_takes_a_numpy_integer_sample_count(ubar):
    mass = power_compose(ubar, 2.5, tag="mass")
    mc = integrate_mc(mass, np.int64(1000), seed=0)
    assert mc.samples == 1000 and type(mc.samples) is int
    assert mc == integrate_mc(mass, 1000, seed=0)


# seed=None drew from OS entropy and recorded None, so the estimate could not
# be reproduced; True passed as 1 and 1.5 leaked numpy's TypeError
@pytest.mark.parametrize("bad", [None, True, 1.5, -1, "0"])
def test_mc_refuses_a_seed_that_is_not_a_whole_number(ubar, bad):
    with pytest.raises(ValueError, match="seed"):
        integrate_mc(ubar, 1000, seed=bad)


def test_mc_records_a_numpy_integer_seed_as_an_int(ubar):
    mass = power_compose(ubar, 2.5, tag="mass")
    mc = integrate_mc(mass, 1000, seed=np.int64(3))
    assert mc.seed == 3 and type(mc.seed) is int
    assert mc == integrate_mc(mass, 1000, seed=3)


@pytest.mark.parametrize(
    "bad",
    [{"seed": True}, {"seed": -1}, {"seed": 1.5}, {"mc_samples": 999}],
    ids=["seed=True", "seed=-1", "seed=1.5", "mc_samples=999"],
)
def test_best_constant_report_checks_its_sample_before_any_quadrature(monkeypatch, bad):
    def unreached(*args, **kwargs):
        raise AssertionError("the quadrature ran")

    monkeypatch.setattr(quadrature, "integrate_biradial", unreached)
    monkeypatch.setattr(quadrature, "_refine", unreached)
    with pytest.raises(ValueError, match="seed|samples"):
        best_constant_report(**{"mc_samples": 1000, **bad})


def _levels_evaluated(monkeypatch) -> list:
    levels = []
    rule = quadrature.biradial_rule

    def counted(level, n_nodes=quadrature._N_NODES):
        levels.append(level)
        return rule(level, n_nodes)

    monkeypatch.setattr(quadrature, "biradial_rule", counted)
    return levels


def test_a_negative_field_fails_at_the_first_level(ubar, monkeypatch):
    # u^{5/2} of a negative u is no number: a DomainError at level 1, not
    # NaN levels up to 7 that end in AccuracyError
    levels = _levels_evaluated(monkeypatch)
    negative = power_compose(ubar, 1.0, -1.0, tag="negative")
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # and no "invalid value in power"
        with pytest.raises(DomainError, match=r"\(negative\)\^2.5"):
            fs_quotient(negative)
        assert levels == [1]
        del levels[:]
        with pytest.raises(DomainError, match=r"\(negative\)\^2.5"):
            integrate_field(negative, 2.5)
        assert levels == [1]


def test_a_nan_node_fails_a_real_power_at_the_first_level(ubar, monkeypatch):
    def jets(pts, order=2):
        out = ubar.jets(pts, order)
        value = out[0].copy()
        value[0] = math.nan
        return (value,) + out[1:]

    levels = _levels_evaluated(monkeypatch)
    with pytest.raises(DomainError, match="at every node"):
        integrate_field(dataclasses.replace(ubar, jets=jets, tag="holed"), 2.5)
    assert levels == [1]


def test_integer_powers_take_a_signed_field(ubar):
    negative = power_compose(ubar, 1.0, -1.0, tag="negative")
    r, rho = np.array([0.0, 0.5, 2.0]), np.array([0.0, 0.1, 3.0])
    np.testing.assert_array_equal(
        quadrature.reduced_integrand(negative).fn(r, rho),
        -quadrature.reduced_integrand(ubar).fn(r, rho),
    )
    assert integrate_field(negative, 2.0) == integrate_field(ubar, 2.0)


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


def _recorded(u, calls):
    """u with every jet evaluation recorded as (order, points).

    Recorded at `jets`, which both `jet_batch` and a value-only call reach.
    """
    def jets(pts, order=2):
        calls.append((order, len(pts)))
        return u.jets(pts, order)

    return dataclasses.replace(u, jets=jets)


@pytest.mark.parametrize(
    "motion, tol, levels",
    [
        ("none", 1e-9, (3, 3)),
        ("translate", 1e-9, (3, 3)),
        ("dilate", 1e-9, (3, 3)),
        ("none", 1e-11, (4, 3)),
    ],
)
def test_quotient_rows_are_the_single_integrals_from_one_pass(ubar, motion, tol, levels):
    u = {
        "none": ubar,
        "translate": translate_field(ubar, np.array([0.9, 0.1, -0.5, 0.3, -0.2, 0.8, 0.4])),
        "dilate": dilate_field(ubar, 1.7),
    }[motion]
    calls = []
    rep = fs_quotient(_recorded(u, calls), tol=tol)
    num = integrate_biradial(quadrature._energy_integrand(u), tol=tol)
    mass = integrate_biradial(quadrature.reduced_integrand(u, 2.5), tol=tol)
    assert rep.numerator_result.table == num.table
    assert rep.mass_result.table == mass.table
    assert (rep.numerator, rep.mass) == (num.value, mass.value)
    assert (num.table[-1][0], mass.table[-1][0]) == levels
    # the energy audit's six probe points, then one order-1 pass per level
    # up to the later row's last; no value-only pass
    nodes = [row[3] for row in max(num.table, mass.table, key=len)]
    assert calls == [(1, 6)] + [(1, n) for n in nodes]


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


def test_energy_audit_builds_its_probe_once(ubar, monkeypatch):
    # the six probe points are the two base points and their images under two
    # rotations drawn from seed 0, bitwise, and no later audit draws them again
    rng = np.random.default_rng(0)
    base = np.array([[0.7, 0.3, -0.4, 0.2, 0.5, -0.3, 0.6],
                     [1.4, -0.2, 0.8, -0.5, -0.9, 0.4, 1.1]])
    turns = [spin_rotation_map(*(v / np.linalg.norm(v) for v in rng.standard_normal((2, 4))))
             for _ in range(2)]
    probe = quadrature._energy_probe()
    assert probe.tobytes() == np.concatenate([base] + [base @ k.linear.T for k in turns]).tobytes()
    with pytest.raises(ValueError):
        probe[0, 0] = 1.0

    def forbidden(*args):
        raise AssertionError("the audit built a rotation again")

    monkeypatch.setattr(quadrature, "spin_rotation_map", forbidden)
    _energy_biradial_audit(translate_field(ubar, np.full(7, 0.2)))
    assert quadrature._energy_probe() is probe


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


def _spin_rotation_loop(a, b):
    """The column-by-column form: image of each basis quaternion in turn."""
    lin = np.zeros((7, 7))
    eye4 = np.eye(4)
    for j in range(4):
        lin[:4, j] = quat_mul(quat_mul(a, eye4[j]), quat_conj(b))
    for s in range(3):
        lin[4:7, 4 + s] = quat_mul(quat_mul(a, eye4[1 + s]), quat_conj(a))[1:4]
    return lin


@pytest.mark.parametrize(
    "a, b",
    [
        ([2.0, 0.0, 0.0, 0.0], [1.0, 0.0, 0.0, 0.0]),
        ([1.0, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, 0.0]),
        ([1.0 + 1e-11, 0.0, 0.0, 0.0], [1.0, 0.0, 0.0, 0.0]),
        ([math.nan, 0.0, 0.0, 0.0], [1.0, 0.0, 0.0, 0.0]),
        ([1.0, 0.0, 0.0, 0.0], [math.inf, 0.0, 0.0, 0.0]),
    ],
)
def test_spin_rotation_map_refuses_non_unit_quaternions(a, b):
    # [2, 0, 0, 0] used to give a map of determinant 1024
    with pytest.raises(DomainError, match="unit quaternions"):
        spin_rotation_map(a, b)


def test_spin_rotation_map_matches_the_loop_form():
    rng = np.random.default_rng(8)
    for _ in range(200):
        a, b = rng.standard_normal((2, 4))
        a, b = a / np.linalg.norm(a), b / np.linalg.norm(b)
        got = spin_rotation_map(a, b).linear
        assert got.tobytes() == _spin_rotation_loop(a, b).tobytes()


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
    moved_back = quadrature._detransformed(target, result.params.nu, result.params.center)
    np.testing.assert_allclose(fs_quotient(moved_back).quotient, QUOTIENT_REF, rtol=1e-8)


def test_minimize_takes_no_certificate_quotient(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("the search integrated a certificate-route quotient")

    monkeypatch.setattr(quadrature, "fs_quotient", forbidden)
    g0 = np.array([0.2, 0.1, -0.3, 0.1, -0.2, 0.3, 0.1])
    target = translate_field(dilate_field(ubar_field(), math.sqrt(0.8)), g0)
    result = minimize_quotient(FamilyParams(nu=0.9, center=g0 - 0.05), target, seed=0)
    assert result.converged
    assert np.max(np.abs(np.asarray(result.params.center) - g0)) <= 1e-3


def test_profile_rule_is_built_once_and_read_only():
    rule = quadrature._profile_rule(*quadrature._PROFILE_RULE, 0)
    assert quadrature._profile_rule(3, 12, 3, 0) is rule
    for name in ("r", "rho", "w", "points", "dirs"):
        with pytest.raises(ValueError):
            getattr(rule, name)[0] = 1.0
    other = quadrature._profile_rule(3, 12, 3, 1)
    assert other is not rule
    assert not np.array_equal(other.points, rule.points)


# nothing iterates after the peak search: any maxiter at all is an unknown
# keyword, refused before the target is evaluated
@pytest.mark.parametrize("bad", [-1, -5, 1.0, 2.5, math.nan, "3", True, False])
def test_minimize_rejects_a_bad_maxiter(ubar, bad):
    with pytest.raises(TypeError, match="maxiter"):
        minimize_quotient(FamilyParams(), _unevaluable_field(ubar), maxiter=bad)


@pytest.mark.parametrize("bad", [-1, 0.0, [1, 2], None, True, False])
def test_minimize_rejects_a_bad_seed(ubar, bad):
    with pytest.raises(ValueError, match="seed"):
        minimize_quotient(FamilyParams(), ubar, seed=bad)


def test_minimize_from_the_truth(ubar):
    g0 = np.array([-0.1, 0.2, 0.0, 0.1, -0.3, 0.2, 0.1])
    target = translate_field(ubar, g0)
    result = minimize_quotient(FamilyParams(center=g0), target, seed=0)
    np.testing.assert_allclose(result.params.nu, 1.0, rtol=1e-12)
    assert np.max(np.abs(np.asarray(result.params.center) - g0)) <= 1e-6


def test_minimize_says_when_its_peak_seed_failed(ubar):
    # kelvin(ubar) is ubar, yet its Kelvin image has no value at the origin,
    # where the peak search starts: the kept nu = 2 must not read as converged
    result = minimize_quotient(FamilyParams(nu=2.0), kelvin(ubar), seed=0)
    assert result.params.nu == 2.0
    assert result.converged is False
    assert result.message == "peak seed failed, nu kept at 2; defect nan"
    # the one jet call of the refused start, and no defect without a seed
    assert result.nfev == 1 and math.isnan(result.defect)
    np.testing.assert_array_equal(result.params.center, np.zeros(7))


def test_a_failed_peak_seed_runs_no_descent(ubar):
    # from the default start the peak search of this far bubble gives no
    # seed: the result is the peak search's last point, unconverged with a
    # NaN defect, and nfev counts the peak search's jet calls
    target = translate_field(ubar, np.array([12.0, -3.0, 0.0, 1.0, 0.0, 20.0, 0.0]))
    peak, _, _, calls, stopped = quadrature._newton_peak(target, np.zeros(7))
    assert stopped is False
    result = minimize_quotient(FamilyParams(), target, seed=0)
    assert result.converged is False and result.params.nu == 1.0
    assert result.message == "peak seed failed, nu kept at 1; defect nan"
    assert result.nfev == calls and math.isnan(result.defect)
    np.testing.assert_array_equal(result.params.center, group_inv(peak))


@pytest.mark.parametrize("nu, g0", [
    (80.0, np.zeros(7)),
    (0.01, np.zeros(7)),
    (1.0, np.array([6.0, 0, 0, 0, 0, 0, 0])),
    (1.0, np.array([0, 0, 0, 0, 5.5, 0, 0])),
], ids=["nu-80", "nu-0.01", "q-center-6", "omega-center-5.5"])
def test_minimize_recovers_any_concentration_and_center(ubar, nu, g0):
    # every nu > 0 and every center is a family member: from the default start
    # the search returns the measured motion, with no box to clip it, and
    # nothing moves it off the peak, so the centre is exact to rounding.  nfev
    # is the peak search's jet calls alone
    target = translate_field(dilate_field(ubar, math.sqrt(nu)), g0)
    *_, calls, stopped = quadrature._newton_peak(target, np.zeros(7))
    result = minimize_quotient(FamilyParams(), target, seed=0)
    assert result.converged, result.message
    assert stopped and result.nfev == calls
    np.testing.assert_allclose(result.params.nu, nu, rtol=1e-12)
    assert np.max(np.abs(np.asarray(result.params.center) - g0)) <= 1e-12


def test_a_peak_search_out_of_trials_gives_no_seed(ubar):
    # from the origin the peak search of this nu = 100 bubble uses all its
    # trials and stops 0.038 short of the peak, where the curvature reads
    # nu = 63.8; that nu must not be taken, nor the search read as converged
    g0 = np.array([0.2, -0.1, 0.3, 0.0, 0.1, 0.2, -0.3])
    target = translate_field(dilate_field(ubar, 10.0), g0)
    *_, calls, stopped = quadrature._newton_peak(target, np.zeros(7))
    assert stopped is False
    result = minimize_quotient(FamilyParams(), target, seed=0)
    assert result.params.nu == 1.0
    assert result.converged is False
    assert "peak seed failed, nu kept at 1;" in result.message
    assert result.nfev == calls == quadrature._PEAK_TRIALS + 1


def test_a_peak_trial_outside_the_domain_is_refused_with_more_damping():
    # the cap (1 - |p|^2 / 4)^{3/2} is defined on the ball of radius 2 only;
    # from near its rim the first two damped Newton steps leave the ball.
    # Each such trial is a jet call, refused as a DomainError, and the next
    # trial solves from the same point with ten times the damping
    ball = autodiff_lift(lambda *x: 1.0 - 0.25 * sum(xi * xi for xi in x), tag="ball")
    cap = power_compose(ball, 1.5, tag="cap")
    trials = []

    def jets(pts, order=2):
        trials.append(pts[0].copy())
        return cap.jets(pts, order)

    start = np.array([1.9, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0])
    peak, height, steps, calls, stopped = quadrature._newton_peak(ScalarField("cap", jets), start)
    assert stopped and height == 1.0 and np.max(np.abs(peak)) <= 1e-12
    assert calls == len(trials) == steps + 3
    for trial in trials[1:3]:
        with pytest.raises(DomainError, match="power of non-positive base in 'ball'"):
            cap.jet_batch(trial, 0)
    _, grad, hess = (part[0] for part in cap.jet_batch(start, 2))
    scale = float(np.max(np.abs(hess)))
    lam = 1e-3 * scale
    for trial in trials[1:4]:
        shift = max(float(np.linalg.eigvalsh(hess)[-1]), 0.0) + lam
        np.testing.assert_array_equal(trial, start + np.linalg.solve(shift * np.eye(7) - hess, grad))
        lam = max(10.0 * lam, 1e-12 * scale)
    assert cap(trials[3]) > cap(start)  # the third trial climbs and is taken


def _kelvin_image(ubar, draw):
    """kelvin(translate_field(ubar, g0)) for draw `draw` of U[-0.4, 0.4]^7 from seed 3,
    and the point sigma(inv(g0)) where its peak search starts."""
    g0 = np.random.default_rng(3).uniform(-0.4, 0.4, (draw + 1, 7))[draw]
    return kelvin(translate_field(ubar, g0)), sigma(group_inv(g0))


def test_a_peak_flat_to_rounding_stops_by_its_newton_step(ubar):
    # the ascent test refuses the last steps of this search, whose top is flat
    # to rounding, so its 30 trials run out at max |grad| = 5.1e-11; the
    # Hessian there is negative definite and the plain Newton step below
    # 1e-10 relative, which marks the peak
    target, start = _kelvin_image(ubar, 3)
    peak, height, steps, calls, stopped = quadrature._newton_peak(target, start)
    assert stopped and calls == quadrature._PEAK_TRIALS + 1
    value, grad, hess = (part[0] for part in target.jet_batch(peak, 2))
    assert height == value and np.max(np.abs(grad)) <= 1e-10
    assert np.linalg.eigvalsh(hess)[-1] < 0.0
    # so the search takes the seed and recovers the Kelvin image as a bubble
    result = minimize_quotient(FamilyParams(center=group_inv(start)), target, seed=0)
    assert result.converged, result.message
    assert abs(result.value / QUOTIENT_REF - 1.0) <= 1e-10


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_minimize_rejects_a_non_finite_start(ubar, bad):
    # as_point refuses the center: with no search box, nothing else would
    center = np.zeros(7)
    center[3] = bad
    with pytest.raises(DomainError):
        minimize_quotient(FamilyParams(center=center), ubar)


_G0 = np.array([0.3, -0.2, 0.1, 0.4, 0.2, -0.1, 0.3])
_NU = 1.44


@pytest.fixture(scope="module")
def planted():
    return translate_field(dilate_field(ubar_field(), math.sqrt(_NU)), _G0)


def _full_pullback_route(rule, target, nu, center):
    """Reference: the objective's value and defect from the full pullback's x-jets at order 1.

    The route before the slice directions were contracted in the base's
    coordinates: the whole x-gradient, then `@ dirs`.
    """
    m, n = rule.n_maps, rule.n_nodes
    jet = quadrature._detransformed(target, nu, center).jet_batch(rule.points, 1)
    val = jet[0].reshape(m, n)
    profile = val.mean(axis=0)
    p_r, p_rho = (jet[1].reshape(m, n, 7) @ np.swapaxes(rule.dirs, 1, 2)).mean(axis=0).T
    num = float(rule.w @ (p_r**2 + 4.0 * rule.r**2 * p_rho**2))
    denom = float(rule.w @ profile**2.5) ** 0.8
    return num / denom, float(rule.w @ val.var(axis=0)) / num


@pytest.fixture(scope="module")
def search_cases():
    """(target, nu, center) for the planted bubble and for a Kelvin image.

    The Kelvin image's pullback base is a `Hyper2` lift, not a hand kernel;
    it is read near its own peak seed.  Both centres are off by up to 0.05,
    so the rotation spread is not zero.
    """
    ubar = ubar_field()
    target, start = _kelvin_image(ubar, 0)
    nu, center, _, peaked = quadrature._peak_seed(target, 1.0, group_inv(start))
    assert peaked
    off = np.random.default_rng(6).uniform(-0.05, 0.05, (2, 7))
    planted = translate_field(dilate_field(ubar, math.sqrt(_NU)), _G0)
    return {"planted": (planted, _NU, _G0 + off[0]), "kelvin": (target, nu, center + off[1])}


@pytest.mark.parametrize("case", ["planted", "kelvin"])
def test_objective_matches_the_full_pullback_route(search_cases, case):
    # the objective contracts the slice directions with the folded motion's
    # linear part once per rotation; the full route pulls every point's
    # gradient back first.  They agree to rounding
    target, nu, center = search_cases[case]
    rule = quadrature._profile_rule(3, 12, 3, 0)
    value, defect = rule.objective(target, nu, center)
    ref_value, ref_defect = _full_pullback_route(rule, target, nu, center)
    assert abs(value / ref_value - 1.0) <= 1e-13
    assert abs(defect / ref_defect - 1.0) <= 1e-13


@pytest.mark.parametrize("case", ["planted", "kelvin"])
def test_objective_takes_one_jet_call_of_the_pullback_base(search_cases, case, monkeypatch):
    # one order-1 jet_batch call of the pullback's base per rotation, with
    # that rotation's rule points, read along its two slice directions: the
    # bench tracer's jets.points_jet counts these calls.  The Kelvin lift
    # composes through its inner field with the same points once more, inside
    # each call
    target, nu, center = search_cases[case]
    base = quadrature._detransformed(target, nu, center).jets.base
    calls = []
    jet_batch = ScalarField.jet_batch

    def counted(self, points, order=2, along=None):
        calls.append((self is base, len(points), order))
        return jet_batch(self, points, order, along)

    monkeypatch.setattr(ScalarField, "jet_batch", counted)
    rule = quadrature._profile_rule(3, 12, 3, 0)
    rule.objective(target, nu, center)
    expected = [(True, rule.n_nodes, 1)]
    if case == "kelvin":
        expected.append((False, rule.n_nodes, 1))
    assert calls == expected * rule.n_maps


def test_objective_is_nan_where_the_target_leaves_the_rule(planted):
    # a centre of 1e200 moves the target off every node, so its mass on the
    # rule underflows to zero: the quotient is undefined, which must come back
    # as a NaN value and defect, which fail the certificate, not as a
    # ZeroDivisionError
    rule = quadrature._profile_rule(3, 12, 3, 0)
    far = np.full(7, 1e200)
    with np.errstate(all="ignore"):
        value, defect = rule.objective(planted, _NU, far)
    assert math.isnan(value) and math.isnan(defect)
    # a constant keeps its mass but has no energy to divide the spread by
    value, defect = rule.objective(constant_field(1.0), _NU, _G0)
    assert value == 0.0 and math.isnan(defect)


def test_objective_maps_the_rule_points_through_one_affine_map(planted, monkeypatch):
    # the candidate motion folds into the target's own pullback, so each
    # rotation's points take one affine map, not the motion's and then the
    # target's: one map object, and the rotations cover the rule once
    rule = quadrature._profile_rule(3, 12, 3, 0)
    mapped = []
    call = AffineMap.__call__

    def counted(self, points):
        mapped.append((self, points.copy()))
        return call(self, points)

    monkeypatch.setattr(AffineMap, "__call__", counted)
    rule.objective(planted, _NU, _G0 + 0.01)
    assert len(mapped) == rule.n_maps
    assert all(amap is mapped[0][0] for amap, _ in mapped)
    covered = np.concatenate([points for _, points in mapped])
    assert covered.tobytes() == rule.points.tobytes()


def test_objective_holds_one_rotation_at_a_time(planted):
    # the pass writes each rotation's jets into preallocated planes, so its
    # traced peak stays within 1.5 times the rule's points, well below the
    # one-call pass over every rotation (about 2.7 times)
    rule = quadrature._profile_rule(3, 12, 3, 0)
    tracemalloc.start()
    try:
        rule.objective(planted, _NU, _G0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * rule.points.nbytes


def _displaced_seed(monkeypatch):
    """Make the peak seed return the planted center + 0.1 at the true nu."""

    def seed(target, nu0, center0):
        return _NU, _G0 + 0.1, 0, True

    monkeypatch.setattr(quadrature, "_peak_seed", seed)


@pytest.fixture
def displaced(planted, monkeypatch):
    # nothing polishes a seed that is off: the one pass only certifies it
    _displaced_seed(monkeypatch)
    return minimize_quotient(FamilyParams(nu=_NU, center=_G0), planted, seed=0)


def test_a_displaced_seed_reads_unconverged_with_its_defect(displaced):
    assert displaced.converged is False
    assert displaced.message == f"defect {displaced.defect:.2e} not <= 1e-12 at the peak seed"
    assert float(displaced.message.split()[1]) > quadrature._DEFECT_TOL


def test_a_displaced_seed_comes_back_as_seeded(displaced):
    assert np.asarray(displaced.params.center).tobytes() == (_G0 + 0.1).tobytes()
    assert displaced.params.nu == _NU


def test_a_displaced_seed_counts_only_its_peak_search_calls(displaced):
    assert displaced.nfev == 0  # the stubbed peak search made no jet calls


@pytest.mark.parametrize("nu", [0.01, 1.44, 100.0])
def test_the_defect_sees_a_centre_off_by_a_hundred_thousandth_of_a_width(nu):
    # at the planted motion the defect is rounding; a centre moved by 1e-5
    # bubble widths (nu^{-1/2} horizontally, nu^{-1} vertically) along one
    # coordinate of either kind reads above _DEFECT_TOL
    target = translate_field(dilate_field(ubar_field(), math.sqrt(nu)), _G0)
    rule = quadrature._profile_rule(*quadrature._PROFILE_RULE, 0)
    assert rule.objective(target, nu, _G0)[1] <= 1e-20
    for axis, width in ((1, nu**-0.5), (5, 1.0 / nu)):
        center = _G0.copy()
        center[axis] += 1e-5 * width
        assert rule.objective(target, nu, center)[1] > quadrature._DEFECT_TOL


def test_newton_peak_recovers_planted_centers(ubar):
    rng = np.random.default_rng(4)
    for _ in range(20):
        g0 = rng.uniform(-0.5, 0.5, 7)
        nu = float(np.exp(rng.uniform(-0.5, 0.5)))
        target = translate_field(dilate_field(ubar, math.sqrt(nu)), g0)
        start = -(g0 + rng.uniform(-0.12, 0.12, 7))  # the peak sits at inv(g0)
        peak, height, steps, calls, stopped = quadrature._newton_peak(target, start)
        assert stopped  # by the step test, not for want of trials
        assert np.max(np.abs(-peak - g0)) <= 1e-12
        assert steps <= 15 and calls >= steps + 1
        np.testing.assert_allclose(height, 2.0**10 * nu**2, rtol=1e-14)


def test_unit_bubble_peak_ratio_is_minus_32(ubar):
    # the peak seed reads nu off sub_laplacian/value against this constant
    origin = np.zeros(7)
    assert sub_laplacian(frame_jets(ubar, origin))[0] / ubar(origin) == -32.0


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
    assert [line.name for line in record.ratios if line.informational] == list(flagged)
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


def test_best_constant_record_stores_each_result_once(record):
    # the closed forms are class constants and the integrals read the results
    assert [f.name for f in dataclasses.fields(BestConstantReport)] == [
        "gauge", "quotient_report", "mass_mc", "ratios"
    ]
    assert [f.name for f in dataclasses.fields(quadrature.RatioLine)] == [
        "name", "ratio", "informational"
    ]
    assert record.gauge_integral == record.gauge.value
    assert record.mass_closed_form == 2.0**25 * record.gauge_closed_form


def test_best_constant_reduces_the_mass_integrand_once(monkeypatch):
    reduce = quadrature.reduced_integrand
    powers = []

    def counted(u, power=1.0):
        powers.append(power)
        return reduce(u, power)

    monkeypatch.setattr(quadrature, "reduced_integrand", counted)
    rec = best_constant_report(mc_samples=1000)
    assert powers.count(2.5) == 1
    assert rec.mass_integral == rec.quotient_report.mass


# ---------------------------------------------------------------------------
# Import cost.


def test_no_module_imports_scipy():
    # sees deferred imports inside functions too, which the import probe cannot
    package = Path(qheis.__file__).resolve().parent
    found = []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            found += [f"{path.name}:{node.lineno}" for n in names if n.split(".")[0] == "scipy"]
    assert found == []


def test_audit_times_and_builds_report_lines_only_in_its_recorder():
    # one recorder reads the clock and constructs Report, so every line is
    # timed, overridden and graded by the same code
    path = Path(audit.__file__)
    tree = ast.parse(path.read_text(), filename=str(path))
    recorder = next(n for n in tree.body if isinstance(n, ast.ClassDef) and n.name == "_Checks")

    def kind(node):
        if isinstance(node, ast.Attribute) and node.attr == "perf_counter":
            return "clock"
        if isinstance(node, ast.Name) and node.id == "perf_counter":
            return "clock"
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "Report":
            return "report"
        return None

    inside = {kind(node) for node in ast.walk(recorder)}
    stray = [
        f"{kind(node)}:{node.lineno}"
        for node in ast.walk(tree)
        if kind(node) and not recorder.lineno <= node.lineno <= recorder.end_lineno
    ]
    assert {"clock", "report"} <= inside and stray == []


def test_import_loads_no_scipy():
    src = str(Path(qheis.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = "import sys, qheis; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"
