"""The coupling matrix, the report contract, and the named suites."""

import dataclasses
import inspect
import json
import math
import time
import typing
from collections import Counter

import numpy as np
import pytest

from qheis import audit, conformal, extremals, frame, jets, quadrature, quaternions
from qheis.audit import (
    QMATRIX,
    Q_SPECTRUM,
    Report,
    SuiteConfig,
    best_constant_reports,
    emit,
    q_spectrum,
    quadratic_form_audit,
    quotient_min_reports,
    reports_equal,
    run_suite,
    suite_names,
)
from qheis.cli import main
from qheis.extremals import v_field
from qheis.jets import ScalarField
from qheis.quadrature import BiRadialIntegrand

# ---------------------------------------------------------------------------
# The matrix itself.


def test_qmatrix_shape_and_symmetry():
    assert QMATRIX.shape == (6, 6)
    np.testing.assert_array_equal(QMATRIX, QMATRIX.T)
    # every numerator over the common denominator 3 is an integer
    np.testing.assert_array_equal(3.0 * QMATRIX, np.round(3.0 * QMATRIX))


def test_spectrum_closed_form():
    s2 = math.sqrt(2.0)
    expected = sorted([0.0, 0.0, 10.0, 10.0, 2.0 * (2.0 - s2), 2.0 * (2.0 + s2)])
    np.testing.assert_allclose(Q_SPECTRUM, expected, atol=0.0)
    np.testing.assert_allclose(q_spectrum(), expected, atol=1e-12)


def test_matrix_is_positive_semidefinite():
    eig = q_spectrum()
    assert eig[0] >= -1e-12
    assert np.sum(np.abs(eig) < 1e-10) == 2  # two-dimensional kernel


def test_quadratic_form_probes():
    # hand-computed values: a lone D-block costs 2, a lone A-block 22/3,
    # and equal D and A blocks add the 2 * 10/3 coupling
    v = np.zeros((6, 4))
    v[0, 0] = 1.0
    assert float(np.einsum("ij,ia,ja->", QMATRIX, v, v)) == 2.0
    v = np.zeros((6, 4))
    v[3, 0] = 1.0
    np.testing.assert_allclose(np.einsum("ij,ia,ja->", QMATRIX, v, v), 22.0 / 3.0, rtol=1e-15)
    v = np.zeros((6, 4))
    v[0, 0] = v[3, 0] = 1.0
    np.testing.assert_allclose(np.einsum("ij,ia,ja->", QMATRIX, v, v), 16.0, rtol=1e-15)


def test_quadratic_form_audit_random(rng):
    worst = max(quadratic_form_audit(rng.standard_normal((6, 4))) for _ in range(100))
    assert worst <= 1e-12


def test_quadratic_form_audit_rejects_bad_shape():
    for shape in [(4, 6), (3, 4, 6), (6, 4, 1), (2, 3, 6, 4), (6,)]:
        with pytest.raises(ValueError):
            quadratic_form_audit(np.zeros(shape))


def test_quadratic_form_audit_batch_equals_per_sample_calls(rng):
    blocks = rng.standard_normal((500, 6, 4))
    per_sample = [quadratic_form_audit(v) for v in blocks]
    assert quadratic_form_audit(blocks) == max(per_sample)


def test_quadratic_form_audit_propagates_nan(rng):
    blocks = rng.standard_normal((50, 6, 4))
    blocks[17, 4, 2] = math.nan
    assert math.isnan(quadratic_form_audit(blocks))


def test_perturbed_qmatrix_fails_the_quadratic_form(monkeypatch):
    wrong = QMATRIX.copy()
    wrong[0, 3] = wrong[3, 0] = QMATRIX[0, 3] + 1e-6
    monkeypatch.setattr(audit, "QMATRIX", wrong)
    verdicts = {r.check: r.passed for r in run_suite("qmatrix")}
    assert verdicts["q-quadratic-form"] is False


def test_sign_flip_in_the_cayley_kernel_fails_the_roundtrip(monkeypatch):
    forward = audit.cayley_forward_batch

    def flipped(q, p):
        out = forward(q, p)
        out[:, 5] *= -1.0
        return out

    monkeypatch.setattr(audit, "cayley_forward_batch", flipped)
    verdicts = {r.check: r.passed for r in run_suite("cayley", SuiteConfig(samples=200))}
    assert verdicts["cayley-roundtrip"] is False


def _cli_verdicts(command, capsys) -> tuple[int, dict]:
    """Exit code and {check: pass} of one CLI suite run at its defaults."""
    code = main([command, "--format", "json"])
    doc = json.loads(capsys.readouterr().out)
    return code, {r["check"]: r["pass"] for r in doc["reports"]}


def _flip_vertical_hessian(monkeypatch):
    """Seed a sign flip on the (w, w) block of the family's hand Hessian.

    The one hand kernel is h, and ubar and v are its powers, so the flip
    reaches h_family, the family torsion's per-block member batches, ubar and
    v alike.
    """
    family_jets = extremals._family_jets

    def faulty(c, nu):
        jets = family_jets(c, nu)

        def flipped(pts, order=2):
            out = jets(pts, order)
            if order == 2:
                out[2][:, 4:7, 4:7] *= -1.0
            return out

        return flipped

    monkeypatch.setattr(extremals, "_family_jets", faulty)


def test_flipped_vertical_hessian_fails_the_conformal_suite(monkeypatch, capsys):
    _flip_vertical_hessian(monkeypatch)
    code, verdicts = _cli_verdicts("verify-conformal", capsys)
    assert verdicts["einstein-family-torsion"] is False
    assert verdicts["scalar-curvature-constant"] is False
    assert code == 1


def test_flipped_row_constant_fails_the_family_torsion(monkeypatch, capsys):
    # one sign of the constant 4x12 matrix that builds the frame rows'
    # w-columns B(q) for the order-2 blocks: (c, a, s) = (1, 0, 0)
    rows_k = frame._ROWS_K.copy()
    rows_k[1, 0] *= -1.0
    monkeypatch.setattr(frame, "_ROWS_K", rows_k)
    code, verdicts = _cli_verdicts("verify-conformal", capsys)
    assert verdicts["einstein-family-torsion"] is False
    assert code == 1


def test_fault_in_the_last_partial_block_fails_the_family_torsion(monkeypatch):
    # 150 members run as one full block and a 50-member tail, where a block
    # loop drops rows; the fault sits in the first point of member 149.
    config = SuiteConfig(samples=150)
    assert {r.check: r.passed for r in run_suite("conformal", config)}["einstein-family-torsion"]
    member = extremals._member
    target = 149 * 20
    handed = [0]  # rows handed to the per-block batches so far, in member order

    def faulty(c, nu, tag):
        field = member(c, nu, tag)
        if np.ndim(c) == 0:  # one member, not a block's batch
            return field
        first = handed[0]
        handed[0] += len(c)

        def jets(pts, order=2):
            out = field.jets(pts, order)
            if order == 2 and first <= target < first + len(c):
                out[2][target - first, 4:7, 4:7] *= -1.0
            return out

        return dataclasses.replace(field, jets=jets)

    monkeypatch.setattr(extremals, "_member", faulty)
    reports = {r.check: r for r in run_suite("conformal", config)}
    assert handed[0] == 150 * 20
    assert math.isfinite(reports["einstein-family-torsion"].max_residual)
    assert not reports["einstein-family-torsion"].passed


def test_flipped_twist_in_left_translation_fails_frame_left_invariance(monkeypatch, capsys):
    # one sign of the translation's twist block: entry [5, 1] (row y, column
    # x1), which is -2 z1 of g0, so nonzero for a drawn g0
    translation = extremals.left_translation_map
    reports = {r.check: r for r in run_suite("frames", SuiteConfig(samples=20))}
    assert reports["frame-left-invariance"].passed

    def flipped(g0):
        amap = translation(g0)
        linear = amap.linear.copy()
        linear[5, 1] *= -1.0
        return jets.AffineMap(linear=linear, offset=amap.offset)

    monkeypatch.setattr(extremals, "left_translation_map", flipped)
    reports = {r.check: r for r in run_suite("frames", SuiteConfig(samples=20))}
    assert {c for c, r in reports.items() if not r.passed} == {"frame-left-invariance"}
    assert main(["verify-frames", "--samples", "20"]) == 1
    assert "[FAIL] frame-left-invariance" in capsys.readouterr().out


def test_flipped_vertical_hessian_fails_the_extremal_suite(monkeypatch, capsys):
    _flip_vertical_hessian(monkeypatch)
    code, verdicts = _cli_verdicts("verify-extremal", capsys)
    assert verdicts["yamabe-pde"] is False
    assert verdicts["yamabe-pde-moved"] is False
    assert code == 1


def test_reflection_in_sigma_fails_the_involution(monkeypatch, capsys):
    components = extremals._sigma_components

    def reflected(*coords):
        image, denom = components(*coords)
        return image[:6] + (-image[6],), denom

    monkeypatch.setattr(extremals, "_sigma_components", reflected)
    code, verdicts = _cli_verdicts("verify-cayley", capsys)
    assert verdicts["sigma-involution"] is False
    assert code == 1


_DIVERGENCE_CHECKS = ("divergence-identity-routes", "divergence-closed-form")


def _flip_one_twist(monkeypatch):
    """Seed a sign flip into one twist-averaged Hessian term, twist[1]."""
    ingredients = conformal._vector_ingredients

    def flipped(fj):
        dh, omdh, twist, mdh = ingredients(fj)
        return dh, omdh, [twist[0], -twist[1], twist[2]], mdh

    monkeypatch.setattr(conformal, "_vector_ingredients", flipped)


def _inflate_d3(monkeypatch):
    """Seed a wrong amplitude, 1 + 1e-3, into the covector D_3."""
    vector_d = conformal.vector_D

    def inflated(fj):
        d = vector_d(fj)
        d[2] *= 1.001
        return d

    monkeypatch.setattr(conformal, "vector_D", inflated)


@pytest.mark.parametrize(
    "fault, failing",
    [
        (_flip_one_twist, set(_DIVERGENCE_CHECKS)),
        (_inflate_d3, {"divergence-closed-form"}),
    ],
)
def test_seeded_fault_fails_the_divergence_checks(fault, failing, monkeypatch, capsys):
    fault(monkeypatch)
    reports = run_suite("conformal")
    assert {r.check for r in reports if not r.passed} == failing
    code, verdicts = _cli_verdicts("verify-conformal", capsys)
    assert code == 1
    assert {check for check, ok in verdicts.items() if not ok} == failing


def test_nan_sphere_term_fails_both_divergence_checks(monkeypatch, capsys):
    sphere_term = conformal._sphere_term

    def poisoned(fj):
        out = sphere_term(fj)
        out[0] = math.nan
        return out

    monkeypatch.setattr(conformal, "_sphere_term", poisoned)
    reports = {r.check: r for r in run_suite("conformal", SuiteConfig(samples=4))}
    for check in _DIVERGENCE_CHECKS:
        assert math.isnan(reports[check].max_residual)
        assert not reports[check].passed
    code, verdicts = _cli_verdicts("verify-conformal", capsys)
    assert code == 1
    assert not any(verdicts[check] for check in _DIVERGENCE_CHECKS)


def test_conformal_suite_reaches_every_public_name(monkeypatch):
    calls = Counter()
    for name in conformal.__all__:
        original = getattr(conformal, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(conformal, name, counted)
    reports = run_suite("conformal", SuiteConfig(samples=2))
    assert all(r.passed for r in reports)
    assert {name for name in conformal.__all__ if not calls[name]} == set()
    for gone in ("vector_A", "vector_A_aggregate", "vector_F", "scalar_f",
                 "sphere_scal_term", "DParts", "_pack", "_sq", "_sym_from_jet"):
        assert not hasattr(conformal, gone)


_FRAME_JET_READERS = [
    getattr(conformal, name) for name in conformal.__all__ if name != "casimir_project"
] + [frame.sub_laplacian, extremals.pde_residual]


@pytest.mark.parametrize("formula", _FRAME_JET_READERS, ids=lambda f: f.__name__)
def test_frame_derivative_formulas_take_one_frame_jet(formula):
    # one calling convention: a (field, points) entry point would run its
    # own frame pass beside the caller's
    (param,) = inspect.signature(formula).parameters.values()
    assert typing.get_type_hints(formula)[param.name] is frame.FrameJet


# Settings that no caller outside the tests turned, now constants or gone:
# (function, parameter that must not come back).  max_level and maxiter are
# guarded by the bad-max_level and bad-maxiter tests of test_quadrature.
_REMOVED_SETTINGS = [
    (quadrature.best_constant_report, "tol"),
    (SuiteConfig, "tol"),
    (Report, "passed"),
    (quadrature._energy_biradial_audit, "seed"),
    (extremals.translate_field, "tag"),
    (extremals.dilate_field, "tag"),
    (extremals.kelvin, "tag"),
    (jets.constant_field, "tag"),
    (jets.haar_jacobian_audit, "step"),
]


@pytest.mark.parametrize(
    "function, name", _REMOVED_SETTINGS, ids=lambda x: getattr(x, "__name__", x)
)
def test_removed_settings_stay_removed(function, name):
    params = inspect.signature(function).parameters
    assert name not in params
    assert all(p.kind is not p.VAR_KEYWORD for p in params.values())


def test_implicit_defaults_and_unreached_paths_are_gone():
    # integrate_field names its tolerance instead of forwarding **kwargs,
    # and the search target has no default standing in for ubar
    assert list(inspect.signature(quadrature.integrate_field).parameters) == ["u", "power", "tol"]
    target = inspect.signature(quadrature.minimize_quotient).parameters["target"]
    assert target.default is inspect.Parameter.empty
    for gone in ("exp", "log", "sqrt"):
        assert not hasattr(jets.Hyper2, gone)
    assert not hasattr(frame, "_BRACKET")


def test_hand_written_argument_rules_are_gone():
    # each argument rule lives in qheis.errors (see tests/test_errors.py)
    assert not hasattr(quadrature, "_tolerance")
    assert not hasattr(quaternions, "_dilation_factor")
    assert not hasattr(jets, "_jet_order")
    assert not hasattr(jets, "JET_ORDERS")


def test_conformal_suite_takes_one_frame_pass_per_field(monkeypatch):
    # the u-collapse and both divergence checks read one order-2 FrameJet of
    # each field on their 20 shared points; with samples=5 the torsion block
    # (100 points), the control (1) and the curvature (50) are the only others
    passes = Counter()
    frame_jets = frame.frame_jets

    def counted(f, p, order=2):
        fj = frame_jets(f, p, order)
        passes[f.tag, len(fj.value), order] += 1
        return fj

    for module in (frame, conformal, extremals):
        monkeypatch.setattr(module, "frame_jets", counted, raising=False)
    reports = {r.check: r for r in run_suite("conformal", SuiteConfig(samples=5))}
    assert reports["u-collapse"].samples == 6 * 20
    on_shared = {key: n for key, n in passes.items() if key[1] == 20}
    assert len(on_shared) == 6
    assert all(order == 2 and n == 1 for (_, _, order), n in on_shared.items())
    assert sum(passes.values()) == 6 + 3


def _flip_energy_density(monkeypatch):
    """Seed a sign flip into the horizontal energy density |grad_H u|^2."""
    density = quadrature._energy_density
    monkeypatch.setattr(quadrature, "_energy_density", lambda jet: -density(jet))


def _inflate_reduced_integrand(monkeypatch):
    """Seed a wrong amplitude, 1 + 1e-3, into every certified reduction."""
    reduce = quadrature.reduced_integrand

    def inflated(u, power=1.0):
        good = reduce(u, power)
        return BiRadialIntegrand(
            fn=lambda r, rho, values=None: 1.001 * good.fn(r, rho, values),
            decay=good.decay,
            tag=good.tag,
        )

    monkeypatch.setattr(quadrature, "reduced_integrand", inflated)


@pytest.mark.parametrize("fault", [_flip_energy_density, _inflate_reduced_integrand])
def test_seeded_fault_fails_the_quadrature_suite(fault, monkeypatch, capsys):
    fault(monkeypatch)
    reports = {r.check: r for r in run_suite("quadrature", SuiteConfig(samples=1000))}
    assert not reports["parts-identity"].passed
    assert reports["gaussian-closed-form"].passed  # the fault is local
    assert main(["all", "--samples", "1000", "--format", "json"]) == 1
    verdicts = {r["check"]: r["pass"] for r in json.loads(capsys.readouterr().out)["reports"]}
    assert verdicts["parts-identity"] is False


@pytest.mark.parametrize("poison", [math.nan, 0.0])
def test_degenerate_mass_samples_fail_the_mc_agreement(poison, monkeypatch, capsys):
    # one NaN sample makes the estimate and its stderr NaN; an all-zero
    # field has stderr 0 and no error estimate: both are a FAIL line, not
    # a ZeroDivisionError out of the CLI
    mc = quadrature.integrate_mc

    def poisoned(u, samples, seed=0):
        def jets(pts, order=2):
            out = u.jets(pts, order)
            value = out[0].copy()
            if math.isnan(poison):
                value[0] = poison
            else:
                value[:] = poison
            return (value,) + out[1:]

        return mc(dataclasses.replace(u, jets=jets), samples, seed)

    monkeypatch.setattr(quadrature, "integrate_mc", poisoned)
    reports = {r.check: r for r in run_suite("quadrature", SuiteConfig(samples=1000))}
    residual = reports["mass-mc-agreement"].max_residual
    assert math.isnan(residual) if math.isnan(poison) else residual == math.inf
    assert not reports["mass-mc-agreement"].passed
    assert reports["gaussian-closed-form"].passed  # the fault is local
    assert main(["all", "--samples", "1000"]) == 1
    assert "[FAIL] mass-mc-agreement" in capsys.readouterr().out


def test_quadrature_suite_grades_the_best_constant_record(monkeypatch):
    # the gauge integral, the Monte Carlo mass and ubar's quotient are
    # computed once, by best_constant_report, and graded from its record
    calls, records = Counter(), []
    record, mc, integrate = (
        quadrature.best_constant_report, quadrature.integrate_mc, quadrature.integrate_biradial
    )

    def recorded(*args, **kwargs):
        records.append(record(*args, **kwargs))
        return records[-1]

    def counted_mc(*args, **kwargs):
        calls["integrate_mc"] += 1
        return mc(*args, **kwargs)

    def counted_integrate(integrand, *args, **kwargs):
        calls[integrand.tag] += 1
        return integrate(integrand, *args, **kwargs)

    for module in (audit, quadrature):
        monkeypatch.setattr(module, "best_constant_report", recorded, raising=False)
        monkeypatch.setattr(module, "integrate_mc", counted_mc, raising=False)
        monkeypatch.setattr(module, "integrate_biradial", counted_integrate)
    reports = {r.check: r for r in run_suite("quadrature", SuiteConfig(samples=1000, seed=5))}
    assert calls == {"integrate_mc": 1, "gauge-kernel": 1, "gaussian": 1}
    (rec,) = records
    assert rec.mass_mc.samples == reports["mass-mc-agreement"].samples == 1000
    assert rec.mass_mc.seed == 5
    assert reports["gauge-closed-form"].samples == rec.gauge.table[-1][3]
    base = rec.quotient_report
    assert reports["parts-identity"].max_residual == abs(base.numerator / base.mass - 1.0)


def test_nan_hessian_fails_hessian_antisymmetry(monkeypatch, capsys):
    def nan_hessian_v():
        v = v_field()

        def jets(pts, order=2):
            out = v.jets(pts, order)
            return out[:2] + (np.full_like(out[2], math.nan),) if order == 2 else out

        return ScalarField(tag="v-nan-hessian", jets=jets, decay=v.decay)

    monkeypatch.setattr(audit, "v_field", nan_hessian_v)
    reports = {r.check: r for r in run_suite("frames", SuiteConfig(samples=20))}
    assert math.isnan(reports["hessian-antisymmetry"].max_residual)
    assert not reports["hessian-antisymmetry"].passed
    assert main(["verify-frames", "--samples", "20"]) == 1
    assert "[FAIL] hessian-antisymmetry" in capsys.readouterr().out


def test_flipped_complex_structure_fails_the_structure_constants_line(monkeypatch, capsys):
    i1, i2, i3 = frame.IMAT
    monkeypatch.setattr(frame, "IMAT", (i1, i2, -i3))
    reports = {r.check: r for r in run_suite("frames", SuiteConfig(samples=20))}
    assert reports["structure-constants"].max_residual == 2.0
    assert not reports["structure-constants"].passed
    assert reports["frame-commutators"].passed  # the fault is local
    assert main(["verify-frames", "--samples", "20"]) == 1
    assert "[FAIL] structure-constants" in capsys.readouterr().out


def test_pde_residual_check_evaluates_the_field_once(ubar, box_points):
    orders = []

    def jets(pts, order=2):
        orders.append(order)
        return ubar.jets(pts, order)

    counted = ScalarField(tag="counted-ubar", jets=jets, decay=ubar.decay)
    assert audit._relative_pde_residual(counted, box_points) <= 1e-9
    assert orders == [2]


def test_family_torsion_runs_in_blocks_over_the_whole_sample(monkeypatch):
    # 1,000 members in blocks of 100, plus the negative control: a per-member
    # loop would make 1,001 calls
    torsion = conformal.torsion_T0_deformed
    points = []

    def counted(fj):
        points.append(len(fj.value))
        return torsion(fj)

    monkeypatch.setattr(conformal, "torsion_T0_deformed", counted)
    reports = {r.check: r for r in run_suite("conformal", SuiteConfig(samples=1000))}
    assert reports["einstein-family-torsion"].passed
    assert len(points) <= 11
    assert sum(points) == 1000 * 20 + 1


@pytest.mark.parametrize("seed", [0, 5, 123456])
@pytest.mark.parametrize("npairs", [1, 2, 5, 7, 150, 1000])
def test_family_blocks_draw_the_stated_sample(seed, npairs):
    # 7 and 150 end on an odd count and a partial block; the even members,
    # counted across blocks, sit at the origin
    blocks = list(audit._family_blocks(np.random.default_rng(seed), npairs))
    assert [len(b[0]) for b in blocks] == [
        min(audit._FAMILY_BLOCK, npairs - start) for start in range(0, npairs, audit._FAMILY_BLOCK)
    ]
    c, nu, g0, pts = (np.concatenate(part) for part in zip(*blocks))
    for scale in (c, nu):
        assert scale.shape == (npairs,)
        assert np.all((0.1 <= scale) & (scale < 10.0))
    assert g0.shape == (npairs, 7)
    assert np.all(g0[0::2] == 0.0)
    assert np.all((-1.0 <= g0[1::2]) & (g0[1::2] < 1.0))
    assert [b[3].shape for b in blocks] == [(20 * len(b[0]), 7) for b in blocks]
    assert np.all((-2.0 <= pts) & (pts < 2.0))
    again = audit._family_blocks(np.random.default_rng(seed), npairs)
    for block, same in zip(blocks, again, strict=True):
        for got, want in zip(block, same):
            assert got.tobytes() == want.tobytes()


def test_conformal_sample_counts_are_the_points_evaluated(monkeypatch):
    # samples=2 leaves two family fields besides the quartic control, so
    # each check over the field list evaluates 3 x 20 points, not 6 x 20
    evaluated = Counter()

    def count_points(name):
        fn = getattr(conformal, name)

        def counted(fj):
            evaluated[name] += len(fj.value)
            return fn(fj)

        monkeypatch.setattr(conformal, name, counted)

    for name in ("U_deformed", "divergence_identity_residual", "divergence_total_closed_form"):
        count_points(name)
    reports = {r.check: r.samples for r in run_suite("conformal", SuiteConfig(samples=2))}
    assert evaluated == Counter(
        U_deformed=60, divergence_identity_residual=60, divergence_total_closed_form=60
    )
    assert reports["u-collapse"] == evaluated["U_deformed"]
    assert reports["divergence-identity-routes"] == evaluated["divergence_identity_residual"]
    assert reports["divergence-closed-form"] == evaluated["divergence_total_closed_form"]
    assert reports["einstein-family-torsion"] == 2 * 20


# ---------------------------------------------------------------------------
# The report contract.


def test_report_pass_field_is_enforced():
    # the verdict is derived from the residual and the tolerance, never
    # passed in, so it cannot contradict them; NaN fails
    def line(residual):
        return Report(
            check="x", samples=1, max_residual=residual, tolerance=1.0,
            provenance="", seconds=0.0,
        )

    assert not line(2.0).passed
    assert not line(math.nan).passed
    assert line(1.0).passed
    with pytest.raises(dataclasses.FrozenInstanceError):
        line(2.0).passed = True


def test_report_as_dict_key():
    r = Report(
        check="x", samples=1, max_residual=0.5, tolerance=1.0,
        provenance="p", seconds=0.25,
    )
    d = r.as_dict()
    assert d["pass"] is True and "passed" not in d
    assert d["check"] == "x"


def test_recorder_laps_share_time_and_spare_informational_lines(monkeypatch):
    ticks = iter([10.0, 11.5, 14.0])
    monkeypatch.setattr(audit.time, "perf_counter", lambda: next(ticks))
    checks = audit._Checks()
    checks.add(("a", 1, 2.0, 1.0, "computed"), ("b", 1, 2.0, 1e9, "informational"))
    checks.add(("c", 1, 0.0, 1.0, "computed"))
    # one lap per add, from construction on; the lines of one add share it
    assert [r.seconds for r in checks.reports] == [1.5, 1.5, 2.5]
    # every line keeps its own tolerance, the informational sentinel included
    assert [(r.tolerance, r.passed) for r in checks.reports] == [
        (1.0, False), (1e9, True), (1.0, True),
    ]


# ---------------------------------------------------------------------------
# Suites.


def test_suite_names():
    names = suite_names()
    assert names[-1] == "all"
    assert {"frames", "conformal", "extremal", "cayley", "quadrature", "qmatrix"} <= set(names)


def test_unknown_suite():
    with pytest.raises(ValueError, match="unknown suite"):
        run_suite("nonsense")


def test_qmatrix_suite_passes():
    reports = run_suite("qmatrix")
    assert len(reports) == 2
    assert all(r.passed for r in reports)


def test_suite_determinism():
    a = run_suite("frames", SuiteConfig(seed=42))
    b = run_suite("frames", SuiteConfig(seed=42))
    assert reports_equal(a, b)
    assert not reports_equal(a, run_suite("frames", SuiteConfig(seed=43)))


def test_reports_equal_takes_two_nan_residuals_as_equal():
    # a run that fails a line by NaN is as deterministic as one that passes:
    # two separately built NaNs are no identical objects, yet equal residuals
    a = [Report("x", 1, math.nan, 1.0, "p", 0.0)]
    b = [Report("x", 1, float("nan"), 1.0, "p", 2.0)]
    assert reports_equal(a, b)
    assert not reports_equal(a, [Report("x", 1, 0.5, 1.0, "p", 0.0)])
    assert not reports_equal([Report("x", 1, 0.5, 1.0, "p", 0.0)], a)


def test_reports_equal_tells_different_lengths_apart():
    # a run that drops or repeats a line is no rerun, though every line it
    # shares with the other compares equal
    a = [Report("x", 1, 0.5, 1.0, "p", 0.0)]
    for longer in (a + a, a + [Report("y", 1, 0.5, 1.0, "p", 0.0)]):
        assert not reports_equal(a, longer)
        assert not reports_equal(longer, a)
    assert not reports_equal(a, [])
    assert reports_equal([], [])


def test_reports_equal_tells_different_residuals_apart():
    a = [Report("x", 1, 0.5, 1.0, "p", 0.0)]
    assert reports_equal(a, [Report("x", 1, 0.5, 1.0, "p", 3.0)])  # seconds are ignored
    assert not reports_equal(a, [Report("x", 1, 0.25, 1.0, "p", 0.0)])
    assert not reports_equal(a, [Report("x", 1, -0.5, 1.0, "p", 0.0)])
    assert not reports_equal(a, [Report("x", 1, math.inf, 1.0, "p", 0.0)])


# the seed's integer rule: a bool or a string is no sample count either
@pytest.mark.parametrize("samples", [0, -3, 2.5, True, False, "5", math.nan])
def test_suite_config_rejects_bad_samples(samples):
    with pytest.raises(ValueError, match="samples must be an integer >= 1"):
        SuiteConfig(samples=samples)


@pytest.mark.parametrize("tol", [math.nan, -1.0, math.inf, "abc"])
def test_suite_config_rejects_bad_tol(tol):
    # there is no tolerance override: every tol, bad or not, is refused
    with pytest.raises(TypeError, match="tol"):
        SuiteConfig(tol=tol)


@pytest.mark.parametrize("seed", [-1, 1.5, "x", True, False, None, math.nan])
def test_suite_config_rejects_bad_seed(seed):
    with pytest.raises(ValueError, match="seed must be an integer >= 0"):
        SuiteConfig(seed=seed)


def test_suite_config_takes_numpy_integer_seeds():
    assert SuiteConfig(seed=np.int64(3)).seed == 3
    assert SuiteConfig(seed=0).seed == 0
    assert SuiteConfig(samples=np.int64(5)).samples == 5


def test_suite_config_samples_override():
    reports = {r.check: r for r in run_suite("qmatrix", SuiteConfig(samples=2))}
    assert reports["q-quadratic-form"].samples == 2
    reports = {r.check: r for r in run_suite("qmatrix", SuiteConfig())}
    assert reports["q-quadratic-form"].samples == 100


# ---------------------------------------------------------------------------
# Emitters.


@pytest.fixture(scope="module")
def sample_reports():
    return run_suite("qmatrix")


def test_emit_json_schema(sample_reports):
    doc = json.loads(emit(sample_reports, "json", suite="qmatrix", seed=0))
    assert set(doc) == {"suite", "seed", "reports"}
    assert doc["suite"] == "qmatrix" and doc["seed"] == 0
    for entry in doc["reports"]:
        assert set(entry) == {
            "check", "samples", "max_residual", "tolerance", "pass", "provenance", "seconds",
        }


def _refuse_constant(token):
    raise ValueError(f"non-standard JSON token {token}")


@pytest.mark.parametrize(
    "residual, text", [(math.nan, "nan"), (math.inf, "inf"), (-math.inf, "-inf")]
)
def test_emit_json_is_strict_for_non_finite_numbers(residual, text):
    report = Report(
        check="poisoned", samples=1, max_residual=residual, tolerance=1e-3,
        provenance="computed", seconds=0.0,
    )
    doc = json.loads(emit([report], "json", suite="x"), parse_constant=_refuse_constant)
    (entry,) = doc["reports"]
    assert entry["max_residual"] == text
    assert entry["tolerance"] == 1e-3 and entry["pass"] is (residual <= 1e-3)
    assert repr(residual) in emit([report], "csv")


def test_emit_csv_header_and_roundtrip(sample_reports):
    lines = emit(sample_reports, "csv").strip().splitlines()
    assert lines[0] == "check,samples,max_residual,tolerance,pass,provenance,seconds"
    assert len(lines) == len(sample_reports) + 1


def test_emit_text(sample_reports):
    text = emit(sample_reports, "text", suite="qmatrix", seed=0)
    assert text.count("[PASS]") == len(sample_reports)
    assert "2/2 checks passed" in text


def test_emit_unknown_format(sample_reports):
    with pytest.raises(ValueError):
        emit(sample_reports, "yaml")


# ---------------------------------------------------------------------------
# The two non-suite commands.


def test_best_constant_reports_structure():
    record, reports = best_constant_reports(SuiteConfig(samples=20_000))
    assert len(reports) == len(record.ratios)
    for r in reports:
        if "printed" in r.check:
            assert r.provenance == "informational" and r.passed
        else:
            assert r.passed
    assert any(not line.consistent for line in record.ratios)
    # every line grades the one record: one measured time, not a share of it
    assert len({r.seconds for r in reports}) == 1 and reports[0].seconds > 0.0


def test_report_seconds_are_measured_times():
    t0 = time.perf_counter()
    reports = run_suite("all", SuiteConfig(samples=20))
    wall = time.perf_counter() - t0
    for r in reports:
        assert math.isfinite(r.seconds) and 0.0 <= r.seconds <= wall, r.check
    # laps run back to back, so once each they cover nearly the whole run
    laps = sum(
        r.seconds for i, r in enumerate(reports) if i == 0 or r.seconds != reports[i - 1].seconds
    )
    assert 0.5 * wall <= laps <= wall


def test_quotient_min_reports_pass():
    reports = quotient_min_reports(SuiteConfig(seed=7))
    assert [r.check for r in reports] == [
        "quotient-min-value", "quotient-min-center", "quotient-min-concentration",
        "quotient-min-defect",
    ]
    assert all(r.passed for r in reports)
    assert len({r.seconds for r in reports}) == 1 and reports[0].seconds > 0.0
    defect = reports[-1]
    assert defect.tolerance == quadrature._DEFECT_TOL and defect.provenance == "computed"


@pytest.mark.parametrize("peaked", [True, False], ids=["displaced", "failed"])
def test_a_bad_peak_seed_fails_the_defect_check(monkeypatch, peaked):
    # a seed 1e-4 off the planted centre still passes the planted-motion lines
    # at their tolerances; only the search's certificate sees it.  A failed
    # peak seed leaves no defect, and its NaN fails the line too
    rng = np.random.default_rng(7)  # the planted motion, drawn as the suite draws it
    g0 = rng.uniform(-0.5, 0.5, size=7)
    nu = float(np.exp(rng.uniform(-0.5, 0.5)))
    monkeypatch.setattr(quadrature, "_peak_seed", lambda *args: (nu, g0 + 1e-4, 0, peaked))
    reports = {r.check: r for r in quotient_min_reports(SuiteConfig(seed=7))}
    assert reports["quotient-min-center"].passed and reports["quotient-min-value"].passed
    line = reports["quotient-min-defect"]
    assert not line.passed
    if peaked:
        assert line.max_residual > quadrature._DEFECT_TOL
    else:
        assert math.isnan(line.max_residual)
