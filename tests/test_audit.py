"""The coupling matrix, the report contract, and the named suites."""

import json
import math

import numpy as np
import pytest

from qheis import audit
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


def test_pde_residual_check_evaluates_the_field_once(ubar, box_points):
    orders = []

    def jets(pts, order=2):
        orders.append(order)
        return ubar.jets(pts, order)

    counted = ScalarField(tag="counted-ubar", jets=jets, decay=ubar.decay)
    assert audit._relative_pde_residual(counted, box_points) <= 1e-9
    assert orders == [2]


# ---------------------------------------------------------------------------
# The report contract.


def test_report_pass_field_is_enforced():
    with pytest.raises(ValueError):
        Report(
            check="x",
            samples=1,
            max_residual=2.0,
            tolerance=1.0,
            passed=True,
            provenance="",
            seconds=0.0,
        )


def test_report_as_dict_key():
    r = Report(
        check="x", samples=1, max_residual=0.5, tolerance=1.0,
        passed=True, provenance="p", seconds=0.25,
    )
    d = r.as_dict()
    assert d["pass"] is True and "passed" not in d
    assert d["check"] == "x"


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


@pytest.mark.parametrize("samples", [0, -3, 2.5])
def test_suite_config_rejects_bad_samples(samples):
    with pytest.raises(ValueError, match="positive integer"):
        SuiteConfig(samples=samples)


def test_suite_config_samples_override():
    reports = {r.check: r for r in run_suite("qmatrix", SuiteConfig(samples=2))}
    assert reports["q-quadratic-form"].samples == 2
    reports = {r.check: r for r in run_suite("qmatrix", SuiteConfig())}
    assert reports["q-quadratic-form"].samples == 100


def test_tol_override_can_fail_a_suite():
    reports = run_suite("qmatrix", SuiteConfig(tol=1e-30))
    assert not all(r.passed for r in reports)


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


def test_quotient_min_reports_pass():
    reports = quotient_min_reports(SuiteConfig(seed=7))
    assert [r.check for r in reports] == [
        "quotient-min-value", "quotient-min-center", "quotient-min-concentration",
    ]
    assert all(r.passed for r in reports)
