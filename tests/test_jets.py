"""Forward-mode jets: truncated-Taylor arithmetic and the field combinators.

The only ground truth used here is central finite differencing of the
field's own values, so these tests cannot inherit a bug from the jet
arithmetic they are checking.
"""

import dataclasses

import numpy as np
import pytest

from qheis.errors import DomainError, _positive
from qheis.extremals import (
    FamilyParams,
    dilate_field,
    dilation_map,
    h_family,
    kelvin,
    left_translation_map,
    translate_field,
    ubar_field,
    v_field,
)
from qheis.jets import (
    AffineMap,
    Hyper2,
    ScalarField,
    _max_abs,
    affine_pullback,
    autodiff_lift,
    compose,
    constant_field,
    exp,
    log,
    power_compose,
    sqrt,
)
from qheis.quadrature import _detransformed
from qheis.quaternions import as_point, group_inv


def finite_diff_audit(f: ScalarField, p, step: float) -> float:
    """Max discrepancy between the field's jets and central finite differences.

    An audit, not a derivative engine: O(step^2) truncation plus roundoff
    limits agreement to roughly 1e-6 at step 1e-4 for order-one fields.
    """
    step = _positive(step, "step")
    p = as_point(p).reshape(7)
    val, grad, hess = (part[0] for part in f.jet_batch(p, 2))
    diffs = []
    for i in range(7):
        ei = np.zeros(7)
        ei[i] = step
        fp, fm = f(p + ei), f(p - ei)
        diffs.append((fp - fm) / (2 * step) - grad[i])
        d2 = (fp - 2 * val + fm) / step**2
        diffs.append(d2 - hess[i, i])
        for j in range(i + 1, 7):
            ej = np.zeros(7)
            ej[j] = step
            cross = f(p + ei + ej) - f(p + ei - ej) - f(p - ei + ej) + f(p - ei - ej)
            diffs.append(cross / (4 * step**2) - hess[i, j])
    return _max_abs(diffs)


def _transcendental():
    def g(t1, x1, y1, z1, x, y, z):
        return exp(-(t1 * t1 + x1 * x1)) * (1.0 + y1 * z1) + log(2.0 + x * x) * sqrt(1.0 + y * y + z * z)

    return autodiff_lift(g, tag="mixed-transcendental")


def test_autodiff_matches_finite_differences():
    f = _transcendental()
    rng = np.random.default_rng(2)
    worst = max(finite_diff_audit(f, rng.uniform(-1.5, 1.5, 7), step=1e-4) for _ in range(20))
    assert worst < 1e-6


def test_jet_shapes_and_symmetry():
    f = _transcendental()
    rng = np.random.default_rng(3)
    pts = rng.uniform(-1, 1, (17, 7))
    val, grad, hess = f.jet_batch(pts)
    assert val.shape == (17,) and grad.shape == (17, 7) and hess.shape == (17, 7, 7)
    np.testing.assert_allclose(hess, hess.transpose(0, 2, 1), atol=0)


def test_constant_field():
    c = constant_field(4.25)
    val, grad, hess = c.jet_batch(np.ones(7), 2)
    assert val.shape == (1,) and val[0] == 4.25
    assert not grad.any() and not hess.any()
    assert c.decay == (0.0, 0.0)


def test_log_domain_error():
    f = autodiff_lift(lambda t1, x1, y1, z1, x, y, z: log(t1), tag="log-t1")
    with pytest.raises(DomainError):
        f(np.array([-1.0, 0, 0, 0, 0, 0, 0]))


def test_affine_map_algebra():
    rng = np.random.default_rng(4)
    a = AffineMap(linear=rng.standard_normal((7, 7)), offset=rng.standard_normal(7))
    b = AffineMap(linear=rng.standard_normal((7, 7)), offset=rng.standard_normal(7))
    p = rng.standard_normal(7)
    # (a.after(b))(p) = a(b(p))
    comp = a.after(b)
    np.testing.assert_allclose(
        comp.linear @ p + comp.offset, a.linear @ (b.linear @ p + b.offset) + a.offset, atol=1e-12
    )
    assert AffineMap.identity().is_identity()
    assert not comp.is_identity()
    np.testing.assert_allclose(comp.det, np.linalg.det(a.linear) * np.linalg.det(b.linear), rtol=1e-9)


def test_affine_pullback_values_and_jets():
    f = _transcendental()
    rng = np.random.default_rng(5)
    lin = np.eye(7) + 0.1 * rng.standard_normal((7, 7))
    amap = AffineMap(linear=lin, offset=rng.standard_normal(7))
    g = affine_pullback(f, amap, amplitude=2.5)
    p = rng.uniform(-0.5, 0.5, 7)
    np.testing.assert_allclose(g(p), 2.5 * f(lin @ p + amap.offset), rtol=1e-12)
    assert finite_diff_audit(g, p, step=1e-4) < 1e-6


def test_power_compose_values_jets_decay():
    base = autodiff_lift(
        lambda t1, x1, y1, z1, x, y, z: 1.0 + t1 * t1 + x * x,
        tag="positive-quadratic",
        decay=(-2.0, -2.0),
    )
    f = power_compose(base, -1.5, 3.0, tag="inverse-power")
    p = np.array([0.5, 0, 0, 0, -0.25, 0, 0])
    np.testing.assert_allclose(f(p), 3.0 * (1.0 + 0.25 + 0.0625) ** -1.5, rtol=1e-13)
    assert f.decay == (3.0, 3.0)
    assert finite_diff_audit(f, p, step=1e-4) < 1e-6


def test_pullback_certificate_composition():
    base = autodiff_lift(
        lambda t1, x1, y1, z1, x, y, z: 1.0 / (1.0 + t1 * t1 + x1 * x1 + y1 * y1 + z1 * z1),
        tag="radial-bump",
        biradial_map=AffineMap.identity(),
        decay=(2.0, 0.0),
    )
    amap = AffineMap(linear=2.0 * np.eye(7), offset=np.ones(7))
    g = affine_pullback(base, amap)
    assert g.biradial_map is not None
    # the certificate tracks the total affine motion: jets of g at p depend
    # on p only through amap(p)
    np.testing.assert_allclose(g.biradial_map.linear, amap.linear, atol=0)
    np.testing.assert_allclose(g.biradial_map.offset, amap.offset, atol=0)
    lifted = autodiff_lift(lambda *c: 0.0, tag="no-cert")
    assert lifted.biradial_map is None


# ---------------------------------------------------------------------------
# The order protocol and pullback folding.

_G0 = np.array([0.3, -0.2, 0.1, 0.4, 0.2, -0.1, 0.3])


def _fields_of_every_kind():
    ubar = ubar_field()
    positive = autodiff_lift(
        lambda t1, x1, y1, z1, x, y, z: 1.0 + t1 * t1 + x * x,
        tag="positive-quadratic",
    )
    return {
        "h_family": h_family(FamilyParams(c=0.7, nu=1.3)),
        "h_family-centred": h_family(FamilyParams(c=0.7, nu=1.3, center=_G0)),
        "ubar": ubar,
        "v": v_field(),
        "power_compose": power_compose(positive, -1.5, 3.0),
        "pullback": translate_field(ubar, _G0),
        "pullback-folded": _detransformed(
            translate_field(dilate_field(ubar, 1.2), _G0), 1.44, _G0 + 0.01
        ),
        "constant_field": constant_field(4.25),
        "autodiff_lift": _transcendental(),
        "autodiff_lift-constant": autodiff_lift(lambda *c: 2.5, tag="constant-formula"),
        "kelvin": kelvin(ubar),
    }


def _bitwise_equal(a: np.ndarray, b: np.ndarray) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("kind", sorted(_fields_of_every_kind()))
def test_lower_orders_are_prefixes_of_order_two(kind):
    f = _fields_of_every_kind()[kind]
    pts = np.random.default_rng(6).uniform(-1.5, 1.5, (33, 7))
    full = f.jet_batch(pts, 2)
    assert len(full) == 3
    for order in (0, 1):
        low = f.jet_batch(pts, order)
        assert len(low) == order + 1
        for got, want in zip(low, full):
            assert _bitwise_equal(got, want)
    value = f(pts)
    assert _bitwise_equal(value, full[0])


def test_lifted_formula_is_seeded_at_the_requested_order():
    seen = []

    def g(t1, x1, y1, z1, x, y, z):
        out = exp(-t1 * x1) / (2.0 + y1 * y1) - sqrt(1.0 + z1 * z1) * log(3.0 + x)
        out = (1.0 - out) ** 1.5 + 4.0 / (5.0 + y * y) - z
        seen.append((t1.grad is None, t1.hess is None, out.grad is None, out.hess is None))
        return out

    f = autodiff_lift(g, tag="order-probe")
    pts = np.random.default_rng(9).uniform(-0.5, 0.5, (5, 7))
    for order in (0, 1, 2):
        assert len(f.jet_batch(pts, order)) == order + 1
    assert seen == [
        (True, True, True, True),
        (False, True, False, True),
        (False, False, False, False),
    ]


def test_kelvin_asks_its_field_only_for_the_requested_order():
    ubar = ubar_field()
    asked = []

    def spy(points, order=2):
        asked.append(order)
        return ubar.jets(points, order)

    ku = kelvin(dataclasses.replace(ubar, jets=spy))
    asked.clear()  # construction reads u at the identity for the decay
    pts = np.random.default_rng(10).uniform(-1.5, 1.5, (5, 7))
    for order in (0, 1, 2):
        assert len(ku.jet_batch(pts, order)) == order + 1
    assert asked == [0, 1, 2]


def test_kelvin_lift_makes_at_most_29_products(monkeypatch):
    # sigma's w-image reuses the products w/|p'|^2 of the inverse p'^-1:
    # 3 of the 32 order-2 products a lift made when it formed them twice
    products = []
    for name in ("__mul__", "__rmul__"):
        mul = getattr(Hyper2, name)

        def counted(a, b, mul=mul):
            products.append(a.order)
            return mul(a, b)

        monkeypatch.setattr(Hyper2, name, counted)
    ku = kelvin(ubar_field())
    products.clear()
    ku.jet_batch(np.random.default_rng(12).uniform(-1.5, 1.5, (6, 7)), 2)
    assert products == [2] * len(products)
    assert len(products) <= 29


def _bent_coords(points):
    """Seven order-2 Hyper2 coordinates of a map with nonzero, distinct Hessians."""
    x = Hyper2.seed(points, 2)
    return tuple(x[k] * x[(k + 1) % 7] + 0.5 * x[k] * x[k] - x[(k + 3) % 7] for k in range(7))


def test_compose_order_two_builds_no_four_index_array():
    # every array computed from the coordinates is a view of this subclass,
    # which records the largest number of dimensions it was given
    ndims = []

    class Spy(np.ndarray):
        def __array_finalize__(self, obj):
            ndims.append(self.ndim)

    pts = np.random.default_rng(13).uniform(-1.5, 1.5, (40, 7))
    coords = _bent_coords(pts)
    spied = tuple(Hyper2(*(part.view(Spy) for part in (c.val, c.grad, c.hess))) for c in coords)
    ndims.clear()
    u = translate_field(h_family(FamilyParams(c=1.3, nu=0.7)), np.full(7, 0.2))
    out = compose(u, spied)
    assert ndims and max(ndims) <= 3

    # the chain rule with the coordinate Hessians stacked, as a reference
    jet = u.jet_batch(np.stack([c.val for c in coords], axis=1), 2)
    ygrad = np.stack([c.grad for c in coords], axis=1)
    yhess = np.stack([c.hess for c in coords], axis=1)
    ref = np.swapaxes(ygrad, 1, 2) @ jet[2] @ ygrad + np.einsum("nk,nkij->nij", jet[1], yhess)
    assert np.max(np.abs(np.asarray(out.hess) - ref)) <= 1e-15 * np.max(np.abs(ref))
    np.testing.assert_array_equal(np.asarray(out.val), jet[0])
    np.testing.assert_array_equal(np.asarray(out.grad), np.einsum("nk,nki->ni", jet[1], ygrad))


def test_jet_order_is_validated():
    with pytest.raises(ValueError):
        ubar_field().jet_batch(np.zeros(7), 3)


@pytest.mark.parametrize("order", [True, False])
def test_jet_order_is_not_a_bool(order):
    # True == 1 and False == 0, yet a flag is no derivative order
    with pytest.raises(ValueError, match="jet order"):
        ubar_field().jet_batch(np.zeros(7), order)


@pytest.mark.parametrize("order", [1.0, 2.0, 0.0, np.float64(1), np.float32(2), np.True_])
def test_jet_order_is_a_whole_number(order):
    # 1.0 == 1, yet a float is no derivative order: one rule, operator.index
    with pytest.raises(ValueError, match="jet order"):
        ubar_field().jet_batch(np.zeros((2, 7)), order)


@pytest.mark.parametrize("order", [np.int64(0), np.int32(1), np.uint8(2)])
def test_jet_order_takes_numpy_integers(order):
    jet = ubar_field().jet_batch(np.zeros((2, 7)), order)
    assert len(jet) == int(order) + 1


def _nested_pullback(u, amap, amplitude=1.0):
    """Reference: one closure per motion, each applying its own chain rule."""
    lin = amap.linear

    def jets(points, order=2):
        val, grad, hess = u.jets(amap(points), 2)
        return (
            amplitude * val,
            amplitude * (grad @ lin),
            amplitude * (lin.T @ (hess @ lin)),
        )[: order + 1]

    return ScalarField(tag=f"nested({u.tag})", jets=jets)


def test_folded_pullback_matches_nested_motions():
    ubar = ubar_field()
    lam, nu, center = 1.2, 1.44, _G0 + 0.01
    mu = nu**-0.5
    motions = [
        (dilation_map(lam), lam**4),
        (left_translation_map(_G0), 1.0),
        (left_translation_map(group_inv(center)).after(dilation_map(mu)), mu**4),
    ]
    nested = ubar
    for amap, amp in motions:
        nested = _nested_pullback(nested, amap, amp)
    folded = _detransformed(translate_field(dilate_field(ubar, lam), _G0), nu, center)
    assert folded.jets.base is ubar  # one chain-rule step onto the base field

    pts = np.random.default_rng(8).uniform(-1.5, 1.5, (200, 7))
    for got, want in zip(folded.jet_batch(pts, 2), nested.jet_batch(pts, 2)):
        rel = np.max(np.abs(got - want)) / np.max(np.abs(want))
        assert rel <= 1e-14


def _family_reference(c, nu, pts):
    """h_{c,nu} jets written out of place."""
    q, w = pts[:, :4], pts[:, 4:7]
    lin = 1.0 + nu * np.einsum("ni,ni->n", q, q)
    val = c * (lin * lin + nu * nu * np.einsum("ni,ni->n", w, w))
    grad = np.empty_like(pts)
    grad[:, :4] = ((4.0 * c * nu) * lin)[:, None] * q
    grad[:, 4:7] = (2.0 * c * nu * nu) * w
    hess = np.zeros((len(pts), 7, 7))
    hess[:, :4, :4] = (8.0 * c * nu * nu) * np.einsum("ni,nj->nij", q, q)
    diag = np.arange(4)
    hess[:, diag, diag] += ((4.0 * c * nu) * lin)[:, None]
    vdiag = np.arange(4, 7)
    hess[:, vdiag, vdiag] = 2.0 * c * nu * nu
    return val, grad, hess


def _power_reference(jet, alpha, coefficient=1.0):
    """coefficient * u**alpha from u's order-2 jet, out of place."""
    val, grad, hess = jet
    fp = coefficient * alpha * val ** (alpha - 1.0)
    fpp = coefficient * alpha * (alpha - 1.0) * val ** (alpha - 2.0)
    outer = np.einsum("ni,nj->nij", grad, grad)
    return (
        coefficient * val**alpha,
        fp[:, None] * grad,
        fp[:, None, None] * hess + fpp[:, None, None] * outer,
    )


def _pullback_reference(jet, lin, amplitude):
    """amplitude * u(A p) from u's order-2 jet at A p, out of place."""
    val, grad, hess = jet
    return amplitude * val, amplitude * (grad @ lin), amplitude * (lin.T @ (hess @ lin))


def test_in_place_jets_equal_the_out_of_place_formulas():
    pts = np.random.default_rng(14).uniform(-1.5, 1.5, (300, 7))
    lam = 1.2
    amap = dilation_map(lam).after(left_translation_map(_G0))

    def ubar_reference(p):
        return _power_reference(_family_reference(1.0, 1.0, p), -2.0, 2.0**10)

    cases = [
        (h_family(FamilyParams(c=0.7, nu=1.3)), _family_reference(0.7, 1.3, pts)),
        (power_compose(ubar_field(), 2.5), _power_reference(ubar_reference(pts), 2.5)),
        (
            translate_field(dilate_field(ubar_field(), lam), _G0),
            _pullback_reference(ubar_reference(amap(pts)), amap.linear, lam**4),
        ),
    ]
    for field, want in cases:
        for order in (0, 1, 2):
            got = field.jet_batch(pts, order)
            assert len(got) == order + 1
            for part, ref in zip(got, want):
                assert _bitwise_equal(part, ref)


def test_finite_diff_audit_propagates_nan():
    clean = ubar_field()

    def jets(points, order=2):
        val, grad, hess = clean.jets(points, 2)
        hess[:, 0, 1] = np.nan
        return (val, grad, hess)[: order + 1]

    poisoned = ScalarField(tag="nan-hessian", jets=jets)
    assert finite_diff_audit(clean, _G0, step=1e-4) < 1e-1
    assert np.isnan(finite_diff_audit(poisoned, _G0, step=1e-4))


# the step goes through _positive: a NaN step would turn every difference NaN
@pytest.mark.parametrize("step", [np.nan, 0.0, -1e-4, np.inf])
def test_finite_diff_audit_step_is_a_finite_positive_number(step):
    with pytest.raises(DomainError, match="step must be a finite real number > 0"):
        finite_diff_audit(ubar_field(), _G0, step=step)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_points_are_rejected(ubar, bad):
    point = np.zeros(7)
    point[5] = bad
    batch = np.zeros((4, 7))
    batch[2] = point
    with pytest.raises(DomainError):
        as_point(point)
    with pytest.raises(DomainError):
        ubar(point)  # used to return nan
    with pytest.raises(DomainError):
        ubar.jet_batch(batch, 1)
