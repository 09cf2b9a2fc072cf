"""Forward-mode jets: truncated-Taylor arithmetic and the field combinators.

The only ground truth used here is central finite differencing of the
field's own values, so these tests cannot inherit a bug from the jet
arithmetic they are checking.
"""

import dataclasses
import math
import re

import numpy as np
import pytest

from qheis import extremals
from qheis.errors import DomainError, _positive
from qheis.extremals import (
    FamilyParams,
    cayley_contact_factor,
    cayley_inverse_batch,
    dilate_field,
    dilation_map,
    h_family,
    kelvin,
    left_translation_map,
    sigma,
    translate_field,
    ubar_field,
    v_field,
)
from qheis.frame import frame_jets
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
from qheis.quaternions import as_point, as_quat, group_inv


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


@pytest.mark.parametrize(
    "g, t1, message",
    [
        (lambda t1: 1.0 / t1, 0.0, "division by a zero value"),
        (lambda t1: t1**2.5, -1.0, "non-integer power 2.5 of a non-positive value"),
        (lambda t1: t1**-2, 0.0, "negative power of zero"),
        (lambda t1: sqrt(t1), -1.0, "sqrt of a negative value"),
    ],
    ids=["reciprocal", "real-power", "negative-power", "sqrt"],
)
def test_hyper2_refuses_values_outside_the_domain(g, t1, message):
    # without its guard each of these reads inf or NaN instead of an error
    f = autodiff_lift(lambda t1, x1, y1, z1, x, y, z: g(t1), tag="guarded")
    point = np.zeros(7)
    point[0] = t1
    with pytest.raises(DomainError, match=message):
        f.jet_batch(point, 2)


@pytest.mark.parametrize("fn, reference", [(exp, np.exp), (log, np.log), (sqrt, np.sqrt)])
def test_transcendentals_of_plain_arrays_are_numpys(fn, reference):
    x = np.array([0.25, 1.0, 3.5])
    np.testing.assert_array_equal(fn(x), reference(x))


@pytest.mark.parametrize("r", [0, 1])
def test_zeroth_and_first_powers_are_exact_at_a_zero_base(r):
    # the plain chain rule reads r v^(r-1) and r (r-1) v^(r-2), which are
    # 0 * inf = NaN at v = 0; x^0 and x^1 must not go through it
    f = autodiff_lift(lambda t1, x1, y1, z1, x, y, z: t1**r, tag=f"t1^{r}")
    val, grad, hess = (part[0] for part in f.jet_batch(np.zeros(7), 2))
    assert val == 1.0 - r
    np.testing.assert_array_equal(grad, r * np.eye(7)[0])
    np.testing.assert_array_equal(hess, np.zeros((7, 7)))


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


@pytest.mark.parametrize("shape", [(7,), (1, 7), (40, 7)])
def test_affine_map_adds_its_offset_in_place_bitwise(shape):
    rng = np.random.default_rng(14)
    amap = AffineMap(linear=rng.standard_normal((7, 7)), offset=rng.standard_normal(7))
    points = rng.standard_normal(shape)
    before = points.copy()
    got = amap(points)
    assert _bitwise_equal(got, points @ amap.linear.T + amap.offset)
    assert _bitwise_equal(points, before)


def test_affine_map_with_integer_parts_returns_floats():
    amap = AffineMap(linear=np.eye(7, dtype=int), offset=np.full(7, 0.5))
    np.testing.assert_array_equal(amap(np.arange(7)), np.arange(7) + 0.5)


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
    # a base that is not positive where evaluated is refused, even for an
    # exponent whose power would be defined there
    signed = power_compose(autodiff_lift(lambda t1, *rest: t1, tag="t1"), 2.0)
    with pytest.raises(DomainError, match="power of non-positive base in 't1'"):
        signed(np.array([-0.5, 0, 0, 0, 0, 0, 0]))


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
        "power_compose-hand": power_compose(h_family(FamilyParams(c=0.7, nu=1.3)), 0.75, -2.0),
        "power_compose-kelvin": power_compose(kelvin(ubar), -1.5, 3.0),
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


def _contracted(grad, along):
    """The full gradient contracted with (7, d) or (B, 7, d) directions, block by block."""
    n = len(grad)
    if along.ndim == 2:
        return grad @ along
    blocks = len(along)
    return (grad.reshape(blocks, n // blocks, 7) @ along).reshape(n, -1)


# the hand kernel and the powers of it: power_compose has a native path
# exactly when its base has one
_NATIVE_KINDS = {"h_family", "ubar", "v", "power_compose-hand", "rows-power"}


def _directional_kinds():
    """Every kind of field, and a power of a per-row member batch of 33 points."""
    c, nu = 10.0 ** np.random.default_rng(7).uniform(-1.0, 1.0, size=(2, 33))
    rows = power_compose(extremals._member(c, nu, "rows"), -2.0, 3.0)
    return {**_fields_of_every_kind(), "rows-power": rows}


@pytest.mark.parametrize("kind", sorted(_directional_kinds()))
def test_along_is_the_contraction_of_the_full_jets(kind):
    # order 1 gives (value, grad @ along).  A field without a native path
    # contracts its full gradient, bitwise; the hand kernel's native
    # contraction, and a power's chain rule on it, agree to rounding
    f = _directional_kinds()[kind]
    assert (f.along_jets is not None) == (kind in _NATIVE_KINDS)
    pts = np.random.default_rng(6).uniform(-1.5, 1.5, (33, 7))
    value, grad = f.jet_batch(pts, 1)
    rng = np.random.default_rng(8)
    for along in (rng.normal(size=(7, 3)), rng.normal(size=(3, 7, 2))):
        want = _contracted(grad, along)
        jet = f.jet_batch(pts, 1, along=along)
        assert len(jet) == 2 and _bitwise_equal(jet[0], value)
        assert jet[1].shape == want.shape
        if f.along_jets is None:
            assert _bitwise_equal(np.ascontiguousarray(jet[1]), want)
        else:
            assert np.max(np.abs(jet[1] - want)) <= 1e-15 * np.max(np.abs(want))


@pytest.mark.parametrize("kind", ["ubar", "kelvin"])
def test_along_is_checked_at_the_boundary(kind):
    # the native path and the fallback share one rule, applied before any
    # evaluation: a malformed request, an order other than 1 included, is a
    # ValueError, a non-finite direction a DomainError
    f = _fields_of_every_kind()[kind]
    pts = np.random.default_rng(6).uniform(-1.5, 1.5, (10, 7))
    good = np.ones((7, 2))
    malformed = [
        (0, good, "directional jets are order 1, got 0"),
        (2, good, "directional jets are order 1, got 2"),
        (1, np.ones((6, 2)), r"\(7, d\) or \(B, 7, d\), got shape \(6, 2\)"),
        (1, np.ones(7), r"got shape \(7,\)"),
        (1, np.ones((3, 7, 2)), "10 points do not split into 3 equal blocks"),
    ]
    for order, along, message in malformed:
        with pytest.raises(ValueError, match=message) as caught:
            f.jet_batch(pts, order, along=along)
        assert type(caught.value) is ValueError
    for bad in (math.nan, math.inf):
        along = np.ones((2, 7, 2))
        along[1, 4, 0] = bad
        with pytest.raises(DomainError, match="NaN or infinite"):
            f.jet_batch(pts, 1, along=along)
    assert len(f.jet_batch(pts, 1, along=np.ones((5, 7, 2)))) == 2


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


def _plain(x: Hyper2) -> Hyper2:
    """The same jet without a seed's axis, so its products take the general formula."""
    return Hyper2(x.val, x.grad, x.hess)


def _parts(h: Hyper2) -> list:
    return [part for part in (h.val, h.grad, h.hess) if part is not None]


_PAIRINGS = ["seed*general", "general*seed", "seed*same seed", "seed*other seed",
             "seed*float", "negated seed*general", "seed*partial"]


@pytest.mark.parametrize("pairing", _PAIRINGS)
@pytest.mark.parametrize("order", [0, 1, 2])
def test_seeded_product_is_the_general_formula(monkeypatch, order, pairing):
    pts = np.random.default_rng(15).uniform(-1.5, 1.5, (25, 7))
    x = Hyper2.seed(pts, order)
    # no zero entry in general's jets; partial's gradient is 0 in columns 0, 4-6
    general = exp(0.3 * (x[0] * x[1] + x[2] * x[3] + x[4] * x[5] + x[6] * x[0]) + x[1])
    partial = exp(x[1] * x[2]) - sqrt(2.0 + x[3] * x[3])
    a, b = {
        "seed*general": (x[0], general),
        "general*seed": (general, x[4]),
        "seed*same seed": (x[5], x[5]),
        "seed*other seed": (x[5], x[6]),
        "seed*float": (x[2], -1.75),
        "negated seed*general": (-x[0], general),
        "seed*partial": (x[4], partial),
    }[pairing]
    seeded = []
    rank_one = Hyper2._seeded
    monkeypatch.setattr(Hyper2, "_seeded", lambda s, o: seeded.append(o) or rank_one(s, o))
    got = a * b
    want = _plain(a) * (_plain(b) if isinstance(b, Hyper2) else b)
    takes_seed_path = order >= 1 and not pairing.startswith("negated")
    assert len(seeded) == takes_seed_path
    assert got.order == want.order == order
    # the general formula adds 0 * value, or a product with a 0 entry, where
    # the rank-one update adds nothing: that can only turn a -0 into +0, so
    # the bytes agree once zeros are signless, and outright where the other
    # operand's jets have no zero entry
    for g, w in zip(_parts(got), _parts(want), strict=True):
        assert _bitwise_equal(g + 0.0, w + 0.0)
        if pairing in ("seed*general", "general*seed", "seed*same seed", "negated seed*general"):
            assert _bitwise_equal(g, w)
    assert got._axis is None  # a product is no seed


def _kelvin_fields():
    g0 = np.random.default_rng(16).uniform(-1.0, 1.0, 7)
    return [kelvin(ubar_field()), kelvin(translate_field(ubar_field(), g0))]


def _kelvin_jets(fields):
    pts = np.random.default_rng(17).uniform(-1.5, 1.5, (30, 7))
    return [f.jet_batch(pts, order) for f in fields for order in (0, 1, 2)]


def _reseeded(monkeypatch, change):
    """Hyper2.seed with `change` applied to each coordinate it returns."""
    seed = Hyper2.seed
    monkeypatch.setattr(Hyper2, "seed", staticmethod(
        lambda points, order: tuple(change(x) for x in seed(points, order))))


def test_kelvin_jets_are_bitwise_with_or_without_seed_axes(monkeypatch):
    fields = _kelvin_fields()
    marked = _kelvin_jets(fields)
    _reseeded(monkeypatch, _plain)
    for got, want in zip(_kelvin_jets(fields), marked, strict=True):
        for g, w in zip(got, want, strict=True):
            assert _bitwise_equal(g, w)


def test_kelvin_jets_never_read_a_seed_hessian(monkeypatch):
    # the seeds' Hessians are known zeros: filled with NaN, nothing changes
    fields = _kelvin_fields()
    want = _kelvin_jets(fields)

    def poisoned(x):
        if x.hess is not None:
            x.hess.fill(np.nan)
        return x

    _reseeded(monkeypatch, poisoned)
    for got, ref in zip(_kelvin_jets(fields), want, strict=True):
        for g, w in zip(got, ref, strict=True):
            assert np.isfinite(g).all()
            assert _bitwise_equal(g, w)


def test_compose_through_the_seeds_is_the_field():
    # compose reads the coordinates' Hessians, so the seeds must keep theirs
    u = translate_field(h_family(FamilyParams(c=1.3, nu=0.7)), np.full(7, 0.2))
    lifted = autodiff_lift(lambda *x: compose(u, x))
    pts = np.random.default_rng(18).uniform(-1.5, 1.5, (30, 7))
    for order in (0, 1, 2):
        for got, want in zip(lifted.jet_batch(pts, order), u.jet_batch(pts, order), strict=True):
            np.testing.assert_array_equal(got, want)


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


# A point argument is one (7,) point or an (N, 7) batch, and `_as_batch`
# refuses the rest with the shape in the message: a rank-3 batch used to
# come back from sigma wrongly shaped, or leak numpy's einsum or quaternion
# error, and a 0-d input leaked an IndexError from the coercions.
_BATCH_ENTRIES = {
    "sigma": sigma,
    "ScalarField.__call__": lambda g: ubar_field()(g),
    "jet_batch": lambda g: ubar_field().jet_batch(g, 2),
    "frame_jets": lambda g: frame_jets(ubar_field(), g),
    "cayley_contact_factor": cayley_contact_factor,
    "cayley_inverse_batch": cayley_inverse_batch,
}
_BATCH_RULE = "one (7,) point or an (N, 7) batch, got shape "
_BAD_BATCHES = {  # the input and the message it must raise
    "0-d": (5.0, "got shape ()"),
    "rank-3": (np.full((2, 3, 7), 0.3), _BATCH_RULE + "(2, 3, 7)"),
    "1x1x7": (np.ones((1, 1, 7)), _BATCH_RULE + "(1, 1, 7)"),
}


@pytest.mark.parametrize(
    "entry, bad, message",
    [(_BATCH_ENTRIES[e], *_BAD_BATCHES[b]) for e in _BATCH_ENTRIES for b in _BAD_BATCHES]
    + [(as_point, *_BAD_BATCHES["0-d"]), (as_quat, *_BAD_BATCHES["0-d"])],
    ids=[f"{e}-{b}" for e in _BATCH_ENTRIES for b in _BAD_BATCHES]
    + ["as_point-0-d", "as_quat-0-d"],
)
def test_point_arguments_are_one_point_or_a_batch(entry, bad, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        entry(bad)


@pytest.mark.parametrize(
    "linear, offset, error",
    [
        (np.full((7, 7), math.nan), np.zeros(7), DomainError),  # its field read nan
        (np.eye(7), np.full(7, math.inf), DomainError),  # its field read 0.0
        (np.eye(7), np.array([0, 0, 0, math.nan, 0, 0, 0]), DomainError),
        (np.eye(3), np.zeros(3), ValueError),  # failed only later, inside matmul
        (np.eye(7), np.zeros((1, 7)), ValueError),
        (np.eye(7)[:6], np.zeros(7), ValueError),
    ],
    ids=["nan-linear", "inf-offset", "nan-offset", "3x3", "row-offset", "6x7"],
)
def test_affine_map_checks_its_parts(linear, offset, error):
    with pytest.raises(error, match="AffineMap"):
        AffineMap(linear, offset)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, True], ids=repr)
@pytest.mark.parametrize(
    "build, name",
    [
        (lambda u, x: affine_pullback(u, AffineMap.identity(), amplitude=x), "pullback amplitude"),
        (lambda u, x: power_compose(u, x), "power exponent"),
        (lambda u, x: power_compose(u, 2.0, x), "power coefficient"),
    ],
    ids=["amplitude", "alpha", "coefficient"],
)
def test_combinators_refuse_non_finite_scalars(build, name, bad):
    # each read nan or inf at every point instead of failing where it was
    # built; the rule's other refusals are `errors._finite`'s own tests
    with pytest.raises(DomainError, match=f"{name} must be a finite real number, got "):
        build(ubar_field(), bad)


def test_combinators_take_scalars_of_any_sign():
    ubar, origin = ubar_field(), np.zeros(7)  # ubar(0) = 2^10
    assert affine_pullback(ubar, AffineMap.identity(), amplitude=-3)(origin) == -3.0 * 2**10
    assert power_compose(ubar, -0.5, -2.0)(origin) == -2.0 * 2**-5
    assert power_compose(ubar, np.float64(0.5), np.int64(3))(origin) == 3.0 * 2**5
