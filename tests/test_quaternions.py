"""Group algebra: Hamilton product, twisted product, dilations, Haar."""

import importlib
import pkgutil

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qheis
from qheis import quaternions
from qheis.errors import ConsistencyError
from qheis.jets import haar_jacobian_audit
from qheis.quaternions import (
    TWIST,
    as_point,
    as_quat,
    dilation,
    group_inv,
    group_mul,
    quat_conj,
    quat_inv,
    quat_mul,
    quat_norm2,
)

finite = st.floats(-10.0, 10.0, allow_nan=False)


def quats(draw_min=4):
    return st.lists(finite, min_size=4, max_size=4).map(np.array)


def points7():
    return st.lists(finite, min_size=7, max_size=7).map(np.array)


@given(quats(), quats(), quats())
def test_hamilton_associative(a, b, c):
    left = quat_mul(quat_mul(a, b), c)
    right = quat_mul(a, quat_mul(b, c))
    np.testing.assert_allclose(left, right, atol=1e-9)


@given(quats(), quats())
def test_norm_multiplicative(a, b):
    np.testing.assert_allclose(
        quat_norm2(quat_mul(a, b)), quat_norm2(a) * quat_norm2(b), rtol=1e-10, atol=1e-10
    )


@given(quats(), quats())
def test_conj_antihomomorphism(a, b):
    np.testing.assert_allclose(
        quat_conj(quat_mul(a, b)), quat_mul(quat_conj(b), quat_conj(a)), atol=1e-9
    )


def test_quat_inverse():
    rng = np.random.default_rng(7)
    for _ in range(20):
        a = rng.standard_normal(4)
        np.testing.assert_allclose(quat_mul(a, quat_inv(a)), [1, 0, 0, 0], atol=1e-12)


def test_product_frozen_example():
    # real unit times i: no prior vertical part, twist 2 Im(q0 conj(q)) = (-2, 0, 0)
    g = group_mul(np.array([1.0, 0, 0, 0, 0, 0, 0]), np.array([0.0, 1, 0, 0, 0, 0, 0]))
    np.testing.assert_allclose(as_point(g), [1, 1, 0, 0, -2, 0, 0], atol=0)


@given(points7(), points7(), points7())
@settings(max_examples=50)
def test_group_associative(g, h, k):
    np.testing.assert_allclose(
        as_point(group_mul(group_mul(g, h), k)),
        as_point(group_mul(g, group_mul(h, k))),
        atol=1e-8,
    )


@given(points7())
def test_group_inverse_is_negation(g):
    np.testing.assert_allclose(as_point(group_inv(g)), -g, atol=0)
    np.testing.assert_allclose(as_point(group_mul(g, group_inv(g))), np.zeros(7), atol=1e-9)
    np.testing.assert_allclose(as_point(group_mul(group_inv(g), g)), np.zeros(7), atol=1e-9)


def test_identity_element():
    rng = np.random.default_rng(1)
    g = rng.standard_normal(7)
    e = np.zeros(7)
    np.testing.assert_allclose(as_point(group_mul(e, g)), g, atol=0)
    np.testing.assert_allclose(as_point(group_mul(g, e)), g, atol=0)


@given(points7(), points7(), st.floats(0.1, 4.0))
@settings(max_examples=50)
def test_dilation_homomorphism(g, h, lam):
    left = as_point(dilation(lam, group_mul(g, h)))
    right = as_point(group_mul(dilation(lam, g), dilation(lam, h)))
    np.testing.assert_allclose(left, right, rtol=1e-9, atol=1e-9)


def test_dilation_composition_and_weights():
    g = np.array([1.0, -2.0, 0.5, 3.0, 2.0, -1.0, 0.25])
    d = as_point(dilation(3.0, g))
    np.testing.assert_allclose(d[:4], 3.0 * g[:4], atol=0)
    np.testing.assert_allclose(d[4:], 9.0 * g[4:], atol=0)
    np.testing.assert_allclose(
        as_point(dilation(1.5, dilation(2.0, g))), as_point(dilation(3.0, g)), atol=0
    )


def test_left_translation_preserves_haar():
    # numeric Jacobian of p -> g0 o p has |det| = 1
    rng = np.random.default_rng(5)
    for _ in range(5):
        assert haar_jacobian_audit(rng.uniform(-2, 2, 7)) < 1e-9


def test_twist_is_the_group_law_on_basis_pairs():
    # TWIST[a, s, b] = 2 Im(e_a conj(e_b))_s, shared read-only
    e = np.eye(4)
    for a in range(4):
        for b in range(4):
            want = 2.0 * quat_mul(e[a], quat_conj(e[b]))[1:]
            np.testing.assert_array_equal(TWIST[a, :, b], want)
    assert not TWIST.flags.writeable
    quaternions._audit_twist(TWIST)


def test_twist_audit_catches_every_single_entry_fault():
    # seeded faults: change any one of the 48 entries and the import audit fails
    for idx in np.ndindex(TWIST.shape):
        twist = TWIST.copy()
        twist[idx] = -twist[idx] if twist[idx] else 2.0
        with pytest.raises(ConsistencyError):
            quaternions._audit_twist(twist)


# ---------------------------------------------------------------------------
# Points are arrays only.


class _Wrapped:
    """An object carrying its coordinates as `.array`, as the retired point types did."""

    def __init__(self, a):
        self.array = np.asarray(a, dtype=float)


@pytest.mark.parametrize("coerce, size", [(as_quat, 4), (as_point, 7)], ids=["quat", "point"])
def test_coercions_take_arrays_and_refuse_objects(coerce, size):
    with pytest.raises(TypeError):
        coerce(_Wrapped(np.ones(size)))
    np.testing.assert_array_equal(coerce([1.0] * size), np.ones(size))


RETIRED = (
    "Quaternion", "ImQuaternion", "GroupPoint", "SpherePoint", "cayley_forward", "cayley_inverse"
)


def test_no_module_exports_a_point_object_or_single_point_cayley():
    names = [m.name for m in pkgutil.iter_modules(qheis.__path__)]
    modules = [importlib.import_module(f"qheis.{name}") for name in names]
    assert {m.__name__ for m in modules} >= {"qheis.quaternions", "qheis.extremals"}
    for name in RETIRED:
        assert not hasattr(qheis, name)
        for module in modules:
            assert name not in getattr(module, "__all__", ()), (module.__name__, name)
