"""The package's argument rules and its reducer, and that they have one home."""

import ast
import math
from pathlib import Path

import numpy as np
import pytest

from qheis import conformal
from qheis.audit import quadratic_form_audit
from qheis.errors import AccuracyError, DomainError, _finite, _max_abs, _positive, _whole
from qheis.extremals import FamilyParams, dilate_field, pde_residual, ubar_field
from qheis.frame import commutator_audit, frame_jets, sub_laplacian
from qheis.jets import haar_jacobian_audit, power_compose

SRC = Path(__file__).resolve().parents[1] / "src" / "qheis"


@pytest.mark.parametrize("value", [0, 3, np.int64(2), np.uint8(3)])
def test_whole_takes_integers_in_range(value):
    n = _whole(value, "x", 0, 3)
    assert n == value and type(n) is int


@pytest.mark.parametrize("value", [-1, 4, True, False, 1.0, math.nan, "1", None, np.True_])
def test_whole_refuses_everything_else(value):
    with pytest.raises(ValueError, match=r"x must be an integer in 0\.\.3"):
        _whole(value, "x", 0, 3)


def test_whole_without_an_upper_end():
    assert _whole(10**12, "x", 1) == 10**12
    with pytest.raises(ValueError, match="x must be an integer >= 1"):
        _whole(0, "x", 1)


@pytest.mark.parametrize("value", [1e-300, 2, np.float64(0.5), np.int64(3)])
def test_positive_takes_finite_reals_above_zero(value):
    x = _positive(value, "x")
    assert x == value and type(x) is float


# float() of these is an OverflowError; the rules must say DomainError
_BEYOND_FLOAT = [pytest.param(10**400, id="10**400"), pytest.param(-(10**400), id="-10**400")]


@pytest.mark.parametrize(
    "value",
    [0.0, -1.0, math.nan, math.inf, True, "2", None, np.array([1.0])] + _BEYOND_FLOAT,
    ids=repr,
)
def test_positive_refuses_everything_else(value):
    with pytest.raises(DomainError, match="x must be a finite real number > 0"):
        _positive(value, "x")


@pytest.mark.parametrize("value", [0, -2.5, 1e300, np.float64(-0.5), np.int64(-3)])
def test_finite_takes_finite_reals_of_any_sign_unchanged(value):
    assert _finite(value, "x") is value


@pytest.mark.parametrize(
    "value",
    [math.nan, math.inf, -math.inf, True, "2", None, np.array([1.0])] + _BEYOND_FLOAT,
    ids=repr,
)
def test_finite_refuses_everything_else(value):
    with pytest.raises(DomainError, match="x must be a finite real number, got "):
        _finite(value, "x")


@pytest.mark.parametrize("value", _BEYOND_FLOAT)
@pytest.mark.parametrize(
    "build",
    [
        lambda v: dilate_field(ubar_field(), v),
        lambda v: FamilyParams(nu=v),
        lambda v: power_compose(ubar_field(), 2.0, v)(np.zeros(7)),
    ],
    ids=["dilate_field", "FamilyParams", "power_compose"],
)
def test_entry_points_refuse_integers_beyond_the_float_range(build, value):
    with pytest.raises(DomainError):
        build(value)


_RULE_NAMES = {"operator": {"index"}, "numbers": {"Real", "Integral"}}


def _rule_uses(tree: ast.AST) -> list[str]:
    """Every use of operator.index or numbers.Real/Integral in a module.

    `import operator as op; op.index` counts; `from operator import
    itemgetter` does not.
    """
    aliases = {}  # the name a module is bound to -> the module
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name in _RULE_NAMES:
                    aliases[alias.asname or alias.name] = alias.name
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            module = aliases.get(node.value.id)
            if module and node.attr in _RULE_NAMES[module]:
                found.append(f"{module}.{node.attr}")
        elif isinstance(node, ast.ImportFrom) and node.module in _RULE_NAMES:
            found += [
                f"{node.module}.{alias.name}"
                for alias in node.names
                if alias.name in _RULE_NAMES[node.module]
            ]
    return found


@pytest.mark.parametrize(
    "source, found",
    [
        ("import operator as op\nop.index(1)", ["operator.index"]),
        ("from numbers import Integral as I", ["numbers.Integral"]),
        ("import numbers\nisinstance(1, numbers.Real)", ["numbers.Real"]),
        ("from operator import itemgetter\nimport numbers\nnumbers.Number", []),
    ],
)
def test_rule_uses_sees_aliases_and_only_the_rule_names(source, found):
    assert _rule_uses(ast.parse(source)) == found


def test_the_argument_rules_have_one_home():
    # a hand-written copy of a rule drifts from the others: write it once
    modules = sorted(SRC.glob("*.py"))
    assert len(modules) > 5
    uses = {
        path.name: _rule_uses(ast.parse(path.read_text()))
        for path in modules
        if path.name != "errors.py"
    }
    assert {name: found for name, found in uses.items() if found} == {}
    assert _rule_uses(ast.parse((SRC / "errors.py").read_text()))


def test_accuracy_error_carries_its_table_from_construction():
    assert AccuracyError("m").table == ()
    rows = ((3, 1.0, 0.5, 100),)
    exc = AccuracyError("m", value=1.0, error=0.5, table=rows)
    assert (exc.value, exc.error, exc.table) == (1.0, 0.5, rows)


@pytest.mark.parametrize("parts", [(), (np.zeros(0),), (1.0, np.zeros((0, 4)))],
                         ids=["no part", "empty part", "one empty part"])
def test_max_abs_refuses_an_empty_batch(parts):
    with pytest.raises(ValueError, match="empty batch"):
        _max_abs(*parts)


def _empty_jet():
    return frame_jets(ubar_field(), np.zeros((0, 7)))


# Each takes a worst case over the batch; numpy's "zero-size array to
# reduction operation" leaked from the first four.
_WORST_CASES = {
    "sym_part": lambda: conformal.sym_part(_empty_jet()),
    "torsion_T0_deformed": lambda: conformal.torsion_T0_deformed(_empty_jet()),
    "U_deformed": lambda: conformal.U_deformed(_empty_jet()),
    "divergence_identity_casimir": lambda: conformal.divergence_identity_casimir(_empty_jet()),
    "quadratic_form_audit": lambda: quadratic_form_audit(np.zeros((0, 6, 4))),
    "commutator_audit": lambda: commutator_audit(np.zeros((0, 7))),
    "haar_jacobian_audit": lambda: haar_jacobian_audit(np.zeros((0, 7))),
}


@pytest.mark.parametrize("call", list(_WORST_CASES.values()), ids=list(_WORST_CASES))
def test_worst_cases_refuse_an_empty_batch(call):
    with pytest.raises(ValueError, match="empty batch"):
        call()


# Pointwise formulas have a value for no point: an empty array of their shape.
_POINTWISE = {
    "frame_jets": (lambda fj: fj.hess, (0, 4, 4)),
    "sub_laplacian": (sub_laplacian, (0,)),
    "pde_residual": (pde_residual, (0,)),
    "scal_deformed": (conformal.scal_deformed, (0,)),
    "vector_D": (conformal.vector_D, (3, 0, 4)),
    "yamabe_residual_sphere_norm": (conformal.yamabe_residual_sphere_norm, (0,)),
    "divergence_identity_residual": (conformal.divergence_identity_residual, (0, 4)),
    "divergence_total_closed_form": (conformal.divergence_total_closed_form, (0, 4)),
}


@pytest.mark.parametrize("formula, shape", list(_POINTWISE.values()), ids=list(_POINTWISE))
def test_pointwise_formulas_return_empty_arrays(formula, shape):
    assert formula(_empty_jet()).shape == shape


def test_the_reducer_has_one_home():
    # a hand-written worst case forgets the NaN and empty-batch rules
    for path in sorted(SRC.glob("*.py")):
        text = path.read_text()
        assert ("def _max_abs" in text) == (path.name == "errors.py"), path.name
        if path.name in ("frame.py", "conformal.py", "quaternions.py"):
            assert "np.max(np.abs(" not in text, path.name
