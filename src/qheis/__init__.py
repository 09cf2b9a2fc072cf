"""Analysis toolkit for the 7-dimensional quaternionic Heisenberg group.

The package evaluates the left-invariant frame and its sub-Riemannian
operators with exact forward-mode jets, certifies the entire solutions
of the group's Yamabe-type equation and the conformal factors with
vanishing deformed torsion, computes the sharp-embedding integrals by
reduced quadrature with a Monte Carlo cross-check, and audits the
divergence-identity coupling matrix.  `qheis.cli` exposes the same
checks as a command-line tool.
"""

from .quaternions import (
    GroupPoint,
    Quaternion,
    as_point,
    dilation,
    group_inv,
    group_mul,
    quat_conj,
    quat_inv,
    quat_mul,
)
from .jets import (
    AffineMap,
    ScalarField,
    affine_pullback,
    autodiff_lift,
    constant_field,
    power_compose,
)
from .frame import FrameJet, commutator_audit, frame_jets, sub_laplacian
from .conformal import (
    casimir_project,
    scal_deformed,
    sym_part,
    torsion_T0_deformed,
    U_deformed,
)
from .extremals import (
    FamilyParams,
    SpherePoint,
    cayley_forward,
    cayley_inverse,
    dilate_field,
    h_family,
    kelvin,
    pde_residual,
    sigma,
    translate_field,
    ubar_field,
    v_field,
)
from .quadrature import (
    GAUGE_INTEGRAL_CLOSED_FORM,
    BiRadialIntegrand,
    best_constant_report,
    fs_quotient,
    integrate_biradial,
    integrate_field,
    integrate_mc,
    minimize_quotient,
    spin_rotation_map,
)
from .audit import (
    QMATRIX,
    Q_SPECTRUM,
    Report,
    SuiteConfig,
    q_spectrum,
    quadratic_form_audit,
    run_suite,
)
from .errors import AccuracyError, ConsistencyError, DomainError

__version__ = "0.1.0"
