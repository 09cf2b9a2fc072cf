"""What singles the family out among conformal factors.

Deforming the standard structure by a positive factor h produces a
torsion tensor T^0, a trace-free tensor U, and a scalar curvature.
For members of the quadratic family c[(1+nu|q|^2)^2 + nu^2|w|^2] the
two tensors vanish identically and the curvature is the constant
384 c nu; for anything else the torsion shows up immediately.

Run:  python demos/03_conformal_tensors.py
"""

import numpy as np

from qheis import FamilyParams, frame_jets, h_family, translate_field
from qheis.conformal import (
    U_deformed,
    casimir_project,
    scal_deformed,
    torsion_T0_deformed,
)
from qheis.jets import autodiff_lift

rng = np.random.default_rng(2)
pts = rng.uniform(-2.0, 2.0, (200, 7))


def frob(t):
    return np.sqrt(np.einsum("...ab,...ab->...", t, t))


# -- the family is torsion-free ----------------------------------------------

# every tensor is read from one order-2 frame_jets pass of the factor
for c, nu in [(1.0, 1.0), (0.25, 3.0), (8.0, 0.2)]:
    fj = frame_jets(h_family(FamilyParams(c=c, nu=nu)), pts)
    t0, u = np.max(frob(torsion_T0_deformed(fj))), np.max(frob(U_deformed(fj)))
    print(f"family member c={c:<5g} nu={nu:<4g}  max |T0| = {t0:.3e}   max |U| = {u:.3e}")

moved = translate_field(h_family(FamilyParams(c=0.5, nu=2.0)), rng.uniform(-1, 1, 7))
fj = frame_jets(moved, pts)
print(f"translated member            max |T0| = {np.max(frob(torsion_T0_deformed(fj))):.3e}")

# -- and nothing else is -----------------------------------------------------

control = autodiff_lift(
    lambda t1, x1, y1, z1, x, y, z: 1.0 + (t1**2 + x1**2 + y1**2 + z1**2) ** 2,
    tag="one-plus-q4",
)
point = np.array([1.0, 0, 0, 0, 0, 0, 0])
t0 = torsion_T0_deformed(frame_jets(control, point))[0]
print(f"\ncontrol 1+|q|^4 at (1,0,...):  |T0| = {float(frob(t0)):.6f}"
      "   (exactly 2*sqrt(3))")

# -- scalar curvature of the normalized member -------------------------------

h6 = h_family(FamilyParams(c=2.0**-6, nu=1.0))
scal = scal_deformed(frame_jets(h6, pts))
print(f"\nscalar curvature of the 2^-6 member: mean {np.mean(scal):.12f}, "
      f"spread {np.max(np.abs(scal - 6.0)):.2e}  (the dimensional constant 4(Q+2)/(Q-2) = 6)")

# -- the Casimir projections used throughout ---------------------------------

m = rng.standard_normal((4, 4))
m = m + m.T
p3 = casimir_project(m, "[3]")
pm1 = casimir_project(m, "[-1]")
print("\nprojection sanity on a random symmetric matrix:")
print("  [3]-part is (tr m / 4) Id:", np.max(np.abs(p3 - np.trace(m) / 4.0 * np.eye(4))) < 1e-14)
print("  parts sum back to m      :", np.max(np.abs(p3 + pm1 - m)) < 1e-14)
print("  [-1]-part is trace-free  :", abs(np.trace(pm1)) < 1e-14)
