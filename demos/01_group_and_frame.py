"""Tour of the group structure and the left-invariant frame.

The underlying space is R^7 with coordinates (t1, x1, y1, z1, x, y, z):
a quaternion q and an imaginary quaternion w.  The product twists the
w-slot by the imaginary part of q0 * conj(q), dilations scale q once
and w twice, and Lebesgue measure is bi-invariant Haar measure.

Run:  python demos/01_group_and_frame.py
"""

import numpy as np

from qheis import (
    commutator_audit,
    dilation,
    frame_jets,
    group_inv,
    group_mul,
    sub_laplacian,
    ubar_field,
)
from qheis.frame import frame_rows
from qheis.jets import haar_jacobian_audit

rng = np.random.default_rng(0)

# -- the group law ----------------------------------------------------------

g = np.array([1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0])
h = np.array([0.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0])
print("g o h           =", group_mul(g, h))
print("h o g           =", group_mul(h, g))
print("g o g^{-1}      =", group_mul(g, group_inv(g)))

# the commutator of two horizontal directions is purely vertical
comm = group_mul(group_mul(g, h), group_inv(group_mul(h, g)))
print("group commutator:", comm, " (lands in the w-slot)")

# dilations are automorphisms with homogeneous dimension 10
lam = 1.7
gh = group_mul(g, h)
print("\ndelta(g o h) - delta(g) o delta(h) =",
      np.max(np.abs(dilation(lam, gh) - group_mul(dilation(lam, g), dilation(lam, h)))))
print("Haar Jacobian audit (5 random translations):",
      haar_jacobian_audit(rng.uniform(-2, 2, (5, 7))))

# -- the frame --------------------------------------------------------------

p = np.array([0.5, -0.3, 0.2, 0.1, 0.4, -0.6, 0.7])
print("\nhorizontal frame at p (rows = fields, columns = coordinate coefficients):")
print(np.array2string(frame_rows(p)[0], precision=3, suppress_small=True))

worst = commutator_audit(rng.uniform(-2, 2, (50, 7)))
print("commutator audit, every pair at 50 random points:", f"{worst:.3e}",
      " ([X_a, X_b] = -2 sum_s omega_s(X_a, X_b) xi_s)")

# -- the sub-Laplacian on the reference bubble ------------------------------

# every frame derivative comes from one frame_jets pass; the sub-Laplacian
# is the trace of its Hessian
fj = frame_jets(ubar_field(), np.zeros(7))
print("\nsub-Laplacian of the bubble at the origin:", sub_laplacian(fj)[0])
print("equals -u(0)^{3/2} = -1024^{3/2}        :", -(1024.0**1.5))
